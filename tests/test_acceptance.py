"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v` to get a pass/fail line
per criterion. Criteria 7, 8 and 10 compare against published results
that need the real annotation release and a commonsense triplet dump;
they skip with instructions when those inputs are not present (this
sandbox has no way to download them) and run the full checks when
SP10K_DIR / CONCEPTNET_CSV point at local copies.
"""

import json
import math
import os
import random
import time
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import pytest

from selpref.cli import main as cli_main
from selpref.commonsense import (
    MatchKind,
    OMCSIndex,
    PlausibilityGroup,
    coverage_by_group,
    import_conceptnet_csv,
    relation_matrix,
)
from selpref.conllu import read_conllu
from selpref.core import Lexicon, SPPair, SPRelation
from selpref.annotate import RawRating, iaa, scale_rating_mean
from selpref.evaluation import (
    GoldSet,
    import_sp10k_directory,
    pseudo_disambiguation,
    spearman,
)
from selpref.extract import CountTable, count_conllu
from selpref.nn import NNConfig, nn_train
from selpref.scorers import DSModel, LookupModel, pp_score
from selpref.winograd import (
    Outcome,
    bundled_questions,
    resolve,
    score_accuracy,
)
from test_scorers import embedding_table

FIXTURE = Path(__file__).parent / "data" / "fixture.conllu"

SP10K_DIR = os.environ.get("SP10K_DIR")
CONCEPTNET_CSV = os.environ.get("CONCEPTNET_CSV")

NEEDS_SP10K = pytest.mark.skipif(
    not (SP10K_DIR and os.path.isdir(SP10K_DIR)),
    reason="needs the released annotation data: set SP10K_DIR to a directory "
           "of per-relation rating files (this sandbox cannot download it)",
)
NEEDS_CONCEPTNET = pytest.mark.skipif(
    not (CONCEPTNET_CSV and os.path.isfile(CONCEPTNET_CSV)),
    reason="needs a ConceptNet assertion dump filtered to OMCS: set "
           "CONCEPTNET_CSV (this sandbox cannot download it)",
)


# ---- criterion 1: extraction equals a naive recount ----

Row = namedtuple("Row", "index lemma upos head_index deprel")


def naive_recount(sentences, include_passive=False):
    """Brute-force re-derivation of all five pair types, written against
    the raw token rows rather than the library's extraction pass."""
    object_labels = {"dobj", "obj"}
    subject_labels = {"nsubj"}
    if include_passive:
        subject_labels = subject_labels | {"nsubjpass", "nsubj:pass"}
    noun_tags = {"NOUN", "PROPN"}
    out = Counter()
    for sent in sentences:
        toks = [Row(*row[:5]) for row in sent]
        by_index = {t.index: t for t in toks}
        for t in toks:
            head = by_index.get(t.head_index)
            if head is None:
                continue
            if t.upos == "ADJ" and t.deprel == "amod" and head.upos in noun_tags:
                out[SPPair(SPRelation.AMOD, head.lemma, t.lemma)] += 1
            if head.upos != "VERB" or t.upos not in noun_tags:
                continue
            if t.deprel in object_labels:
                out[SPPair(SPRelation.DOBJ, head.lemma, t.lemma)] += 1
                for a in toks:
                    if (a.head_index == t.index and a.deprel == "amod"
                            and a.upos == "ADJ"):
                        out[SPPair(SPRelation.DOBJ_AMOD, head.lemma, a.lemma)] += 1
            if t.deprel in subject_labels:
                out[SPPair(SPRelation.NSUBJ, head.lemma, t.lemma)] += 1
                for a in toks:
                    if (a.head_index == t.index and a.deprel == "amod"
                            and a.upos == "ADJ"):
                        out[SPPair(SPRelation.NSUBJ_AMOD, head.lemma, a.lemma)] += 1
    return out


def table_as_counter(table: CountTable) -> Counter:
    out = Counter()
    for rel in SPRelation:
        for head, dep, count in table.items(rel):
            out[SPPair(rel, head, dep)] = count
    return out


def count_fixture(include_passive=False):
    with FIXTURE.open(encoding="utf-8") as fh:
        return count_conllu(fh, str(FIXTURE), include_passive=include_passive)


def test_c01_extraction_matches_naive_recount_on_big_fixture():
    t0 = time.monotonic()
    with FIXTURE.open(encoding="utf-8") as fh:
        sentences = list(read_conllu(fh, str(FIXTURE)))
    assert len(sentences) >= 100
    for include_passive in (False, True):
        table = count_fixture(include_passive)
        assert table_as_counter(table) == naive_recount(
            sentences, include_passive=include_passive)
        # Counter equality ignores zero counts and empty heads: none is stored
        assert all(min(table.dependents_of(rel, head).values(), default=0) >= 1
                   for rel in SPRelation for head in table.heads(rel))
    assert time.monotonic() - t0 < 5.0


# ---- criterion 2: relative-frequency scores normalize ----

def test_c02_pp_scores_sum_to_one_and_match_worked_example():
    counts = count_fixture()
    checked = 0
    for rel in SPRelation:
        for head in counts.heads(rel):
            total = sum(
                pp_score(counts, SPPair(rel, head, d))
                for d in counts.dependents_of(rel, head)
            )
            assert abs(total - 1.0) <= 1e-9
            checked += 1
    assert checked > 0

    hand = CountTable.from_pairs(
        [SPPair(SPRelation.DOBJ, "eat", "worm")] * 2
        + [SPPair(SPRelation.DOBJ, "eat", "bread"),
           SPPair(SPRelation.DOBJ, "eat", "apple")]
    )
    assert pp_score(hand, SPPair(SPRelation.DOBJ, "eat", "worm")) == 0.5


# ---- criterion 3: similarity-weighted scores ----

def unit_vector_at(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)], dtype=np.float64)


def test_c03_ds_hand_example_bounds_and_identity():
    # attested: worm x3, bread x1; cos(worm, query)=0.8, cos(bread, query)=0.4
    counts = CountTable.from_pairs(
        [SPPair(SPRelation.DOBJ, "eat", "worm")] * 3
        + [SPPair(SPRelation.DOBJ, "eat", "bread")]
    )
    emb = embedding_table({
        "apple": unit_vector_at(0.0),
        "worm": unit_vector_at(math.acos(0.8)),
        "bread": unit_vector_at(math.acos(0.4)),
    })
    got = DSModel(counts, emb).score(SPPair(SPRelation.DOBJ, "eat", "apple"))
    assert abs(got - (3 * 0.8 + 1 * 0.4) / 4.0) <= 1e-12

    # every defined score on the corpus fixture is a valid cosine average
    fixture_counts = count_fixture()
    rng = np.random.default_rng(20260819)
    words = set()
    for rel in SPRelation:
        for head, dep, _ in fixture_counts.items(rel):
            words.add(head)
            words.add(dep)
    table = embedding_table(
        {w: rng.standard_normal(10) for w in sorted(words)}
    )
    model = DSModel(fixture_counts, table)
    scored = 0
    for rel in SPRelation:
        for head, dep, _ in fixture_counts.items(rel):
            value = model.score(SPPair(rel, head, dep))
            if value is not None:
                assert -1.0 <= value <= 1.0
                scored += 1
    assert scored > 100

    # head attested with exactly one dependent, queried with that
    # dependent: the weighted average collapses to cos(v, v)
    single = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "eat", "worm")])
    basis = embedding_table({"worm": np.array([0.0, 2.5, 0.0])})
    assert DSModel(single, basis).score(SPPair(SPRelation.DOBJ, "eat", "worm")) == 1.0


# ---- criterion 4: rank correlation ----

def closed_form_rho(x, y) -> float:
    n = len(x)
    rx = np.empty(n)
    ry = np.empty(n)
    rx[np.argsort(x)] = np.arange(1, n + 1)
    ry[np.argsort(y)] = np.arange(1, n + 1)
    d = rx - ry
    return 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))


def brute_force_average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        avg = (i + 1 + j) / 2.0
        for k in range(i, j):
            ranks[order[k]] = avg
        i = j
    return ranks


def test_c04_spearman_closed_form_and_tied_oracle():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(3, 60))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if len(np.unique(x)) < n or len(np.unique(y)) < n:
            continue
        assert abs(spearman(x, y) - closed_form_rho(x, y)) <= 1e-12

    checked = 0
    for _ in range(300):
        n = int(rng.integers(4, 25))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        rx = brute_force_average_ranks(x.tolist())
        ry = brute_force_average_ranks(y.tolist())
        oracle = float(np.corrcoef(rx, ry)[0, 1])
        assert abs(spearman(x, y) - oracle) <= 1e-12
        checked += 1
    assert checked > 100


# ---- criterion 5: the trained scorer learns a planted preference ----

def planted_corpus(n=1000, seed=101):
    rng = random.Random(seed)
    combos = [("a", "x"), ("a", "y"), ("b", "u"), ("b", "v")]
    return [SPPair(SPRelation.DOBJ, *rng.choice(combos)) for _ in range(n)]


def test_c05_nn_planted_preference_and_reproducibility():
    t0 = time.monotonic()
    corpus = planted_corpus()
    vocab = Lexicon(verbs=frozenset({"a", "b"}),
                    nouns=frozenset({"x", "y", "u", "v"}),
                    adjectives=frozenset())
    # widths sized to the six-word vocabulary; the default widths need a
    # larger step budget than this fixture grants
    cfg = NNConfig(embedding_dim=16, hidden_dim=32, epochs=10, seed=0)

    table = CountTable.from_pairs(corpus)
    untrained = nn_train(table, NNConfig(embedding_dim=16, hidden_dim=32,
                                         epochs=0, seed=0), vocab)
    acc_untrained = pseudo_disambiguation(untrained, corpus, vocab, seed=0)
    assert 0.45 <= acc_untrained <= 0.55

    model = nn_train(table, cfg, vocab)
    acc_trained = pseudo_disambiguation(model, corpus, vocab, seed=0)
    assert acc_trained >= 0.90

    # bitwise reproducibility: same seed, same scores, same bytes
    again = nn_train(CountTable.from_pairs(planted_corpus()), cfg, vocab)
    for h in ("a", "b"):
        for d in ("x", "y", "u", "v"):
            pair = SPPair(SPRelation.DOBJ, h, d)
            assert model.score(pair) == again.score(pair)
    assert time.monotonic() - t0 < 60.0


# ---- criterion 6: answered/overall accuracy arithmetic ----

def test_c06_accuracy_summary_reproduces_published_rows():
    from selpref.winograd import AccuracySummary

    rows = [
        ((33, 35, 4), 48.5, 48.6),
        ((36, 36, 0), 50.0, 50.0),
        ((36, 19, 17), 65.5, 61.8),
        ((13, 0, 59), 100.0, 59.0),
    ]
    for (c, w, na), ap_pct, ao_pct in rows:
        s = AccuracySummary(correct=c, wrong=w, na=na)
        assert abs(s.ap * 100.0 - ap_pct) < 0.1
        assert abs(s.ao * 100.0 - ao_pct) < 0.1


# ---- criteria 7 and 8: published coverage table and relation matrix ----

def load_release_gold() -> GoldSet:
    return import_sp10k_directory(SP10K_DIR)


def load_omcs_index(gold: GoldSet) -> OMCSIndex:
    opener = open
    if CONCEPTNET_CSV.endswith(".gz"):
        import gzip

        opener = lambda p: gzip.open(p, "rt", encoding="utf-8")
    with opener(CONCEPTNET_CSV) as fh:
        return OMCSIndex(import_conceptnet_csv(fh),
                         {w for p in gold.pairs() for w in (p.head, p.dependent)})


@NEEDS_SP10K
@NEEDS_CONCEPTNET
def test_c07_group_sizes_and_match_rates():
    t0 = time.monotonic()
    gold = load_release_gold()
    index = load_omcs_index(gold)
    stats = coverage_by_group(gold, index)
    order = [PlausibilityGroup.PERFECT, PlausibilityGroup.GOOD,
             PlausibilityGroup.NORMAL, PlausibilityGroup.UNUSUAL,
             PlausibilityGroup.IMPOSSIBLE]

    sizes = [stats[g].n_pairs for g in order]
    assert sizes == [755, 2600, 2809, 2396, 1440]

    expected_exact = [11.26, 2.58, 0.71, 0.25, 0.35]
    expected_partial = [38.01, 34.04, 17.94, 7.80, 5.69]
    for g, exact_pct, partial_pct in zip(order, expected_exact,
                                         expected_partial):
        assert abs(stats[g].exact_rate * 100.0 - exact_pct) <= 2.0
        assert abs(stats[g].partial_rate * 100.0 - partial_pct) <= 2.0

    partial_rates = [stats[g].partial_rate for g in order]
    assert all(a > b for a, b in zip(partial_rates, partial_rates[1:]))
    assert time.monotonic() - t0 < 300.0


@NEEDS_SP10K
@NEEDS_CONCEPTNET
def test_c08_relation_matrix_highlights():
    gold = load_release_gold()
    index = load_omcs_index(gold)
    matrix = relation_matrix(gold, index)

    def row_counts(rel):
        return {
            om: matrix.cell(MatchKind.EXACT, rel, om)
            + matrix.cell(MatchKind.PARTIAL, rel, om)
            for om in matrix.omcs_relations()
        }

    for rel, om_name in [(SPRelation.DOBJ, "UsedFor"),
                         (SPRelation.NSUBJ, "CapableOf"),
                         (SPRelation.AMOD, "HasProperty")]:
        row = row_counts(rel)
        top_two = sorted(row.values(), reverse=True)[:2]
        assert row.get(om_name, 0) in top_two, (rel.value, om_name, row)


# ---- criterion 9: rating aggregation and agreement ----

def rank_then_pearson(x, y):
    rx = brute_force_average_ranks(list(x))
    ry = brute_force_average_ranks(list(y))
    return float(np.corrcoef(rx, ry)[0, 1])


def iaa_oracle(populations):
    """populations: relation name -> {annotator -> {pair_key -> rating}}"""
    per_relation = []
    for _, by_ann in sorted(populations.items()):
        rhos = []
        for ann in sorted(by_ann):
            others = [a for a in sorted(by_ann) if a != ann]
            shared = sorted(
                k for k in by_ann[ann]
                if all(k in by_ann[o] for o in others)
            )
            mine = [by_ann[ann][k] for k in shared]
            rest = [
                sum(by_ann[o][k] for o in others) / len(others)
                for k in shared
            ]
            rhos.append(rank_then_pearson(mine, rest))
        per_relation.append(sum(rhos) / len(rhos))
    return sum(per_relation) / len(per_relation)


def test_c09_affine_endpoints_and_iaa_oracle():
    assert scale_rating_mean(1.0) == 0.0
    assert scale_rating_mean(3.0) == 5.0
    assert scale_rating_mean(5.0) == 10.0

    rng = random.Random(77)
    ratings = []
    populations = {"dobj": {}, "amod": {}}
    for rel, head in ((SPRelation.DOBJ, "eat"), (SPRelation.AMOD, "idea")):
        for ann in ("a1", "a2", "a3"):
            populations[rel.value].setdefault(ann, {})
            for i in range(12):
                value = rng.randint(1, 5)
                pair = SPPair(rel, head, f"dep{i}")
                ratings.append(RawRating(annotator_id=ann, pair=pair,
                                         rating=value))
                populations[rel.value][ann][f"dep{i}"] = value

    per_relation, overall = iaa(ratings)
    assert abs(overall - iaa_oracle(populations)) <= 1e-9
    assert set(per_relation) == {SPRelation.DOBJ, SPRelation.AMOD}

    # three identical annotators agree perfectly
    clones = []
    for ann in ("c1", "c2", "c3"):
        for i, value in enumerate([1, 2, 3, 4, 5, 2, 4]):
            clones.append(RawRating(
                annotator_id=ann,
                pair=SPPair(SPRelation.DOBJ, "eat", f"d{i}"),
                rating=value,
            ))
    _, clone_overall = iaa(clones)
    assert clone_overall == 1.0


# ---- criterion 10: resolver against released plausibility ratings ----

@NEEDS_SP10K
def test_c10_resolver_with_released_ratings():
    gold = load_release_gold()
    model = LookupModel({pair: value for pair, value in gold.items()})
    questions = bundled_questions()
    predictions = [resolve(q, model) for q in questions]

    deviations = []
    for q, p in zip(questions, predictions):
        if p.outcome is Outcome.WRONG:
            deviations.append(
                f"question {q.id}: predicted {p.predicted} "
                f"(subject={p.subject_score}, object={p.object_score}) "
                f"gold={q.gold} [{q.note or 'no note'}]"
            )
    # answered questions must never contradict the ratings
    assert not deviations, "\n".join(deviations)

    s = score_accuracy(predictions)
    assert abs(s.correct - 13) <= 2
    assert abs(s.wrong - 0) <= 2
    assert abs(s.na - 59) <= 2


# ---- criterion 11: pseudo-disambiguation can invert the gold ranking ----

def test_c11_pseudo_disambiguation_ranking_disagrees_with_correlation():
    rel = SPRelation.DOBJ
    positives = [SPPair(rel, "eat", d) for d in ("worm", "bread", "stone")]
    gold = GoldSet([
        (positives[0], 9.0),
        (positives[1], 7.0),
        (positives[2], 1.0),
    ])
    vocab = Lexicon(
        verbs=frozenset({"eat"}),
        nouns=frozenset({"worm", "bread", "stone", "pebble", "cloud"}),
        adjectives=frozenset(),
    )

    # detector: separates attested from confounders perfectly, but orders
    # the attested pairs against the gold ranking
    detector = LookupModel({
        positives[0]: 8.0,
        positives[1]: 9.0,
        positives[2]: 10.0,
        SPPair(rel, "eat", "pebble"): 0.0,
        SPPair(rel, "eat", "cloud"): 0.0,
    })
    # grader: ranks the attested pairs exactly like gold, knows nothing
    # about confounders
    grader = LookupModel({
        positives[0]: 3.0,
        positives[1]: 2.0,
        positives[2]: 1.0,
    })

    acc_detector = pseudo_disambiguation(detector, positives, vocab, seed=0)
    acc_grader = pseudo_disambiguation(grader, positives, vocab, seed=0)
    assert acc_detector > acc_grader

    gold_values = [gold.value(p) for p in positives]
    rho_detector = spearman([detector.score(p) for p in positives], gold_values)
    rho_grader = spearman([grader.score(p) for p in positives], gold_values)
    assert rho_grader > rho_detector
    assert rho_grader == 1.0 and rho_detector < 0.0


# ---- criterion 12: seeded runs leave identical bytes behind ----

def strip_generated_at(data: bytes) -> bytes:
    return b"\n".join(
        line for line in data.split(b"\n") if b"generated_at" not in line
    )


def test_c12_seeded_subcommands_are_byte_identical(tmp_path):
    corpus = tmp_path / "corpus.conllu"
    corpus.write_text(
        "1\tThe\tthe\tDET\tDT\t_\t3\tdet\t_\t_\n"
        "2\thungry\thungry\tADJ\tJJ\t_\t3\tamod\t_\t_\n"
        "3\tfish\tfish\tNOUN\tNN\t_\t4\tnsubj\t_\t_\n"
        "4\tate\teat\tVERB\tVBD\t_\t0\troot\t_\t_\n"
        "5\tthe\tthe\tDET\tDT\t_\t7\tdet\t_\t_\n"
        "6\ttasty\ttasty\tADJ\tJJ\t_\t7\tamod\t_\t_\n"
        "7\tworm\tworm\tNOUN\tNN\t_\t4\tobj\t_\t_\n",
        encoding="utf-8",
    )
    counts = tmp_path / "counts.tsv"
    assert cli_main(["extract", "--in", str(corpus), "--out", str(counts)]) == 0

    lexicon = tmp_path / "lexicon.tsv"
    rows = [("eat", "verb")]
    rows += [(n, "noun") for n in
             ["fish", "worm", "bird", "cat", "dog", "bread"]]
    rows += [(a, "adj") for a in ["hungry", "tasty", "red"]]
    lexicon.write_text("".join(f"{w}\t{p}\n" for w, p in rows),
                       encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("dobj\teat\tworm\n", encoding="utf-8")
    survey_pairs = tmp_path / "survey_pairs.tsv"
    survey_pairs.write_text(
        "".join(f"dobj\tverb{i}\tnoun{i}\n" for i in range(100)),
        encoding="utf-8",
    )
    checkpoints = tmp_path / "cp.tsv"
    checkpoints.write_text(
        "dobj\teat\tmeal\t4|5\ndobj\teat\tsky\t1|2\ndobj\tdrink\twater\t4|5\n",
        encoding="utf-8",
    )

    runs = {
        "candidates": (["candidates", "--counts", str(counts), "--lexicon",
                        str(lexicon), "--relation", "dobj", "--seed", "7",
                        "--out"], "cand.tsv"),
        "train-nn": (["train-nn", "--counts", str(counts), "--lexicon",
                      str(lexicon), "--seed", "3", "--embedding-dim", "4",
                      "--hidden-dim", "6", "--epochs", "1", "--out"],
                     "model.npz"),
        "pseudo": (["pseudo", "--backend", "pp", "--counts", str(counts),
                    "--pairs", str(pairs), "--lexicon", str(lexicon),
                    "--seed", "5", "--out"], "pseudo.json"),
        "survey": (["survey", "--pairs", str(survey_pairs), "--checkpoints",
                    str(checkpoints), "--seed", "9", "--out"], "survey.json"),
    }
    for name, (argv, out_name) in runs.items():
        out = tmp_path / out_name
        blobs = []
        for _ in range(2):
            assert cli_main(argv + [str(out)]) == 0, name
            blobs.append(out.read_bytes())
        assert strip_generated_at(blobs[0]) == strip_generated_at(blobs[1]), name
        # the timestamp is the only thing allowed to differ, and only
        # inside JSON metadata
        if not out_name.endswith(".json"):
            assert blobs[0] == blobs[1], name
