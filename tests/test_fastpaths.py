"""The fast paths checked against the slow references they replaced.

The references below are the earlier implementations, kept verbatim as
test-only code: a count table with one flat ``(head, dependent)`` counter
per relation plus parallel marginal and total counters, the counts reader
that built an ``SPPair`` per row, the scalar ``ds`` loop, the
pseudo-disambiguation loop that re-sorted the pool for every test pair,
the CoNLL-U pipeline that built a ``Token`` per line, a ``Sentence``
per sentence and an ``SPPair`` per extracted pair, the OMCS index that
lemmatized every token occurrence, with its reader, the NN trainer that
passed gradient dicts to an ``apply`` step, the prediction, survey and
gold-set records that stored derived fields beside the facts they derive
from, and the pair-list, gold, score and checkpoint readers that located
their own row faults, with the writers that wrote their own header and
``#config`` line, and the leave-one-out agreement that walked every other
annotator for each pair.
Counts must match exactly; ``ds`` within 1e-12 (the mat-vec sums in
another order), with the same None / ZeroVectorError outcomes; CoNLL-U
counting with the same error text and the same warnings in order; OMCS
index tables, witnesses and matrices exactly, the reader's triplets and
error text exactly; NN models byte for byte, with the same epoch losses;
predictions, surveys and gold sets exactly, in order, with the same error
text; the readers' results in order or the same error type and text; the
written artifacts byte for byte; leave-one-out rhos exactly, or the same
error text.
"""

import io
import json
import logging
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from selpref.annotate import (
    CHECKPOINTS_PER_SURVEY,
    PAIRS_PER_SURVEY,
    RATING_MAX,
    RATING_MIN,
    RATING_OPTIONS,
    AnnotationError,
    InsufficientOverlapError,
    MixedRelationError,
    _leave_one_out,
    generate_survey,
    parse_rating_set,
    read_checkpoints,
    render_question,
    scale_rating_mean,
)
from selpref.cli import _config, _open_echoed, _open_out, _resolve, build_parser
from selpref.commonsense import (
    GroupStats,
    MatchKind,
    OMCSFormatError,
    OMCSIndex,
    OMCSTriplet,
    PlausibilityGroup,
    RelationMatrix,
    classify_plausibility,
    coverage_by_group,
    match_pair,
    read_omcs,
    relation_matrix,
)
from selpref.conllu import CorpusFormatError, read_conllu, read_conllu_file
from selpref.core import (
    BadLemmaError,
    Lexicon,
    SelPrefError,
    SPPair,
    SPRelation,
    _clip,
    _rows,
    check_plausibility,
    parse_relation,
)
from selpref.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    ZeroVectorError,
    cosine,
    load_embeddings,
)
from selpref.evaluation import (
    GOLD_HEADER,
    ConstantInputError,
    DuplicatePairError,
    GoldFormatError,
    GoldSet,
    _value,
    load_gold,
    load_scores_file,
    pseudo_disambiguation,
    spearman,
    write_gold,
)
from selpref.extract import (
    CANDIDATES_HEADER,
    COUNTS_HEADER,
    NOUN_UPOS,
    OBJECT_DEPRELS,
    PASSIVE_SUBJECT_DEPRELS,
    SUBJECT_DEPRELS,
    Candidate,
    CountTable,
    CountTableError,
    build_counts,
    count_conllu,
    extract_pairs,
    read_counts,
    read_pairs,
    write_candidates,
    write_counts,
)
from selpref.lemmatize import lemmatize
from selpref.nn import NegativePoolError, NNConfig, NNError, NNModel, VocabCoverageError, nn_train
from selpref.scorers import DSModel, LookupModel, PPModel, ds_score
from selpref.winograd import (
    OBJECT,
    SUBJECT,
    Mention,
    Outcome,
    WinogradError,
    WinogradQuestion,
    resolve,
)

FIXTURE = Path(__file__).parent / "data" / "fixture.conllu"
RELATIONS = list(SPRelation)


class FlatCountTable:
    def __init__(self):
        self._pairs = {r: Counter() for r in SPRelation}
        self._marginals = {r: Counter() for r in SPRelation}
        self._totals = Counter()

    def _add(self, pair, count=1):
        if count < 1:
            raise CountTableError(f"count must be >= 1, got {count}")
        self._pairs[pair.relation][(pair.head, pair.dependent)] += count
        self._marginals[pair.relation][pair.head] += count
        self._totals[pair.relation] += count

    @classmethod
    def from_pairs(cls, pairs):
        table = cls()
        for pair in pairs:
            table._add(pair)
        return table

    def count(self, relation, head, dependent):
        return self._pairs[relation][(head, dependent)]

    def marginal(self, relation, head):
        return self._marginals[relation][head]

    def total(self, relation):
        return self._totals[relation]

    def unique_pairs(self, relation):
        return len(self._pairs[relation])

    def dependents_of(self, relation, head):
        return {
            d: c for (h, d), c in self._pairs[relation].items() if h == head
        }

    def heads(self, relation):
        return list(self._marginals[relation])

    def items(self, relation):
        for (head, dep), count in self._pairs[relation].items():
            yield head, dep, count

    def merge(self, other):
        out = FlatCountTable()
        for table in (self, other):
            for rel in SPRelation:
                out._pairs[rel].update(table._pairs[rel])
                out._marginals[rel].update(table._marginals[rel])
            out._totals.update(table._totals)
        return out


def flat_read_counts(fh, source="<stream>"):
    table = FlatCountTable()
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CountTableError(f"{source}:{lineno}: expected 4 columns, got {len(fields)}")
        rel_name, head, dep, count_text = fields
        try:
            count = int(count_text)
        except ValueError:
            raise CountTableError(f"{source}:{lineno}: bad count {count_text!r}") from None
        if count < 1:
            raise CountTableError(f"{source}:{lineno}: count must be >= 1, got {count}")
        table._add(SPPair(parse_relation(rel_name), head, dep), count)
    return table


def scalar_ds_score(counts, emb, pair):
    target = emb.get(pair.dependent)
    if target is None:
        return None
    attested = counts.dependents_of(pair.relation, pair.head)
    if not attested:
        return None
    num = 0.0
    z = 0.0
    for dep, weight in attested.items():
        vec = emb.get(dep)
        if vec is None:
            continue
        num += weight * cosine(target, vec)
        z += weight
    if z == 0.0:
        return None
    return num / z


def scalar_pseudo_disambiguation(model, test_pairs, vocab, seed=0):
    positives = set(test_pairs)
    rng = random.Random(seed)
    total = 0.0
    for pair in test_pairs:
        pool = sorted(vocab.dependents_for(pair.relation))
        usable = [
            d for d in pool
            if SPPair(pair.relation, pair.head, d) not in positives
        ]
        confounder = rng.choice(usable)
        pos = model.score(pair)
        neg = model.score(SPPair(pair.relation, pair.head, confounder))
        if pos is None or neg is None or pos == neg:
            total += 0.5
        elif pos > neg:
            total += 1.0
    return total / len(test_pairs)


def random_pairs(rng, n, heads=6, deps=12, relations=RELATIONS):
    return [
        SPPair(rng.choice(relations), f"h{rng.randrange(heads)}",
               f"d{rng.randrange(deps)}")
        for _ in range(n)
    ]


def assert_same_table(new, old, ordered_items=False):
    for rel in SPRelation:
        assert new.total(rel) == old.total(rel)
        assert new.unique_pairs(rel) == old.unique_pairs(rel)
        assert new.heads(rel) == old.heads(rel)
        new_items, old_items = list(new.items(rel)), list(old.items(rel))
        if ordered_items:
            assert new_items == old_items
        else:
            assert sorted(new_items) == sorted(old_items)
        for head in old.heads(rel) + ["never-seen"]:
            assert new.marginal(rel, head) == old.marginal(rel, head)
            # same dependents, counts and first-seen order
            assert list(new.dependents_of(rel, head).items()) == list(
                old.dependents_of(rel, head).items())
        for head, dep, _ in old_items:
            assert new.count(rel, head, dep) == old.count(rel, head, dep)
        assert new.count(rel, "never-seen", "d0") == 0


class TestCountTable:
    def test_accessors_match_flat_reference(self):
        rng = random.Random(101)
        for trial in range(60):
            pairs = random_pairs(rng, rng.randrange(0, 120))
            new = CountTable.from_pairs(pairs)
            assert_same_table(new, FlatCountTable.from_pairs(pairs))
            new.validate()

    def test_merge_matches_flat_reference(self):
        rng = random.Random(202)
        for trial in range(40):
            a = random_pairs(rng, rng.randrange(0, 80))
            b = random_pairs(rng, rng.randrange(0, 80), heads=9)
            merged = CountTable.from_pairs(a).merge(CountTable.from_pairs(b))
            ref = FlatCountTable.from_pairs(a).merge(FlatCountTable.from_pairs(b))
            assert_same_table(merged, ref)
            assert_same_table(merged, FlatCountTable.from_pairs(a + b))
            merged.validate()

    def test_dependents_of_is_a_read_only_view(self):
        table = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "eat", "fish")])
        with pytest.raises(TypeError):
            table.dependents_of(SPRelation.DOBJ, "eat")["rock"] = 1
        with pytest.raises(TypeError):
            table.dependents_of(SPRelation.DOBJ, "drink")["rock"] = 1
        assert table.heads(SPRelation.DOBJ) == ["eat"]

    def test_validate_rejects_what_the_store_can_still_break(self):
        table = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "eat", "fish")])
        table._heads[SPRelation.DOBJ]["eat"]["fish"] = 0
        with pytest.raises(CountTableError):
            table.validate()
        table._heads[SPRelation.DOBJ]["eat"] = Counter()
        with pytest.raises(CountTableError):
            table.validate()


class TestReadCounts:
    def roundtrip(self, table):
        buf = io.StringIO()
        write_counts(table, buf)
        return buf.getvalue()

    def test_fixture_table_matches_reference_in_order(self):
        text = self.roundtrip(build_counts(read_conllu_file(FIXTURE)))
        new = read_counts(io.StringIO(text))
        old = flat_read_counts(io.StringIO(text))
        # the order items() yields is what train-nn sees
        assert_same_table(new, old, ordered_items=True)
        assert self.roundtrip(new) == text

    def test_random_written_tables_match_reference_in_order(self):
        rng = random.Random(303)
        for trial in range(30):
            text = self.roundtrip(CountTable.from_pairs(random_pairs(rng, 150)))
            assert_same_table(read_counts(io.StringIO(text)),
                              flat_read_counts(io.StringIO(text)),
                              ordered_items=True)

    def test_unsorted_mixed_case_rows_match_reference(self):
        rng = random.Random(404)
        names = ["dobj", "DOBJ", " nsubj", "Amod ", "dobj_amod", "nsubj_amod"]
        for trial in range(30):
            rows = ["#sp-counts v1", ""]
            for _ in range(rng.randrange(1, 60)):
                head = rng.choice(["eat", "EAT", "Drink", "see"])
                dep = rng.choice(["fish", "Fish", "worm", "STONE"])
                rows.append(f"{rng.choice(names)}\t{head}\t{dep}\t{rng.randint(1, 9)}")
            text = "\n".join(rows) + "\n"
            assert_same_table(read_counts(io.StringIO(text)),
                              flat_read_counts(io.StringIO(text)))

    @pytest.mark.parametrize("row", [
        "dobj\teat\tfish",
        "dobj\teat\tfish\t1\textra",
        "dobj\teat\tfish\tmany",
        "dobj\teat\tfish\t0",
        "dobj\teat\tfish\t-3",
        "bogus\teat\tfish\t1",
        "dobj\t\tfish\t1",
        "dobj\teat\t\t1",
        "dobj\t  \tfish\t1",
        "dobj\teat\t \t1",
        "dobj\te\rat\tfish\t1",
        "dobj\teat\tfi\rsh\t1",
    ])
    def test_bad_row_fails_like_reference_with_coordinates(self, row):
        text = f"#sp-counts v1\ndobj\teat\tworm\t2\n{row}\n"
        with pytest.raises(SelPrefError) as old:
            flat_read_counts(io.StringIO(text), source="t.tsv")
        with pytest.raises(CountTableError) as new:
            read_counts(io.StringIO(text), source="t.tsv")
        message = str(old.value)
        if not message.startswith("t.tsv:3: "):
            message = "t.tsv:3: " + message
        assert str(new.value) == message


def random_embeddings(rng, words, dim, with_zero):
    vectors = {}
    for w in words:
        roll = rng.random()
        if roll < 0.2:
            continue  # no vector
        if roll < 0.35:
            # small integer components: parallel and tied vectors
            vec = np.array([rng.choice([-2, -1, 0, 1, 2]) for _ in range(dim)], dtype=float)
            if not vec.any():
                vec[0] = 1.0
        else:
            vec = np.array([rng.gauss(0, 1) for _ in range(dim)])
        vectors[w] = vec
    if with_zero:
        vectors[rng.choice(words)] = np.zeros(dim)
    if not vectors:
        vectors[words[0]] = np.ones(dim)
    return EmbeddingTable(vectors)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroVectorError:
        return ZeroVectorError


class TestDS:
    def test_matches_scalar_reference(self):
        rng = random.Random(505)
        words = [f"d{i}" for i in range(14)]
        checked = {"value": 0, "none": 0, "zero": 0}
        for trial in range(150):
            emb = random_embeddings(rng, words, rng.randint(1, 6),
                                    with_zero=trial % 3 == 0)
            pairs = []
            for h in range(rng.randint(1, 5)):
                degree = rng.choice([1, 1, 2, 4, 9])  # single-dependent heads too
                for dep in rng.sample(words, degree):
                    # few distinct weights, so ties are common
                    pairs += [SPPair(SPRelation.DOBJ, f"h{h}", dep)] * rng.choice([1, 1, 3])
            table = CountTable.from_pairs(pairs)
            flat = FlatCountTable.from_pairs(pairs)
            for head in [f"h{h}" for h in range(6)]:  # h5 is never seen
                for dep in words + ["no-vector"]:
                    pair = SPPair(SPRelation.DOBJ, head, dep)
                    want = outcome(scalar_ds_score, flat, emb, pair)
                    got = outcome(ds_score, table, emb, pair)
                    if want is None or want is ZeroVectorError:
                        assert got is want, (trial, pair)
                        checked["none" if want is None else "zero"] += 1
                    else:
                        assert isinstance(got, float)
                        assert abs(got - want) <= 1e-12, (trial, pair, got, want)
                        checked["value"] += 1
        assert min(checked.values()) > 100, checked

    def test_unseen_head_with_zero_norm_target_is_missing(self):
        emb = EmbeddingTable({"zero": np.zeros(2), "fish": np.ones(2)})
        table = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "eat", "fish")])
        pair = SPPair(SPRelation.DOBJ, "drink", "zero")
        assert scalar_ds_score(table, emb, pair) is None
        assert ds_score(table, emb, pair) is None

    def test_zero_norm_target_raises_only_with_an_embedded_attested(self):
        emb = EmbeddingTable({"zero": np.zeros(2), "fish": np.ones(2)})
        table = CountTable.from_pairs([
            SPPair(SPRelation.DOBJ, "eat", "fish"),
            SPPair(SPRelation.DOBJ, "drink", "no-vector"),
        ])
        with pytest.raises(ZeroVectorError):
            ds_score(table, emb, SPPair(SPRelation.DOBJ, "eat", "zero"))
        assert ds_score(table, emb, SPPair(SPRelation.DOBJ, "drink", "zero")) is None

    def test_embedding_rows_are_the_given_vectors(self):
        rng = np.random.default_rng(7)
        vectors = {f"w{i}": rng.normal(size=5) for i in range(20)}
        emb = EmbeddingTable(vectors)
        for w, v in vectors.items():
            assert np.array_equal(emb.get(w), v)
            assert emb.norms[emb.index[w]] == pytest.approx(np.linalg.norm(v), rel=1e-15)
        assert emb.get("absent") is None
        with pytest.raises(ValueError):
            emb.get("w0")[0] = 1.0


    def test_loaded_matrix_matches_per_word_vectors(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2 3\nb 0 0 0\na 9 9 9\nc -1.5 2e-3 4\n")
        emb = load_embeddings(path)
        ref = EmbeddingTable({"a": np.array([1.0, 2, 3]), "b": np.zeros(3),
                              "c": np.array([-1.5, 2e-3, 4])})
        assert emb.index == ref.index
        assert np.array_equal(emb.matrix, ref.matrix)
        assert np.allclose(emb.norms, [np.linalg.norm(v) for v in ref.matrix],
                           rtol=1e-15, atol=0)

    def test_non_finite_component_names_the_word(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 1 inf\n")
        with pytest.raises(EmbeddingError, match="'b'"):
            load_embeddings(path)
        with pytest.raises(EmbeddingError, match="'c'"):
            EmbeddingTable({"a": np.ones(2), "c": np.array([np.nan, 1.0])})


class TestPseudoDisambiguation:
    def test_matches_reference_loop(self):
        rng = random.Random(606)
        nouns = [f"n{i}" for i in range(25)]
        adjs = [f"a{i}" for i in range(15)]
        vocab = Lexicon(verbs=frozenset(f"v{i}" for i in range(6)),
                        nouns=frozenset(nouns), adjectives=frozenset(adjs))
        rels = [SPRelation.DOBJ, SPRelation.NSUBJ, SPRelation.DOBJ_AMOD]
        for trial in range(6):
            train = [SPPair(r, f"v{rng.randrange(6)}",
                            rng.choice(adjs if r is SPRelation.DOBJ_AMOD else nouns))
                     for r in rng.choices(rels, k=300)]
            table = CountTable.from_pairs(train)
            emb = EmbeddingTable({w: np.array([rng.gauss(0, 1) for _ in range(4)])
                                  for w in nouns + adjs if rng.random() < 0.8})
            lookup = LookupModel({p: float(rng.randint(0, 3)) for p in set(train)})
            tests = list(dict.fromkeys(train))[:40]
            for model in (PPModel(table), DSModel(table, emb), lookup):
                for seed in range(4):
                    assert pseudo_disambiguation(model, tests, vocab, seed=seed) == \
                        scalar_pseudo_disambiguation(model, tests, vocab, seed=seed)


# The CoNLL-U pipeline that count_conllu replaced, verbatim but for names.

old_log = logging.getLogger("reference.conllu")

N_COLUMNS = 10


@dataclass(frozen=True)
class OldToken:
    index: int          # 1-based position within the sentence
    lemma: str
    upos: str
    head_index: int     # 0 = root
    deprel: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"token index must be >= 1, got {self.index}")
        if self.head_index < 0:
            raise ValueError(f"head index must be >= 0, got {self.head_index}")
        if self.head_index == self.index:
            raise ValueError(f"token {self.index} is its own head")


class OldSentence:
    """An ordered, contiguously indexed token list."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        for pos, tok in enumerate(self.tokens, 1):
            if tok.index != pos:
                raise ValueError(f"token indices not contiguous at position {pos}")
            if tok.head_index > len(self.tokens):
                raise ValueError(
                    f"token {tok.index} points at head {tok.head_index} beyond sentence end"
                )

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def token_at(self, index):
        return self.tokens[index - 1]


def old_parse_token_line(line, source, lineno):
    fields = line.split("\t")
    if len(fields) != N_COLUMNS:
        raise CorpusFormatError(
            source, lineno, f"expected {N_COLUMNS} tab-separated columns, got {len(fields)}"
        )
    tok_id = fields[0]
    if "-" in tok_id or "." in tok_id:
        return None  # multiword-token range or empty node
    try:
        index = int(tok_id)
    except ValueError:
        raise CorpusFormatError(source, lineno, f"bad token id {tok_id!r}") from None
    try:
        head = int(fields[6])
    except ValueError:
        raise CorpusFormatError(source, lineno, f"bad head index {fields[6]!r}") from None
    try:
        return OldToken(index=index, lemma=fields[2], upos=fields[3], head_index=head,
                        deprel=fields[7])
    except ValueError as exc:
        raise CorpusFormatError(source, lineno, str(exc)) from None


def old_read_conllu(fh, source="<stream>", skip_malformed=False):
    tokens = []
    start_line = 1
    bad = False

    def flush():
        nonlocal tokens, bad
        out = None
        if tokens and not bad:
            try:
                out = OldSentence(tokens)
            except ValueError as exc:
                if not skip_malformed:
                    raise CorpusFormatError(source, start_line, str(exc)) from None
                old_log.warning("%s:%d: skipping sentence: %s", source, start_line, exc)
        tokens = []
        bad = False
        return out

    lineno = 0
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            sent = flush()
            start_line = lineno + 1
            if sent is not None:
                yield sent
            continue
        if line.startswith("#"):
            continue
        try:
            tok = old_parse_token_line(line, source, lineno)
        except CorpusFormatError as exc:
            if not skip_malformed:
                raise
            old_log.warning("skipping sentence with malformed line: %s", exc)
            bad = True
            continue
        if tok is not None:
            tokens.append(tok)
    sent = flush()
    if sent is not None:
        yield sent


def old_extract_pairs(sentence, include_passive=False):
    pairs = []
    # amod children per noun index, in token order
    amods = defaultdict(list)
    for tok in sentence:
        if tok.deprel == "amod" and tok.upos == "ADJ" and tok.head_index > 0:
            noun = sentence.token_at(tok.head_index)
            if noun.upos in NOUN_UPOS:
                amods[noun.index].append(tok.lemma)

    subject_deprels = SUBJECT_DEPRELS | (PASSIVE_SUBJECT_DEPRELS if include_passive else set())
    for tok in sentence:
        if tok.head_index == 0 or tok.upos not in NOUN_UPOS:
            continue
        head = sentence.token_at(tok.head_index)
        if head.upos != "VERB":
            continue
        if tok.deprel in OBJECT_DEPRELS:
            one_hop, two_hop = SPRelation.DOBJ, SPRelation.DOBJ_AMOD
        elif tok.deprel in subject_deprels:
            one_hop, two_hop = SPRelation.NSUBJ, SPRelation.NSUBJ_AMOD
        else:
            continue
        pairs.append(SPPair(one_hop, head.lemma, tok.lemma))
        for adj in amods[tok.index]:
            pairs.append(SPPair(two_hop, head.lemma, adj))

    for noun_index, adjs in sorted(amods.items()):
        noun = sentence.token_at(noun_index)
        for adj in adjs:
            pairs.append(SPPair(SPRelation.AMOD, noun.lemma, adj))
    return pairs


def old_build_counts(corpus, include_passive=False):
    table = CountTable()
    for sentence in corpus:
        for pair in old_extract_pairs(sentence, include_passive=include_passive):
            table._add(pair)
    return table


# Random corpora.  Token 1 of every sentence carries the sentence's marker
# lemma, so a sentence the old reader yields can be matched to the lines
# its tokens were written on.

LEMMAS = {
    "NOUN": ["fish", "Worm", "door", "TABLE"], "PROPN": ["Paris", "anna"],
    "PRON": ["she", "it"], "VERB": ["eat", "Open", "break", "SELL"],
    "ADJ": ["small", "Red", "sad"], "DET": ["the", "a"], "ADV": ["fast"],
}
ARGUMENT_DEPRELS = ["obj", "dobj", "nsubj", "nsubjpass", "nsubj:pass", "obl", "ccomp"]
LINE_FAULTS = ["columns", "id", "head", "index0", "negative_head", "self_head"]
SENTENCE_FAULTS = ["gap", "beyond"]
LEMMA_FAULTS = ["", " ", "  ", "fi\rsh"]


def _bad_lemma(lemma):
    return not lemma.strip() or "\r" in lemma


def random_sentence(rng, marker):
    """Token columns [id, form, lemma, upos, head, deprel] of one sentence."""
    n = rng.randint(1, 9)
    upos = ["X"] + [rng.choice(list(LEMMAS)) for _ in range(n - 1)]
    verbs = [i for i, u in enumerate(upos, 1) if u == "VERB"]
    nouns = [i for i, u in enumerate(upos, 1) if u in ("NOUN", "PROPN")]
    toks = []
    for i, u in enumerate(upos, 1):
        others = [j for j in range(0, n + 1) if j != i]
        if u in ("NOUN", "PROPN", "PRON") and verbs and rng.random() < 0.85:
            head, deprel = rng.choice([v for v in verbs if v != i] or [0]), rng.choice(
                ARGUMENT_DEPRELS)
        elif u == "ADJ" and nouns and rng.random() < 0.85:
            head, deprel = rng.choice(nouns), rng.choice(["amod"] * 4 + ["conj"])
        else:
            head, deprel = rng.choice(others), rng.choice(["root", "det", "amod", "obj"])
        lemma = marker if i == 1 else rng.choice(LEMMAS[u])
        toks.append([str(i), lemma.upper(), lemma, u, str(head), deprel])
    return toks


def plant(rng, toks, fault):
    """Make one kind of fault in a sentence's token columns."""
    n = len(toks)
    tok = rng.choice(toks)
    if fault == "id":
        tok[0] = "x" + tok[0]
    elif fault == "head":
        tok[4] = "_"
    elif fault == "index0":
        tok[0] = "0"
    elif fault == "negative_head":
        tok[4] = "-1"
    elif fault == "self_head":
        tok[4] = tok[0]
    elif fault == "gap":
        for later in toks[rng.randrange(n):]:
            later[0] = str(int(later[0]) + 1)
    elif fault == "beyond":
        tok[4] = str(n + rng.randint(1, 3))
    elif fault == "columns":
        tok.append("extra")
    else:  # a bad lemma, never on the marker
        if n > 1:
            rng.choice(toks[1:])[2] = fault


def random_corpus(rng, n_sentences):
    """CoNLL-U text and {marker: {token id: line}} for its sentences."""
    crlf = rng.random() < 0.3
    out, lines_of = [], {}

    def emit(line):
        out.append(line + ("\r\n" if crlf and rng.random() < 0.7 else "\n"))
        return len(out)

    for k in range(n_sentences):
        marker = f"s{k}"
        toks = random_sentence(rng, marker)
        roll = rng.random()
        if roll < 0.12:
            plant(rng, toks, rng.choice(LINE_FAULTS))
        elif roll < 0.16:
            for fault in rng.sample(LINE_FAULTS, 2):  # two bad lines
                plant(rng, toks, fault)
        elif roll < 0.24:
            plant(rng, toks, rng.choice(SENTENCE_FAULTS))
        elif roll < 0.40:
            plant(rng, toks, rng.choice(LEMMA_FAULTS))
        if rng.random() < 0.5:
            emit(f"# sent_id = {k}")
        lines_of[marker] = lines = {}
        for pos, cols in enumerate(toks):
            if pos == 1 and rng.random() < 0.2:
                emit(f"{pos}-{pos + 1}\tdon't\t_\t_\t_\t_\t_\t_\t_\t_")
            if rng.random() < 0.05:
                emit("# a comment inside the sentence")
            form, lemma, upos, head, deprel = cols[1:6]
            extra = cols[6:]
            line = emit("\t".join([cols[0], form, lemma, upos, "_", "_", head, deprel,
                                   "_", "_", *extra]))
            if pos == 2 and rng.random() < 0.2:
                emit(f"{pos}.1\tgone\tgo\tVERB\t_\t_\t_\t_\t{pos}:conj\t_")
            lines[cols[0]] = line
        if k < n_sentences - 1 or rng.random() < 0.7:  # maybe no final blank line
            emit("")
            if rng.random() < 0.1:
                emit("")
    return "".join(out), lines_of


def old_count(text, source, skip_malformed, include_passive, lines_of):
    """The old pipeline, where a bad lemma in a pair ends its sentence like
    any other malformed one, at the line of its token."""
    def lemma_checked(sentences):
        for sentence in sentences:
            try:
                old_extract_pairs(sentence, include_passive)
            except BadLemmaError as err:
                (bad,) = [t.index for t in sentence if _bad_lemma(t.lemma)]
                line = lines_of[sentence.token_at(1).lemma][str(bad)]
                if not skip_malformed:
                    raise CorpusFormatError(source, line, str(err)) from None
                old_log.warning("%s:%d: skipping sentence: %s", source, line, err)
                continue
            yield sentence

    sentences = old_read_conllu(io.StringIO(text), source, skip_malformed)
    return old_build_counts(lemma_checked(sentences), include_passive)


def written(table):
    buf = io.StringIO()
    write_counts(table, buf)
    return buf.getvalue()


def run_logged(caplog, fn):
    """(what fn returns or its error text, warning messages in order)."""
    caplog.clear()
    try:
        with caplog.at_level(logging.WARNING):
            result = fn()
    except CorpusFormatError as err:
        result = ("error", str(err))
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    return result, warnings


class TestCountConllu:
    @pytest.mark.parametrize("include_passive", [False, True])
    def test_fixture_matches_reference(self, include_passive):
        text = FIXTURE.read_text(encoding="utf-8")
        want = written(old_build_counts(old_read_conllu(io.StringIO(text)), include_passive))
        got = count_conllu(io.StringIO(text), include_passive=include_passive)
        assert written(got) == want

    def test_random_corpora_match_reference(self, caplog):
        rng = random.Random(707)
        seen = Counter()
        for trial in range(150):
            text, lines_of = random_corpus(rng, rng.randint(1, 12))
            for skip in (False, True):
                for passive in (False, True):
                    want = run_logged(caplog, lambda: written(old_count(
                        text, "c.conllu", skip, passive, lines_of)))
                    got = run_logged(caplog, lambda: written(count_conllu(
                        io.StringIO(text), "c.conllu", skip, passive)))
                    assert got == want, (trial, skip, passive, text)
                    result, warnings = want
                    seen["error" if isinstance(result, tuple) else "table"] += 1
                    seen["lemma"] += sum("lemma" in w for w in warnings)
                    seen["line"] += sum("malformed line" in w for w in warnings)
                    seen["sentence"] += sum(
                        "contiguous" in w or "beyond" in w for w in warnings)
                    seen["pairs"] += result.count("\n") if isinstance(result, str) else 0
        assert min(seen.values()) > 20, seen

    def test_readers_and_rules_match_reference(self, caplog):
        rng = random.Random(808)
        for trial in range(100):
            text, _ = random_corpus(rng, rng.randint(1, 12))
            for skip in (False, True):
                def sentences(reader):
                    return lambda: [
                        [(t.index, t.lemma, t.upos, t.head_index, t.deprel) for t in s]
                        for s in reader(io.StringIO(text), "c.conllu", skip)]
                want = run_logged(caplog, sentences(old_read_conllu))
                got = run_logged(caplog, sentences(read_conllu))
                assert got == want, (trial, skip, text)
                if isinstance(want[0], tuple):
                    continue
                for old, new in zip(old_read_conllu(io.StringIO(text), "c", skip),
                                    read_conllu(io.StringIO(text), "c", skip)):
                    for passive in (False, True):
                        try:
                            want_pairs = old_extract_pairs(old, passive)
                        except BadLemmaError as err:
                            with pytest.raises(BadLemmaError) as new_err:
                                extract_pairs(new, passive)
                            assert str(new_err.value) == str(err)
                        else:
                            assert extract_pairs(new, passive) == want_pairs

    def test_build_counts_over_read_conllu_matches_reference(self):
        rng = random.Random(909)
        for trial in range(60):
            text, _ = random_corpus(rng, rng.randint(1, 12))
            outcomes = []
            for reader, build in ((old_read_conllu, old_build_counts),
                                  (read_conllu, build_counts)):
                try:
                    outcomes.append(written(build(reader(io.StringIO(text), "c", True))))
                except BadLemmaError as err:
                    outcomes.append(("lemma", str(err)))
            assert outcomes[0] == outcomes[1], (trial, text)


# OMCS index and reader ------------------------------------------------------

class OldOMCSIndex:
    """Inverted token index over lemmatized triplet phrases.

    The lemmatizer is applied to triplet tokens at build time and to
    query words at match time, so both sides are normalized identically.
    """

    def __init__(
        self,
        triplets,
        lemmatizer=lemmatize,
    ):
        self._lemmatize = lemmatizer
        self.triplets = []
        self._exact = defaultdict(list)
        self._start_tokens = defaultdict(set)
        self._end_tokens = defaultdict(set)
        for t in triplets:
            i = len(self.triplets)
            self.triplets.append(t)
            start = [lemmatizer(tok.lower()) for tok in t.start]
            end = [lemmatizer(tok.lower()) for tok in t.end]
            if len(start) == 1 and len(end) == 1:
                self._exact[(start[0], end[0])].append(i)
            for tok in start:
                self._start_tokens[tok].add(i)
            for tok in end:
                self._end_tokens[tok].add(i)

    def __len__(self) -> int:
        return len(self.triplets)

    def exact_witnesses(self, pair):
        h = self._lemmatize(pair.head)
        d = self._lemmatize(pair.dependent)
        ids = sorted(set(self._exact.get((h, d), [])) | set(self._exact.get((d, h), [])))
        return [self.triplets[i] for i in ids]

    def partial_witnesses(self, pair):
        h = self._lemmatize(pair.head)
        d = self._lemmatize(pair.dependent)
        ids = (self._start_tokens.get(h, set()) & self._end_tokens.get(d, set())) | (
            self._start_tokens.get(d, set()) & self._end_tokens.get(h, set())
        )
        return [self.triplets[i] for i in sorted(ids)]


def old_coverage_by_group(gold, index):
    """Table of match kinds per plausibility group (pair-level counts)."""
    stats = {g: GroupStats(g) for g in PlausibilityGroup}
    for pair, value in gold.items():
        s = stats[classify_plausibility(value)]
        s.n_pairs += 1
        kind = match_pair(pair, index).kind
        if kind is MatchKind.EXACT:
            s.n_exact += 1
        elif kind is MatchKind.PARTIAL:
            s.n_partial += 1
    return stats


def old_relation_matrix(gold, index):
    exact = {}
    partial = {}
    for pair, _ in gold.items():
        witnesses = index.exact_witnesses(pair)
        table = exact
        if not witnesses:
            witnesses = index.partial_witnesses(pair)
            table = partial
        for t in witnesses:
            row = table.setdefault(pair.relation, {})
            row[t.relation] = row.get(t.relation, 0) + 1
    return RelationMatrix(exact=exact, partial=partial)


def old_read_omcs(fh, source="<stream>"):
    """TSV: start phrase, relation label, end phrase."""
    out = []
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise OMCSFormatError(
                f"{source}:{lineno}: expected 3 columns, got {len(fields)}"
            )
        start, rel, end = fields
        try:
            out.append(OMCSTriplet(tuple(start.split()), rel, tuple(end.split())))
        except OMCSFormatError as err:
            raise OMCSFormatError(f"{source}:{lineno}: {err}") from None
    return out


OMCS_BASES = ["eat", "apple", "dog", "bark", "stop", "box", "fly", "child",
              "mouse", "go", "run", "water", "news", "red"]
# irregular forms, suffix inflections and mixed case of the bases above
OMCS_FORMS = ["ate", "eaten", "eats", "eating", "Apples", "APPLE", "dogs", "Dog",
              "barking", "barked", "stopped", "stopping", "boxes", "flies",
              "flew", "children", "mice", "went", "gone", "ran", "running"]
OMCS_LABELS = ["UsedFor", "CapableOf", "IsA", "AtLocation"]


def random_triplets(rng, n):
    words = OMCS_BASES + OMCS_FORMS

    def phrase():
        toks = [rng.choice(words) for _ in range(rng.choice((1, 1, 2, 3)))]
        if len(toks) > 1 and rng.random() < 0.2:
            toks[-1] = toks[0]      # a token repeated within one phrase
        return tuple(toks)

    return [OMCSTriplet(phrase(), rng.choice(OMCS_LABELS), phrase()) for _ in range(n)]


def random_gold(rng, n):
    words = OMCS_BASES + [w.lower() for w in OMCS_FORMS] + ["stone", "tasty"]
    entries = {}
    for _ in range(n):
        pair = SPPair(rng.choice(RELATIONS), rng.choice(words), rng.choice(words))
        entries[pair] = round(rng.uniform(0, 10), 2)
    return GoldSet(entries.items())


def omcs_outcome(text, newline):
    try:
        return old_read_omcs(io.StringIO(text, newline=newline), "o.tsv")
    except OMCSFormatError as err:
        return ("error", str(err))


def new_omcs_outcome(text, newline):
    try:
        return read_omcs(io.StringIO(text, newline=newline), "o.tsv")
    except OMCSFormatError as err:
        return ("error", str(err))


class TestOMCSIndex:
    def check_against_reference(self, triplets, gold, lemmatizer=lemmatize):
        new = OMCSIndex(triplets, lemmatizer)
        old = OldOMCSIndex(triplets, lemmatizer)
        assert new.triplets == old.triplets and len(new) == len(old)
        assert new._exact == dict(old._exact)
        assert new._start_tokens == dict(old._start_tokens)
        assert new._end_tokens == dict(old._end_tokens)
        for pair, _ in gold.items():
            want, got = match_pair(pair, old), match_pair(pair, new)
            assert got == want and got.witness is want.witness, pair
            assert new.exact_witnesses(pair) == old.exact_witnesses(pair)
            assert new.partial_witnesses(pair) == old.partial_witnesses(pair)
        assert coverage_by_group(gold, new) == old_coverage_by_group(gold, old)
        got, want = relation_matrix(gold, new), old_relation_matrix(gold, old)
        for kind in (MatchKind.EXACT, MatchKind.PARTIAL):
            assert got.to_csv(kind) == want.to_csv(kind)
        assert got.to_dict() == want.to_dict()
        return new

    def test_random_triplets_match_reference(self):
        rng = random.Random(1234)
        kinds = Counter()
        for trial in range(60):
            triplets = random_triplets(rng, rng.randint(0, 80))
            gold = random_gold(rng, 40)
            index = self.check_against_reference(triplets, gold)
            kinds.update(match_pair(p, index).kind for p, _ in gold.items())
        assert min(kinds[k] for k in MatchKind) > 100, kinds

    def test_empty_index_matches_reference(self):
        gold = random_gold(random.Random(5), 30)
        index = self.check_against_reference([], gold)
        assert len(index) == 0 and index.distinct_tokens == 0

    def test_custom_lemmatizer_is_honoured(self):
        def first_three(word):
            return word[:3]

        rng = random.Random(99)
        self.check_against_reference(random_triplets(rng, 60), random_gold(rng, 60),
                                     first_three)
        # every word here folds to "sto" under the custom lemmatizer only
        pair = SPPair(SPRelation.DOBJ, "stopped", "stone")
        triplets = [OMCSTriplet(("stop",), "IsA", ("stoat",))]
        assert match_pair(pair, OMCSIndex(triplets, first_three)).kind is MatchKind.EXACT
        assert match_pair(pair, OMCSIndex(triplets)).kind is MatchKind.NONE

    def test_lemmatizer_runs_once_per_distinct_word(self):
        calls = Counter()

        def counting(word):
            calls[word] += 1
            return lemmatize(word)

        rng = random.Random(4321)
        triplets = random_triplets(rng, 200)
        gold = random_gold(rng, 100)
        index = OMCSIndex(triplets, counting)
        tokens = {tok for t in triplets for tok in t.start + t.end}
        assert index.distinct_tokens == len(tokens) == sum(calls.values())
        coverage_by_group(gold, index)
        relation_matrix(gold, index)
        for pair, _ in gold.items():
            match_pair(pair, index)
        words = tokens | {w for p, _ in gold.items() for w in (p.head, p.dependent)}
        # the lemmatizer sees each word once, lowercased; spellings that
        # differ only in case are separate words
        assert sum(calls.values()) == len(words)
        assert calls == Counter(w.lower() for w in words)

    @pytest.mark.parametrize("newline", [None, "\n"])
    def test_reader_matches_reference(self, newline):
        rng = random.Random(55)
        good = ["eat\tUsedFor\tapple", "take a nap\tHasPrerequisite\tbe tired",
                "  dog  barks\tCapableOf\tloudly ", "Dogs\tIsA\tanimal"]
        bad = ["dog\tIsA", "dog\tIsA\tanimal\textra", "  \tIsA\tanimal", "dog\tIsA\t ",
               "dog\t\tanimal", "", "# comment\twith\ttabs", "\r", "dog IsA animal"]
        seen = Counter()
        for trial in range(300):
            rows = [rng.choice(good) for _ in range(rng.randint(0, 6))]
            if trial % 3:
                rows.insert(rng.randint(0, len(rows)), rng.choice(bad))
            end = rng.choice(("\n", "\r\n"))
            text = "".join(row + end for row in rows)
            if rng.random() < 0.3:
                text = text[:-len(end)]         # no line break at the end
            want = omcs_outcome(text, newline)
            assert new_omcs_outcome(text, newline) == want, (trial, text)
            seen["error" if isinstance(want, tuple) else "ok"] += 1
        assert min(seen.values()) > 50, seen
        # the error text of each bad row, after one good row
        for row in bad:
            text = f"{good[0]}\n{row}\n"
            assert new_omcs_outcome(text, newline) == omcs_outcome(text, newline)

    def test_triplets_are_slotted_and_frozen(self):
        t = OMCSTriplet(("dog",), "IsA", ("animal",))
        assert not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            t.relation = "CapableOf"


# -- NN trainer: the gradient-dict step it replaced ---------------------------

class OldRelationNet:
    """Parameters and forward/backward passes for one relation."""

    def __init__(self, heads: list[str], deps: list[str], config: NNConfig,
                 rng: np.random.Generator):
        e, h = config.embedding_dim, config.hidden_dim
        self.head_index = {w: i for i, w in enumerate(heads)}
        self.dep_index = {w: i for i, w in enumerate(deps)}
        bound = 0.5 / e
        self.emb_head = rng.uniform(-bound, bound, size=(len(heads), e))
        self.emb_dep = rng.uniform(-bound, bound, size=(len(deps), e))
        a1 = np.sqrt(6.0 / (2 * e + h))
        self.w1 = rng.uniform(-a1, a1, size=(h, 2 * e))
        self.b1 = np.zeros(h)
        a2 = np.sqrt(6.0 / (h + 1))
        self.w2 = rng.uniform(-a2, a2, size=h)
        self.b2 = 0.0

    def forward(self, hi: int, di: int):
        x = np.concatenate([self.emb_head[hi], self.emb_dep[di]])
        hidden = np.tanh(self.w1 @ x + self.b1)
        score = float(self.w2 @ hidden + self.b2)
        return score, (x, hidden)

    def score(self, hi: int, di: int) -> float:
        return self.forward(hi, di)[0]

    def grads(self, hi: int, di: int, cache):
        """Gradient of the score w.r.t. every parameter, as a flat dict."""
        x, hidden = cache
        dpre = self.w2 * (1.0 - hidden ** 2)
        dx = self.w1.T @ dpre
        e = self.emb_head.shape[1]
        return {
            "w1": np.outer(dpre, x),
            "b1": dpre,
            "w2": hidden,
            "b2": 1.0,
            ("head", hi): dx[:e],
            ("dep", di): dx[e:],
        }

    def apply(self, grad_sets: list[tuple[float, dict]], lr: float) -> None:
        """SGD step on an accumulated list of (sign, score-gradients)."""
        for sign, g in grad_sets:
            step = lr * sign
            self.w1 += step * g["w1"]
            self.b1 += step * g["b1"]
            self.w2 += step * g["w2"]
            self.b2 += step * g["b2"]
            for key, val in g.items():
                if isinstance(key, tuple):
                    kind, idx = key
                    if kind == "head":
                        self.emb_head[idx] += step * val
                    else:
                        self.emb_dep[idx] += step * val


def old_nn_train(corpus_pairs, config, vocab):
    by_rel: dict[SPRelation, list[SPPair]] = {}
    for pair in corpus_pairs:
        by_rel.setdefault(pair.relation, []).append(pair)
    if not by_rel:
        raise NNError("empty training stream")

    for rel, pairs in by_rel.items():
        head_pool = vocab.pool(rel.head_pos)
        dep_pool = vocab.pool(rel.dependent_pos)
        for p in pairs:
            if p.head not in head_pool:
                raise VocabCoverageError(
                    f"{rel.value}: head {p.head!r} not in the {rel.head_pos} pool"
                )
            if p.dependent not in dep_pool:
                raise VocabCoverageError(
                    f"{rel.value}: dependent {p.dependent!r} not in the "
                    f"{rel.dependent_pos} pool"
                )

    rng = np.random.default_rng(config.seed)
    model = NNModel(config)
    for rel in SPRelation:  # fixed order keeps the RNG stream stable
        pairs = by_rel.get(rel)
        if not pairs:
            continue
        heads = sorted(vocab.pool(rel.head_pos))
        deps = sorted(vocab.pool(rel.dependent_pos))
        net = OldRelationNet(heads, deps, config, rng)
        attested: dict[int, set[int]] = {}
        instances = []
        for p in pairs:
            hi, di = net.head_index[p.head], net.dep_index[p.dependent]
            instances.append((hi, di))
            attested.setdefault(hi, set()).add(di)
        for hi, seen in attested.items():
            if len(seen) == len(deps):
                head = heads[hi] if hi < len(heads) else hi
                raise NegativePoolError(
                    f"{rel.value}: every dependent attested for head {head!r}, "
                    "nothing left to corrupt with"
                )

        losses = []
        order = np.arange(len(instances))
        for epoch in range(config.epochs):
            rng.shuffle(order)
            total = 0.0
            n_terms = 0
            for k in order:
                hi, di = instances[k]
                pos_score, pos_cache = net.forward(hi, di)
                updates = []
                pos_grads = None
                for _ in range(config.negatives_per_positive):
                    while True:
                        ni = int(rng.integers(len(deps)))
                        if ni not in attested[hi]:
                            break
                    neg_score, neg_cache = net.forward(hi, ni)
                    loss = config.margin - pos_score + neg_score
                    n_terms += 1
                    if loss > 0:
                        total += loss
                        if pos_grads is None:
                            pos_grads = net.grads(hi, di, pos_cache)
                        updates.append((+1.0, pos_grads))
                        updates.append((-1.0, net.grads(hi, ni, neg_cache)))
                net.apply(updates, config.learning_rate)
            losses.append(total / max(n_terms, 1))
        model.nets[rel] = net
        model.epoch_losses[rel] = losses
    return model


def model_bytes(model):
    buf = io.BytesIO()
    model.save(buf)
    return buf.getvalue()


def random_nn_case(rng):
    """A random config and training stream over a small random lexicon.

    Some heads are attested with every dependent but one, so the
    negative sampler has a single free dependent to find. Learning rates
    of 1 and 2 saturate tanh, so some rank-1 products are exact zeros that
    np.outer gives as -0.0 and BLAS as +0.0.
    """
    words = {"verb": [f"v{i}" for i in range(rng.randint(1, 4))],
             "noun": [f"n{i}" for i in range(rng.randint(2, 6))],
             "adj": [f"a{i}" for i in range(rng.randint(2, 5))]}
    vocab = Lexicon(verbs=frozenset(words["verb"]), nouns=frozenset(words["noun"]),
                    adjectives=frozenset(words["adj"]))
    pairs = []
    for rel in rng.sample(RELATIONS, rng.randint(1, len(RELATIONS))):
        heads, deps = words[rel.head_pos], words[rel.dependent_pos]
        for head in rng.sample(heads, rng.randint(1, len(heads))):
            k = len(deps) - 1 if rng.random() < 0.4 else rng.randint(1, len(deps) - 1)
            for dep in rng.sample(deps, k):
                pairs += [SPPair(rel, head, dep)] * rng.randint(1, 2)
    rng.shuffle(pairs)
    config = NNConfig(
        embedding_dim=rng.randint(1, 8), hidden_dim=rng.randint(1, 16),
        margin=rng.choice([0.5, 1.0, 4.0]), negatives_per_positive=rng.randint(1, 3),
        epochs=rng.randint(0, 3), learning_rate=rng.choice([0.01, 0.1, 1.0, 2]),
        seed=rng.randrange(10_000))
    return pairs, config, vocab


class TestNNTrainer:
    def test_random_configs_match_reference(self):
        rng = random.Random(2014)
        seen = Counter()
        for trial in range(48):
            pairs, config, vocab = random_nn_case(rng)
            old, new = old_nn_train(pairs, config, vocab), nn_train(pairs, config, vocab)
            assert model_bytes(new) == model_bytes(old), (trial, config)
            assert new.epoch_losses == old.epoch_losses, (trial, config)
            seen[f"negatives={config.negatives_per_positive}"] += 1
            seen[f"epochs={config.epochs}"] += 1
            seen["several relations"] += len(new.nets) > 1
            seen["trained"] += bool(config.epochs)
        assert min(seen.values()) >= 6, seen

    def test_release_dims_match_reference(self):
        # the default 50/100 dims send the rank-1 product down BLAS gemm
        words = ["eat", "see", "fish", "worm", "bird", "stone", "bread", "cat"]
        vocab = Lexicon(verbs=frozenset(words[:2]), nouns=frozenset(words[2:]),
                        adjectives=frozenset())
        rng = random.Random(7)
        pairs = [SPPair(SPRelation.DOBJ, rng.choice(words[:2]), rng.choice(words[2:5]))
                 for _ in range(150)]
        for negatives in (1, 3):
            config = NNConfig(negatives_per_positive=negatives, epochs=2, seed=negatives)
            old, new = old_nn_train(pairs, config, vocab), nn_train(pairs, config, vocab)
            assert model_bytes(new) == model_bytes(old)
            assert new.epoch_losses == old.epoch_losses

    def test_errors_match_reference(self):
        vocab = Lexicon(verbs=frozenset({"eat"}), nouns=frozenset({"fish", "worm"}),
                        adjectives=frozenset())
        cases = [[], [SPPair(SPRelation.DOBJ, "see", "fish")],
                 [SPPair(SPRelation.DOBJ, "eat", "cat")],
                 [SPPair(SPRelation.DOBJ, "eat", "fish"), SPPair(SPRelation.DOBJ, "eat", "worm")]]
        for pairs in cases:
            errors = []
            for train in (old_nn_train, nn_train):
                with pytest.raises(NNError) as exc:
                    train(pairs, NNConfig(), vocab)
                errors.append((exc.type, str(exc.value)))
            assert errors[0] == errors[1]


# -- Records that stored derived fields: predictions, surveys, gold sets -------

@dataclass(frozen=True)
class OldPrediction:
    question_id: str
    gold: str
    subject_score: object
    object_score: object
    predicted: object
    outcome: Outcome

    def __post_init__(self):
        should_abstain = (
            self.subject_score is None
            or self.object_score is None
            or self.subject_score == self.object_score
        )
        if should_abstain != (self.outcome is Outcome.NA):
            raise WinogradError("outcome is NA iff a score is missing or tied")
        if (self.predicted is None) != (self.outcome is Outcome.NA):
            raise WinogradError("prediction present iff an answer was made")


def old_resolve(q, model):
    """Score the adjective against both roles of the verb and answer with
    the strictly higher one; abstain on any missing score or a tie."""
    subject_score = model.score(SPPair(SPRelation.NSUBJ_AMOD, q.verb, q.adjective))
    object_score = model.score(SPPair(SPRelation.DOBJ_AMOD, q.verb, q.adjective))
    if subject_score is None or object_score is None or subject_score == object_score:
        predicted = None
        outcome = Outcome.NA
    else:
        predicted = SUBJECT if subject_score > object_score else OBJECT
        outcome = Outcome.CORRECT if predicted == q.gold else Outcome.WRONG
    return OldPrediction(
        question_id=q.id,
        gold=q.gold,
        subject_score=subject_score,
        object_score=object_score,
        predicted=predicted,
        outcome=outcome,
    )


QUESTIONS_PER_SURVEY = 103


@dataclass(frozen=True)
class OldSurveyQuestion:
    pair: SPPair
    text: str
    is_checkpoint: bool
    expected: object = None  # accepted checkpoint answers


@dataclass
class OldSurvey:
    relation: SPRelation
    questions: list

    def __post_init__(self):
        if len(self.questions) != QUESTIONS_PER_SURVEY:
            raise AnnotationError(
                f"survey must hold {QUESTIONS_PER_SURVEY} questions, "
                f"got {len(self.questions)}"
            )
        n_cp = sum(q.is_checkpoint for q in self.questions)
        if n_cp != CHECKPOINTS_PER_SURVEY:
            raise AnnotationError(f"survey must hold 3 checkpoints, got {n_cp}")
        if any(q.pair.relation is not self.relation for q in self.questions):
            raise MixedRelationError("survey mixes relations")

    def to_dict(self) -> dict:
        return {
            "relation": self.relation.value,
            "instructions": (
                "Rate how suitable each word combination is. Select one "
                "option per question."
            ),
            "options": [{"rating": r, "label": l} for r, l in RATING_OPTIONS],
            "example": {
                "question": render_question(
                    SPPair(SPRelation.DOBJ, "eat", "meal")
                ),
                "answer": "Perfectly match (5)",
            },
            "questions": [
                {
                    "index": i + 1,
                    "relation": q.pair.relation.value,
                    "head": q.pair.head,
                    "dependent": q.pair.dependent,
                    "text": q.text,
                }
                for i, q in enumerate(self.questions)
            ],
        }


def old_generate_survey(pairs, checkpoints, seed=0):
    """Build one 103-question survey: 100 pairs plus 3 checkpoints with
    known acceptable answers, in seeded shuffled order."""
    if len(pairs) != PAIRS_PER_SURVEY:
        raise AnnotationError(f"need exactly {PAIRS_PER_SURVEY} pairs, got {len(pairs)}")
    if len(checkpoints) != CHECKPOINTS_PER_SURVEY:
        raise AnnotationError(
            f"need exactly {CHECKPOINTS_PER_SURVEY} checkpoints, got {len(checkpoints)}"
        )
    relations = {p.relation for p in pairs} | {p.relation for p, _ in checkpoints}
    if len(relations) != 1:
        raise MixedRelationError(f"survey mixes relations: {sorted(r.value for r in relations)}")
    (relation,) = relations
    for _, expected in checkpoints:
        if not expected or not all(RATING_MIN <= e <= RATING_MAX for e in expected):
            raise AnnotationError(f"bad checkpoint expected set: {sorted(expected)}")

    questions = [
        OldSurveyQuestion(p, render_question(p), False) for p in pairs
    ] + [
        OldSurveyQuestion(p, render_question(p), True, frozenset(expected))
        for p, expected in checkpoints
    ]
    random.Random(seed).shuffle(questions)
    return OldSurvey(relation=relation, questions=questions)


class OldGoldSet:
    """Gold plausibility judgments, unique per pair, indexed by relation."""

    def __init__(self, entries):
        self._scores = {}
        self._by_rel = {r: [] for r in SPRelation}
        for pair, value in entries:
            check_plausibility(value)
            if pair in self._scores:
                raise DuplicatePairError(f"duplicate gold pair: {pair}")
            self._scores[pair] = value
            self._by_rel[pair.relation].append(pair)

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, pair) -> bool:
        return pair in self._scores

    def value(self, pair) -> float:
        return self._scores[pair]

    def pairs(self, relation=None):
        if relation is None:
            return [p for r in SPRelation for p in self._by_rel[r]]
        return list(self._by_rel[relation])

    def relations(self):
        return [r for r in SPRelation if self._by_rel[r]]

    def items(self):
        for r in SPRelation:
            for p in self._by_rel[r]:
                yield p, self._scores[p]


# 0.0 == -0.0, so a pair of them is a tie; the rest tie, order or go missing
SCORES = [None, 0.0, -0.0, 1.0, -1.0, 0.5, 2.5, 1e-300, -1e-300]


class TestPrediction:
    def test_derived_fields_match_reference(self):
        rng = random.Random(808)
        seen = Counter()
        for trial in range(600):
            subject, obj = (rng.choice(SCORES + [rng.uniform(-3, 3)]) for _ in range(2))
            adjective = rng.choice(["hungry", "tasty"])
            q = WinogradQuestion(id=f"q{trial}", sentence="s", verb="eat", adjective=adjective,
                                 candidate_subject=Mention("the fish", "fish"),
                                 candidate_object=Mention("the worm", "worm"),
                                 gold=rng.choice([SUBJECT, OBJECT]))
            table = {SPPair(SPRelation.NSUBJ_AMOD, "eat", adjective): subject,
                     SPPair(SPRelation.DOBJ_AMOD, "eat", adjective): obj}
            model = LookupModel(table)
            old, new = old_resolve(q, model), resolve(q, model)
            assert (new.question_id, new.gold) == (old.question_id, old.gold)
            assert repr(new.subject_score) == repr(old.subject_score)
            assert repr(new.object_score) == repr(old.object_score)
            assert new.predicted == old.predicted, (subject, obj)
            assert new.outcome is old.outcome, (subject, obj)
            seen[old.outcome] += 1
            seen["tie" if subject is not None and subject == obj else "no tie"] += 1
        assert min(seen.values()) > 30, seen


def random_survey_input(rng, relation):
    pairs = [SPPair(relation, f"h{rng.randrange(30)}", f"d{i}") for i in range(100)]
    checkpoints = [(SPPair(relation, "cp", f"c{i}"),
                    frozenset(rng.sample(range(RATING_MIN, RATING_MAX + 1), rng.randint(1, 3))))
                   for i in range(3)]
    return pairs, checkpoints


class TestSurvey:
    def test_surveys_match_reference(self):
        rng = random.Random(909)
        for seed in range(40):
            pairs, checkpoints = random_survey_input(rng, rng.choice(RELATIONS))
            old = old_generate_survey(pairs, checkpoints, seed=seed)
            new = generate_survey(pairs, checkpoints, seed=seed)
            assert new.to_dict() == old.to_dict()
            assert new.relation is old.relation
            assert [(q.pair, q.text, q.is_checkpoint, q.expected) for q in new.questions] == [
                (q.pair, q.text, q.is_checkpoint, q.expected) for q in old.questions]

    def test_errors_match_reference(self):
        pairs, checkpoints = random_survey_input(random.Random(1), SPRelation.DOBJ)
        other = SPPair(SPRelation.AMOD, "stone", "red")
        cases = [(pairs[:99], checkpoints), (pairs, checkpoints[:2]),
                 (pairs[:99] + [other], checkpoints),
                 (pairs, checkpoints[:2] + [(other, frozenset({5}))]),
                 (pairs, checkpoints[:2] + [(pairs[0], frozenset())]),
                 (pairs, checkpoints[:2] + [(pairs[0], frozenset({0, 5}))])]
        for case in cases:
            errors = []
            for generate in (old_generate_survey, generate_survey):
                with pytest.raises(AnnotationError) as exc:
                    generate(*case)
                errors.append((exc.type, str(exc.value)))
            assert errors[0] == errors[1]


def random_gold_entries(rng, n):
    entries = []
    for _ in range(n):
        roll = rng.random()
        if entries and roll < 0.03:
            entries.append((rng.choice(entries)[0], 5.0))      # a duplicate pair
            continue
        pair = SPPair(rng.choice(RELATIONS), f"h{rng.randrange(8)}", f"d{rng.randrange(30)}")
        if roll < 0.05:
            value = rng.choice([-0.01, 10.01, float("nan"), float("inf")])
        else:
            value = rng.choice([0.0, 10.0, round(rng.uniform(0, 10), 2)])
        entries.append((pair, value))
    return entries


def gold_outcome(cls, entries):
    try:
        return cls(entries)
    except SelPrefError as err:
        return (type(err), str(err))


class TestGoldSet:
    def test_random_entries_match_reference(self):
        rng = random.Random(1010)
        seen = Counter()
        probes = [SPPair(r, f"h{h}", f"d{d}") for r in RELATIONS for h in range(8)
                  for d in range(0, 30, 3)]
        for trial in range(300):
            entries = random_gold_entries(rng, rng.randint(0, 60))
            old, new = gold_outcome(OldGoldSet, entries), gold_outcome(GoldSet, entries)
            if isinstance(old, tuple):
                assert new == old
                seen[old[0].__name__] += 1
                continue
            seen["ok"] += 1
            assert new.pairs() == old.pairs()
            for rel in RELATIONS:
                assert new.pairs(rel) == old.pairs(rel)
            assert list(new.items()) == list(old.items())
            assert new.relations() == old.relations()
            assert len(new) == len(old)
            for pair in probes:
                assert (pair in new) == (pair in old)
                if pair in old:
                    assert new.value(pair) == old.value(pair)
        assert min(seen.values()) > 20, seen


# -- Readers that located their own row faults; writers of their own header --

def old_read_pairs(fh, source="<stream>"):
    """Read a pair list: TSV with relation, head, dependent in the first
    three columns (extra columns ignored; # lines skipped)."""
    pairs = []
    for lineno, (rel_name, head, dep, *_) in _rows(fh, source, 3, CountTableError, extra=True):
        try:
            pairs.append(SPPair(parse_relation(rel_name), head, dep))
        except SelPrefError as err:
            raise CountTableError(f"{source}:{lineno}: {err}") from None
    return pairs


def old_read_values(fh, source, gold):
    values = {}
    for lineno, fields in _rows(fh, source, 4, GoldFormatError):
        old_add_value(values, source, lineno, fields, gold)
    return values


def old_add_value(values, source, lineno, fields, gold):
    """Parse one relation, head, dependent, value row into ``values``."""
    rel_name, head, dep, text = fields
    try:
        pair = SPPair(parse_relation(rel_name), head, dep)
        value = None if text == "NA" and not gold else _value(text, gold)
    except SelPrefError as err:
        raise GoldFormatError(f"{source}:{lineno}: {err}") from None
    if pair in values:
        raise DuplicatePairError(f"{source}:{lineno}: duplicate pair {pair.relation} "
                                 f"{_clip(pair.head)} {_clip(pair.dependent)}")
    values[pair] = value


def old_load_gold(fh, source="<stream>"):
    return GoldSet(old_read_values(fh, source, gold=True).items())


def old_read_checkpoints(fh, source, relation):
    """relation/head/dependent/expected rows, all of the survey's relation;
    expected is |-joined ratings."""
    out = []
    for lineno, (rel_name, head, dep, text) in _rows(fh, source, 4, AnnotationError):
        try:
            pair = SPPair(parse_relation(rel_name), head, dep)
            expected = parse_rating_set(text)
        except SelPrefError as err:
            raise AnnotationError(f"{source}:{lineno}: {err}") from None
        if relation not in (None, pair.relation):
            raise MixedRelationError(f"{source}:{lineno}: checkpoint relation "
                                     f"{pair.relation}, survey relation {relation}")
        out.append((pair, expected))
    if len(out) != CHECKPOINTS_PER_SURVEY:
        raise AnnotationError(f"{source}: need exactly {CHECKPOINTS_PER_SURVEY} "
                              f"checkpoints, got {len(out)}")
    return out


def old_write_counts(table, fh, config=None):
    """Write the TSV counts format, sorted by (relation, head, count desc)."""
    fh.write(COUNTS_HEADER + "\n")
    if config is not None:
        fh.write("#config " + json.dumps(config, sort_keys=True) + "\n")
    for rel in SPRelation:
        rows = sorted(table.items(rel), key=lambda r: (r[0], -r[2], r[1]))
        for head, dep, count in rows:
            fh.write(f"{rel.value}\t{head}\t{dep}\t{count}\n")


def old_write_candidates(candidates, fh, config=None):
    fh.write(CANDIDATES_HEADER + "\n")
    if config is not None:
        fh.write("#config " + json.dumps(config, sort_keys=True) + "\n")
    for cand in candidates:
        p = cand.pair
        fh.write(f"{p.relation.value}\t{p.head}\t{p.dependent}\t{cand.source}\n")


def old_aggregate_rows(out, scores):
    """cmd_aggregate's own row loop, after its header and #config line."""
    for pair in sorted(scores, key=lambda p: (p.relation.value, p.head,
                                              p.dependent)):
        out.write(f"{pair.relation.value}\t{pair.head}\t"
                  f"{pair.dependent}\t{scores[pair]:.2f}\n")


GOOD_RELATIONS, BAD_RELATIONS = ["dobj", "dobj", " DOBJ", "nsubj"], ["bogus", "", "amod"]
GOOD_LEMMAS = ["eat", "Eat", "fish", "worm", "see", "bird", "stone"]
BAD_LEMMAS = ["", " ", "a\rb", "x" * 50]
GOOD_VALUES = ["3", "0", "10", "2.5", "7.25"]
BAD_VALUES = ["NA", "-1", "10.5", "nan", "inf", "1e400", "x" * 50, ""]
GOOD_EXPECTED, BAD_EXPECTED = ["4|5", "1|2", "3", "5|4|3"], ["1|9", "low", "|", "", "0"]


def random_rows(rng, n, good, bad):
    """TSV text of ``n`` rows of relation, head, dependent and a last field
    from ``good``, with a bad field now and then, comments, blank lines,
    rows of the wrong width and, from the small lemma set, repeated pairs."""
    def pick(ok, wrong):
        return rng.choice(wrong if rng.random() < 0.04 else ok)

    lines = []
    for _ in range(n):
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "# comment"]))
            continue
        fields = [pick(GOOD_RELATIONS, BAD_RELATIONS), pick(GOOD_LEMMAS, BAD_LEMMAS),
                  pick(GOOD_LEMMAS, BAD_LEMMAS), pick(good, bad)]
        if rng.random() < 0.03:
            fields = fields[:rng.randint(1, 3)] if rng.random() < 0.5 else fields + ["extra"]
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def read_outcome(reader, *args):
    try:
        return reader(*args)
    except SelPrefError as err:
        return (type(err), str(err))


def first_relation(text):
    """The relation of the first data row, or None if it has none."""
    for _, fields in _rows(io.StringIO(text), "t.tsv", 1, SelPrefError, extra=True):
        try:
            return parse_relation(fields[0])
        except SelPrefError:
            return None
    return None


def echoed_bytes(path, write, header, args):
    with _open_echoed(str(path), args, header) as out:
        write(out)
    return path.read_bytes()


def opened_bytes(path, write):
    with _open_out(str(path)) as out:
        write(out)
    return path.read_bytes()


class TestRowReaders:
    def test_pair_lists_match_reference(self):
        rng = random.Random(1111)
        seen = Counter()
        for trial in range(400):
            text = random_rows(rng, rng.randint(0, 12), GOOD_VALUES, BAD_VALUES)
            old = read_outcome(old_read_pairs, io.StringIO(text), "t.tsv")
            assert read_outcome(read_pairs, io.StringIO(text), "t.tsv") == old
            seen[old[0].__name__ if isinstance(old, tuple) else "ok"] += 1
        assert min(seen.values()) > 40, seen

    def test_gold_and_scores_match_reference(self, tmp_path):
        rng = random.Random(1212)
        seen = Counter()
        path = tmp_path / "t.tsv"
        for trial in range(400):
            text = random_rows(rng, rng.randint(0, 12), GOOD_VALUES, BAD_VALUES)
            path.write_text(text, encoding="utf-8")
            old = read_outcome(old_load_gold, io.StringIO(text), "t.tsv")
            new = read_outcome(load_gold, io.StringIO(text), "t.tsv")
            if isinstance(old, tuple):
                assert new == old
            else:
                assert list(new.items()) == list(old.items())
            with open(path, encoding="utf-8") as fh:
                old_scores = read_outcome(old_read_values, fh, str(path), False)
            new_scores = read_outcome(load_scores_file, path)
            assert new_scores == old_scores
            if isinstance(new_scores, dict):
                assert list(new_scores.items()) == list(old_scores.items())
            for outcome_ in (old, old_scores):
                seen[outcome_[0].__name__ if isinstance(outcome_, tuple) else "ok"] += 1
        assert {"ok", "GoldFormatError", "DuplicatePairError"} <= set(seen), seen
        assert min(seen.values()) > 40, seen

    def test_checkpoints_match_reference(self):
        rng = random.Random(1313)
        seen = Counter()
        for trial in range(400):
            text = random_rows(rng, rng.choice([3, 3, 3, rng.randint(0, 5)]), GOOD_EXPECTED,
                               BAD_EXPECTED)
            for relation in (SPRelation.DOBJ, SPRelation.NSUBJ):
                old = read_outcome(old_read_checkpoints, io.StringIO(text), "t.tsv", relation)
                assert read_outcome(read_checkpoints, io.StringIO(text), "t.tsv", relation) == old
                seen[old[0].__name__ if isinstance(old, tuple) else "ok"] += 1
            # without a relation, the rows must share the first row's
            old = read_outcome(old_read_checkpoints, io.StringIO(text), "t.tsv",
                               first_relation(text))
            assert read_outcome(read_checkpoints, io.StringIO(text), "t.tsv") == old
        assert {"ok", "AnnotationError", "MixedRelationError"} <= set(seen), seen
        assert min(seen.values()) > 40, seen


class TestEchoedWriters:
    def args(self, argv):
        args = build_parser().parse_args(argv)
        _resolve(args)
        return args

    def test_counts_and_candidates_match_reference(self, tmp_path):
        rng = random.Random(1414)
        counts_args = self.args(["extract", "--in", "corpus.conllu"])
        cand_args = self.args(["candidates", "--counts", "c.tsv", "--lexicon", "l.tsv",
                               "--relation", "dobj", "--seed", "3"])
        for trial in range(40):
            table = CountTable.from_pairs(random_pairs(rng, rng.randint(0, 80)))
            old = opened_bytes(tmp_path / "old.tsv", lambda out: old_write_counts(
                table, out, config=_config(counts_args)))
            new = echoed_bytes(tmp_path / "new.tsv", lambda out: write_counts(table, out),
                               COUNTS_HEADER, counts_args)
            assert new == old
            cands = [Candidate(p, rng.choice(["frequent", "random"]))
                     for p in random_pairs(rng, rng.randint(0, 30))]
            old = opened_bytes(tmp_path / "old.tsv", lambda out: old_write_candidates(
                cands, out, config=_config(cand_args)))
            new = echoed_bytes(tmp_path / "new.tsv", lambda out: write_candidates(cands, out),
                               CANDIDATES_HEADER, cand_args)
            assert new == old

    def test_aggregate_rows_match_reference(self, tmp_path):
        rng = random.Random(1515)
        args = self.args(["aggregate", "--ratings", "r.csv"])
        for trial in range(40):
            scores = {p: scale_rating_mean(rng.randint(10, 50) / 10)
                      for p in random_pairs(rng, rng.randint(0, 60))}
            old = echoed_bytes(tmp_path / "old.tsv", lambda out: old_aggregate_rows(out, scores),
                               GOLD_HEADER, args)
            new = echoed_bytes(tmp_path / "new.tsv", lambda out: write_gold(scores, out),
                               GOLD_HEADER, args)
            assert new == old
            assert new.startswith(GOLD_HEADER.encode() + b"\n#config {")


# -- Leave-one-out agreement that walked every other annotator per pair ----------

def old_leave_one_out(by_annotator: dict[str, dict[SPPair, float]]) -> list[float]:
    rhos = []
    for ann_id in sorted(by_annotator):
        mine = by_annotator[ann_id]
        shared = []
        for pair in sorted(mine):
            others = [
                table[pair]
                for other, table in by_annotator.items()
                if other != ann_id and pair in table
            ]
            if others:
                shared.append((mine[pair], sum(others) / len(others)))
        if len(shared) < 2:
            raise InsufficientOverlapError(
                f"annotator {_clip(ann_id)} shares fewer than 2 pairs with the rest"
            )
        try:
            rhos.append(spearman([a for a, _ in shared], [b for _, b in shared]))
        except ConstantInputError as err:
            raise InsufficientOverlapError(f"annotator {_clip(ann_id)}: {err}") from None
    return rhos


def random_ratings(rng):
    """annotator -> pair -> float rating, with random overlap between annotators."""
    pairs = random_pairs(rng, rng.randint(2, 30), relations=[SPRelation.DOBJ])
    coverage = rng.choice([0.2, 0.5, 0.9, 1.0])
    by_annotator = {}
    for _ in range(rng.randint(2, 9)):
        table = {p: float(rng.randint(RATING_MIN, RATING_MAX)) for p in pairs
                 if rng.random() < coverage}
        by_annotator[f"a{rng.randint(0, 99):02d}"] = table
    return by_annotator


class TestLeaveOneOut:
    def test_matches_reference(self):
        rng = random.Random(1616)
        seen = Counter()
        for trial in range(600):
            by_annotator = random_ratings(rng)
            old = read_outcome(old_leave_one_out, by_annotator)
            assert read_outcome(_leave_one_out, by_annotator) == old, trial
            seen["ok" if isinstance(old, list) else
                 "constant" if "variance" in old[1] else "overlap"] += 1
        assert min(seen.values()) > 20 and len(seen) == 3, seen

    @pytest.mark.parametrize("by_annotator, message", [
        ({"a": {"p1": 1.0, "p2": 2.0}, "b": {"p1": 3.0, "p3": 4.0}},
         "annotator 'a' shares fewer than 2 pairs with the rest"),
        ({"a": {"p1": 3.0, "p2": 3.0, "p3": 3.0}, "b": {"p1": 1.0, "p2": 4.0, "p3": 5.0}},
         "annotator 'a': rank variance is zero (constant input)"),
    ], ids=["too few shared", "constant ranks"])
    def test_errors_match_reference(self, by_annotator, message):
        by_annotator = {ann: {SPPair(SPRelation.DOBJ, "eat", p): r for p, r in table.items()}
                        for ann, table in by_annotator.items()}
        expected = (InsufficientOverlapError, message)
        assert read_outcome(old_leave_one_out, by_annotator) == expected
        assert read_outcome(_leave_one_out, by_annotator) == expected
