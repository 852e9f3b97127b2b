"""The fast paths checked against the slow references they replaced.

The references below are the earlier implementations, kept verbatim as
test-only code: a count table with one flat ``(head, dependent)`` counter
per relation plus parallel marginal and total counters, the counts reader
that built an ``SPPair`` per row, the scalar ``ds`` loop with its scalar
``cosine``, the
pseudo-disambiguation loop that re-sorted the pool for every test pair,
the CoNLL-U pipeline that built a ``Token`` per line, a ``Sentence`` per
sentence and an ``SPPair`` per extracted pair (replaced by the rows of
``read_conllu``, the rules of ``_rule_pairs`` and the one pass of
``count_conllu``), the OMCS index that lemmatized every token
occurrence, with its reader, the OMCS index that kept every triplet
(replaced by one built for the gold's words), the NN trainer that
passed gradient dicts to an ``apply`` step and took the CLI's
pair-by-pair expansion of a count table, the prediction, survey and gold-set records that
stored derived fields beside the facts they derive from, and the
pair-list, gold, score and checkpoint readers that located their own
row faults, with the writers that wrote their own header and
``#config`` line, the leave-one-out agreement that walked every
other annotator for each pair, the average ranks that walked each
tie group in a Python loop, the Spearman over those numpy ranks with
the bootstrap that called it once per resample, and the ratings reader
that built a pair for every row, and the vectors reader that split every
line and parsed each component with float(), the counts writer that
sorted a relation's rows at once, and the candidate and confounder
draws that rebuilt the lexicon pool for every head and every pair.
``ds_score`` with each pair's head prepared afresh is the reference
for ``DSModel``, which keeps its last head prepared.
Counts must match exactly; ``ds`` within 1e-12 (the mat-vec sums in
another order), with the same None / zero-norm EmbeddingError outcomes, and
``DSModel`` bit for bit, or the same EmbeddingError; CoNLL-U
counting with the same error text and the same warnings in order, the
reader's rows as the old tokens and the rules' pairs as the old pairs
or the same lemma error; OMCS index tables, witnesses and matrices
exactly (the index built for the gold's words keeps exactly the
triplets with one of their lemmas in each phrase), the reader's
triplets and error text exactly; NN models byte for byte, with the
same epoch losses; predictions, surveys and gold sets
exactly, in order, with the same error text; the readers' results in
order or the same error type and text; the written artifacts byte for
byte; leave-one-out rhos exactly, or the same error text; ranks byte
for byte, or the same error text, rhos bit for bit, or the same error
type and text, and bootstrap p-values exactly; the ratings exactly, or
the same error text; the vectors' words and matrix bytes exactly, with
the same duplicate warning, or the same error type and text; the counts
rows byte for byte; candidate lists and pseudo-disambiguation accuracies
exactly, or the same error type and text.
"""

import csv
import gzip
import io
import json
import logging
import math
import random
import tracemalloc
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np
import pytest

from selpref.annotate import (
    CHECKPOINTS_PER_SURVEY,
    PAIRS_PER_SURVEY,
    RATING_MAX,
    RATING_MIN,
    RATING_OPTIONS,
    RATINGS_COLUMNS,
    AnnotationError,
    RawRating,
    _leave_one_out,
    generate_survey,
    parse_rating_set,
    read_checkpoints,
    read_ratings,
    render_question,
    scale_rating_mean,
)
from selpref.cli import _config, _open_echoed, _open_out, _resolve, build_parser
from selpref.commonsense import (
    GroupStats,
    MatchKind,
    OMCSIndex,
    OMCSTriplet,
    PlausibilityGroup,
    RelationMatrix,
    _witnesses,
    classify_plausibility,
    coverage_by_group,
    read_omcs,
    relation_matrix,
)
from selpref.conllu import CorpusFormatError, read_conllu
from selpref import embeddings
from selpref.core import (
    BadLemmaError,
    Lexicon,
    LexiconError,
    SelPrefError,
    SPPair,
    SPRelation,
    _clip,
    _pair,
    _rows,
    _shown,
    check_plausibility,
    open_input,
    parse_relation,
)
from selpref.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    _non_finite_row,
    load_embeddings,
)
from selpref.evaluation import (
    GOLD_HEADER,
    ConstantInputError,
    GoldSet,
    NoTestPairsError,
    _average_ranks,
    _value,
    load_gold,
    load_scores_file,
    pseudo_disambiguation,
    significance,
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
    _Excluding,
    _rule_pairs,
    count_conllu,
    generate_candidates,
    read_counts,
    read_pairs,
    write_candidates,
    write_counts,
)
from selpref.lemmatize import lemmatize
from selpref.nn import NNConfig, NNError, NNModel, nn_train
from selpref.scorers import DSModel, LookupModel, PPModel, _attested, ds_score
from selpref.winograd import (
    OBJECT,
    SUBJECT,
    Mention,
    Outcome,
    WinogradQuestion,
    resolve,
)
from test_scorers import embedding_table

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

    def dependents_of(self, relation, head):
        return {
            d: c for (h, d), c in self._pairs[relation].items() if h == head
        }

    def heads(self, relation):
        return list(self._marginals[relation])

    def items(self, relation):
        for (head, dep), count in self._pairs[relation].items():
            yield head, dep, count


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


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise EmbeddingError("cosine of a zero-norm vector is undefined")
    # rounding can push dot/(na*nb) an ulp past +-1 for (anti)parallel
    # vectors; clamp so downstream averages stay inside [-1, 1]
    return max(-1.0, min(1.0, float(np.dot(a, b) / (na * nb))))


def scalar_ds_score(counts, emb, pair):
    if pair.dependent not in emb.index:
        return None
    target = emb.matrix[emb.index[pair.dependent]]
    attested = counts.dependents_of(pair.relation, pair.head)
    if not attested:
        return None
    num = 0.0
    z = 0.0
    for dep, weight in attested.items():
        if dep not in emb.index:
            continue
        vec = emb.matrix[emb.index[dep]]
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
            assert_same_table(CountTable.from_pairs(pairs), FlatCountTable.from_pairs(pairs))

    def test_dependents_of_is_a_read_only_view(self):
        table = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "eat", "fish")])
        with pytest.raises(TypeError):
            table.dependents_of(SPRelation.DOBJ, "eat")["rock"] = 1
        with pytest.raises(TypeError):
            table.dependents_of(SPRelation.DOBJ, "drink")["rock"] = 1
        assert table.heads(SPRelation.DOBJ) == ["eat"]


class TestReadCounts:
    def roundtrip(self, table):
        buf = io.StringIO()
        write_counts(table, buf)
        return buf.getvalue()

    def test_fixture_table_matches_reference_in_order(self):
        text = self.roundtrip(count_conllu(io.StringIO(FIXTURE.read_text(encoding="utf-8"))))
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
        "dobj\t eat\tfish\t1",
        "dobj\teat\tfish\xa0\t1",
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
    return embedding_table(vectors)


ZERO_NORM = "cosine of a zero-norm vector is undefined"


def zero_norm(pair):
    """The zero-norm error ``ds_score`` raises, which names the pair it scores."""
    return f"{ZERO_NORM} for {pair.relation} pair {_clip(pair.head)} {_clip(pair.dependent)}"


def outcome(fn, *args):
    try:
        return fn(*args)
    except EmbeddingError as err:
        assert str(err) == (ZERO_NORM if fn is scalar_ds_score else zero_norm(args[-1]))
        return EmbeddingError


def fresh_ds_score(counts, emb, pair):
    """``ds_score`` with the pair's head prepared for this pair alone."""
    return ds_score(emb, _attested(counts, emb, pair.relation, pair.head), pair)


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
            model = DSModel(table, emb)
            for head in [f"h{h}" for h in range(6)]:  # h5 is never seen
                for dep in words + ["no-vector"]:
                    pair = SPPair(SPRelation.DOBJ, head, dep)
                    want = outcome(scalar_ds_score, flat, emb, pair)
                    got = outcome(model.score, pair)
                    if want is None or want is EmbeddingError:
                        assert got is want, (trial, pair)
                        checked["none" if want is None else "zero"] += 1
                    else:
                        assert isinstance(got, float)
                        assert abs(got - want) <= 1e-12, (trial, pair, got, want)
                        checked["value"] += 1
        assert min(checked.values()) > 100, checked

    def test_unseen_head_with_zero_norm_target_is_missing(self):
        emb = embedding_table({"zero": np.zeros(2), "fish": np.ones(2)})
        table = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "eat", "fish")])
        pair = SPPair(SPRelation.DOBJ, "drink", "zero")
        assert scalar_ds_score(table, emb, pair) is None
        assert DSModel(table, emb).score(pair) is None

    def test_zero_norm_target_raises_only_with_an_embedded_attested(self):
        emb = embedding_table({"zero": np.zeros(2), "fish": np.ones(2)})
        table = CountTable.from_pairs([
            SPPair(SPRelation.DOBJ, "eat", "fish"),
            SPPair(SPRelation.DOBJ, "drink", "no-vector"),
        ])
        with pytest.raises(EmbeddingError, match=f"^{ZERO_NORM} for dobj pair 'eat' 'zero'$"):
            DSModel(table, emb).score(SPPair(SPRelation.DOBJ, "eat", "zero"))
        assert DSModel(table, emb).score(SPPair(SPRelation.DOBJ, "drink", "zero")) is None

    def test_embedding_rows_are_the_given_vectors(self):
        rng = np.random.default_rng(7)
        vectors = {f"w{i}": rng.normal(size=5) for i in range(20)}
        emb = EmbeddingTable(list(vectors), np.array(list(vectors.values())))
        for w, v in vectors.items():
            assert np.array_equal(emb.matrix[emb.index[w]], v)
            assert emb.norms[emb.index[w]] == pytest.approx(np.linalg.norm(v), rel=1e-15)
        assert "absent" not in emb.index
        with pytest.raises(ValueError):
            emb.matrix[emb.index["w0"]][0] = 1.0


    def test_loaded_matrix_matches_per_word_vectors(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2 3\nb 0 0 0\na 9 9 9\nc -1.5 2e-3 4\n")
        emb = load_embeddings(path)
        ref = embedding_table({"a": np.array([1.0, 2, 3]), "b": np.zeros(3),
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
            EmbeddingTable(["a", "c"], np.array([[1.0, 1.0], [np.nan, 1.0]]))


    @staticmethod
    def memo_case(rng):
        """A table over two relations whose heads share names, word
        vectors (a zero one in some cases) and the queries: every head,
        an unseen one too, with words of the table and one without a
        vector."""
        words = [f"d{i}" for i in range(10)]
        emb = random_embeddings(rng, words, rng.randint(1, 5), with_zero=rng.random() < 0.3)
        pairs = [SPPair(rel, f"h{h}", dep)
                 for rel in (SPRelation.DOBJ, SPRelation.NSUBJ) for h in range(rng.randint(1, 4))
                 for dep in rng.sample(words, rng.choice([1, 2, 5]))
                 for _ in range(rng.choice([1, 3]))]
        queries = [SPPair(rel, f"h{h}", dep)
                   for rel in (SPRelation.DOBJ, SPRelation.NSUBJ) for h in range(5)
                   for dep in words[:6] + ["no-vector"]]
        return CountTable.from_pairs(pairs), emb, queries

    @staticmethod
    def bits(value):
        return value if value is None or value is EmbeddingError else np.float64(value).tobytes()

    def test_model_memo_matches_ds_score_bit_for_bit(self):
        rng = random.Random(707)
        checked = Counter()
        for _ in range(80):
            table, emb, grouped = self.memo_case(rng)
            interleaved = sorted(grouped, key=lambda p: (p.dependent, p.relation, p.head))
            repeated = [p for p in grouped for _ in range(2)] + grouped
            shuffled = grouped[:]
            rng.shuffle(shuffled)
            for order in (grouped, interleaved, repeated, shuffled):
                model = DSModel(table, emb)  # each order starts cold
                for pair in order:
                    want = self.bits(outcome(fresh_ds_score, table, emb, pair))
                    assert self.bits(outcome(model.score, pair)) == want, pair
                    checked["value" if isinstance(want, bytes) else str(want)] += 1
        assert len(checked) == 3 and min(checked.values()) > 500, checked

    def test_model_keeps_one_head_alive(self):
        """Scoring every head of a 10,000-head table keeps at most one
        head's prepared rows, norms and weights alive."""
        heads, degree, dim = 10_000, 8, 256
        rng = np.random.default_rng(3)
        nouns = [f"n{j}" for j in range(50)]
        emb = EmbeddingTable(nouns, rng.standard_normal((len(nouns), dim)))
        table = CountTable()
        for i in range(heads):
            for j in range(degree):
                table._heads[SPRelation.DOBJ][f"v{i}"][nouns[(i + 7 * j) % len(nouns)]] += 1
        queries = [SPPair(SPRelation.DOBJ, f"v{i}", "n0") for i in range(heads)]
        one_head = (degree * dim + 2 * degree) * 8  # rows, norms and weights
        model = DSModel(table, emb)
        warm, rest = queries[:2], queries[2:]
        for pair in warm:
            model.score(pair)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for pair in rest:
                model.score(pair)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the last head's slice, and the one before it while it is replaced
        assert kept - base < 2 * one_head, (kept - base, one_head)
        assert peak - base < 3 * one_head, (peak - base, one_head)


class TestCosine:
    def test_parallel(self):
        assert cosine(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(EmbeddingError, match=f"^{ZERO_NORM}$"):
            cosine(np.zeros(2), np.ones(2))





# The vectors reader that load_embeddings replaced, verbatim but for names.

old_vectors_log = logging.getLogger("reference.embeddings")


def old_load_embeddings(path) -> EmbeddingTable:
    """Read GloVe text format: `word v1 v2 ... vd`, one entry per line.

    Duplicate words keep their first occurrence; a dimension change
    mid-file or a kept non-finite vector is an error naming its line.
    The components go straight into one flat buffer, read once.
    """
    words: dict[str, int] = {}  # kept word -> its line, in row order
    buf = array("d")
    dim = None
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise EmbeddingError(f"{path}:{lineno}: no vector components")
            word = parts[0]
            try:
                vec = [float(x) for x in parts[1:]]
            except ValueError:
                raise EmbeddingError(f"{path}:{lineno}: non-numeric component") from None
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise EmbeddingError(
                    f"{path}:{lineno}: dimension {len(vec)} != {dim}"
                )
            if word not in words:
                words[word] = lineno
                buf.extend(vec)
    if not words:
        raise EmbeddingError(f"{path}: empty embedding file")
    if lineno > len(words):  # every line read is kept or a duplicate
        old_vectors_log.warning("%s: %d duplicate words ignored (first kept)", path,
                                lineno - len(words))
    matrix = np.frombuffer(buf).reshape(len(words), dim)
    if (row := _non_finite_row(matrix)) is not None:
        word, lineno = list(words.items())[row]
        raise EmbeddingError(f"{path}:{lineno}: non-finite component in vector for {_clip(word)}")
    return EmbeddingTable(list(words), matrix)


NUMBERS = ["1", "-0.5", "2.50", "+3", ".5", "5.", "1e-3", "-0", "0", "0.1", "-7.25e+2",
           "123456789012345678901234567890"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "1e400", "9" * 400, "infinity"]
# tokens float() and numpy may read apart: separators \x1c-\x1f around or
# inside a number, other whitespace, underscores and non-ASCII digits
ODD_NUMBERS = ["1_0", "١٢", "１",
               "1\x1c", "\x1d1", "1\x1e2", "\x1f", "1\t", "\t1", "1\x0b", "\xa01", "1\x85", "x",
               "", "0x1", "1,5", "1e", "--1"]
VECTOR_WORDS = ["a", "b", "c", "dog", "#c", '"q"', "﻿a", "w\x1cx", "caf\xe9", "x" * 50]


def random_vectors_file(rng, tmp_path, case):
    """A vectors file of a few lines, most of them plain, some bent:
    odd numbers, blank and whitespace-only lines, leading, trailing
    and double spaces, tabs, a dimension change, duplicates, CRLF or CR
    line ends, no last newline, gzip, bad UTF-8 or a cut gzip stream."""
    dim = rng.randint(1, 4)
    bend = rng.random() < 0.6
    lines = []
    for _ in range(rng.choice([0, 1, 2, 3, 5, 8])):
        word = rng.choice(VECTOR_WORDS[:4] if not bend else VECTOR_WORDS)
        numbers = [rng.choice(ODD_NUMBERS if bend and roll < 0.1 else
                              NON_FINITE if roll > 0.98 else NUMBERS)
                   for roll in (rng.random() for _ in range(dim))]
        line = " ".join([word, *numbers])
        if bend and rng.random() < 0.3:
            line = rng.choice([
                lambda s: "", lambda s: " ", lambda s: "  ", lambda s: "\t",
                lambda s: " " + s, lambda s: s + " ", lambda s: s.replace(" ", "  ", 1),
                lambda s: s.replace(" ", "\t", 1), lambda s: s.rsplit(" ", 1)[0],
                lambda s: s + " 1",
            ])(line)
        lines.append(line)
    end = rng.choice(["\n"] * 6 + ["\r\n", "\r"])
    text = end.join(lines) + (end if lines and rng.random() < 0.9 else "")
    data = text.encode()
    if bend and lines and rng.random() < 0.2:
        cut = rng.randint(0, len(data))
        data = data[:cut] + b"\xff" + data[cut:]
    gz = rng.random() < 0.25
    if gz:
        data = gzip.compress(data)
        if bend and rng.random() < 0.15:
            data = data[:rng.randint(1, len(data) - 1)]
    path = tmp_path / f"v{case}.txt{'.gz' if gz else ''}"
    path.write_bytes(data)
    return path


def vectors_outcome(load, path, caplog):
    """(words, matrix shape and bytes) or (error type, text), and the
    duplicate warnings logged."""
    caplog.clear()
    try:
        emb = load(path)
        got = (list(emb.index), emb.matrix.shape, emb.matrix.tobytes())
    except SelPrefError as err:
        got = (type(err), str(err))
    return got, [r.getMessage() for r in caplog.records if "duplicate" in r.getMessage()]


class TestLoadEmbeddings:
    def test_matches_reference_reader(self, tmp_path, monkeypatch, caplog):
        rng = random.Random(808)
        opened, line_reads = [], []
        monkeypatch.setattr(embeddings, "open_input",
                            lambda path, _open=embeddings.open_input:
                            opened.append(path) or _open(path))
        monkeypatch.setattr(embeddings, "_read_lines",
                            lambda fh, path, _read=embeddings._read_lines:
                            line_reads.append(path) or _read(fh, path))
        checked = Counter()
        for case in range(700):
            path = random_vectors_file(rng, tmp_path, case)
            want = vectors_outcome(old_load_embeddings, path, caplog)
            opened.clear()
            got = vectors_outcome(load_embeddings, path, caplog)
            assert got == want, (case, path.read_bytes()[:200])
            assert opened == [path]
            if isinstance(want[0][0], list):
                kind = "ok"
            elif want[0][1].endswith(": empty embedding file"):
                kind = "empty"
            elif want[0][0] is SelPrefError:
                kind = "decode"
            else:
                kind = want[0][0].__name__
            checked[kind] += 1
            checked[kind, "lines" if line_reads[-1:] == [path] else "numpy"] += 1
            checked["duplicates"] += bool(want[1])
        for kind in [("ok", "numpy"), ("ok", "lines"), ("EmbeddingError", "numpy"),
                     ("EmbeddingError", "lines"), "empty", "decode",
                     "duplicates"]:
            assert checked[kind] >= 10, checked

    @pytest.mark.parametrize("fault, error", [
        (None, SelPrefError), ("1_0", SelPrefError), ("x", EmbeddingError),
        ("1\x1c", EmbeddingError)], ids=["none", "underscore", "letter", "separator"])
    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    def test_a_late_decode_error_comes_after_the_lines_before_it(self, tmp_path, monkeypatch,
                                                                 caplog, fault, error, gz):
        """Past the first chunk the text wrapper decodes, a bad byte or a
        cut gzip stream meets the first pass after lines it has read; the
        per-line reader reads them again and faults first on a number
        float() refuses in one of them, as the reference does."""
        lines = [f"w{i} {i} 0.5" for i in range(2000)]
        if fault:
            lines[1500] = f"w1500 {fault} 0.5"
        data = ("\n".join(lines) + "\n").encode()
        path = tmp_path / ("v.txt.gz" if gz else "v.txt")
        path.write_bytes(gzip.compress(data)[:-20] if gz else data + b"\xff\n")
        opened = []
        monkeypatch.setattr(embeddings, "open_input",
                            lambda path, _open=embeddings.open_input:
                            opened.append(path) or _open(path))
        got = vectors_outcome(load_embeddings, path, caplog)
        assert got == vectors_outcome(old_load_embeddings, path, caplog)
        assert opened == [path]
        assert got[0][0] is error

    @pytest.mark.parametrize("text", ["a 1 2\na 1\t2\n", "a 1 2\nb 1_0 2\n", "a 1 2\nb 1\x1c 2\n",
                                      "a 1 2\n\nb 1 2\n"],
                             ids=["tab", "underscore", "separator", "blank line"])
    def test_a_line_numpy_cannot_take_is_read_by_float(self, tmp_path, caplog, text):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        assert vectors_outcome(load_embeddings, path, caplog) == \
            vectors_outcome(old_load_embeddings, path, caplog)


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
            emb = embedding_table({w: np.array([rng.gauss(0, 1) for _ in range(4)])
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
    return CountTable.from_pairs(
        pair for sentence in corpus
        for pair in old_extract_pairs(sentence, include_passive=include_passive))


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
        """read_conllu's rows (their first five fields, skipped sentences
        left out) are the old reader's tokens, and _rule_pairs finds the
        old extract_pairs' pairs, or the same lemma error."""
        def old_sentences():
            return [[(t.index, t.lemma, t.upos, t.head_index, t.deprel) for t in s]
                    for s in old_read_conllu(io.StringIO(text), "c.conllu", skip)]

        def new_sentences():
            return [[row[:5] for row in rows]
                    for rows in read_conllu(io.StringIO(text), "c.conllu", skip)
                    if rows is not None]

        rng = random.Random(808)
        for trial in range(100):
            text, _ = random_corpus(rng, rng.randint(1, 12))
            for skip in (False, True):
                want = run_logged(caplog, old_sentences)
                got = run_logged(caplog, new_sentences)
                assert got == want, (trial, skip, text)
                if isinstance(want[0], tuple):
                    continue
                for old, new in zip(old_read_conllu(io.StringIO(text), "c", skip), got[0]):
                    for passive in (False, True):
                        try:
                            want_pairs = old_extract_pairs(old, passive)
                        except BadLemmaError as err:
                            want_pairs = ("lemma", str(err))
                        try:
                            got_pairs = [SPPair(rel, head[1], dep[1])
                                         for rel, head, dep in _rule_pairs(new, passive)]
                        except BadLemmaError as err:
                            got_pairs = ("lemma", str(err))
                        assert got_pairs == want_pairs, (trial, skip, passive, text)


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


class FullOMCSIndex:
    """Token postings over lemmatized triplet phrases: the ids of the
    triplets whose start phrase, and whose end phrase, holds each lemma.
    Exact witnesses need no index of their own: they are the token
    witnesses whose two phrases are one token each.

    The lemmatizer is applied to triplet tokens at build time and to
    query words at match time, so both sides are normalized identically.
    It must be a pure function: its result for each distinct word is
    cached for the life of the index, so it runs once per word.
    ``distinct_tokens`` is the number of distinct triplet tokens.
    """

    def __init__(
        self,
        triplets,
        lemmatizer=lemmatize,
    ):
        self._lemmatizer = lemmatizer
        self._lemmas = {}
        self.triplets = list(triplets)
        starts = defaultdict(set)
        ends = defaultdict(set)
        lemma = self._lemma
        for i, t in enumerate(self.triplets):
            for tok in t.start:
                starts[lemma(tok)].add(i)
            for tok in t.end:
                ends[lemma(tok)].add(i)
        self._start_tokens = starts
        self._end_tokens = ends
        self.distinct_tokens = len(self._lemmas)

    def _lemma(self, word):
        lemma = self._lemmas.get(word)
        if lemma is None:
            lemma = self._lemmas[word] = self._lemmatizer(word.lower())
        return lemma

    def __len__(self) -> int:
        return len(self.triplets)


def full_witnesses(pair, index):
    """The pair's witnesses in id order. Exact wins: EXACT comes with the
    exact witnesses alone, PARTIAL with every token witness, and NONE
    with no witnesses."""
    h = index._lemma(pair.head)
    d = index._lemma(pair.dependent)
    starts, ends = index._start_tokens, index._end_tokens
    ids = (starts.get(h, set()) & ends.get(d, set())) | (starts.get(d, set()) & ends.get(h, set()))
    if not ids:
        return MatchKind.NONE, []
    witnesses = [index.triplets[i] for i in sorted(ids)]
    exact = [t for t in witnesses if len(t.start) == 1 == len(t.end)]
    if exact:
        return MatchKind.EXACT, exact
    return MatchKind.PARTIAL, witnesses


def old_witnesses(pair, index):
    """The exact-wins rule, as the deleted ``match_pair`` applied it."""
    exact = index.exact_witnesses(pair)
    if exact:
        return MatchKind.EXACT, exact
    partial = index.partial_witnesses(pair)
    return (MatchKind.PARTIAL if partial else MatchKind.NONE), partial


def old_coverage_by_group(gold, index):
    """Table of match kinds per plausibility group (pair-level counts)."""
    stats = {g: GroupStats(g) for g in PlausibilityGroup}
    for pair, value in gold.items():
        s = stats[classify_plausibility(value)]
        s.n_pairs += 1
        kind = old_witnesses(pair, index)[0]
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


def old_triplet(start, relation, end):
    """The checks ``OMCSTriplet`` made on construction, which the row
    reader makes now."""
    if not start or not end:
        raise SelPrefError("triplet phrases must be non-empty")
    if not relation:
        raise SelPrefError("triplet relation label must be non-empty")
    return OMCSTriplet(start, relation, end)


def old_read_omcs(fh, source="<stream>"):
    """TSV: start phrase, relation label, end phrase."""
    out = []
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise SelPrefError(
                f"{source}:{lineno}: expected 3 columns, got {len(fields)}"
            )
        start, rel, end = fields
        try:
            out.append(old_triplet(tuple(start.split()), rel, tuple(end.split())))
        except SelPrefError as err:
            raise SelPrefError(f"{source}:{lineno}: {err}") from None
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
    except SelPrefError as err:
        return ("error", str(err))


def new_omcs_outcome(text, newline):
    try:
        return read_omcs(io.StringIO(text, newline=newline), "o.tsv")
    except SelPrefError as err:
        return ("error", str(err))


def gold_words(gold):
    return {w for p in gold.pairs() for w in (p.head, p.dependent)}


class TestOMCSIndex:
    def check_against_reference(self, triplets, gold, lemmatizer=lemmatize, words=None):
        words = gold_words(gold) if words is None else words
        new = OMCSIndex(triplets, words, lemmatizer)
        full = FullOMCSIndex(triplets, lemmatizer)
        old = OldOMCSIndex(triplets, lemmatizer)
        assert full.triplets == old.triplets and len(full) == len(old)
        assert full._start_tokens == dict(old._start_tokens)
        assert full._end_tokens == dict(old._end_tokens)
        # the new index reads every row and keeps those with a lemma of
        # the words in both phrases, in input order
        wanted = {lemmatizer(w.lower()) for w in words}
        assert new.triplets_read == len(full) and new.distinct_tokens == full.distinct_tokens
        assert new.triplets == [t for t in triplets
                                if wanted & {lemmatizer(w.lower()) for w in t.start}
                                and wanted & {lemmatizer(w.lower()) for w in t.end}]
        assert set(new._start_tokens) | set(new._end_tokens) <= wanted
        for pair, _ in gold.items():
            (want_kind, want), (got_kind, got) = old_witnesses(pair, old), full_witnesses(pair, full)
            # the same triplet objects, not just equal ones
            assert got_kind is want_kind and list(map(id, got)) == list(map(id, want)), pair
            assert _witnesses(pair, new) == (want_kind, want), pair
        assert coverage_by_group(gold, new) == old_coverage_by_group(gold, old)
        got, want = relation_matrix(gold, new), old_relation_matrix(gold, old)
        for kind in (MatchKind.EXACT, MatchKind.PARTIAL):
            assert got.to_csv(kind) == want.to_csv(kind)
        assert got.to_dict() == want.to_dict()
        return new

    def test_random_triplets_match_reference(self):
        rng = random.Random(1234)
        kinds = Counter()
        dropped = 0
        for trial in range(60):
            triplets = random_triplets(rng, rng.randint(0, 80))
            gold = random_gold(rng, rng.choice((5, 40)))
            index = self.check_against_reference(triplets, gold)
            dropped += len(triplets) - len(index.triplets)
            for pair, _ in gold.items():
                kind, witnesses = _witnesses(pair, index)
                kinds[kind] += 1
                # a triplet with one-token phrases that witnesses a pair is exact
                assert kind is not MatchKind.PARTIAL or all(
                    len(t.start) > 1 or len(t.end) > 1 for t in witnesses), (pair, witnesses)
        assert min(kinds[k] for k in MatchKind) > 100, kinds
        assert dropped > 100

    def test_words_that_differ_only_in_case(self):
        rng = random.Random(31)
        for trial in range(20):
            triplets = random_triplets(rng, 60)
            gold = random_gold(rng, 30)
            words = gold_words(gold)
            cased = {w.upper() for w in words} | {w.capitalize() for w in words}
            self.check_against_reference(triplets, gold, words=words | cased)
            index = self.check_against_reference(triplets, gold, words=cased)
            assert index._wanted == {lemmatize(w) for w in words}

    def test_a_gold_lemma_in_one_phrase_only_drops_the_triplet(self):
        gold = GoldSet([(SPPair(SPRelation.DOBJ, "eat", "apple"), 9.0)])
        one_side = [OMCSTriplet(("ate",), "IsA", ("stone",)),
                    OMCSTriplet(("eat", "apples"), "UsedFor", ("stone",)),
                    OMCSTriplet(("stone",), "IsA", ("apple",))]
        both = OMCSTriplet(("eating", "stone"), "UsedFor", ("Apples",))
        index = self.check_against_reference([*one_side, both], gold)
        assert index.triplets == [both] and index.triplets_read == 4
        assert _witnesses(SPPair(SPRelation.DOBJ, "eat", "apple"), index) == (
            MatchKind.PARTIAL, [both])
        index = self.check_against_reference(one_side, gold)
        assert index.triplets == [] and index.triplets_read == 3

    def test_matching_unseen_lemmas_adds_no_posting(self):
        rng = random.Random(77)
        gold = random_gold(rng, 60)
        index = OMCSIndex(random_triplets(rng, 80), gold_words(gold))
        starts, ends = set(index._start_tokens), set(index._end_tokens)
        # gold lemmas that no triplet holds, "stone" and "tasty" at least
        assert index._wanted - starts and index._wanted - ends
        for pair, _ in gold.items():
            _witnesses(pair, index)
        coverage_by_group(gold, index)
        relation_matrix(gold, index)
        assert set(index._start_tokens) == starts and set(index._end_tokens) == ends

    def test_a_pair_the_index_was_not_built_for_is_an_error(self):
        triplets = [OMCSTriplet(("eat",), "UsedFor", ("apple",))]
        index = OMCSIndex(triplets, ["eats", "Apple"])
        assert _witnesses(SPPair(SPRelation.DOBJ, "eating", "apples"), index) == (
            MatchKind.EXACT, triplets)
        for head, dep in (("eat", "stone"), ("drink", "apple"), ("drink", "stone")):
            with pytest.raises(SelPrefError, match="OMCS index not built for"):
                _witnesses(SPPair(SPRelation.DOBJ, head, dep), index)
        gold = GoldSet([(SPPair(SPRelation.DOBJ, "eat", "stone"), 1.0)])
        with pytest.raises(SelPrefError, match="OMCS index not built for"):
            coverage_by_group(gold, index)
        with pytest.raises(SelPrefError, match="OMCS index not built for"):
            relation_matrix(gold, index)

    def test_empty_index_matches_reference(self):
        gold = random_gold(random.Random(5), 30)
        index = self.check_against_reference([], gold)
        assert index.triplets_read == 0 and index.distinct_tokens == 0
        assert index.triplets == []

    def test_custom_lemmatizer_is_honoured(self):
        def first_three(word):
            return word[:3]

        rng = random.Random(99)
        for trial in range(10):
            self.check_against_reference(random_triplets(rng, 60), random_gold(rng, 60),
                                         first_three)
        # every word here folds to "sto" under the custom lemmatizer only
        pair = SPPair(SPRelation.DOBJ, "stopped", "stone")
        triplets = [OMCSTriplet(("stop",), "IsA", ("stoat",))]
        words = ["stopped", "stone"]
        assert _witnesses(pair, OMCSIndex(triplets, words, first_three)) == (
            MatchKind.EXACT, triplets)
        assert _witnesses(pair, OMCSIndex(triplets, words)) == (MatchKind.NONE, [])

    def test_lemmatizer_runs_once_per_distinct_word(self):
        calls = Counter()

        def counting(word):
            calls[word] += 1
            return lemmatize(word)

        rng = random.Random(4321)
        triplets = random_triplets(rng, 200)
        gold = random_gold(rng, 100)
        index = OMCSIndex(triplets, gold_words(gold), counting)
        tokens = {tok for t in triplets for tok in t.start + t.end}
        words = tokens | gold_words(gold)
        assert index.distinct_tokens == len(tokens) < sum(calls.values()) == len(words)
        coverage_by_group(gold, index)
        relation_matrix(gold, index)
        for pair, _ in gold.items():
            _witnesses(pair, index)
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


# -- NN trainer: the per-instance SGD it replaced -----------------------------

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
                raise NNError(
                    f"{rel.value}: head {p.head!r} not in the {rel.head_pos} pool"
                )
            if p.dependent not in dep_pool:
                raise NNError(
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
                raise NNError(
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
        net.losses = losses  # NNModel.save reads each net's losses
    return model


def instances(counts):
    """The training stream ``train-nn`` built from a count table: one
    ``SPPair`` per counted occurrence, relations in ``SPRelation`` order."""
    for rel in SPRelation:
        for head, dep, count in counts.items(rel):
            for _ in range(count):
                yield SPPair(rel, head, dep)


def random_nn_case(rng):
    """A random config at batch size 1 and a count table over a small
    random lexicon.

    Some heads are attested with every dependent but one, so the
    negative sampler has a single free dependent to find. Learning rates
    of 1 and 2 saturate tanh, so some gradients are exact zeros.
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
    table = CountTable.from_pairs(pairs)
    config = NNConfig(
        embedding_dim=rng.randint(1, 8), hidden_dim=rng.randint(1, 16),
        margin=rng.choice([0.5, 1.0, 4.0]), negatives_per_positive=rng.randint(1, 3),
        epochs=rng.randint(0, 3), learning_rate=rng.choice([0.01, 0.1, 1.0, 2]),
        seed=rng.randrange(10_000), batch_size=1)
    return table, config, vocab


# At batch size 1 the minibatch step draws the reference's random stream,
# but it sums an instance's gradients before adding them and computes its
# products row-wise, so weights and losses agree only up to rounding. Over
# the 48 random configs the largest gaps were about 1e-9 (weights) and
# 1e-12 (losses).
WEIGHT_ATOL, LOSS_ATOL = 1e-8, 1e-11


def assert_matches_reference(new, old, context):
    assert list(new.nets) == list(old.nets), context
    for rel, net in new.nets.items():
        ref = old.nets[rel]
        assert (net.head_index, net.dep_index) == (ref.head_index, ref.dep_index), context
        for name in ("emb_head", "emb_dep", "w1", "b1", "w2"):
            np.testing.assert_allclose(getattr(net, name), getattr(ref, name), rtol=0,
                                       atol=WEIGHT_ATOL, err_msg=f"{context} {rel} {name}")
        assert ref.b2 == 0.0, context  # why the net can do without it
        assert len(net.losses) == len(ref.losses), context
        np.testing.assert_allclose(net.losses, ref.losses, rtol=0, atol=LOSS_ATOL,
                                   err_msg=f"{context} {rel} losses")


class TestNNTrainer:
    def test_random_configs_match_reference(self):
        rng = random.Random(2014)
        seen = Counter()
        for trial in range(48):
            table, config, vocab = random_nn_case(rng)
            old = old_nn_train(instances(table), config, vocab)
            new = nn_train(table, config, vocab)
            assert_matches_reference(new, old, (trial, config))
            seen[f"negatives={config.negatives_per_positive}"] += 1
            seen[f"epochs={config.epochs}"] += 1
            seen["several relations"] += len(new.nets) > 1
            seen["trained"] += bool(config.epochs)
        assert min(seen.values()) >= 6, seen

    def test_release_dims_match_reference(self):
        # the default 50/100 dims, where the row products run in BLAS kernels
        words = ["eat", "see", "fish", "worm", "bird", "stone", "bread", "cat"]
        vocab = Lexicon(verbs=frozenset(words[:2]), nouns=frozenset(words[2:]),
                        adjectives=frozenset())
        rng = random.Random(7)
        table = CountTable.from_pairs(
            SPPair(SPRelation.DOBJ, rng.choice(words[:2]), rng.choice(words[2:5]))
            for _ in range(150))
        for negatives in (1, 3):
            config = NNConfig(negatives_per_positive=negatives, epochs=2, seed=negatives,
                              batch_size=1)
            old = old_nn_train(instances(table), config, vocab)
            new = nn_train(table, config, vocab)
            assert_matches_reference(new, old, config)

    def test_errors_match_reference(self):
        vocab = Lexicon(verbs=frozenset({"eat"}), nouns=frozenset({"fish", "worm"}),
                        adjectives=frozenset())
        cases = [[], [SPPair(SPRelation.DOBJ, "see", "fish")],
                 [SPPair(SPRelation.DOBJ, "eat", "cat")],
                 [SPPair(SPRelation.DOBJ, "eat", "fish"), SPPair(SPRelation.DOBJ, "eat", "worm")]]
        for pairs in cases:
            table = CountTable.from_pairs(pairs)
            errors = []
            for train, data in ((old_nn_train, instances(table)), (nn_train, table)):
                with pytest.raises(NNError) as exc:
                    train(data, NNConfig(), vocab)
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
            raise SelPrefError("outcome is NA iff a score is missing or tied")
        if (self.predicted is None) != (self.outcome is Outcome.NA):
            raise SelPrefError("prediction present iff an answer was made")


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
            raise AnnotationError("survey mixes relations")

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
        raise AnnotationError(f"survey mixes relations: {sorted(r.value for r in relations)}")
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
                raise SelPrefError(f"duplicate gold pair: {pair}")
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
            new = generate_survey(pairs, [p for p, _ in checkpoints], seed=seed)
            assert new.to_dict() == old.to_dict()
            assert new.relation is old.relation
            assert [(p, render_question(p)) for p in new.questions] == [
                (q.pair, q.text) for q in old.questions]

    def test_errors_match_reference(self):
        # a checkpoint's expected set is read_checkpoints' to check, so
        # the cases left are the counts and the relations
        pairs, checkpoints = random_survey_input(random.Random(1), SPRelation.DOBJ)
        other = SPPair(SPRelation.AMOD, "stone", "red")
        cases = [(pairs[:99], checkpoints), (pairs, checkpoints[:2]),
                 (pairs[:99] + [other], checkpoints),
                 (pairs, checkpoints[:2] + [(other, frozenset({5}))])]
        for pairs_, checkpoints_ in cases:
            errors = []
            for generate, cps in ((old_generate_survey, checkpoints_),
                                  (generate_survey, [p for p, _ in checkpoints_])):
                with pytest.raises(AnnotationError) as exc:
                    generate(pairs_, cps)
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
                # each fault counts under one key: both are a plain SelPrefError
                seen["range" if " outside [" in old[1] else
                     "duplicate" if old[1].startswith("duplicate gold pair: ") else old] += 1
                continue
            seen["ok"] += 1
            assert new.pairs() == old.pairs()
            for rel in RELATIONS:
                assert new.pairs(rel) == old.pairs(rel)
            assert list(new.items()) == list(old.items())
            assert new.relations() == old.relations()
            assert len(new.pairs()) == len(old)
            for pair in probes:
                assert (pair in new.pairs()) == (pair in old)
                if pair in old:
                    assert new.value(pair) == old.value(pair)
        assert seen.keys() == {"ok", "range", "duplicate"} and min(seen.values()) > 20, seen


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
    for lineno, fields in _rows(fh, source, 4, SelPrefError):
        old_add_value(values, source, lineno, fields, gold)
    return values


def old_add_value(values, source, lineno, fields, gold):
    """Parse one relation, head, dependent, value row into ``values``."""
    rel_name, head, dep, text = fields
    try:
        pair = SPPair(parse_relation(rel_name), head, dep)
        value = None if text == "NA" and not gold else _value(text, gold)
    except SelPrefError as err:
        raise SelPrefError(f"{source}:{lineno}: {err}") from None
    if pair in values:
        raise SelPrefError(f"{source}:{lineno}: duplicate pair {pair.relation} "
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
            raise AnnotationError(f"{source}:{lineno}: checkpoint relation "
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


def checkpoints_outcome(text, relation):
    """What read_checkpoints should give on ``text``, by the reference,
    which let a pair repeat: its outcome when no well-formed row repeats
    an earlier one's pair; else its row error on the lines before the
    first repeat, if they hold one, or the duplicate error at the repeat."""
    lines, seen = text.split("\n"), set()
    for lineno, fields in _rows(io.StringIO(text), "t.tsv", 1, SelPrefError, extra=True):
        try:
            rel_name, head, dep, expected = fields
            pair = SPPair(parse_relation(rel_name), head, dep)
            parse_rating_set(expected)
        except (ValueError, SelPrefError):
            continue
        if pair in seen:
            before = "\n".join(lines[:lineno - 1]) + "\n"
            old = read_outcome(old_read_checkpoints, io.StringIO(before), "t.tsv", relation)
            if isinstance(old, tuple) and not old[1].startswith("t.tsv: "):
                return old
            return (AnnotationError, f"t.tsv:{lineno}: duplicate pair {pair.relation} "
                                     f"{_clip(pair.head)} {_clip(pair.dependent)}")
        seen.add(pair)
    return read_outcome(old_read_checkpoints, io.StringIO(text), "t.tsv", relation)


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
            for outcome_ in (old, old_scores):  # each outcome counts under one key
                seen["ok" if not isinstance(outcome_, tuple) else
                     "duplicate" if "duplicate pair" in outcome_[1] else
                     outcome_[0].__name__] += 1
        assert {"ok", "SelPrefError", "duplicate"} <= set(seen), seen
        assert min(seen.values()) > 40, seen

    def test_checkpoints_match_reference(self):
        rng = random.Random(1313)
        seen = Counter()
        for trial in range(400):
            text = random_rows(rng, rng.choice([3, 3, 3, rng.randint(0, 5)]), GOOD_EXPECTED,
                               BAD_EXPECTED)
            lines = text.split("\n")[:-1]
            if lines and rng.random() < 0.3:  # a row given again further down
                i = rng.randrange(len(lines))
                lines.insert(rng.randint(i + 1, len(lines)), lines[i])
                text = "\n".join(lines) + "\n"
            for relation in (SPRelation.DOBJ, SPRelation.NSUBJ):
                old = checkpoints_outcome(text, relation)
                assert read_outcome(read_checkpoints, io.StringIO(text), "t.tsv", relation) == old
                seen["ok" if not isinstance(old, tuple) else
                     "duplicate" if "duplicate pair" in old[1] else
                     "mixed" if "survey relation" in old[1] else old[0].__name__] += 1
            # without a relation, the rows must share the first row's
            old = checkpoints_outcome(text, first_relation(text))
            assert read_outcome(read_checkpoints, io.StringIO(text), "t.tsv") == old
        assert {"ok", "AnnotationError", "mixed", "duplicate"} <= set(seen), seen
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
            raise AnnotationError(
                f"annotator {_clip(ann_id)} shares fewer than 2 pairs with the rest"
            )
        try:
            rhos.append(spearman([a for a, _ in shared], [b for _, b in shared]))
        except ConstantInputError as err:
            raise AnnotationError(f"annotator {_clip(ann_id)}: {err}") from None
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
        expected = (AnnotationError, message)
        assert read_outcome(old_leave_one_out, by_annotator) == expected
        assert read_outcome(_leave_one_out, by_annotator) == expected


def test_leave_one_out_ignores_table_order():
    # each annotator's pairs are walked in table order; the exact ranks
    # and sums of spearman give the same rhos, bit for bit, in any order
    rng = random.Random(1717)
    seen = Counter()
    for trial in range(300):
        by_annotator = random_ratings(rng)
        shuffled = {}
        for ann_id, table in by_annotator.items():
            items = list(table.items())
            rng.shuffle(items)
            shuffled[ann_id] = dict(items)
        want = read_outcome(_leave_one_out, by_annotator)
        got = read_outcome(_leave_one_out, shuffled)
        if isinstance(want, list):
            assert [rho.hex() for rho in got] == [rho.hex() for rho in want], trial
            seen["ok"] += 1
        else:
            assert got == want, trial
    assert seen["ok"] > 100, seen


# -- Average ranks that walked ties in a Python loop ------------------------------

def old_average_ranks(values):
    """Ranks 1..n, as a float array, with ties sharing the mean of their
    positions."""
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    # argsort puts NaN last, so any NaN or infinity sits at an end of the order
    if len(arr) and not (math.isfinite(arr[order[0]]) and math.isfinite(arr[order[-1]])):
        raise SelPrefError("non-finite value in correlation input")
    ranks = np.empty(len(arr), dtype=np.float64)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def old_spearman(x, y):
    """``spearman`` with the scores ranked by ``old_average_ranks``."""
    rx = old_average_ranks(x)
    ry = old_average_ranks(y)
    sx = rx - rx.mean()
    sy = ry - ry.mean()
    vx = float(np.dot(sx, sx))
    vy = float(np.dot(sy, sy))
    if vx == 0.0 or vy == 0.0:
        raise ConstantInputError("rank variance is zero (constant input)")
    return float(np.dot(sx, sy) / np.sqrt(vx * vy))


def old_significance(a, b, g, resamples, seed):
    """The bootstrap of ``significance`` over ``old_spearman``; also returns
    how many resamples had a constant rank vector."""
    a, b, g = (np.asarray(v, dtype=np.float64) for v in (a, b, g))
    rng = np.random.default_rng(seed)
    n = len(a)
    worse = constant = 0
    for _ in range(resamples):
        idx = rng.integers(0, n, size=n)
        try:
            delta = old_spearman(a[idx], g[idx]) - old_spearman(b[idx], g[idx])
        except ConstantInputError:
            delta = 0.0
            constant += 1
        if delta <= 0.0:
            worse += 1
    return worse / resamples, constant


def assert_same_ranks(values):
    want = old_average_ranks(values)
    got = np.asarray(_average_ranks(values), dtype=np.float64)
    assert got.shape == want.shape, values
    assert got.tobytes() == want.tobytes(), values


def tied_values(rng, n):
    """n values drawn from a pool of at most a few distinct ones, so most
    of them tie; the pool may hold both zeros."""
    pool = [rng.choice((-0.0, 0.0, 1.0, -1.0, 0.5, 2.5, 1e300, -1e-300, rng.uniform(-9, 9)))
            for _ in range(rng.randint(1, 6))]
    return [rng.choice(pool) for _ in range(n)]


class TestAverageRanks:
    def test_tied_probes_match_reference(self):
        rng = random.Random(1818)
        for n in range(51):
            for _ in range(40):
                assert_same_ranks(tied_values(rng, n))
                assert_same_ranks(np.array(tied_values(rng, n)))

    def test_signed_zeros_tie(self):
        values = [0.0, -0.0, 1.0, -0.0, -1.0, 0.0, 0.0]
        assert_same_ranks(values)
        assert _average_ranks(values).tolist() == [4.0, 4.0, 7.0, 4.0, 1.0, 4.0, 4.0]

    def test_long_vector_matches_reference(self):
        rng = np.random.default_rng(600)
        values = np.round(rng.normal(size=600), 1)
        assert len(np.unique(values)) < 100
        assert_same_ranks(values)
        assert_same_ranks(rng.normal(size=600))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_non_finite_fails_like_reference(self, bad, at):
        values = [3.0, 1.0, 1.0, -0.0, 2.0]
        values[at] = bad
        want = read_outcome(old_average_ranks, values)
        assert want == (SelPrefError, "non-finite value in correlation input")
        assert read_outcome(_average_ranks, values) == want

    @pytest.mark.parametrize("n, resamples, seed", [
        (12, 300, 0), (25, 200, 7), (60, 100, 3), (600, 20, 11),
    ])
    def test_significance_matches_reference(self, n, resamples, seed):
        rng = random.Random(n * 1000 + seed)
        g = [float(rng.randint(0, 4)) for _ in range(n)]
        a = [round(v + rng.gauss(0, 1.5), 1) for v in g]
        b = [round(v + rng.gauss(0, 2.0), 1) for v in g]
        want, constant = old_significance(a, b, g, resamples, seed)
        assert 0.0 < want < 1.0 and constant == 0
        assert significance(a, b, g, resamples=resamples, seed=seed) == want

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_significance_with_constant_resamples_matches_reference(self, seed):
        # one gold value in five differs, so about a tenth of the
        # resamples draw a constant gold vector
        g = [-0.0, 0.0, 0.0, 1.0, 0.0] * 2
        a = [float(i % 4) for i in range(10)]
        b = [float(i % 3) for i in range(10)]
        want, constant = old_significance(a, b, g, 300, seed)
        assert 0 < constant < 300 and 0.0 < want < 1.0
        assert significance(a, b, g, resamples=300, seed=seed) == want


# -- Spearman over numpy ranks, and the bootstrap that called it per resample -----

def rho_outcome(fn, x, y):
    """The rho's float64 bytes, or the error's type and text."""
    got = read_outcome(fn, x, y)
    return got if isinstance(got, tuple) else (type(got), np.float64(got).tobytes())


def correlation_inputs(rng, n):
    """Two length-n vectors of one kind: floats, heavy ties, ints or signed
    zeros; now and then one holds a NaN or an infinity."""
    kind = rng.choice(("floats", "ties", "ints", "zeros"))

    def draw():
        if kind == "floats":
            return [rng.gauss(0, 1) for _ in range(n)]
        if kind == "ties":
            return tied_values(rng, n)
        if kind == "ints":
            return [rng.randint(-3, 3) for _ in range(n)]
        return [rng.choice((-0.0, 0.0, 1.0)) for _ in range(n)]

    x, y = draw(), draw()
    if rng.random() < 0.1:
        rng.choice((x, y))[rng.randrange(n)] = rng.choice((math.nan, math.inf, -math.inf))
    return x, y


class TestSpearman:
    @pytest.mark.parametrize("sizes, trials", [(range(2, 51), 40), ((600, 2000), 15)],
                             ids=["n 2-50", "n 600 and 2000"])
    def test_matches_reference_bit_for_bit(self, sizes, trials):
        rng = random.Random(2525)
        seen = Counter()
        for n in sizes:
            for trial in range(trials):
                x, y = correlation_inputs(rng, n)
                for xs, ys in ((x, y), (np.array(x), np.array(y))):
                    want = rho_outcome(old_spearman, xs, ys)
                    assert rho_outcome(spearman, xs, ys) == want, (n, trial, xs, ys)
                    seen[want[0].__name__] += 1
        assert seen.keys() == {"float", "SelPrefError", "ConstantInputError"}, seen

    @pytest.mark.parametrize("n", [10, 600, 2000])
    @pytest.mark.parametrize("resamples", [1, 17, 301])
    def test_significance_blocks_match_reference(self, n, resamples):
        # resample counts that leave a part block at each n
        rng = random.Random(n + resamples)
        g = [float(rng.randint(0, 4)) for _ in range(n)]
        a = [round(v + rng.gauss(0, 1.5), 1) for v in g]
        b = [round(v + rng.gauss(0, 2.0), 1) for v in g]
        want, _ = old_significance(a, b, g, resamples, seed=n)
        assert significance(a, b, g, resamples=resamples, seed=n) == want

    def test_significance_memory_does_not_grow_with_resamples(self):
        def peak(n, resamples):
            rng = np.random.default_rng(n)
            g = np.round(rng.normal(size=n), 1)
            a, b = g + rng.normal(size=n), g + rng.normal(size=n)
            tracemalloc.start()
            try:
                significance(a, b, g, resamples=resamples, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(600, 300), peak(10_000, 30)
        # ten times the resamples, the same blocks
        assert peak(600, 3000) <= small + 1024 and peak(10_000, 300) <= large + 1024
        # past the three code vectors and a one-row block, nothing grows with n
        assert large - small <= 100 * (10_000 - 600), (small, large)
        assert large < 2 * 2 ** 20


# -- The ratings reader that built a pair per row ----------------------------------

def old_read_ratings(fh: TextIO, source: str = "<stream>") -> list[RawRating]:
    """Read a ratings CSV: a RATINGS_COLUMNS header, then one row per
    rating, whose is_checkpoint field is 1 exactly when its |-joined
    expected answers are given, else 0.  An error names the line its row
    ends on."""
    reader = csv.reader(fh)
    out = []
    try:
        header = next(reader, None)
        if header != RATINGS_COLUMNS:
            raise AnnotationError(f"{source}:1: bad header {_clip(','.join(header or []))}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(RATINGS_COLUMNS):
                raise AnnotationError(
                    f"{source}:{reader.line_num}: expected {len(RATINGS_COLUMNS)} "
                    f"fields, got {len(row)}"
                )
            ann_id, _, _, _, rating, is_cp, expected = row
            try:
                r = RawRating(
                    annotator_id=ann_id,
                    pair=_pair(row[1:4]),
                    rating=int(rating),
                    expected=parse_rating_set(expected) if expected else None,
                )
                if is_cp not in ("0", "1"):
                    raise AnnotationError(f"bad is_checkpoint {_clip(is_cp)}")
                if r.is_checkpoint != (is_cp == "1"):
                    raise AnnotationError("expected answers on a non-checkpoint rating"
                                          if r.is_checkpoint else
                                          "checkpoint rating without expected answers")
                out.append(r)
            except SelPrefError as err:
                raise AnnotationError(f"{source}:{reader.line_num}: {err}") from None
            except ValueError:  # only int() raises a bare one
                raise AnnotationError(
                    f"{source}:{reader.line_num}: bad rating {_clip(rating)}") from None
    except csv.Error as err:
        raise AnnotationError(f"{source}:{reader.line_num}: {err}") from None
    return out


RATING_WORDS = ["eat", "Eat", "EAT", "apple", "apples", "stone", "drink", "water"]
# one row of each kind the reader rejects, and the rule it breaks
BAD_RATING_ROWS = {
    "fields": "a1,dobj,eat,apple,3,0",
    "relation": "a1,dobject,eat,apple,3,0,",
    "empty head": "a1,dobj,,apple,3,0,",
    "spaced dependent": "a1,dobj,eat, apple,3,0,",
    "tab in head": "a1,dobj,\"e\tat\",apple,3,0,",
    "rating text": "a1,dobj,eat,apple,three,0,",
    "empty rating": "a1,dobj,eat,apple,,0,",
    "rating range": "a1,dobj,eat,apple,6,0,",
    "is_checkpoint": "a1,dobj,eat,apple,3,2,",
    "expected text": "a1,dobj,eat,apple,3,1,4|x",
    "expected range": "a1,dobj,eat,apple,3,1,4|9",
    "answers without checkpoint": "a1,dobj,eat,apple,3,0,4|5",
    "checkpoint without answers": "a1,dobj,eat,apple,3,1,",
    "field limit": "a1,dobj,eat,apple,3,0," + "x" * 140_000,
}


def random_rating_row(rng):
    rel = rng.choice(("dobj", "DOBJ", "nsubj", " amod "))
    head, dep = rng.choice(RATING_WORDS), rng.choice(RATING_WORDS)
    ann = rng.choice(("a1", "a2", "a,3", "a\n4"))
    fields = [ann, rel, head, dep, str(rng.randint(1, 5))]
    if rng.random() < 0.2:
        fields += ["1", "|".join(map(str, rng.sample(range(1, 6), rng.randint(1, 3))))]
    else:
        fields += ["0", ""]
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue().removesuffix("\r\n")


class TestReadRatings:
    def outcomes(self, text, newline):
        return [read_outcome(reader, io.StringIO(text, newline=newline), "r.csv")
                for reader in (old_read_ratings, read_ratings)]

    @pytest.mark.parametrize("newline", [None, ""])
    def test_random_files_match_reference(self, newline):
        rng = random.Random(2024)
        seen = Counter()
        for trial in range(200):
            rows = [random_rating_row(rng) for _ in range(rng.randint(0, 30))]
            if trial % 2:
                kind = rng.choice(sorted(BAD_RATING_ROWS))
                rows.insert(rng.randint(0, len(rows)), BAD_RATING_ROWS[kind])
            if rows and rng.random() < 0.3:
                rows.insert(rng.randint(0, len(rows)), "")
            end = rng.choice(("\n", "\r\n"))
            text = ",".join(RATINGS_COLUMNS) + end + "".join(row + end for row in rows)
            want, got = self.outcomes(text, newline)
            assert got == want, (trial, text[:300])
            seen["error" if isinstance(want, tuple) else "ok"] += 1
        assert min(seen.values()) > 80, seen

    @pytest.mark.parametrize("kind", sorted(BAD_RATING_ROWS))
    def test_each_bad_row_fails_like_reference(self, kind):
        good = "a1,dobj,eat,apple,3,0,\na2,dobj,Eat,apple,4,0,\n"
        for text in (good + BAD_RATING_ROWS[kind] + "\n",
                     BAD_RATING_ROWS[kind] + "\n" + good,
                     good + good + BAD_RATING_ROWS[kind]):
            text = ",".join(RATINGS_COLUMNS) + "\n" + text
            want, got = self.outcomes(text, None)
            assert isinstance(want, tuple) and got == want, kind

    def test_bad_header_fails_like_reference(self):
        for text in ("", "nope,nope\n", ",".join(RATINGS_COLUMNS[:-1]) + "\n"):
            want, got = self.outcomes(text, None)
            assert isinstance(want, tuple) and got == want

    def test_repeated_pair_text_is_one_pair(self):
        text = ",".join(RATINGS_COLUMNS) + "\n" + "".join(
            f"a{i},dobj,Eat,apple,{i},0,\n" for i in range(1, 6)) + "a6,DOBJ,eat,apple,2,0,\n"
        ratings = read_ratings(io.StringIO(text))
        assert ratings == old_read_ratings(io.StringIO(text))
        assert len({id(r.pair) for r in ratings}) == 2


# -- The counts writer that sorted a relation's rows at once -----------------------

# ties, non-ASCII and lemmas that share a prefix ("a" < "ab" < "aé")
WRITER_WORDS = ["a", "ab", "aé", "é", "b", "ba", "straße", "日本", "a b", "z"]


def random_store_table(rng):
    """A table filled through its store; some relations stay empty."""
    table = CountTable()
    for rel in rng.sample(RELATIONS, rng.randint(0, len(RELATIONS))):
        for _ in range(rng.randint(0, 40)):
            head, dep = rng.choice(WRITER_WORDS), rng.choice(WRITER_WORDS)
            table._heads[rel][head][dep] += rng.choice([1, 1, 2, 3, 2**63 - 1])
    return table


def random_read_table(rng):
    """A table read from rows whose repeated pairs, in any case, sum."""
    rows = []
    for _ in range(rng.randint(0, 60)):
        words = [rng.choice(WRITER_WORDS) for _ in range(2)]
        words = [w.upper() if rng.random() < 0.2 else w for w in words]
        rows.append(f"{rng.choice(RELATIONS).value}\t{words[0]}\t{words[1]}\t"
                    f"{rng.randint(1, 3)}\n")
    return read_counts(io.StringIO("".join(rows)))


class TestWriteCounts:
    def test_random_tables_match_reference(self):
        rng = random.Random(2828)
        for trial in range(300):
            table = (random_store_table if trial % 2 else random_read_table)(rng)
            old, new = io.StringIO(), io.StringIO()
            old_write_counts(table, old)
            write_counts(table, new)
            assert COUNTS_HEADER + "\n" + new.getvalue() == old.getvalue(), trial

    def test_order_is_relation_head_count_desc_dependent(self):
        table = CountTable()
        store = table._heads
        for head, dep, count in [("ab", "z", 1), ("a", "aé", 2), ("aé", "a", 5),
                                 ("a", "ab", 2), ("a", "b", 7)]:
            store[SPRelation.NSUBJ][head][dep] += count
        store[SPRelation.DOBJ]["b"]["a"] += 1
        out = io.StringIO()
        write_counts(table, out)
        assert out.getvalue() == ("dobj\tb\ta\t1\n"
                                  "nsubj\ta\tb\t7\n" "nsubj\ta\tab\t2\n" "nsubj\ta\taé\t2\n"
                                  "nsubj\tab\tz\t1\n" "nsubj\taé\ta\t5\n")


# -- Candidate and confounder draws that rebuilt the pool per head and per pair -----

def old_generate_candidates(
    counts: CountTable,
    lexicon: Lexicon,
    relation: SPRelation,
    heads_per_relation: int = 500,
    frequent_per_head: int = 2,
    random_per_head: int = 2,
    seed: int = 0,
) -> list[Candidate]:
    """Pick annotation candidates: per frequent head, its most frequent
    dependents plus uniform draws from the lexicon pool.

    Heads are ranked by marginal count (ties broken lexicographically);
    random dependents are drawn without replacement, excluding dependents
    already chosen for that head.
    """
    for name, value in (("heads_per_relation", heads_per_relation),
                        ("frequent_per_head", frequent_per_head),
                        ("random_per_head", random_per_head)):
        if value < 0:
            raise SelPrefError(f"{name} must be >= 0, got {_shown(str(value))}")
    if counts.total(relation) == 0:
        raise CountTableError(f"no counts for relation {relation.value}")
    rng = random.Random(seed)
    ranked_heads = sorted(
        counts.heads(relation),
        key=lambda h: (-counts.marginal(relation, h), h),
    )[:heads_per_relation]
    # only the random draws need a pool, so an empty one is no fault without them
    pool = sorted(lexicon.dependents_for(relation)) if random_per_head else []

    out: list[Candidate] = []
    for head in ranked_heads:
        attested = counts.dependents_of(relation, head)
        frequent = sorted(attested, key=lambda d: (-attested[d], d))[:frequent_per_head]
        out.extend(Candidate(SPPair(relation, head, d), "frequent") for d in frequent)
        chosen = set(frequent)
        available = [d for d in pool if d not in chosen]
        if len(available) < random_per_head:
            raise LexiconError(
                f"lexicon pool for {relation.value} too small: need {random_per_head} "
                f"unchosen dependents for head {_clip(head)}, have {len(available)}"
            )
        out.extend(
            Candidate(SPPair(relation, head, d), "random")
            for d in rng.sample(available, random_per_head)
        )
    return out


def old_pseudo_disambiguation(model, test_pairs, vocab, seed=0):
    """Positive-vs-corrupted accuracy.

    Each test pair gets one confounder dependent drawn uniformly from the
    relation's vocabulary pool, excluding dependents that would form
    another test pair for the same head. Scoring: win 1, tie or any
    missing score 0.5, loss 0.
    """
    if not test_pairs:
        raise NoTestPairsError("no test pairs")
    positives = {(p.relation, p.head, p.dependent) for p in test_pairs}
    pools = {r: sorted(vocab.dependents_for(r)) for r in sorted({p.relation for p in test_pairs})}
    rng = random.Random(seed)
    total = 0.0
    for pair in test_pairs:
        rel, head = pair.relation, pair.head
        usable = [d for d in pools[rel] if (rel, head, d) not in positives]
        if not usable:
            raise LexiconError(
                f"no confounder available for {rel.value} head "
                f"{_clip(head)}: pool exhausted by attested pairs"
            )
        confounder = rng.choice(usable)
        pos = model.score(pair)
        neg = model.score(SPPair(rel, head, confounder))
        if pos is None or neg is None or pos == neg:
            total += 0.5
        elif pos > neg:
            total += 1.0
    return total / len(test_pairs)


def pool_words(rng, n):
    """n distinct words in sorted order, some sharing a prefix."""
    return sorted({f"w{rng.randrange(4 * n + 10)}" for _ in range(n)} | {"w1", "w10"})


class TestPoolView:
    def test_draws_match_the_built_list(self):
        # pools of 1 to 5,000 words, some excluded words outside the pool
        rng = random.Random(2929)
        for probe in range(600):
            pool = pool_words(rng, int(5000 ** rng.random()))[:rng.randint(1, 5000)]
            excluded = rng.sample(pool, min(len(pool), rng.randint(0, 12)))
            excluded += [f"x{i}" for i in range(rng.randint(0, 2))] + ["w1"] * rng.randint(0, 2)
            kept = [w for w in pool if w not in set(excluded)]
            view = _Excluding(pool, excluded)
            assert len(view) == len(kept)
            if len(kept) < 50:
                assert list(view) == kept
            for k in {0, len(kept) - 1, *rng.sample(range(len(kept)), min(5, len(kept)))}:
                if 0 <= k < len(kept):
                    assert view[k] == kept[k]
            for bad in (len(kept), -1):
                with pytest.raises(IndexError):
                    view[bad]
            seed = rng.getrandbits(32)
            a, b = random.Random(seed), random.Random(seed)
            k = rng.randint(0, min(len(kept), 30))
            assert a.sample(view, k) == b.sample(kept, k)
            if kept:
                assert a.choice(view) == b.choice(kept)
            assert a.getstate() == b.getstate()


def candidate_case(rng):
    """A seeded table, lexicon and candidates call, some of whose pools are
    too small or empty."""
    nouns = [f"n{i}" for i in range(rng.choice([0, 2, 3, 5, 40, 300]))]
    attested = nouns + [f"m{i}" for i in range(5)]
    table = CountTable()
    for _ in range(rng.randint(0, 120)):
        head = f"v{rng.randrange(12)}"
        table._heads[SPRelation.DOBJ][head][rng.choice(attested)] += rng.randint(1, 4)
    lexicon = Lexicon(verbs=frozenset(f"v{i}" for i in range(12)), nouns=frozenset(nouns),
                      adjectives=frozenset())
    return (table, lexicon, SPRelation.DOBJ, rng.randint(0, 14), rng.randint(0, 4),
            rng.randint(0, 4), rng.randrange(100))


class TestCandidatesReference:
    def test_random_cases_match_reference(self):
        rng = random.Random(3030)
        seen = Counter()
        for trial in range(400):
            case = candidate_case(rng)
            old = read_outcome(old_generate_candidates, *case)
            assert read_outcome(generate_candidates, *case) == old, trial
            seen["ok" if isinstance(old, list) else (old[0].__name__, *old[1].split(" ")[:2])] += 1
        # drawn lists, no counts, a pool too small for a head, an empty pool
        assert seen.keys() == {"ok", ("CountTableError", "no", "counts"),
                               ("LexiconError", "lexicon", "pool"),
                               ("LexiconError", "no", "noun")}, seen
        assert seen["ok"] > 100 and seen["LexiconError", "lexicon", "pool"] > 20, seen

    def test_pool_too_small_names_the_same_count(self):
        table = CountTable()
        table._heads[SPRelation.DOBJ]["eat"].update({"a": 3, "b": 2, "c": 1})
        lexicon = Lexicon(verbs=frozenset({"eat"}), nouns=frozenset("abcd"),
                          adjectives=frozenset())
        args = (table, lexicon, SPRelation.DOBJ, 5, 2, 3, 0)
        expected = (LexiconError, "lexicon pool for dobj too small: need 3 "
                    "unchosen dependents for head 'eat', have 2")
        assert read_outcome(old_generate_candidates, *args) == expected
        assert read_outcome(generate_candidates, *args) == expected


def pseudo_case(rng):
    """A seeded model, test pairs and vocabulary, some of whose pools the
    test pairs exhaust."""
    nouns = [f"n{i}" for i in range(rng.choice([1, 2, 4, 30, 400]))]
    adjs = [f"a{i}" for i in range(rng.choice([0, 3, 20]))]
    rels = [SPRelation.DOBJ, SPRelation.NSUBJ] + ([SPRelation.AMOD] if rng.random() < 0.3 else [])
    pairs = [SPPair(rel, f"v{rng.randrange(5)}" if rel is not SPRelation.AMOD
                    else rng.choice(nouns),
                    rng.choice(adjs or ["x"]) if rel is SPRelation.AMOD else rng.choice(nouns))
             for rel in rng.choices(rels, k=rng.randint(0, 40))]
    vocab = Lexicon(verbs=frozenset(f"v{i}" for i in range(5)), nouns=frozenset(nouns),
                    adjectives=frozenset(adjs))
    table = CountTable.from_pairs(pairs + rng.sample(pairs, len(pairs) // 2))
    model = rng.choice([PPModel(table),
                        LookupModel({p: float(rng.randint(0, 2)) for p in set(pairs)})])
    return model, list(dict.fromkeys(pairs)), vocab, rng.randrange(100)


class TestPseudoReference:
    def test_random_cases_match_reference(self):
        rng = random.Random(3131)
        seen = Counter()
        for trial in range(400):
            case = pseudo_case(rng)
            old = read_outcome(old_pseudo_disambiguation, *case)
            got = read_outcome(pseudo_disambiguation, *case)
            assert got == old and type(got) is type(old), trial
            seen["ok" if isinstance(old, float) else "confounder"
                 if old[1].startswith("no confounder available") else old[0].__name__] += 1
        # an exhausted pool is a LexiconError, as an empty one is: key it apart
        assert {"ok", "confounder", "NoTestPairsError", "LexiconError"} <= set(seen), seen
        assert seen["ok"] > 100 and seen["confounder"] > 20, seen
