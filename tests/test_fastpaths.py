"""The fast paths checked against the slow references they replaced.

The references below are the earlier implementations, kept verbatim as
test-only code: a count table with one flat ``(head, dependent)`` counter
per relation plus parallel marginal and total counters, the counts reader
that built an ``SPPair`` per row, the scalar ``ds`` loop, and the
pseudo-disambiguation loop that re-sorted the pool for every test pair.
Counts must match exactly; ``ds`` within 1e-12 (the mat-vec sums in
another order), with the same None / ZeroVectorError outcomes.
"""

import io
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from selpref.conllu import read_conllu_file
from selpref.core import Lexicon, SelPrefError, SPPair, SPRelation, parse_relation
from selpref.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    ZeroVectorError,
    cosine,
    load_embeddings,
)
from selpref.evaluation import pseudo_disambiguation
from selpref.extract import (
    CountTable,
    CountTableError,
    build_counts,
    read_counts,
    write_counts,
)
from selpref.scorers import DSModel, LookupModel, PPModel, ds_score

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
        write_counts(table, buf, config={"seed": 1})
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
