import io
import random
import tracemalloc
from collections import Counter, namedtuple
from pathlib import Path

import pytest

from selpref.conllu import read_conllu
from selpref.core import Lexicon, LexiconError, SPPair, SPRelation
from selpref.extract import (
    CountTable,
    CountTableError,
    _rule_pairs,
    count_conllu,
    generate_candidates,
    read_counts,
    write_counts,
)

FIXTURE = Path(__file__).parent / "data" / "fixture.conllu"


Row = namedtuple("Row", "index lemma upos head_index deprel")


def oracle_pairs(rows, include_passive=False):
    """Brute-force re-derivation of the five patterns, written independently
    of _rule_pairs: scan every token triple instead of indexing edges."""
    toks = [Row(*row[:5]) for row in rows]
    by_index = {t.index: t for t in toks}
    out = []
    subj_labels = {"nsubj"} | ({"nsubjpass", "nsubj:pass"} if include_passive else set())

    def verb_edges(noun_labels):
        found = []
        for t in toks:
            if t.deprel in noun_labels and t.upos in ("NOUN", "PROPN"):
                h = by_index.get(t.head_index)
                if h is not None and h.upos == "VERB":
                    found.append((h, t))
        return found

    for verb, noun in verb_edges({"dobj", "obj"}):
        out.append(SPPair(SPRelation.DOBJ, verb.lemma, noun.lemma))
        for t in toks:
            if t.deprel == "amod" and t.upos == "ADJ" and t.head_index == noun.index:
                out.append(SPPair(SPRelation.DOBJ_AMOD, verb.lemma, t.lemma))
    for verb, noun in verb_edges(subj_labels):
        out.append(SPPair(SPRelation.NSUBJ, verb.lemma, noun.lemma))
        for t in toks:
            if t.deprel == "amod" and t.upos == "ADJ" and t.head_index == noun.index:
                out.append(SPPair(SPRelation.NSUBJ_AMOD, verb.lemma, t.lemma))
    for t in toks:
        if t.deprel == "amod" and t.upos == "ADJ":
            h = by_index.get(t.head_index)
            if h is not None and h.upos in ("NOUN", "PROPN"):
                out.append(SPPair(SPRelation.AMOD, h.lemma, t.lemma))
    return out


def rule_pairs(rows, include_passive=False):
    """The pairs _rule_pairs finds in one sentence's rows, as SPPairs."""
    return [SPPair(rel, head[1], dep[1])
            for rel, head, dep in _rule_pairs(rows, include_passive)]


def sent(*rows):
    return list(rows)


def fixture_table(include_passive=False):
    with FIXTURE.open(encoding="utf-8") as fh:
        return count_conllu(fh, str(FIXTURE), include_passive=include_passive)


def test_empty_sentence():
    assert rule_pairs([]) == []


def test_fish_worm_example():
    s = sent(
        (1, "the", "DET", 3, "det"),
        (2, "hungry", "ADJ", 3, "amod"),
        (3, "fish", "NOUN", 4, "nsubj"),
        (4, "eat", "VERB", 0, "root"),
        (5, "the", "DET", 7, "det"),
        (6, "tasty", "ADJ", 7, "amod"),
        (7, "worm", "NOUN", 4, "dobj"),
    )
    got = set(rule_pairs(s))
    assert got == {
        SPPair(SPRelation.NSUBJ, "eat", "fish"),
        SPPair(SPRelation.DOBJ, "eat", "worm"),
        SPPair(SPRelation.AMOD, "fish", "hungry"),
        SPPair(SPRelation.AMOD, "worm", "tasty"),
        SPPair(SPRelation.NSUBJ_AMOD, "eat", "hungry"),
        SPPair(SPRelation.DOBJ_AMOD, "eat", "tasty"),
    }


def test_clausal_object_yields_nothing():
    s = sent(
        (1, "he", "PRON", 2, "nsubj"),
        (2, "say", "VERB", 0, "root"),
        (3, "go", "VERB", 2, "ccomp"),
    )
    assert rule_pairs(s) == []


def test_multiple_amod_children_yield_multiple_two_hop_pairs():
    s = sent(
        (1, "buy", "VERB", 0, "root"),
        (2, "big", "ADJ", 4, "amod"),
        (3, "red", "ADJ", 4, "amod"),
        (4, "car", "NOUN", 1, "obj"),
    )
    c = Counter(rule_pairs(s))
    assert c[SPPair(SPRelation.DOBJ_AMOD, "buy", "big")] == 1
    assert c[SPPair(SPRelation.DOBJ_AMOD, "buy", "red")] == 1
    assert c[SPPair(SPRelation.DOBJ, "buy", "car")] == 1


def test_passive_subject_excluded_by_default():
    s = sent(
        (1, "fish", "NOUN", 2, "nsubjpass"),
        (2, "eat", "VERB", 0, "root"),
    )
    assert rule_pairs(s) == []
    assert rule_pairs(s, include_passive=True) == [
        SPPair(SPRelation.NSUBJ, "eat", "fish")
    ]


def test_pronoun_dependent_excluded():
    s = sent(
        (1, "she", "PRON", 2, "nsubj"),
        (2, "eat", "VERB", 0, "root"),
        (3, "it", "PRON", 2, "dobj"),
    )
    assert rule_pairs(s) == []


def test_fixture_matches_oracle_per_sentence():
    with FIXTURE.open(encoding="utf-8") as fh:
        sentences = list(read_conllu(fh, str(FIXTURE)))
    assert len(sentences) >= 100
    for s in sentences:
        assert Counter(rule_pairs(s)) == Counter(oracle_pairs(s)), s
    # and the passive-inclusive variant differs only where expected
    for s in sentences:
        assert Counter(rule_pairs(s, include_passive=True)) == Counter(
            oracle_pairs(s, include_passive=True)
        )


def test_fixture_exercises_every_relation():
    table = fixture_table()
    for rel in SPRelation:
        assert table.total(rel) > 0, rel


def test_random_trees_match_oracle():
    """Seeded random dependency forests, checked pair-for-pair."""
    rng = random.Random(7)
    upos_pool = ["NOUN", "VERB", "ADJ", "PROPN", "PRON", "ADV", "DET"]
    deprel_pool = ["nsubj", "dobj", "obj", "amod", "det", "advmod",
                   "nsubjpass", "nsubj:pass", "conj", "ccomp"]
    lemmas = [f"w{i}" for i in range(12)]
    for trial in range(300):
        n = rng.randint(1, 10)
        rows = []
        for i in range(1, n + 1):
            head = rng.choice([h for h in range(0, n + 1) if h != i])
            rows.append((i, rng.choice(lemmas), rng.choice(upos_pool),
                         head, rng.choice(deprel_pool)))
        assert Counter(rule_pairs(rows)) == Counter(oracle_pairs(rows)), rows


class TestCountTable:
    def test_counts_and_marginals(self):
        pairs = [
            SPPair(SPRelation.DOBJ, "eat", "fish"),
            SPPair(SPRelation.DOBJ, "eat", "fish"),
            SPPair(SPRelation.DOBJ, "eat", "bread"),
            SPPair(SPRelation.NSUBJ, "eat", "cat"),
        ]
        t = CountTable.from_pairs(pairs)
        assert t.count(SPRelation.DOBJ, "eat", "fish") == 2
        assert t.count(SPRelation.DOBJ, "eat", "bread") == 1
        assert t.count(SPRelation.DOBJ, "eat", "rock") == 0
        assert t.marginal(SPRelation.DOBJ, "eat") == 3
        assert t.total(SPRelation.DOBJ) == 3
        assert t.total(SPRelation.NSUBJ) == 1
        assert dict(t.dependents_of(SPRelation.DOBJ, "eat")) == {"fish": 2, "bread": 1}

    def test_roundtrip_tsv(self):
        t = fixture_table()
        buf = io.StringIO()
        write_counts(t, buf)
        buf.seek(0)
        back = read_counts(buf)
        for rel in SPRelation:
            assert sorted(t.items(rel)) == sorted(back.items(rel))
            assert t.total(rel) == back.total(rel)

    def test_a_query_never_adds_a_head(self):
        text = io.StringIO()
        write_counts(fixture_table(), text)
        pairs = [SPPair(rel, head, dep) for rel in SPRelation
                 for head, dep, count in fixture_table().items(rel) for _ in range(count)]
        for table in (CountTable.from_pairs(pairs), fixture_table(),
                      read_counts(io.StringIO(text.getvalue()))):
            heads = {rel: table.heads(rel) for rel in SPRelation}
            for rel in SPRelation:
                for head in ("unseen", "EAT", heads[rel][0]):
                    assert table.count(rel, head, "unseen") == 0
                    table.marginal(rel, head)
                    assert "unseen" not in table.dependents_of(rel, head)
            assert {rel: table.heads(rel) for rel in SPRelation} == heads
            out = io.StringIO()
            write_counts(table, out)
            assert out.getvalue() == text.getvalue()

    def test_writer_holds_one_head_at_a_time(self):
        # H heads of degree 8 against 8H: the writer's peak may grow by one
        # head's rows, and by the sorted head names (a list pointer each,
        # plus the sort's merge buffer of at most half as many), not with
        # the relation's rows, as a writer that sorts them all at once does
        class Sink:
            def write(self, text):
                pass

        def table(heads, degree=8):
            t = CountTable()
            store = t._heads[SPRelation.DOBJ]
            for i in range(heads):
                rng = random.Random(i)
                for _ in range(degree):
                    store[f"verb{i}"][f"noun{rng.randrange(10**6)}"] += rng.randint(1, 20)
            return t

        def peak(t):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write_counts(t, Sink())
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        heads = 200
        one_head = peak(table(1))
        small, grown = peak(table(heads)), peak(table(8 * heads))
        assert grown - small <= one_head + 16 * 7 * heads, (one_head, small, grown)

    def test_read_rejects_zero_count(self):
        with pytest.raises(CountTableError):
            read_counts(io.StringIO("dobj\teat\tfish\t0\n"))

    def test_read_rejects_bad_column_count(self):
        with pytest.raises(CountTableError):
            read_counts(io.StringIO("dobj\teat\tfish\n"))


class TestCandidates:
    def lexicon(self):
        return Lexicon(
            verbs=frozenset(f"v{i}" for i in range(10)),
            nouns=frozenset(f"n{i}" for i in range(30)),
            adjectives=frozenset(f"a{i}" for i in range(30)),
        )

    def table(self):
        pairs = []
        # v0 most frequent head, then v1, v2
        for dep, k in [("n1", 5), ("n2", 3), ("n3", 1)]:
            pairs += [SPPair(SPRelation.DOBJ, "v0", dep)] * k
        pairs += [SPPair(SPRelation.DOBJ, "v1", "n4")] * 4
        pairs += [SPPair(SPRelation.DOBJ, "v2", "n5")] * 2
        return CountTable.from_pairs(pairs)

    def test_frequent_then_random(self):
        cands = generate_candidates(
            self.table(), self.lexicon(), SPRelation.DOBJ,
            heads_per_relation=2, frequent_per_head=2, random_per_head=2, seed=9,
        )
        # v0 gets 2 frequent + 2 random, v1 has only one attested dependent
        assert len(cands) == 7
        v0 = [c for c in cands if c.pair.head == "v0"]
        assert [c.pair.dependent for c in v0 if c.source == "frequent"] == ["n1", "n2"]
        randoms = [c for c in v0 if c.source == "random"]
        assert len(randoms) == 2
        assert all(c.pair.dependent not in {"n1", "n2"} for c in randoms)
        # v2 did not make the head cut
        assert all(c.pair.head != "v2" for c in cands)

    def test_deterministic_under_seed(self):
        a = generate_candidates(self.table(), self.lexicon(), SPRelation.DOBJ, seed=5)
        b = generate_candidates(self.table(), self.lexicon(), SPRelation.DOBJ, seed=5)
        c = generate_candidates(self.table(), self.lexicon(), SPRelation.DOBJ, seed=6)
        assert a == b
        assert a != c

    def test_fewer_attested_than_requested(self):
        # head with a single attested dependent still yields one frequent entry
        t = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "v9", "n0")])
        cands = generate_candidates(t, self.lexicon(), SPRelation.DOBJ, seed=1)
        frequent = [c for c in cands if c.source == "frequent"]
        assert len(frequent) == 1

    def test_pool_too_small(self):
        small = Lexicon(
            verbs=frozenset({"v0"}),
            nouns=frozenset({"n1"}),
            adjectives=frozenset(),
        )
        with pytest.raises(LexiconError, match="^lexicon pool for dobj too small: "):
            generate_candidates(self.table(), small, SPRelation.DOBJ, seed=1)

    def test_empty_pool_is_told_from_an_exhausted_one(self):
        empty = Lexicon(verbs=frozenset({"v0"}), nouns=frozenset(), adjectives=frozenset())
        with pytest.raises(LexiconError, match="^no noun entries, needed for dobj dependents$"):
            generate_candidates(self.table(), empty, SPRelation.DOBJ, seed=1)
        cands = generate_candidates(self.table(), empty, SPRelation.DOBJ, random_per_head=0,
                                    seed=1)
        assert cands and {c.source for c in cands} == {"frequent"}

    def test_empty_relation_rejected(self):
        with pytest.raises(CountTableError, match="^no counts for relation amod$"):
            generate_candidates(
                CountTable(), self.lexicon(), SPRelation.AMOD, seed=1
            )
