import io
import random
from collections import Counter
from pathlib import Path

import pytest

from selpref.conllu import Sentence, Token, read_conllu_file
from selpref.core import EmptyPoolError, Lexicon, SPPair, SPRelation
from selpref.extract import (
    CandidatePoolError,
    CountTable,
    CountTableError,
    build_counts,
    extract_pairs,
    generate_candidates,
    read_counts,
    write_counts,
)

FIXTURE = Path(__file__).parent / "data" / "fixture.conllu"


def oracle_pairs(sentence, include_passive=False):
    """Brute-force re-derivation of the five patterns, written independently
    of extract_pairs: scan every token triple instead of indexing edges."""
    toks = list(sentence)
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


def sent(*rows):
    return Sentence(Token(*row) for row in rows)


def test_empty_sentence():
    assert extract_pairs(Sentence([])) == []


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
    got = set(extract_pairs(s))
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
    assert extract_pairs(s) == []


def test_multiple_amod_children_yield_multiple_two_hop_pairs():
    s = sent(
        (1, "buy", "VERB", 0, "root"),
        (2, "big", "ADJ", 4, "amod"),
        (3, "red", "ADJ", 4, "amod"),
        (4, "car", "NOUN", 1, "obj"),
    )
    c = Counter(extract_pairs(s))
    assert c[SPPair(SPRelation.DOBJ_AMOD, "buy", "big")] == 1
    assert c[SPPair(SPRelation.DOBJ_AMOD, "buy", "red")] == 1
    assert c[SPPair(SPRelation.DOBJ, "buy", "car")] == 1


def test_passive_subject_excluded_by_default():
    s = sent(
        (1, "fish", "NOUN", 2, "nsubjpass"),
        (2, "eat", "VERB", 0, "root"),
    )
    assert extract_pairs(s) == []
    assert extract_pairs(s, include_passive=True) == [
        SPPair(SPRelation.NSUBJ, "eat", "fish")
    ]


def test_pronoun_dependent_excluded():
    s = sent(
        (1, "she", "PRON", 2, "nsubj"),
        (2, "eat", "VERB", 0, "root"),
        (3, "it", "PRON", 2, "dobj"),
    )
    assert extract_pairs(s) == []


def test_fixture_matches_oracle_per_sentence():
    sentences = list(read_conllu_file(FIXTURE))
    assert len(sentences) >= 100
    for s in sentences:
        assert Counter(extract_pairs(s)) == Counter(oracle_pairs(s)), s.tokens
    # and the passive-inclusive variant differs only where expected
    for s in sentences:
        assert Counter(extract_pairs(s, include_passive=True)) == Counter(
            oracle_pairs(s, include_passive=True)
        )


def test_fixture_exercises_every_relation():
    table = build_counts(read_conllu_file(FIXTURE))
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
            rows.append(Token(i, rng.choice(lemmas), rng.choice(upos_pool),
                              head, rng.choice(deprel_pool)))
        s = Sentence(rows)
        assert Counter(extract_pairs(s)) == Counter(oracle_pairs(s)), rows


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
        assert t.unique_pairs(SPRelation.DOBJ) == 2
        t.validate()

    def test_merge_matches_concatenation(self):
        rng = random.Random(3)
        all_pairs = [
            SPPair(SPRelation.DOBJ, f"v{rng.randint(0, 4)}", f"n{rng.randint(0, 4)}")
            for _ in range(200)
        ]
        for cut in [0, 17, 100, 200]:
            a = CountTable.from_pairs(all_pairs[:cut])
            b = CountTable.from_pairs(all_pairs[cut:])
            merged = a.merge(b)
            whole = CountTable.from_pairs(all_pairs)
            for h, d, c in whole.items(SPRelation.DOBJ):
                assert merged.count(SPRelation.DOBJ, h, d) == c
            assert merged.total(SPRelation.DOBJ) == whole.total(SPRelation.DOBJ)
            merged.validate()

    def test_roundtrip_tsv(self):
        t = build_counts(read_conllu_file(FIXTURE))
        buf = io.StringIO()
        write_counts(t, buf)
        buf.seek(0)
        back = read_counts(buf)
        for rel in SPRelation:
            assert sorted(t.items(rel)) == sorted(back.items(rel))
            assert t.total(rel) == back.total(rel)

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
        with pytest.raises(CandidatePoolError):
            generate_candidates(self.table(), small, SPRelation.DOBJ, seed=1)

    def test_empty_pool_is_told_from_an_exhausted_one(self):
        empty = Lexicon(verbs=frozenset({"v0"}), nouns=frozenset(), adjectives=frozenset())
        with pytest.raises(EmptyPoolError, match="^no noun entries, needed for dobj dependents$"):
            generate_candidates(self.table(), empty, SPRelation.DOBJ, seed=1)
        cands = generate_candidates(self.table(), empty, SPRelation.DOBJ, random_per_head=0,
                                    seed=1)
        assert cands and {c.source for c in cands} == {"frequent"}

    def test_empty_relation_rejected(self):
        with pytest.raises(CandidatePoolError):
            generate_candidates(
                CountTable(), self.lexicon(), SPRelation.AMOD, seed=1
            )
