"""Clock-free complexity gates for per-query costs.

A query whose cost grows with the size of the count table (or of the
OMCS index), rather than with the queried head's degree, is a bug. A
clock cannot catch one in a test, so these gates count Python trace
events instead: ``events_per_query`` runs k and then 2k queries under a
``sys.settrace`` tracer that returns itself, so every call, line and
return in Python code counts, and takes the difference, so per-call
set-up drops out. It does this on a seeded world and on the same world
grown ``GROWN``-fold, where the queried heads keep their dependents,
and asserts the per-query count grows by at most ``GROWTH``.

Work done in C is invisible to the count: a set intersection, a
``Counter.total()`` or a numpy reduction costs no event however large
its operands. So a gate here only sees Python-level loops; it cannot
see a C-level scan of the whole table.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

from selpref.commonsense import OMCSIndex, _witnesses
from selpref.core import Lexicon, SPPair, SPRelation
from selpref.embeddings import EmbeddingTable
from selpref.evaluation import pseudo_disambiguation
from selpref.extract import CountTable, generate_candidates
from selpref.nn import NNConfig, nn_train
from selpref.scorers import DSModel, PPModel, _attested, ds_score, pp_score
from selpref.winograd import SUBJECT, Mention, WinogradQuestion, resolve

R = SPRelation.DOBJ
HEADS, NOUNS, DEGREE = 50, 1000, 8  # the 1x world
GROWN = 8     # the grown world has GROWN times the heads, nouns and triplets
GROWTH = 1.1  # the largest allowed ratio of grown to 1x events per query
QUERIED = 5   # heads v0..v4 are queried, DEGREE pairs each
K = 20        # queries in the short run; the long run makes 2K


def events(call, queries) -> int:
    """The trace events (calls, lines, returns, exceptions) that
    ``call(q)`` raises over ``queries``."""
    n = 0

    def tracer(frame, event, arg):
        nonlocal n
        n += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for q in queries:
            call(q)
    finally:
        sys.settrace(previous)
    return n


def events_per_query(call, queries) -> float:
    assert len(queries) >= 2 * K
    return (events(call, queries[:2 * K]) - events(call, queries[:K])) / K


def events_per_item(run, items) -> float:
    """Events per item of one ``run(items)`` call over 2K items less one
    over K, per item, so the call's own set-up drops out."""
    assert len(items) >= 2 * K
    return (events(run, [items[:2 * K]]) - events(run, [items[:K]])) / K


class World:
    """A seeded count table, word vectors and OMCS triplets. Heads v0..
    v{HEADS * scale - 1} take DEGREE distinct nouns each; a head's nouns
    do not depend on ``scale``, so the queried heads keep their degree
    as the world grows. Each pair has a one-token triplet and every
    other pair a two-token one too."""

    def __init__(self, scale: int):
        nouns = [f"n{j}" for j in range(NOUNS * scale)]
        heads = [f"v{i}" for i in range(HEADS * scale)]
        self.counts = CountTable()
        store = self.counts._heads[R]
        self.triplets = []
        for i, head in enumerate(heads):
            rng = random.Random(i)
            for j, dep in enumerate(rng.sample(nouns[:NOUNS] if i < HEADS else nouns, DEGREE)):
                store[head][dep] += rng.randint(1, 20)
                self.triplets.append(((dep,), "UsedFor", (head,)))
                if j % 2:
                    self.triplets.append(((head, "it"), "CapableOf", ("a", dep)))
        self.lexicon = Lexicon(verbs=frozenset(heads), nouns=frozenset(nouns),
                               adjectives=frozenset())
        self.words = nouns + heads
        rng = np.random.default_rng(7)
        self.embeddings = EmbeddingTable(self.words, rng.standard_normal((len(self.words), 8)))
        self.queries = [SPPair(R, f"v{i}", dep) for i in range(QUERIED)
                        for dep in sorted(self.counts.dependents_of(R, f"v{i}"))]


@pytest.fixture(scope="module")
def worlds():
    return World(1), World(GROWN)


def assert_flat(worlds, query):
    """``query(world, pair)`` takes no more events per pair in the grown world."""
    small, grown = (events_per_query(lambda pair: query(w, pair), w.queries) for w in worlds)
    assert small > 0
    assert grown <= GROWTH * small, (small, grown)


def test_worlds_grow_around_fixed_queries(worlds):
    small, grown = worlds
    assert small.queries == grown.queries
    assert len(grown.counts.heads(R)) == GROWN * len(small.counts.heads(R))
    assert len(grown.embeddings.index) == GROWN * len(small.embeddings.index)
    assert len(grown.triplets) == GROWN * len(small.triplets)


def test_the_count_sees_a_python_scan_of_the_table(worlds):
    # the gate's control: CountTable.total walks every head in Python
    small, grown = (events_per_query(lambda pair: w.counts.total(pair.relation), w.queries)
                    for w in worlds)
    assert grown > GROWN * 0.9 * small


def test_worlds_grow_their_lexicon_pools(worlds):
    small, grown = worlds
    assert len(grown.lexicon.dependents_for(R)) == GROWN * len(small.lexicon.dependents_for(R))


def test_pseudo_disambiguation(worlds):
    # per test pair, with every queried head's dependents as the test pairs
    models = {id(w): PPModel(w.counts) for w in worlds}
    small, grown = (events_per_item(
        lambda pairs: pseudo_disambiguation(models[id(w)], pairs, w.lexicon, seed=3),
        w.queries) for w in worlds)
    assert small > 0
    assert grown <= GROWTH * small, (small, grown)


def test_generate_candidates(worlds):
    # per ranked head: a call for 2K heads against one for K
    small, grown = (events_per_item(
        lambda heads: generate_candidates(w.counts, w.lexicon, R,
                                          heads_per_relation=len(heads), seed=3),
        w.counts.heads(R)) for w in worlds)
    assert small > 0
    assert grown <= GROWTH * small, (small, grown)


def test_pp_score(worlds):
    assert_flat(worlds, lambda w, pair: pp_score(w.counts, pair))


def test_ds_score(worlds):
    # each query prepares its head afresh
    assert_flat(worlds, lambda w, pair: ds_score(
        w.embeddings, _attested(w.counts, w.embeddings, pair.relation, pair.head), pair))


def test_ds_model_score(worlds):
    # the queries come grouped by head, so most pairs meet the head
    # DSModel kept prepared; it keeps one, whatever the table's size
    models = {id(w): DSModel(w.counts, w.embeddings) for w in worlds}
    assert_flat(worlds, lambda w, pair: models[id(w)].score(pair))


def test_dependents_of(worlds):
    assert_flat(worlds, lambda w, pair: w.counts.dependents_of(pair.relation, pair.head))


def test_marginal(worlds):
    assert_flat(worlds, lambda w, pair: w.counts.marginal(pair.relation, pair.head))


def test_omcs_witnesses(worlds):
    indexes = {id(w): OMCSIndex(w.triplets, w.words) for w in worlds}
    for w in worlds:  # every triplet holds index words on both sides
        assert len(indexes[id(w)].triplets) == len(w.triplets)
    assert_flat(worlds, lambda w, pair: _witnesses(pair, indexes[id(w)]))


def test_nn_score(worlds):
    config = NNConfig(embedding_dim=4, hidden_dim=4, epochs=0)
    models = {id(w): nn_train(w.counts, config, w.lexicon) for w in worlds}
    assert_flat(worlds, lambda w, pair: models[id(w)].score(pair))


@pytest.mark.parametrize("scorer", ["pp", "ds"])
def test_winograd_resolve(worlds, scorer):
    # a question per queried pair, its adjective the pair's dependent; the
    # world's pairs stand in for both readings, so each side gets a score
    models = {}
    for w in worlds:
        counts = CountTable()
        for rel in (SPRelation.DOBJ_AMOD, SPRelation.NSUBJ_AMOD):
            counts._heads[rel] = w.counts._heads[R]
        models[id(w)] = PPModel(counts) if scorer == "pp" else DSModel(counts, w.embeddings)
    questions = {pair: WinogradQuestion(id=str(i), sentence="", verb=pair.head,
                                        adjective=pair.dependent,
                                        candidate_subject=Mention("cat", "cat"),
                                        candidate_object=Mention("dog", "dog"), gold=SUBJECT)
                 for i, pair in enumerate(worlds[0].queries)}
    for w in worlds:
        for q in questions.values():
            p = resolve(q, models[id(w)])
            assert p.subject_score is not None and p.object_score is not None
    assert_flat(worlds, lambda w, pair: resolve(questions[pair], models[id(w)]))
