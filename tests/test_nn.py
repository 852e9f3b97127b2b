import random

import numpy as np
import pytest

from selpref.core import Lexicon, SPPair, SPRelation
from selpref.nn import (
    NegativePoolError,
    NNConfig,
    NNError,
    NNModel,
    UntrainedRelationError,
    VocabCoverageError,
    nn_train,
)

R = SPRelation.DOBJ


def planted_corpus(n=400, seed=5):
    """Head a goes with {x, y}, head b with {u, v}, nothing crosses."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        if rng.random() < 0.5:
            pairs.append(SPPair(R, "a", rng.choice(["x", "y"])))
        else:
            pairs.append(SPPair(R, "b", rng.choice(["u", "v"])))
    return pairs


VOCAB = Lexicon(
    verbs=frozenset({"a", "b"}),
    nouns=frozenset({"x", "y", "u", "v"}),
    adjectives=frozenset(),
)

SMALL = NNConfig(embedding_dim=8, hidden_dim=16, epochs=10, seed=3)


def comparisons(model):
    """All (attested, cross) score comparisons on the planted corpus."""
    out = []
    for head, good, bad in [("a", ["x", "y"], ["u", "v"]),
                            ("b", ["u", "v"], ["x", "y"])]:
        for g in good:
            for b in bad:
                out.append(
                    model.score(SPPair(R, head, g)) > model.score(SPPair(R, head, b))
                )
    return out


def test_planted_preference_learned():
    model = nn_train(planted_corpus(), SMALL, VOCAB)
    wins = comparisons(model)
    assert sum(wins) >= 0.9 * len(wins)


def test_loss_decreases_on_separable_corpus():
    model = nn_train(planted_corpus(), SMALL, VOCAB)
    losses = model.epoch_losses[R]
    assert len(losses) == SMALL.epochs
    assert all(l >= 0 for l in losses)
    assert losses[-1] < losses[0]


def test_seeded_determinism_is_bitwise():
    m1 = nn_train(planted_corpus(), SMALL, VOCAB)
    m2 = nn_train(planted_corpus(), SMALL, VOCAB)
    for rel in m1.nets:
        a, b = m1.nets[rel], m2.nets[rel]
        for name in ["emb_head", "emb_dep", "w1", "b1", "w2"]:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.b2 == b.b2
    assert m1.epoch_losses == m2.epoch_losses


def test_different_seed_differs():
    m1 = nn_train(planted_corpus(), SMALL, VOCAB)
    m2 = nn_train(planted_corpus(), NNConfig(embedding_dim=8, hidden_dim=16,
                                             epochs=10, seed=4), VOCAB)
    assert not np.array_equal(m1.nets[R].w1, m2.nets[R].w1)


def test_score_is_stable():
    model = nn_train(planted_corpus(n=50), SMALL, VOCAB)
    p = SPPair(R, "a", "x")
    assert model.score(p) == model.score(p)


def test_oov_returns_missing():
    model = nn_train(planted_corpus(n=50), SMALL, VOCAB)
    assert model.score(SPPair(R, "a", "zebra")) is None
    assert model.score(SPPair(R, "zebra", "x")) is None


def test_untrained_relation_raises():
    model = nn_train(planted_corpus(n=50), SMALL, VOCAB)
    with pytest.raises(UntrainedRelationError):
        model.score(SPPair(SPRelation.AMOD, "fish", "fresh"))


def test_zero_epochs_still_scores():
    cfg = NNConfig(embedding_dim=8, hidden_dim=16, epochs=0, seed=3)
    model = nn_train(planted_corpus(n=50), cfg, VOCAB)
    assert model.epoch_losses[R] == []
    assert isinstance(model.score(SPPair(R, "a", "x")), float)


def test_vocab_coverage_enforced():
    bad_vocab = Lexicon(
        verbs=frozenset({"a"}),  # b missing
        nouns=frozenset({"x", "y", "u", "v"}),
        adjectives=frozenset(),
    )
    with pytest.raises(VocabCoverageError):
        nn_train(planted_corpus(n=50), SMALL, bad_vocab)


def test_negative_pool_exhaustion():
    vocab = Lexicon(
        verbs=frozenset({"a"}),
        nouns=frozenset({"x"}),
        adjectives=frozenset(),
    )
    with pytest.raises(NegativePoolError):
        nn_train([SPPair(R, "a", "x")], NNConfig(embedding_dim=4, hidden_dim=4), vocab)


def test_empty_stream_rejected():
    with pytest.raises(NNError):
        nn_train([], SMALL, VOCAB)


def test_config_validation():
    with pytest.raises(NNError):
        NNConfig(margin=0)
    with pytest.raises(NNError):
        NNConfig(learning_rate=-1)
    with pytest.raises(NNError):
        NNConfig(negatives_per_positive=0)


def test_npz_roundtrip_is_exact(tmp_path):
    model = nn_train(planted_corpus(), SMALL, VOCAB)
    path = tmp_path / "model.npz"
    model.save(path)
    back = NNModel.load(path)
    assert back.config == model.config
    for rel in model.nets:
        a, b = model.nets[rel], back.nets[rel]
        assert a.head_index == b.head_index
        assert a.dep_index == b.dep_index
        for name in ["emb_head", "emb_dep", "w1", "b1", "w2"]:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.b2 == b.b2
    # scores agree bitwise
    for head in ["a", "b"]:
        for dep in ["x", "y", "u", "v"]:
            p = SPPair(R, head, dep)
            assert model.score(p) == back.score(p)


def test_multiple_negatives_per_positive():
    cfg = NNConfig(embedding_dim=8, hidden_dim=16, epochs=6,
                   negatives_per_positive=2, seed=3)
    model = nn_train(planted_corpus(), cfg, VOCAB)
    wins = comparisons(model)
    assert sum(wins) >= 0.9 * len(wins)


def test_load_names_path_of_npz_missing_a_key(tmp_path):
    path = tmp_path / "partial.npz"
    np.savez(path, meta__config=np.array("{}"))
    with pytest.raises(NNError) as exc:
        NNModel.load(path)
    assert str(path) in str(exc.value)
    assert "meta__relations" in str(exc.value)
