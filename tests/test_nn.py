import json
import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import selpref
from selpref.core import Lexicon, LexiconError, SPPair, SPRelation
from selpref.extract import CountTable
from selpref.nn import (
    NNConfig,
    NNError,
    NNModel,
    _RelationNet,
    nn_train,
)

R = SPRelation.DOBJ
# the child interpreter finds the package the same way this one did
SRC = str(Path(selpref.__file__).resolve().parent.parent)


def planted_corpus(n=400, seed=5):
    """Head a goes with {x, y}, head b with {u, v}, nothing crosses."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        if rng.random() < 0.5:
            pairs.append(SPPair(R, "a", rng.choice(["x", "y"])))
        else:
            pairs.append(SPPair(R, "b", rng.choice(["u", "v"])))
    return CountTable.from_pairs(pairs)


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
    losses = model.nets[R].losses
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
        assert a.losses == b.losses


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
    with pytest.raises(NNError, match="^no network trained for relation amod$"):
        model.score(SPPair(SPRelation.AMOD, "fish", "fresh"))


def test_zero_epochs_still_scores():
    cfg = NNConfig(embedding_dim=8, hidden_dim=16, epochs=0, seed=3)
    model = nn_train(planted_corpus(n=50), cfg, VOCAB)
    assert model.nets[R].losses == []
    assert isinstance(model.score(SPPair(R, "a", "x")), float)


def test_vocab_coverage_enforced():
    bad_vocab = Lexicon(
        verbs=frozenset({"a"}),  # b missing
        nouns=frozenset({"x", "y", "u", "v"}),
        adjectives=frozenset(),
    )
    with pytest.raises(NNError, match="^dobj: head 'b' not in the verb pool$"):
        nn_train(planted_corpus(n=50), SMALL, bad_vocab)


def test_negative_pool_exhaustion():
    vocab = Lexicon(
        verbs=frozenset({"a"}),
        nouns=frozenset({"x"}),
        adjectives=frozenset(),
    )
    with pytest.raises(NNError, match="^dobj: every dependent attested for head 'a', "
                                      "nothing left to corrupt with$"):
        nn_train(CountTable.from_pairs([SPPair(R, "a", "x")]),
                 NNConfig(embedding_dim=4, hidden_dim=4), vocab)


def test_empty_pool_is_blamed_on_the_lexicon():
    vocab = Lexicon(verbs=frozenset(), nouns=frozenset({"x"}), adjectives=frozenset())
    with pytest.raises(LexiconError, match="^no verb entries, needed for dobj heads$"):
        nn_train(CountTable.from_pairs([SPPair(R, "a", "x")]),
                 NNConfig(embedding_dim=4, hidden_dim=4), vocab)


def test_empty_stream_rejected():
    with pytest.raises(NNError, match="^empty training stream$"):
        nn_train(CountTable(), SMALL, VOCAB)


def test_config_validation():
    with pytest.raises(NNError):
        NNConfig(margin=0)
    with pytest.raises(NNError):
        NNConfig(learning_rate=-1)
    with pytest.raises(NNError):
        NNConfig(negatives_per_positive=0)
    with pytest.raises(NNError, match="^batch_size must be positive$"):
        NNConfig(batch_size=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NNError, match="margin must be positive and finite"):
            NNConfig(margin=bad)
        with pytest.raises(NNError, match="learning_rate must be positive and finite"):
            NNConfig(learning_rate=bad)


@pytest.mark.parametrize("settings", [
    {"negatives_per_positive": 2},
    # rows enough that a gemm over the batch would run on several threads
    {"negatives_per_positive": 2, "batch_size": 256},
], ids=["default batch", "batch 256"])
def test_model_bytes_do_not_depend_on_blas_threads(tmp_path, settings):
    """The step's products go through BLAS; one BLAS thread must give the
    bytes of the default thread count."""
    cfg = NNConfig(epochs=2, seed=3, **settings)     # release dims
    nn_train(planted_corpus(), cfg, VOCAB).save(tmp_path / "default.npz")
    child = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from test_nn import VOCAB, NNConfig, nn_train, planted_corpus\n"
        f"cfg = NNConfig(epochs=2, seed=3, **{settings!r})\n"
        "nn_train(planted_corpus(), cfg, VOCAB).save(sys.argv[2])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, str(Path(__file__).parent), str(tmp_path / "one.npz")],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "one.npz").read_bytes() == (tmp_path / "default.npz").read_bytes()


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
        assert a.losses == b.losses
    # scores agree bitwise
    for head in ["a", "b"]:
        for dep in ["x", "y", "u", "v"]:
            p = SPPair(R, head, dep)
            assert model.score(p) == back.score(p)


def test_a_failed_save_leaves_the_earlier_file_whole(tmp_path, monkeypatch):
    model = nn_train(planted_corpus(n=50), SMALL, VOCAB)
    path = tmp_path / "model.npz"
    path.write_bytes(b"earlier")
    write_array, written = np.lib.format.write_array, []

    def full_after_two(fh, array, **kwargs):
        if len(written) == 2:
            raise OSError(28, "No space left on device")
        written.append(write_array(fh, array, **kwargs))

    monkeypatch.setattr(np.lib.format, "write_array", full_after_two)
    with pytest.raises(OSError, match="No space"):
        model.save(path)
    assert path.read_bytes() == b"earlier" and list(tmp_path.iterdir()) == [path]


def test_model_without_a_batch_size_loads_and_scores_the_same(tmp_path):
    """Model files written before training ran in batches have no
    batch_size in their config; they load with the default."""
    model = nn_train(planted_corpus(n=50), SMALL, VOCAB)
    model.save(tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as z:
        arrays = dict(z)
    config = json.loads(str(arrays["meta__config"]))
    del config["batch_size"]
    arrays["meta__config"] = np.array(json.dumps(config))
    np.savez(tmp_path / "old.npz", **arrays)
    back = NNModel.load(tmp_path / "old.npz")
    assert back.config == model.config
    for head in ["a", "b"]:
        for dep in ["x", "y", "u", "v"]:
            p = SPPair(R, head, dep)
            assert back.score(p) == model.score(p)


# head a leaves one free dependent (w); b and c leave several
SAMPLER_VOCAB = Lexicon(verbs=frozenset({"a", "b", "c"}),
                        nouns=frozenset({"x", "y", "u", "v", "w"}), adjectives=frozenset())
SAMPLER_COUNTS = {("a", "x"): 20, ("a", "y"): 10, ("a", "u"): 10, ("a", "v"): 10,
                  ("b", "x"): 30, ("c", "y"): 15, ("c", "u"): 5}     # 100 instances


@pytest.mark.parametrize("batch_size", [1, 3, 64, 1000])
def test_no_negative_is_attested_for_its_head(monkeypatch, batch_size):
    """Every negative the trainer hands its step is free for the head, at
    any batch size, a partial last batch included (64 and 1000 leave one)."""
    table = CountTable.from_pairs(SPPair(R, h, d) for (h, d), n in SAMPLER_COUNTS.items()
                                  for _ in range(n))
    steps = []
    step = _RelationNet.sgd_step

    def spy(net, heads, deps, negatives, margin, lr):
        steps.append((net, heads.copy(), negatives.copy()))
        return step(net, heads, deps, negatives, margin, lr)

    monkeypatch.setattr(_RelationNet, "sgd_step", spy)
    config = NNConfig(embedding_dim=4, hidden_dim=4, epochs=3, negatives_per_positive=2,
                      batch_size=batch_size, seed=7)
    nn_train(table, config, SAMPLER_VOCAB)
    assert len(steps) == 3 * math.ceil(100 / batch_size)
    drawn = Counter()
    for net, heads, negatives in steps:
        assert len(heads) <= batch_size and negatives.shape == (2, len(heads))
        head_word = {i: w for w, i in net.head_index.items()}
        dep_word = {i: w for w, i in net.dep_index.items()}
        for row in negatives:
            for hi, ni in zip(heads, row):
                pair = head_word[int(hi)], dep_word[int(ni)]
                assert pair not in SAMPLER_COUNTS, pair
                drawn[pair] += 1
    assert sum(drawn.values()) == 3 * 2 * 100
    assert {d for h, d in drawn if h == "a"} == {"w"}


def test_multiple_negatives_per_positive():
    cfg = NNConfig(embedding_dim=8, hidden_dim=16, epochs=10,
                   negatives_per_positive=2, seed=3)
    model = nn_train(planted_corpus(), cfg, VOCAB)
    wins = comparisons(model)
    assert sum(wins) >= 0.9 * len(wins)


def test_training_memory_per_instance():
    """An epoch holds one int64 row id per counted occurrence, not the
    occurrence's head and dependent too: ten times the counts on the same
    pairs raise the traced peak of one epoch by at most 9 bytes per added
    instance. The batch temporaries do not grow with the counts."""
    rng = random.Random(11)
    heads = [f"h{i}" for i in range(20)]
    deps = [f"d{j}" for j in range(50)]
    pairs = {(h, d): rng.randint(1, 9) for h in heads for d in rng.sample(deps, 25)}
    vocab = Lexicon(verbs=frozenset(heads), nouns=frozenset(deps), adjectives=frozenset())
    config = NNConfig(embedding_dim=2, hidden_dim=2, epochs=1, batch_size=4096)

    def peak(scale):
        table = CountTable()
        for (h, d), n in pairs.items():
            table._heads[R][h][d] = n * scale
        tracemalloc.start()
        try:
            nn_train(table, config, vocab)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    added = 90 * sum(pairs.values())
    small, large = peak(10), peak(100)
    assert large - small <= 9 * added, ((large - small) / added, small, large)


@pytest.mark.parametrize("bias", [0.5, -1e-300, float("nan")])
def test_load_refuses_a_nonzero_output_bias(tmp_path, bias):
    """save writes every <rel>__b2 as 0.0, since the net has no output
    bias; a file holding another value was not written by save."""
    nn_train(planted_corpus(n=50), SMALL, VOCAB).save(tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as z:
        arrays = dict(z)
    assert float(arrays["dobj__b2"]) == 0.0
    arrays["dobj__b2"] = np.array(bias)
    np.savez(tmp_path / "biased.npz", **arrays)
    with pytest.raises(NNError) as exc:
        NNModel.load(tmp_path / "biased.npz")
    assert str(exc.value) == (f"{tmp_path / 'biased.npz'}: not a readable model file: "
                              f"dobj__b2 has value {bias!r}, expected 0.0")


def test_load_names_path_of_npz_missing_a_key(tmp_path):
    path = tmp_path / "partial.npz"
    np.savez(path, meta__config=np.array("{}"))
    with pytest.raises(NNError) as exc:
        NNModel.load(path)
    assert str(path) in str(exc.value)
    assert "meta__relations" in str(exc.value)


@pytest.mark.parametrize("relations, shown", [("[1]", "1"), ("[null]", "null"),
                                               ('[["dobj"]]', '["dobj"]')])
def test_load_names_path_of_npz_with_a_relation_name_not_a_string(tmp_path, relations, shown):
    path = tmp_path / "bad.npz"
    np.savez(path, meta__config=np.array("{}"), meta__relations=np.array(relations))
    with pytest.raises(NNError) as exc:
        NNModel.load(path)
    assert str(exc.value) == (
        f"{path}: not a readable model file: relation name {shown} is not a string")
