"""Neural plausibility scorer.

One small network per relation: score = W2 @ tanh(W1 @ [v_head, v_dep] + b1)
+ b2, trained with a margin ranking loss against randomly corrupted
dependents. Embeddings and weights update jointly. Plain SGD, single
thread, fully deterministic under the config seed.
"""

from __future__ import annotations

import io
import json
import logging
import math
import time
import zipfile
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import Lexicon, SelPrefError, SPPair, SPRelation, _clip, _shown, parse_relation

if TYPE_CHECKING:
    from .extract import CountTable

log = logging.getLogger(__name__)


class NNError(SelPrefError, ValueError):
    pass


class VocabCoverageError(NNError):
    pass


class NegativePoolError(NNError):
    pass


class UntrainedRelationError(NNError):
    pass


@dataclass(frozen=True)
class NNConfig:
    embedding_dim: int = 50
    hidden_dim: int = 100
    margin: float = 1.0
    negatives_per_positive: int = 1
    epochs: int = 10
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.embedding_dim < 1 or self.hidden_dim < 1:
            raise NNError("embedding_dim and hidden_dim must be positive")
        if not 0 < self.margin < math.inf:
            raise NNError("margin must be positive and finite")
        if self.negatives_per_positive < 1:
            raise NNError("negatives_per_positive must be positive")
        if self.epochs < 0:
            raise NNError("epochs must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise NNError("learning_rate must be positive and finite")


# the weight arrays of a _RelationNet, each stored in model.npz as <relation>__<name>
_ARRAYS = ("emb_head", "emb_dep", "w1", "b1", "w2")


def _vocabulary_index(name: str, words) -> dict[str, int]:
    """word -> embedding row; a repeated word would score with another's row."""
    index: dict[str, int] = {}
    for i, w in enumerate(words):
        if index.setdefault(w, i) != i:
            raise ValueError(f"{name} has {_clip(str(w))} more than once")
    return index


class _RelationNet:
    """Parameters, forward pass and SGD step for one relation, with the
    mean loss of each epoch it was trained for."""

    def __init__(self, config: NNConfig, heads, deps, emb_head: np.ndarray,
                 emb_dep: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                 b2: float, losses: list[float]):
        e, h = config.embedding_dim, config.hidden_dim
        for name, array, shape in (("emb_head", emb_head, (len(heads), e)),
                                   ("emb_dep", emb_dep, (len(deps), e)),
                                   ("w1", w1, (h, 2 * e)), ("b1", b1, (h,)), ("w2", w2, (h,))):
            if array.shape != shape:
                raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
            if array.dtype != np.float64:
                raise ValueError(f"{name} has dtype {array.dtype}, expected float64")
        self.head_index = _vocabulary_index("heads", heads)
        self.dep_index = _vocabulary_index("deps", deps)
        self.emb_head, self.emb_dep = emb_head, emb_dep
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.losses = losses

    @classmethod
    def random(cls, config: NNConfig, heads: list[str], deps: list[str],
               rng: np.random.Generator) -> "_RelationNet":
        """An untrained net, its weights drawn from ``rng`` in a fixed order."""
        e, h = config.embedding_dim, config.hidden_dim
        bound = 0.5 / e
        a1 = np.sqrt(6.0 / (2 * e + h))
        a2 = np.sqrt(6.0 / (h + 1))
        return cls(config, heads, deps,
                   emb_head=rng.uniform(-bound, bound, size=(len(heads), e)),
                   emb_dep=rng.uniform(-bound, bound, size=(len(deps), e)),
                   w1=rng.uniform(-a1, a1, size=(h, 2 * e)), b1=np.zeros(h),
                   w2=rng.uniform(-a2, a2, size=h), b2=0.0, losses=[])

    def forward(self, hi: int, di: int):
        x = np.concatenate([self.emb_head[hi], self.emb_dep[di]])
        hidden = np.tanh(self.w1 @ x + self.b1)
        score = float(self.w2 @ hidden + self.b2)
        return score, (x, hidden)

    def sgd_step(self, hi: int, di: int, pos, negatives, lr: float, outer) -> None:
        """SGD step for the positive ``(hi, di)`` against the margin-violating
        negatives ``(ni, cache)``, with gradients from the parameters before
        the step. Per negative, the positive gradient (+lr) then the
        negative's (-lr) goes to w1, b1, w2, the head row, the dependent
        row. b2's gradient is 1 for both, so they cancel and b2 stays 0.0.
        The rank-1 product dpre x^T is one BLAS call (k = 1) into the
        scratch array ``outer``, shaped like w1. It has np.outer's bits except
        that an exact zero may be +0.0 where np.outer gives -0.0. Adding
        either to a weight differs only if the weight is -0.0, and none is:
        none starts there, and a sum is -0.0 only when both terms are."""
        w1, b1, w2 = self.w1, self.b1, self.w2
        emb_head, emb_dep = self.emb_head, self.emb_dep
        e = emb_head.shape[1]
        grads = []
        for dep, (x, hidden) in [(di, pos), *negatives]:
            dpre = w2 * (1.0 - hidden ** 2)
            grads.append((dep, x, hidden, dpre, w1.T @ dpre))
        for neg in grads[1:]:
            for step, (dep, x, hidden, dpre, dx) in ((lr, grads[0]), (-lr, neg)):
                np.dot(dpre[:, None], x[None, :], out=outer)
                outer *= step
                w1 += outer
                b1 += step * dpre
                w2 += step * hidden
                dx = step * dx
                emb_head[hi] += dx[:e]
                emb_dep[dep] += dx[e:]


class NNModel:
    name = "nn"

    def __init__(self, config: NNConfig):
        self.config = config
        self.nets: dict[SPRelation, _RelationNet] = {}

    def score(self, pair: SPPair) -> Optional[float]:
        net = self.nets.get(pair.relation)
        if net is None:
            raise UntrainedRelationError(
                f"no network trained for relation {pair.relation.value}"
            )
        hi = net.head_index.get(pair.head)
        di = net.dep_index.get(pair.dependent)
        if hi is None or di is None:
            return None
        return net.forward(hi, di)[0]

    def save(self, path) -> None:
        arrays = {
            "meta__config": np.array(json.dumps(asdict(self.config))),
            "meta__relations": np.array(
                json.dumps([r.value for r in self.nets])
            ),
        }
        for rel, net in self.nets.items():
            p = rel.value
            arrays[f"{p}__heads"] = np.array(sorted(net.head_index, key=net.head_index.get))
            arrays[f"{p}__deps"] = np.array(sorted(net.dep_index, key=net.dep_index.get))
            for k in _ARRAYS:
                arrays[f"{p}__{k}"] = getattr(net, k)
            arrays[f"{p}__b2"] = np.array(net.b2)
            arrays[f"{p}__losses"] = np.array(net.losses)
        # np.savez stamps zip entries with the current time; write the
        # archive by hand with a fixed date so identical models produce
        # identical bytes
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            for name in sorted(arrays):
                buf = io.BytesIO()
                np.lib.format.write_array(buf, np.asarray(arrays[name]),
                                          allow_pickle=False)
                info = zipfile.ZipInfo(name + ".npy",
                                       date_time=(1980, 1, 1, 0, 0, 0))
                zf.writestr(info, buf.getvalue())

    @classmethod
    def load(cls, path) -> "NNModel":
        """Read a model written by ``save``; any unreadable or incomplete
        file ends in an ``NNError`` naming the path."""
        try:
            with np.load(path, allow_pickle=False) as z:
                config = NNConfig(**json.loads(str(z["meta__config"])))
                model = cls(config)
                for name in json.loads(str(z["meta__relations"])):
                    if not isinstance(name, str):
                        raise ValueError(f"relation name {_shown(json.dumps(name))} "
                                         "is not a string")
                    rel = parse_relation(name)
                    p = rel.value
                    arrays = {k: z[f"{p}__{k}"] for k in _ARRAYS}
                    b2, losses = float(z[f"{p}__b2"]), list(z[f"{p}__losses"])
                    try:
                        model.nets[rel] = _RelationNet(config, z[f"{p}__heads"], z[f"{p}__deps"],
                                                       **arrays, b2=b2, losses=losses)
                    except ValueError as err:  # a misfit array: name it as the file does
                        raise ValueError(f"{p}__{err}") from None
        except (OSError, EOFError, ValueError, KeyError, TypeError,
                zipfile.BadZipFile) as err:
            raise NNError(f"{path}: not a readable model file: {err}") from None
        return model


def nn_train(counts: CountTable, config: NNConfig, vocab: Lexicon) -> NNModel:
    """Train one ranking network per relation the table counts.

    Each counted occurrence of a pair is one training instance. For every
    positive (h, d) the dependent is corrupted: d' is drawn
    uniformly from the relation's vocabulary pool, resampling while it
    collides with a dependent attested for h. Loss per negative is
    max(0, margin - s(h,d) + s(h,d')). A head attested with the whole
    pool leaves nothing to corrupt with, which is an error.
    """
    sizes = {rel: n for rel in SPRelation if (n := counts.total(rel))}
    if not sizes:
        raise NNError("empty training stream")

    for rel in sizes:
        head_pool = vocab.heads_for(rel)
        dep_pool = vocab.dependents_for(rel)
        for head, dep, _ in counts.items(rel):
            if head not in head_pool:
                raise VocabCoverageError(
                    f"{rel.value}: head {_clip(head)} not in the {rel.head_pos} pool")
            if dep not in dep_pool:
                raise VocabCoverageError(f"{rel.value}: dependent {_clip(dep)} "
                                         f"not in the {rel.dependent_pos} pool")

    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    model = NNModel(config)
    outer = np.empty((config.hidden_dim, 2 * config.embedding_dim))  # for sgd_step
    for rel in sizes:  # SPRelation order keeps the RNG stream stable
        heads = sorted(vocab.heads_for(rel))
        deps = sorted(vocab.dependents_for(rel))
        net = _RelationNet.random(config, heads, deps, rng)
        attested: dict[int, set[int]] = {}
        instances = []
        for head, dep, count in counts.items(rel):
            hi, di = net.head_index[head], net.dep_index[dep]
            instances += [(hi, di)] * count
            attested.setdefault(hi, set()).add(di)
        for hi, seen in attested.items():
            if len(seen) == len(deps):
                raise NegativePoolError(
                    f"{rel.value}: every dependent attested for head {_clip(heads[hi])}, "
                    "nothing left to corrupt with"
                )

        order = np.arange(len(instances))
        n_neg, n_deps = config.negatives_per_positive, len(deps)
        forward, integers = net.forward, rng.integers
        for epoch in range(config.epochs):
            rng.shuffle(order)
            total = 0.0
            for k in order:
                hi, di = instances[k]
                seen = attested[hi]
                pos_score, pos = forward(hi, di)
                violated = []
                for _ in range(n_neg):
                    ni = int(integers(n_deps))
                    while ni in seen:
                        ni = int(integers(n_deps))
                    neg_score, neg = forward(hi, ni)
                    loss = config.margin - pos_score + neg_score
                    if loss > 0:
                        total += loss
                        violated.append((ni, neg))
                if violated:
                    net.sgd_step(hi, di, pos, violated, config.learning_rate, outer)
            net.losses.append(total / (len(instances) * n_neg))
        model.nets[rel] = net
    seconds = time.perf_counter() - start
    log.info("instances %s; %d epochs in %.2f s, %.0f instances/s",
             " ".join(f"{rel.value}={n}" for rel, n in sizes.items()), config.epochs,
             seconds, sum(sizes.values()) * config.epochs / seconds)
    return model
