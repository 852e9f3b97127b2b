"""Neural plausibility scorer.

One small network per relation (Van de Cruys 2014): score = W2 @ tanh(W1 @
[v_head, v_dep] + b1), trained with a margin ranking loss against
randomly corrupted dependents. Embeddings and weights update jointly, by
minibatch SGD that sums each batch's gradients at one learning rate. A
single process, deterministic under the config seed, with the same bytes
at any BLAS thread count.
"""

from __future__ import annotations

import io
import json
import logging
import math
import time
import zipfile
from collections import Counter
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import (Lexicon, SelPrefError, SPPair, SPRelation, _clip, _shown, open_output,
                   parse_relation)

if TYPE_CHECKING:
    from .extract import CountTable

log = logging.getLogger(__name__)


class NNError(SelPrefError):
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
    batch_size: int = 64

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
        if self.batch_size < 1:
            raise NNError("batch_size must be positive")


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
                 losses: list[float]):
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
        self.w1, self.b1, self.w2 = w1, b1, w2
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
                   w2=rng.uniform(-a2, a2, size=h), losses=[])

    def score(self, hi: int, di: int) -> float:
        x = np.concatenate([self.emb_head[hi], self.emb_dep[di]])
        return float(self.w2 @ np.tanh(self.w1 @ x + self.b1))

    def sgd_step(self, heads: np.ndarray, deps: np.ndarray, negatives: np.ndarray,
                 margin: float, lr: float) -> float:
        """One SGD step on a batch: the positive ``(heads[i], deps[i])``
        against each negative ``(heads[i], negatives[j, i])``. Returns the
        summed hinge loss of the batch.

        Scores and gradients come from the parameters before the step.
        Each margin-violating negative adds +lr times its positive's score
        gradient and -lr times its own. An output bias would have gradient
        1 in both, so its two updates would cancel: the net has none. Every
        product is a stack of vector-matrix products, one BLAS gemv per row,
        and never a gemm, whose blocking (and so whose bits) changes with
        the BLAS thread count; rows add into the embeddings with np.add.at.
        """
        b = len(heads)
        rows_h = np.tile(heads, len(negatives) + 1)
        rows_d = np.concatenate([deps, negatives.ravel()])
        x = np.concatenate([self.emb_head[rows_h], self.emb_dep[rows_d]], axis=1)
        hidden = np.tanh(np.matmul(x[:, None, :], self.w1.T)[:, 0] + self.b1)
        scores = np.matmul(hidden[:, None, :], self.w2)[:, 0]
        loss = margin - scores[:b] + scores[b:].reshape(-1, b)
        violated = loss > 0
        # each row's step: a positive's is lr per violated negative of it, a
        # violated negative's -lr, any other row's 0
        step = np.concatenate([lr * violated.sum(axis=0), np.where(violated.ravel(), -lr, 0.0)])
        rows = np.flatnonzero(step)
        if not len(rows):
            return 0.0
        step, x, hidden = step[rows], x[rows], hidden[rows]
        grad = step[:, None] * (self.w2 * (1.0 - hidden ** 2))
        dx = np.matmul(grad[:, None, :], self.w1)[:, 0]
        self.w1 += np.matmul(grad.T[:, None, :], x)[:, 0]
        self.b1 += grad.sum(axis=0)
        self.w2 += step @ hidden
        e = self.emb_head.shape[1]
        np.add.at(self.emb_head, rows_h[rows], dx[:, :e])
        np.add.at(self.emb_dep, rows_d[rows], dx[:, e:])
        return float(loss[violated].sum())


class NNModel:
    name = "nn"

    def __init__(self, config: NNConfig):
        self.config = config
        self.nets: dict[SPRelation, _RelationNet] = {}

    def score(self, pair: SPPair) -> Optional[float]:
        net = self.nets.get(pair.relation)
        if net is None:
            raise NNError(f"no network trained for relation {pair.relation.value}")
        hi = net.head_index.get(pair.head)
        di = net.dep_index.get(pair.dependent)
        if hi is None or di is None:
            return None
        return net.score(hi, di)

    def save(self, path) -> None:
        arrays = {
            "meta__config": np.array(json.dumps(asdict(self.config))),
            "meta__relations": np.array(
                json.dumps([r.value for r in self.nets])
            ),
        }
        for rel, net in self.nets.items():
            p = rel.value
            arrays[f"{p}__heads"] = np.array(list(net.head_index))
            arrays[f"{p}__deps"] = np.array(list(net.dep_index))
            for k in _ARRAYS:
                arrays[f"{p}__{k}"] = getattr(net, k)
            arrays[f"{p}__b2"] = np.array(0.0)  # the layout keeps the bias the net lacks
            arrays[f"{p}__losses"] = np.array(net.losses)
        # np.savez stamps zip entries with the current time; write the
        # archive by hand with a fixed date so identical models produce
        # identical bytes
        with open_output(path, "wb") as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
            for name in sorted(arrays):
                buf = io.BytesIO()
                np.lib.format.write_array(buf, np.asarray(arrays[name]),
                                          allow_pickle=False)
                info = zipfile.ZipInfo(name + ".npy",
                                       date_time=(1980, 1, 1, 0, 0, 0))
                zf.writestr(info, buf.getvalue())

    @classmethod
    def load(cls, path) -> "NNModel":
        """Read a model written by ``save``; an unreadable or incomplete file,
        or a nonzero output bias, ends in an ``NNError`` naming the path."""
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
                    if (b2 := float(z[f"{p}__b2"])) != 0.0:
                        raise ValueError(f"{p}__b2 has value {b2!r}, expected 0.0")
                    try:
                        model.nets[rel] = _RelationNet(config, z[f"{p}__heads"], z[f"{p}__deps"],
                                                       **arrays, losses=list(z[f"{p}__losses"]))
                    except ValueError as err:  # a misfit array: name it as the file does
                        raise ValueError(f"{p}__{err}") from None
        except (OSError, EOFError, ValueError, KeyError, TypeError,
                zipfile.BadZipFile) as err:
            raise NNError(f"{path}: not a readable model file: {err}") from None
        return model


def nn_train(counts: CountTable, config: NNConfig, vocab: Lexicon) -> NNModel:
    """Train one ranking network per relation the table counts.

    Each counted occurrence of a pair is one training instance; an epoch
    shuffles them and steps once per ``config.batch_size`` of them. For
    every positive (h, d) the dependent is corrupted: d' is drawn
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
                raise NNError(
                    f"{rel.value}: head {_clip(head)} not in the {rel.head_pos} pool")
            if dep not in dep_pool:
                raise NNError(f"{rel.value}: dependent {_clip(dep)} "
                              f"not in the {rel.dependent_pos} pool")

    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    model = NNModel(config)
    n_neg, batch = config.negatives_per_positive, config.batch_size
    for rel in sizes:  # SPRelation order keeps the RNG stream stable
        heads = sorted(vocab.heads_for(rel))
        deps = sorted(vocab.dependents_for(rel))
        net = _RelationNet.random(config, heads, deps, rng)
        n_deps = len(deps)
        rows = [(net.head_index[head], net.dep_index[dep], count)
                for head, dep, count in counts.items(rel)]
        degree = Counter(hi for hi, _, _ in rows)
        for hi, n in degree.items():
            if n == n_deps:
                raise NNError(
                    f"{rel.value}: every dependent attested for head {_clip(heads[hi])}, "
                    "nothing left to corrupt with"
                )
        table_heads, table_deps, repeats = np.array(rows, dtype=np.int64).T
        attested = np.sort(table_heads * n_deps + table_deps)
        try:  # one table row id per instance; shuffling it shuffles the instances
            order = np.repeat(np.arange(len(rows)), repeats)
        except MemoryError:
            raise NNError(f"{rel.value}: {sizes[rel]} training instances "
                          "do not fit in memory") from None

        def is_attested(hs: np.ndarray, ds: np.ndarray) -> np.ndarray:
            keys = hs * n_deps + ds
            return attested.take(np.searchsorted(attested, keys), mode="clip") == keys

        for epoch in range(config.epochs):
            rng.shuffle(order)
            total = 0.0
            for first in range(0, len(order), batch):
                ids = order[first:first + batch]
                hs = table_heads[ids]
                negatives = np.empty((n_neg, len(hs)), dtype=np.int64)
                for slot in negatives:  # one draw per instance, then redraws of the attested
                    slot[:] = rng.integers(n_deps, size=len(hs))
                    redraw = np.flatnonzero(is_attested(hs, slot))
                    while len(redraw):
                        slot[redraw] = rng.integers(n_deps, size=len(redraw))
                        redraw = redraw[is_attested(hs[redraw], slot[redraw])]
                total += net.sgd_step(hs, table_deps[ids], negatives,
                                      config.margin, config.learning_rate)
            net.losses.append(total / (len(order) * n_neg))
        model.nets[rel] = net
    seconds = time.perf_counter() - start
    log.info("instances %s; batch %d; %d epochs in %.2f s, %.0f instances/s",
             " ".join(f"{rel.value}={n}" for rel, n in sizes.items()), batch, config.epochs,
             seconds, sum(sizes.values()) * config.epochs / seconds)
    return model
