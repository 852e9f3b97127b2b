"""Neural plausibility scorer.

One small network per relation: score = W2 @ tanh(W1 @ [v_head, v_dep] + b1)
+ b2, trained with a margin ranking loss against randomly corrupted
dependents. Embeddings and weights update jointly. Plain SGD, single
thread, fully deterministic under the config seed.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

import numpy as np

from .core import Lexicon, SelPrefError, SPPair, SPRelation, parse_relation


class NNError(SelPrefError, ValueError):
    pass


class VocabCoverageError(NNError):
    pass


class NegativePoolError(NNError):
    pass


class UntrainedRelationError(NNError, KeyError):
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
        if self.margin <= 0:
            raise NNError("margin must be positive")
        if self.negatives_per_positive < 1:
            raise NNError("negatives_per_positive must be positive")
        if self.epochs < 0:
            raise NNError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise NNError("learning_rate must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NNConfig":
        return cls(**d)


class _RelationNet:
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


class NNModel:
    name = "nn"

    def __init__(self, config: NNConfig):
        self.config = config
        self.nets: dict[SPRelation, _RelationNet] = {}
        self.epoch_losses: dict[SPRelation, list[float]] = {}

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
        return net.score(hi, di)

    def save(self, path) -> None:
        arrays = {
            "meta__config": np.array(json.dumps(self.config.to_dict())),
            "meta__relations": np.array(
                json.dumps([r.value for r in self.nets])
            ),
        }
        for rel, net in self.nets.items():
            p = rel.value
            heads = sorted(net.head_index, key=net.head_index.get)
            deps = sorted(net.dep_index, key=net.dep_index.get)
            arrays[f"{p}__heads"] = np.array(heads)
            arrays[f"{p}__deps"] = np.array(deps)
            arrays[f"{p}__emb_head"] = net.emb_head
            arrays[f"{p}__emb_dep"] = net.emb_dep
            arrays[f"{p}__w1"] = net.w1
            arrays[f"{p}__b1"] = net.b1
            arrays[f"{p}__w2"] = net.w2
            arrays[f"{p}__b2"] = np.array(net.b2)
            arrays[f"{p}__losses"] = np.array(self.epoch_losses.get(rel, []))
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
                config = NNConfig.from_dict(json.loads(str(z["meta__config"])))
                model = cls(config)
                for name in json.loads(str(z["meta__relations"])):
                    rel = parse_relation(name)
                    p = rel.value
                    net = _RelationNet.__new__(_RelationNet)
                    net.head_index = {w: i for i, w in enumerate(z[f"{p}__heads"])}
                    net.dep_index = {w: i for i, w in enumerate(z[f"{p}__deps"])}
                    net.emb_head = z[f"{p}__emb_head"]
                    net.emb_dep = z[f"{p}__emb_dep"]
                    net.w1 = z[f"{p}__w1"]
                    net.b1 = z[f"{p}__b1"]
                    net.w2 = z[f"{p}__w2"]
                    net.b2 = float(z[f"{p}__b2"])
                    model.nets[rel] = net
                    model.epoch_losses[rel] = list(z[f"{p}__losses"])
        except (OSError, EOFError, ValueError, KeyError, TypeError,
                zipfile.BadZipFile) as err:
            raise NNError(f"{path}: not a readable model file: {err}") from None
        return model


def nn_train(
    corpus_pairs: Iterable[SPPair],
    config: NNConfig,
    vocab: Lexicon,
) -> NNModel:
    """Train one ranking network per relation present in the stream.

    For every positive (h, d) the dependent is corrupted: d' is drawn
    uniformly from the relation's vocabulary pool, resampling while it
    collides with a dependent attested for h. Loss per negative is
    max(0, margin - s(h,d) + s(h,d')). A head attested with the whole
    pool leaves nothing to corrupt with, which is an error.
    """
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
        net = _RelationNet(heads, deps, config, rng)
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
