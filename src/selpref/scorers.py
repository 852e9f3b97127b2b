"""Plausibility scorers over a count table.

Every scorer returns None for pairs it knows nothing about. A 0.0 from
pp_score means "seen head, never this dependent", which is evidence of
implausibility; None means "no evidence either way". Callers must keep
the two apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

from .core import SPPair, SPRelation, _clip
from .extract import CountTable

if TYPE_CHECKING:
    from .embeddings import EmbeddingTable


class ScoreModel(Protocol):
    name: str

    def score(self, pair: SPPair) -> Optional[float]: ...


def pp_score(counts: CountTable, pair: SPPair) -> Optional[float]:
    """Conditional probability C_r(h,d) / C_r(h); None for an unseen head."""
    denom = counts.marginal(pair.relation, pair.head)
    if denom == 0:
        return None
    return counts.count(pair.relation, pair.head, pair.dependent) / denom


def ds_score(emb: EmbeddingTable, head: tuple, pair: SPPair) -> Optional[float]:
    """Frequency-weighted mean cosine between the candidate dependent and
    the head's attested dependents.

    Attested dependents without an embedding drop out of both the sum and
    the normalizer, so the weights still form a convex combination. None
    when the head is unseen, the candidate has no vector, or nothing
    attested has one. The cosines are one mat-vec over the attested rows
    (Erk 2007), each clamped to [-1, 1], which rounding can pass by an ulp
    for (anti)parallel vectors. ``head`` is the pair's head as
    ``_attested`` prepares it.
    """
    import numpy as np

    target = emb.index.get(pair.dependent)
    if target is None:
        return None
    rows, norms, weights, total = head
    if not len(weights):
        return None
    target_norm = emb.norms[target]
    if target_norm == 0.0 or not norms.all():
        from .embeddings import EmbeddingError

        raise EmbeddingError(f"cosine of a zero-norm vector is undefined for {pair.relation} "
                             f"pair {_clip(pair.head)} {_clip(pair.dependent)}")
    sims = np.clip(rows @ emb.matrix[target] / (norms * target_norm), -1.0, 1.0)
    return float(weights @ sims / total)


def _attested(counts: CountTable, emb: EmbeddingTable, relation: SPRelation, head: str) -> tuple:
    """A head's attested dependents that have a vector: their rows of the
    matrix, their norms, their weights and the weights' sum."""
    import numpy as np

    index = emb.index
    rows = []
    weights = []
    for dep, weight in counts.dependents_of(relation, head).items():
        row = index.get(dep)
        if row is not None:
            rows.append(row)
            weights.append(weight)
    w = np.array(weights, dtype=np.float64)
    return emb.matrix[rows], emb.norms[rows], w, w.sum()


class PPModel:
    name = "pp"

    def __init__(self, counts: CountTable):
        self.counts = counts

    def score(self, pair: SPPair) -> Optional[float]:
        return pp_score(self.counts, pair)


class DSModel:
    """``ds_score`` with the last head it was asked about kept prepared:
    callers score pairs grouped by head, and one head keeps the memory
    to that head's degree."""

    name = "ds"

    def __init__(self, counts: CountTable, emb: EmbeddingTable):
        self.counts = counts
        self.emb = emb
        self._key = None
        self._head = None

    def score(self, pair: SPPair) -> Optional[float]:
        key = (pair.relation, pair.head)
        if key != self._key:
            self._key, self._head = key, _attested(self.counts, self.emb, *key)
        return ds_score(self.emb, self._head, pair)


class LookupModel:
    """Scores straight out of a (pair -> value) map, e.g. gold ratings."""

    name = "lookup"

    def __init__(self, table: dict[SPPair, Optional[float]]):
        self.table = dict(table)

    def score(self, pair: SPPair) -> Optional[float]:
        return self.table.get(pair)
