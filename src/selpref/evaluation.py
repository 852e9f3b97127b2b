"""Gold-standard loading, rank correlation, significance, and
pseudo-disambiguation."""

from __future__ import annotations

import math
import pathlib
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Any, Iterable, Mapping, Optional, TextIO

from .core import (
    Lexicon,
    LexiconError,
    SelPrefError,
    SPPair,
    SPRelation,
    _clip,
    _pair,
    _parsed_rows,
    _shown,
    check_plausibility,
    open_input,
)
from .extract import _Excluding
from .scorers import ScoreModel


class ConstantInputError(SelPrefError):
    pass


class NoTestPairsError(SelPrefError):
    pass


GOLD_HEADER = "#sp10k v1"


class GoldSet:
    """Gold plausibility judgments, unique per pair, indexed by relation."""

    def __init__(self, entries: Iterable[tuple[SPPair, float]]):
        # relation -> pair -> value, relations in SPRelation order
        self._by_rel: dict[SPRelation, dict[SPPair, float]] = {r: {} for r in SPRelation}
        for pair, value in entries:
            check_plausibility(value)
            values = self._by_rel[pair.relation]
            if pair in values:
                raise SelPrefError(f"duplicate gold pair: {pair}")
            values[pair] = value

    def value(self, pair: SPPair) -> float:
        return self._by_rel[pair.relation][pair]

    def pairs(self, relation: SPRelation | None = None) -> list[SPPair]:
        if relation is None:
            return [p for values in self._by_rel.values() for p in values]
        return list(self._by_rel[relation])

    def relations(self) -> list[SPRelation]:
        return [r for r, values in self._by_rel.items() if values]

    def items(self) -> Iterable[tuple[SPPair, float]]:
        for values in self._by_rel.values():
            yield from values.items()


def load_gold(fh: TextIO, source: str = "<stream>") -> GoldSet:
    """Read the gold TSV: relation, head, dependent, plausibility."""
    return GoldSet(_unique(_parsed_rows(fh, source, 4, SelPrefError, lambda f: (
        _pair(f), _value(f[3], gold=True))), source).items())


def load_gold_file(path) -> GoldSet:
    with open_input(path) as fh:
        return load_gold(fh, source=str(path))


SCORES_HEADER = "#sp-scores v1"


def write_scores(rows: Iterable[tuple[SPPair, Optional[float]]], fh: TextIO) -> None:
    """Write (pair, score) rows in the given order, without a header: NA
    for a pair that could not be scored, else the score's repr."""
    for pair, value in rows:
        text = "NA" if value is None else repr(value)
        fh.write(f"{pair.relation.value}\t{pair.head}\t{pair.dependent}\t{text}\n")


def load_scores_file(path) -> dict[SPPair, Optional[float]]:
    """Read a pair score TSV as ``write_scores`` writes it: relation, head,
    dependent and any finite value, or NA (read as None) for a pair that
    could not be scored."""
    with open_input(path) as fh:
        return _unique(_parsed_rows(fh, path, 4, SelPrefError, lambda f: (
            _pair(f), None if f[3] == "NA" else _value(f[3], gold=False))), path)


def _unique(rows: Iterable[tuple[int, tuple[SPPair, Any]]], source) -> dict[SPPair, Any]:
    """pair -> value of located (pair, value) rows, each pair given once."""
    values = {}
    for lineno, (pair, value) in rows:
        if pair in values:
            raise SelPrefError(f"{source}:{lineno}: duplicate pair {pair.relation} "
                               f"{_clip(pair.head)} {_clip(pair.dependent)}")
        values[pair] = value
    return values


def _value(text: str, gold: bool) -> float:
    """A gold value is a plausibility; a score is any finite number."""
    try:
        value = float(text)
    except ValueError:
        raise SelPrefError(f"bad {'plausibility' if gold else 'score'} {_clip(text)}") from None
    if gold:
        return check_plausibility(value)
    if not math.isfinite(value):
        raise SelPrefError(f"non-finite value {_clip(text)}")
    return value


def write_gold(gold: GoldSet | Mapping[SPPair, float], fh: TextIO) -> None:
    """Write the gold rows, sorted by pair, without a header."""
    # the order SPPairs sort in, keyed on plain strings
    rows = sorted(gold.items(), key=lambda r: (r[0].relation.value, r[0].head, r[0].dependent))
    for pair, value in rows:
        fh.write(f"{pair.relation.value}\t{pair.head}\t{pair.dependent}\t{value:.2f}\n")


def import_sp10k_directory(root) -> GoldSet:
    """Adapter for a released per-relation directory layout.

    Looks for one file per relation under conventional names
    (`<rel>.txt`, `<rel>_annotation.txt`, `annotation_<rel>.txt`, same
    with .tsv, optionally inside an `annotations/` or `data/`
    subdirectory) holding `head<TAB>dependent<TAB>score` lines with the
    score already on the 0-10 scale; surrounding whitespace is ignored.
    """
    root = pathlib.Path(root)
    values: dict[SPPair, float] = {}
    for rel in SPRelation:
        stems = (rel.value, f"{rel.value}_annotation", f"annotation_{rel.value}")
        candidates = (root / sub / f"{stem}{ext}" for sub in ("", "annotations", "data")
                      for stem in stems for ext in (".txt", ".tsv"))
        path = next((c for c in candidates if c.is_file()), None)
        if path is None:
            raise SelPrefError(f"{root}: no annotation file found for {rel.value}")
        with open_input(path) as fh:
            lines = (line.strip() for line in fh)
            values.update(_unique(_parsed_rows(lines, path, 3, SelPrefError, lambda f: (
                SPPair(rel, f[0], f[1]), _value(f[2], gold=True))), path))
    return GoldSet(values.items())


def _average_ranks(values) -> array:
    """Ranks 1..n, as a float array, with ties sharing the mean of their
    positions."""
    values = [float(v) for v in values]
    if not all(map(math.isfinite, values)):
        raise SelPrefError("non-finite value in correlation input")
    # a tie group at sorted positions i..j ends at rank j + 1 and gets the
    # mean rank (i + j) / 2 + 1; the dict ties -0.0 with 0.0 by ==
    counts = Counter(values)
    mid_rank, end = {}, 0
    for value in sorted(counts):
        end += counts[value]
        mid_rank[value] = end - (counts[value] - 1) / 2
    return array("d", map(mid_rank.__getitem__, values))


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties; NaN and
    infinities are rejected, since a rank cannot order them.

    Exact: ranks are multiples of 0.5 whose mean is (n + 1) / 2, so the
    centred ranks, their products and every partial sum below are exact
    in float64 for n up to 300,000; past that, fsum rounds each sum once."""
    if len(x) != len(y):
        raise SelPrefError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise SelPrefError(f"need at least 2 observations, got {len(x)}")
    mean = (len(x) + 1) / 2
    sx = [r - mean for r in _average_ranks(x)]
    sy = [r - mean for r in _average_ranks(y)]
    vx = math.fsum(map(mul, sx, sx))
    vy = math.fsum(map(mul, sy, sy))
    if vx == 0.0 or vy == 0.0:
        raise ConstantInputError("rank variance is zero (constant input)")
    return math.fsum(map(mul, sx, sy)) / math.sqrt(vx * vy)


@dataclass
class RelationResult:
    relation: SPRelation
    rho: Optional[float]  # None when undefined (too few scorable pairs)
    coverage: float
    n_pairs: int
    n_used: int
    note: str = ""


@dataclass
class EvalReport:
    model_name: str
    missing_policy: str
    per_relation: dict[SPRelation, RelationResult] = field(default_factory=dict)

    @property
    def overall(self) -> Optional[float]:
        rhos = [r.rho for r in self.per_relation.values() if r.rho is not None]
        if not rhos:
            return None
        return sum(rhos) / len(rhos)

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "missing_policy": self.missing_policy,
            "overall_rho": self.overall,
            "relations": {
                r.relation.value: {
                    "rho": r.rho,
                    "coverage": r.coverage,
                    "n_pairs": r.n_pairs,
                    "n_used": r.n_used,
                    "note": r.note,
                }
                for r in self.per_relation.values()
            },
        }

    def to_table(self) -> str:
        """Aligned text table, one relation per row."""
        rows = [("relation", "rho", "coverage", "n")]
        for r in self.per_relation.values():
            rho = "undef" if r.rho is None else f"{r.rho:.4f}"
            rows.append((r.relation.value, rho, f"{r.coverage:.3f}", str(r.n_pairs)))
        overall = self.overall
        rows.append(("overall", "undef" if overall is None else f"{overall:.4f}", "", ""))
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines)


MISSING_POLICIES = ("drop", "floor")


def evaluate(model: ScoreModel, gold: GoldSet, missing_policy: str = "floor") -> EvalReport:
    """Spearman of model scores against gold plausibility, per relation.

    `drop` ranks only the pairs the model scored; `floor` keeps every pair,
    imputing missing scores as (minimum observed score - 1) so abstention
    cannot inflate the correlation. Coverage is reported either way.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"unknown missing policy {missing_policy!r}")
    report = EvalReport(model_name=getattr(model, "name", "model"),
                        missing_policy=missing_policy)
    for rel in gold.relations():
        pairs = gold.pairs(rel)
        scored = [(p, model.score(p)) for p in pairs]
        present = [(p, s) for p, s in scored if s is not None]
        coverage = len(present) / len(pairs)
        if missing_policy == "drop":
            used = present
        else:
            floor = min((s for _, s in present), default=0.0) - 1.0
            used = [(p, s if s is not None else floor) for p, s in scored]
        result = RelationResult(
            relation=rel, rho=None, coverage=coverage,
            n_pairs=len(pairs), n_used=len(used),
        )
        if len(used) < 2:
            result.note = "fewer than 2 scorable pairs"
        else:
            try:
                result.rho = spearman(
                    [s for _, s in used], [gold.value(p) for p, _ in used]
                )
            except ConstantInputError:
                result.note = "constant score or gold vector"
        report.per_relation[rel] = result
    return report


# elements per array in one block of bootstrap resamples (6 rows of 600
# pairs), so a block's temporaries grow neither with the resamples nor,
# below this many, with the pairs; at 600 pairs this size kept a
# process's peak RSS where the one-resample loop kept it, and 4x raised it
_BLOCK_ELEMENTS = 4096


def significance(
    scores_a, scores_b, gold_values, resamples: int = 10000, seed: int = 0
) -> float:
    """Paired bootstrap p-value for "model A beats model B".

    Resamples the evaluation pairs with replacement and recomputes the
    rho difference each time; p is the fraction of resamples where A
    fails to beat B (delta <= 0), a constant resampled vector counting
    as delta 0. A NaN or infinity in any vector is rejected before the
    first resample. The resamples are ranked in blocks of rows, each rho
    as ``spearman`` computes it.
    """
    if resamples < 1:
        raise SelPrefError(f"resamples must be >= 1, got {_shown(str(resamples))}")
    import numpy as np

    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    g = np.asarray(gold_values, dtype=np.float64)
    if not (len(a) == len(b) == len(g)):
        raise SelPrefError(f"score/gold vectors not aligned: {len(a)}, {len(b)}, {len(g)}")
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(g).all()):
        raise SelPrefError("non-finite value in correlation input")
    if len(a) < 10:
        raise SelPrefError(f"need at least 10 aligned pairs, got {len(a)}")
    n = len(a)
    # each value's code is its place among the distinct values; unique
    # ties -0.0 with 0.0 by ==
    (ma, ca), (mb, cb), (mg, cg) = ((len(distinct), codes) for distinct, codes in
                                    (np.unique(v, return_inverse=True) for v in (a, b, g)))
    rng = np.random.default_rng(seed)
    idx = np.empty((max(1, _BLOCK_ELEMENTS // n), n), dtype=np.intp)
    worse = 0
    for first in range(0, resamples, len(idx)):
        block = idx[:resamples - first]
        for row in block:  # one draw per resample keeps the seeded stream
            row[:] = rng.integers(0, n, size=n)
        sg = _centred_ranks(cg[block], mg)
        vg = np.einsum("ij,ij->i", sg, sg)
        with np.errstate(invalid="ignore"):  # a constant row's rho is 0 / 0
            delta = _row_rhos(ca[block], ma, sg, vg) - _row_rhos(cb[block], mb, sg, vg)
        # a NaN delta counts as 0, the ConstantInputError rule
        worse += int(np.count_nonzero(~(delta > 0.0)))
    return worse / resamples


def _centred_ranks(codes, m: int):
    """Each row's average ranks less their mean (n + 1) / 2, from codes
    0..m-1 that order the values; exact, as in ``spearman``. Overwrites
    ``codes``."""
    import numpy as np

    rows, n = codes.shape
    codes += m * np.arange(rows)[:, None]
    counts = np.bincount(codes.ravel(), minlength=rows * m)
    # a code's rank ends - (counts - 1) / 2 less (n + 1) / 2 is
    # (2 ends - counts - n) / 2, built in place
    mid = np.cumsum(counts.reshape(rows, m), axis=1, dtype=np.float64).ravel()
    mid *= 2.0
    mid -= counts
    mid -= n
    mid /= 2.0
    return mid[codes]


def _row_rhos(codes, m: int, sg, vg):
    """Each row's rho against the centred gold ranks ``sg`` with their
    sums of squares ``vg``: the three IEEE operations of ``spearman`` on
    the same exact sums. A constant row gives NaN."""
    import numpy as np

    s = _centred_ranks(codes, m)
    return np.einsum("ij,ij->i", s, sg) / np.sqrt(np.einsum("ij,ij->i", s, s) * vg)


def pseudo_disambiguation(
    model: ScoreModel,
    test_pairs: list[SPPair],
    vocab: Lexicon,
    seed: int = 0,
) -> float:
    """Positive-vs-corrupted accuracy.

    Each test pair gets one confounder dependent drawn uniformly from the
    relation's vocabulary pool, excluding dependents that would form
    another test pair for the same head. Scoring: win 1, tie or any
    missing score 0.5, loss 0.

    Each (relation, head) draws from one view of the sorted pool that
    skips its test dependents, so a pair costs O(its head's test
    dependents), not O(pool).
    """
    if not test_pairs:
        raise NoTestPairsError("no test pairs")
    excluded: dict[tuple[SPRelation, str], set[str]] = {}
    for p in test_pairs:
        excluded.setdefault((p.relation, p.head), set()).add(p.dependent)
    pools = {r: sorted(vocab.dependents_for(r)) for r in sorted({p.relation for p in test_pairs})}
    views = {key: _Excluding(pools[key[0]], deps) for key, deps in excluded.items()}
    rng = random.Random(seed)
    total = 0.0
    for pair in test_pairs:
        rel, head = pair.relation, pair.head
        usable = views[rel, head]
        if not usable:
            raise LexiconError(f"no confounder available for {rel.value} head "
                               f"{_clip(head)}: pool exhausted by attested pairs")
        confounder = rng.choice(usable)
        pos = model.score(pair)
        neg = model.score(SPPair(rel, head, confounder))
        if pos is None or neg is None or pos == neg:
            total += 0.5
        elif pos > neg:
            total += 1.0
    return total / len(test_pairs)
