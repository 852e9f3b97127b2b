"""Gold-standard loading, rank correlation, significance, and
pseudo-disambiguation."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO

import numpy as np

from .core import (
    Lexicon,
    PlausibilityRangeError,
    SelPrefError,
    SPPair,
    SPRelation,
    check_plausibility,
    parse_relation,
)
from .scorers import ScoreModel


class GoldFormatError(SelPrefError, ValueError):
    pass


class DuplicatePairError(GoldFormatError):
    pass


class CorrelationError(SelPrefError, ValueError):
    pass


class LengthMismatchError(CorrelationError):
    pass


class ConstantInputError(CorrelationError):
    pass


class SignificanceError(SelPrefError, ValueError):
    pass


class ConfounderPoolError(SelPrefError, ValueError):
    pass


GOLD_HEADER = "#sp10k v1"


class GoldSet:
    """Gold plausibility judgments, unique per pair, indexed by relation."""

    def __init__(self, entries: Iterable[tuple[SPPair, float]]):
        self._scores: dict[SPPair, float] = {}
        self._by_rel: dict[SPRelation, list[SPPair]] = {r: [] for r in SPRelation}
        for pair, value in entries:
            check_plausibility(value)
            if pair in self._scores:
                raise DuplicatePairError(f"duplicate gold pair: {pair}")
            self._scores[pair] = value
            self._by_rel[pair.relation].append(pair)

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, pair: SPPair) -> bool:
        return pair in self._scores

    def value(self, pair: SPPair) -> float:
        return self._scores[pair]

    def pairs(self, relation: SPRelation | None = None) -> list[SPPair]:
        if relation is None:
            return [p for r in SPRelation for p in self._by_rel[r]]
        return list(self._by_rel[relation])

    def relations(self) -> list[SPRelation]:
        return [r for r in SPRelation if self._by_rel[r]]

    def items(self) -> Iterable[tuple[SPPair, float]]:
        for r in SPRelation:
            for p in self._by_rel[r]:
                yield p, self._scores[p]


def load_gold(fh: TextIO, source: str = "<stream>") -> GoldSet:
    """Read the gold TSV: relation, head, dependent, plausibility."""
    entries = []
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise GoldFormatError(
                f"{source}:{lineno}: expected 4 columns, got {len(fields)}"
            )
        rel_name, head, dep, score_text = fields
        try:
            value = float(score_text)
        except ValueError:
            raise GoldFormatError(
                f"{source}:{lineno}: bad plausibility {score_text!r}"
            ) from None
        try:
            pair = SPPair(parse_relation(rel_name), head, dep)
            check_plausibility(value)
        except (SelPrefError, PlausibilityRangeError) as err:
            raise GoldFormatError(f"{source}:{lineno}: {err}") from None
        entries.append((pair, value))
    try:
        return GoldSet(entries)
    except DuplicatePairError as err:
        raise DuplicatePairError(f"{source}: {err}") from None


def load_gold_file(path) -> GoldSet:
    with open(path, encoding="utf-8") as fh:
        return load_gold(fh, source=str(path))


def write_gold(gold: GoldSet, fh: TextIO) -> None:
    fh.write(GOLD_HEADER + "\n")
    for pair, value in gold.items():
        fh.write(f"{pair.relation.value}\t{pair.head}\t{pair.dependent}\t{value:.2f}\n")


def import_sp10k_directory(root) -> GoldSet:
    """Adapter for a released per-relation directory layout.

    Looks for one file per relation under conventional names
    (`<rel>.txt`, `<rel>_annotation.txt`, `annotation_<rel>.txt`, same
    with .tsv, optionally inside an `annotations/` or `data/`
    subdirectory) holding `head<TAB>dependent<TAB>score` lines with the
    score already on the 0-10 scale.
    """
    import pathlib

    root = pathlib.Path(root)
    entries = []
    for rel in SPRelation:
        path = None
        stems = [rel.value, f"{rel.value}_annotation", f"annotation_{rel.value}"]
        for sub in ("", "annotations", "data"):
            base = root / sub if sub else root
            for stem in stems:
                for ext in (".txt", ".tsv"):
                    cand = base / f"{stem}{ext}"
                    if cand.is_file():
                        path = cand
                        break
                if path:
                    break
            if path:
                break
        if path is None:
            raise GoldFormatError(f"{root}: no annotation file found for {rel.value}")
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise GoldFormatError(
                        f"{path}:{lineno}: expected 3 columns, got {len(fields)}"
                    )
                head, dep, score_text = fields
                try:
                    entries.append((SPPair(rel, head, dep), float(score_text)))
                except ValueError:
                    raise GoldFormatError(
                        f"{path}:{lineno}: bad score {score_text!r}"
                    ) from None
    return GoldSet(entries)


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..n with ties sharing the mean of their positions."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    # argsort puts NaN last, so any NaN or infinity sits at an end of the order
    if len(arr) and not (math.isfinite(arr[order[0]]) and math.isfinite(arr[order[-1]])):
        raise CorrelationError("non-finite value in correlation input")
    ranks = np.empty(len(arr), dtype=np.float64)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties; NaN and
    infinities are rejected, since a rank cannot order them."""
    x = list(x)
    y = list(y)
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise CorrelationError(f"need at least 2 observations, got {len(x)}")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    sx = rx - rx.mean()
    sy = ry - ry.mean()
    vx = float(np.dot(sx, sx))
    vy = float(np.dot(sy, sy))
    if vx == 0.0 or vy == 0.0:
        raise ConstantInputError("rank variance is zero (constant input)")
    return float(np.dot(sx, sy) / np.sqrt(vx * vy))


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

    def to_json(self, **meta) -> str:
        doc = self.to_dict()
        if meta:
            doc["meta"] = meta
        return json.dumps(doc, indent=2, sort_keys=True)

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


def significance(
    scores_a, scores_b, gold_values, resamples: int = 10000, seed: int = 0
) -> float:
    """Paired bootstrap p-value for "model A beats model B".

    Resamples the evaluation pairs with replacement and recomputes the
    rho difference each time; p is the fraction of resamples where A
    fails to beat B (delta <= 0).
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    g = np.asarray(gold_values, dtype=np.float64)
    if not (len(a) == len(b) == len(g)):
        raise LengthMismatchError(
            f"score/gold vectors not aligned: {len(a)}, {len(b)}, {len(g)}"
        )
    if len(a) < 10:
        raise SignificanceError(f"need at least 10 aligned pairs, got {len(a)}")
    rng = np.random.default_rng(seed)
    n = len(a)
    worse = 0
    for _ in range(resamples):
        idx = rng.integers(0, n, size=n)
        try:
            delta = spearman(a[idx], g[idx]) - spearman(b[idx], g[idx])
        except ConstantInputError:
            delta = 0.0
        if delta <= 0.0:
            worse += 1
    return worse / resamples


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
    """
    if not test_pairs:
        raise ValueError("test_pairs is empty")
    positives = {(p.relation, p.head, p.dependent) for p in test_pairs}
    pools = {r: sorted(vocab.dependents_for(r)) for r in {p.relation for p in test_pairs}}
    rng = random.Random(seed)
    total = 0.0
    for pair in test_pairs:
        rel, head = pair.relation, pair.head
        usable = [d for d in pools[rel] if (rel, head, d) not in positives]
        if not usable:
            raise ConfounderPoolError(
                f"no confounder available for {rel.value} head "
                f"{head!r}: pool exhausted by attested pairs"
            )
        confounder = rng.choice(usable)
        pos = model.score(pair)
        neg = model.score(SPPair(rel, head, confounder))
        if pos is None or neg is None or pos == neg:
            total += 0.5
        elif pos > neg:
            total += 1.0
    return total / len(test_pairs)
