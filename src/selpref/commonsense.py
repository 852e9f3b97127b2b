"""Matching SP pairs against OMCS commonsense triplets.

A pair (h, d) exact-matches a triplet when the triplet's start and end
are each a single token equal to h and d (either orientation). It
partial-matches when one phrase contains h as a token and the other
contains d. Exact wins: a pair with any exact witness is never also
counted as partial.
"""

from __future__ import annotations

import enum
import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TextIO

from .core import SelPrefError, SPPair, SPRelation, check_plausibility
from .evaluation import GoldSet
from .lemmatize import lemmatize


class OMCSFormatError(SelPrefError, ValueError):
    pass


@dataclass(frozen=True)
class OMCSTriplet:
    start: tuple[str, ...]
    relation: str
    end: tuple[str, ...]

    def __post_init__(self):
        if not self.start or not self.end:
            raise OMCSFormatError("triplet phrases must be non-empty")
        if not self.relation:
            raise OMCSFormatError("triplet relation label must be non-empty")


class MatchKind(enum.Enum):
    EXACT = "exact"
    PARTIAL = "partial"
    NONE = "none"


@dataclass(frozen=True)
class MatchResult:
    pair: SPPair
    kind: MatchKind
    witness: Optional[OMCSTriplet] = None

    def __post_init__(self):
        if (self.kind is MatchKind.NONE) != (self.witness is None):
            raise ValueError("witness present iff kind is not NONE")


class OMCSIndex:
    """Inverted token index over lemmatized triplet phrases.

    The lemmatizer is applied to triplet tokens at build time and to
    query words at match time, so both sides are normalized identically.
    """

    def __init__(
        self,
        triplets: Iterable[OMCSTriplet],
        lemmatizer: Callable[[str], str] = lemmatize,
    ):
        self._lemmatize = lemmatizer
        self.triplets: list[OMCSTriplet] = []
        self._exact: dict[tuple[str, str], list[int]] = defaultdict(list)
        self._start_tokens: dict[str, set[int]] = defaultdict(set)
        self._end_tokens: dict[str, set[int]] = defaultdict(set)
        for t in triplets:
            i = len(self.triplets)
            self.triplets.append(t)
            start = [lemmatizer(tok.lower()) for tok in t.start]
            end = [lemmatizer(tok.lower()) for tok in t.end]
            if len(start) == 1 and len(end) == 1:
                self._exact[(start[0], end[0])].append(i)
            for tok in start:
                self._start_tokens[tok].add(i)
            for tok in end:
                self._end_tokens[tok].add(i)

    def __len__(self) -> int:
        return len(self.triplets)

    def exact_witnesses(self, pair: SPPair) -> list[OMCSTriplet]:
        h = self._lemmatize(pair.head)
        d = self._lemmatize(pair.dependent)
        ids = sorted(set(self._exact.get((h, d), [])) | set(self._exact.get((d, h), [])))
        return [self.triplets[i] for i in ids]

    def partial_witnesses(self, pair: SPPair) -> list[OMCSTriplet]:
        h = self._lemmatize(pair.head)
        d = self._lemmatize(pair.dependent)
        ids = (self._start_tokens.get(h, set()) & self._end_tokens.get(d, set())) | (
            self._start_tokens.get(d, set()) & self._end_tokens.get(h, set())
        )
        return [self.triplets[i] for i in sorted(ids)]


def match_pair(pair: SPPair, index: OMCSIndex) -> MatchResult:
    """Exact first and short-circuiting, then partial, else none."""
    exact = index.exact_witnesses(pair)
    if exact:
        return MatchResult(pair, MatchKind.EXACT, exact[0])
    partial = index.partial_witnesses(pair)
    if partial:
        return MatchResult(pair, MatchKind.PARTIAL, partial[0])
    return MatchResult(pair, MatchKind.NONE)


class PlausibilityGroup(enum.Enum):
    PERFECT = "perfect"
    GOOD = "good"
    NORMAL = "normal"
    UNUSUAL = "unusual"
    IMPOSSIBLE = "impossible"


def classify_plausibility(value: float) -> PlausibilityGroup:
    check_plausibility(value)
    if value >= 8.0:
        return PlausibilityGroup.PERFECT
    if value >= 6.0:
        return PlausibilityGroup.GOOD
    if value >= 4.0:
        return PlausibilityGroup.NORMAL
    if value >= 2.0:
        return PlausibilityGroup.UNUSUAL
    return PlausibilityGroup.IMPOSSIBLE


@dataclass
class GroupStats:
    group: PlausibilityGroup
    n_pairs: int = 0
    n_exact: int = 0
    n_partial: int = 0

    @property
    def exact_rate(self) -> float:
        return self.n_exact / self.n_pairs if self.n_pairs else 0.0

    @property
    def partial_rate(self) -> float:
        return self.n_partial / self.n_pairs if self.n_pairs else 0.0


def coverage_by_group(gold: GoldSet, index: OMCSIndex) -> dict[PlausibilityGroup, GroupStats]:
    """Table of match kinds per plausibility group (pair-level counts)."""
    stats = {g: GroupStats(g) for g in PlausibilityGroup}
    for pair, value in gold.items():
        s = stats[classify_plausibility(value)]
        s.n_pairs += 1
        kind = match_pair(pair, index).kind
        if kind is MatchKind.EXACT:
            s.n_exact += 1
        elif kind is MatchKind.PARTIAL:
            s.n_partial += 1
    return stats


def coverage_table(stats: dict[PlausibilityGroup, GroupStats]) -> str:
    rows = [("group", "pairs", "exact", "exact%", "partial", "partial%")]
    for g in PlausibilityGroup:
        s = stats[g]
        rows.append((
            g.value, str(s.n_pairs),
            str(s.n_exact), f"{100 * s.exact_rate:.2f}",
            str(s.n_partial), f"{100 * s.partial_rate:.2f}",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(6)]
    return "\n".join(
        "  ".join(cell.rjust(w) if i else cell.ljust(w)
                  for i, (cell, w) in enumerate(zip(row, widths))).rstrip()
        for row in rows
    )


@dataclass
class RelationMatrix:
    """(SP relation, OMCS relation) -> matched tuple count, one matrix per
    match kind. A pair matching several triplets contributes once per
    witnessing triplet; a pair with any exact witness contributes to the
    exact matrix only."""

    exact: dict[SPRelation, dict[str, int]]
    partial: dict[SPRelation, dict[str, int]]

    def omcs_relations(self) -> list[str]:
        labels = set()
        for table in (self.exact, self.partial):
            for row in table.values():
                labels.update(row)
        return sorted(labels)

    def cell(self, kind: MatchKind, sp: SPRelation, omcs: str) -> int:
        table = self.exact if kind is MatchKind.EXACT else self.partial
        return table.get(sp, {}).get(omcs, 0)

    def total(self) -> int:
        return sum(
            c for table in (self.exact, self.partial)
            for row in table.values() for c in row.values()
        )

    def to_csv(self, kind: MatchKind) -> str:
        labels = self.omcs_relations()
        lines = ["sp_relation," + ",".join(labels)]
        for rel in SPRelation:
            cells = [str(self.cell(kind, rel, l)) for l in labels]
            lines.append(rel.value + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self, **meta) -> str:
        doc = {
            "omcs_relations": self.omcs_relations(),
            "exact": {r.value: dict(sorted(self.exact.get(r, {}).items()))
                      for r in SPRelation},
            "partial": {r.value: dict(sorted(self.partial.get(r, {}).items()))
                        for r in SPRelation},
        }
        if meta:
            doc["meta"] = meta
        return json.dumps(doc, indent=2, sort_keys=True)


def relation_matrix(gold: GoldSet, index: OMCSIndex) -> RelationMatrix:
    exact: dict[SPRelation, dict[str, int]] = {}
    partial: dict[SPRelation, dict[str, int]] = {}
    for pair, _ in gold.items():
        witnesses = index.exact_witnesses(pair)
        table = exact
        if not witnesses:
            witnesses = index.partial_witnesses(pair)
            table = partial
        for t in witnesses:
            row = table.setdefault(pair.relation, {})
            row[t.relation] = row.get(t.relation, 0) + 1
    return RelationMatrix(exact=exact, partial=partial)


def read_omcs(fh: TextIO, source: str = "<stream>") -> list[OMCSTriplet]:
    """TSV: start phrase, relation label, end phrase."""
    out = []
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise OMCSFormatError(
                f"{source}:{lineno}: expected 3 columns, got {len(fields)}"
            )
        start, rel, end = fields
        try:
            out.append(OMCSTriplet(tuple(start.split()), rel, tuple(end.split())))
        except OMCSFormatError as err:
            raise OMCSFormatError(f"{source}:{lineno}: {err}") from None
    return out


def write_omcs(triplets: Iterable[OMCSTriplet], fh: TextIO) -> None:
    for t in triplets:
        fh.write(f"{' '.join(t.start)}\t{t.relation}\t{' '.join(t.end)}\n")


def _concept_phrase(uri: str) -> Optional[str]:
    # /c/en/take_a_nap[/...] -> "take a nap"
    parts = uri.split("/")
    if len(parts) < 4 or parts[1] != "c" or parts[2] != "en":
        return None
    return parts[3].replace("_", " ").strip()


def import_conceptnet_csv(
    fh: TextIO, require_omcs: bool = True
) -> list[OMCSTriplet]:
    """Filter a ConceptNet 5 assertion CSV down to English OMCS triplets.

    Expects the tab-separated dump format: assertion URI, relation URI,
    start URI, end URI, JSON metadata. Keeps rows whose concepts are both
    English and whose metadata mentions an OMCS source (sources list or
    dataset field), unless require_omcs is off.
    """
    out = []
    for line in fh:
        fields = line.rstrip("\n").split("\t")
        if len(fields) < 5:
            continue
        _, rel_uri, start_uri, end_uri, meta = fields[:5]
        if not rel_uri.startswith("/r/"):
            continue
        start = _concept_phrase(start_uri)
        end = _concept_phrase(end_uri)
        if not start or not end:
            continue
        if require_omcs and "omcs" not in meta:
            continue
        relation = rel_uri.split("/")[2]
        try:
            out.append(OMCSTriplet(tuple(start.split()), relation, tuple(end.split())))
        except OMCSFormatError:
            continue
    return out
