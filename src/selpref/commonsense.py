"""Matching SP pairs against OMCS commonsense triplets.

A triplet witnesses a pair (h, d) when one of its phrases contains h as
a token and the other contains d (either orientation). It is an exact
witness when its start and end are one token each, and a partial one
otherwise. Exact wins: a pair with any exact witness is never also
counted as partial.
"""

from __future__ import annotations

import enum
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

from .core import SelPrefError, SPPair, SPRelation, _clip, _rows, check_plausibility
from .evaluation import GoldSet
from .lemmatize import lemmatize

log = logging.getLogger(__name__)


class OMCSTriplet(NamedTuple):
    start: tuple[str, ...]
    relation: str
    end: tuple[str, ...]


_Row = tuple[tuple[str, ...], str, tuple[str, ...]]  # an OMCSTriplet's fields


class MatchKind(enum.Enum):
    EXACT = "exact"
    PARTIAL = "partial"
    NONE = "none"


class OMCSIndex:
    """Token postings over lemmatized triplet phrases, for the lemmas of
    ``words``: the ids of the kept triplets whose start phrase, and whose
    end phrase, holds each such lemma. A triplet is kept only when both
    of its phrases hold one; no other triplet can witness a pair of those
    words. ``triplets`` are (start tokens, relation, end tokens) tuples,
    such as ``OMCSTriplet``s, streamed and read once; the kept ones become
    ``OMCSTriplet``s, in input order. Exact witnesses need no index of their
    own: they are the token witnesses whose two phrases are one token each.

    The lemmatizer is applied to triplet tokens at build time and to
    query words at match time, so both sides are normalized identically.
    It must be a pure function: its result for each distinct word is
    cached for the life of the index, so it runs once per word.
    ``triplets_read`` counts the rows read and ``distinct_tokens`` the
    distinct tokens in them.
    """

    def __init__(
        self,
        triplets: Iterable[_Row],
        words: Iterable[str],
        lemmatizer: Callable[[str], str] = lemmatize,
    ):
        self._lemmatizer = lemmatizer
        self._lemmas: dict[str, str] = {}
        lemma = self._lemma
        self._wanted = wanted = frozenset(map(lemma, words))
        self.triplets: list[OMCSTriplet] = []
        starts: defaultdict[str, set[int]] = defaultdict(set)
        ends: defaultdict[str, set[int]] = defaultdict(set)
        seen: set[str] = set()     # distinct tokens so far
        hits: set[str] = set()     # the seen tokens whose lemma is wanted

        def learn(phrase: tuple[str, ...]) -> None:
            for tok in phrase:
                if tok not in seen:
                    seen.add(tok)
                    if lemma(tok) in wanted:
                        hits.add(tok)

        n = 0
        for n, (start, relation, end) in enumerate(triplets, 1):
            if not seen.issuperset(start):
                learn(start)
            if not seen.issuperset(end):
                learn(end)
            if hits.isdisjoint(start) or hits.isdisjoint(end):
                continue
            i = len(self.triplets)
            self.triplets.append(OMCSTriplet(start, relation, end))
            for tok in hits.intersection(start):
                starts[lemma(tok)].add(i)
            for tok in hits.intersection(end):
                ends[lemma(tok)].add(i)
        self._start_tokens = starts
        self._end_tokens = ends
        self.triplets_read = n
        self.distinct_tokens = len(seen)

    def _lemma(self, word: str) -> str:
        lemma = self._lemmas.get(word)
        if lemma is None:
            lemma = self._lemmas[word] = self._lemmatizer(word.lower())
        return lemma


def _witnesses(pair: SPPair, index: OMCSIndex) -> tuple[MatchKind, list[OMCSTriplet]]:
    """The pair's witnesses in id order. Exact wins: EXACT comes with the
    exact witnesses alone, PARTIAL with every token witness, and NONE
    with no witnesses. A pair with a lemma the index was not built for
    is an error, not a NONE."""
    h = index._lemma(pair.head)
    d = index._lemma(pair.dependent)
    if not index._wanted.issuperset((h, d)):
        raise SelPrefError(f"OMCS index not built for the words of {pair.relation} pair "
                           f"{_clip(pair.head)} {_clip(pair.dependent)}")
    starts, ends = index._start_tokens, index._end_tokens
    ids = (starts.get(h, set()) & ends.get(d, set())) | (starts.get(d, set()) & ends.get(h, set()))
    if not ids:
        return MatchKind.NONE, []
    witnesses = [index.triplets[i] for i in sorted(ids)]
    exact = [t for t in witnesses if len(t.start) == 1 == len(t.end)]
    if exact:
        return MatchKind.EXACT, exact
    return MatchKind.PARTIAL, witnesses


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


def _matches(gold: GoldSet, index: OMCSIndex
             ) -> list[tuple[SPPair, float, MatchKind, list[OMCSTriplet]]]:
    """Each gold pair, in gold order, with its value, match kind and
    witnesses; the tally of the kinds goes to the info log."""
    rows = [(pair, value, *_witnesses(pair, index)) for pair, value in gold.items()]
    kinds = Counter(kind for _, _, kind, _ in rows)
    log.info("%d triplets read, %d distinct tokens lemmatized; "
             "pairs exact=%d partial=%d none=%d", index.triplets_read, index.distinct_tokens,
             kinds[MatchKind.EXACT], kinds[MatchKind.PARTIAL], kinds[MatchKind.NONE])
    return rows


def coverage_by_group(gold: GoldSet, index: OMCSIndex) -> dict[PlausibilityGroup, GroupStats]:
    """Table of match kinds per plausibility group (pair-level counts)."""
    stats = {g: GroupStats(g) for g in PlausibilityGroup}
    for _, value, kind, _ in _matches(gold, index):
        s = stats[classify_plausibility(value)]
        s.n_pairs += 1
        s.n_exact += kind is MatchKind.EXACT
        s.n_partial += kind is MatchKind.PARTIAL
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

    def to_csv(self, kind: MatchKind) -> str:
        labels = self.omcs_relations()
        lines = ["sp_relation," + ",".join(labels)]
        for rel in SPRelation:
            cells = [str(self.cell(kind, rel, l)) for l in labels]
            lines.append(rel.value + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "omcs_relations": self.omcs_relations(),
            "exact": {r.value: dict(sorted(self.exact.get(r, {}).items()))
                      for r in SPRelation},
            "partial": {r.value: dict(sorted(self.partial.get(r, {}).items()))
                        for r in SPRelation},
        }


def relation_matrix(gold: GoldSet, index: OMCSIndex) -> RelationMatrix:
    tables: dict[MatchKind, dict[SPRelation, dict[str, int]]] = {
        MatchKind.EXACT: {}, MatchKind.PARTIAL: {}}
    for pair, _, kind, witnesses in _matches(gold, index):
        for t in witnesses:
            row = tables[kind].setdefault(pair.relation, {})
            row[t.relation] = row.get(t.relation, 0) + 1
    return RelationMatrix(exact=tables[MatchKind.EXACT], partial=tables[MatchKind.PARTIAL])


def _omcs_rows(fh: TextIO, source: str) -> Iterator[_Row]:
    """(start tokens, relation, end tokens) per row of an OMCS TSV: start
    phrase, relation label, end phrase, each non-empty. Blank and ``#``
    lines are skipped; any other row that breaks a rule raises
    SelPrefError at ``source:line``. Rows are plain tuples: most are
    dropped by the index, and a named tuple costs far more to build."""
    for lineno, (start, relation, end) in _rows(fh, source, 3, SelPrefError):
        start, end = start.split(), end.split()
        if not start or not end:
            raise SelPrefError(f"{source}:{lineno}: triplet phrases must be non-empty")
        if not relation:
            raise SelPrefError(f"{source}:{lineno}: triplet relation label must be non-empty")
        yield tuple(start), relation, tuple(end)


def read_omcs(fh: TextIO, source: str = "<stream>") -> list[OMCSTriplet]:
    """TSV: start phrase, relation label, end phrase."""
    return list(map(OMCSTriplet._make, _omcs_rows(fh, source)))


def _concept_phrase(uri: str) -> Optional[str]:
    # /c/en/take_a_nap[/...] -> "take a nap"
    parts = uri.split("/")
    if len(parts) < 4 or parts[1] != "c" or parts[2] != "en":
        return None
    return parts[3].replace("_", " ").strip()


def import_conceptnet_csv(fh: TextIO) -> Iterator[OMCSTriplet]:
    """Filter a ConceptNet 5 assertion CSV down to English OMCS triplets,
    yielded as the dump is read.

    Expects the tab-separated dump format: assertion URI, relation URI,
    start URI, end URI, JSON metadata. Keeps rows whose concepts are both
    English and whose metadata mentions an OMCS source (sources list or
    dataset field).
    """
    for line in fh:
        fields = line.rstrip("\n").split("\t")
        if len(fields) < 5:
            continue
        _, rel_uri, start_uri, end_uri, meta = fields[:5]
        if not rel_uri.startswith("/r/"):
            continue
        start = _concept_phrase(start_uri)
        end = _concept_phrase(end_uri)
        relation = rel_uri.split("/")[2]
        if not start or not end or not relation:
            continue
        if "omcs" not in meta:
            continue
        yield OMCSTriplet(tuple(start.split()), relation, tuple(end.split()))
