"""Dependency-pattern extraction and pair counting.

The five patterns: a verb's direct object (dobj), a verb's subject (nsubj),
a noun's adjectival modifier (amod), and the two-hop compositions linking a
verb to the adjective modifying its object (dobj_amod) or subject
(nsubj_amod).
"""

from __future__ import annotations

import logging
import random
from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, TextIO

from .conllu import CorpusFormatError, read_conllu
from .core import (
    BadLemmaError,
    Lexicon,
    LexiconError,
    SelPrefError,
    SPPair,
    SPRelation,
    UnknownRelationError,
    _cached_lemma,
    _clip,
    _pair,
    _parsed_rows,
    _rows,
    _shown,
    parse_relation,
)

log = logging.getLogger(__name__)

# Stanford-style and UD v2 labels are unified.
OBJECT_DEPRELS = {"dobj", "obj"}
SUBJECT_DEPRELS = {"nsubj"}
PASSIVE_SUBJECT_DEPRELS = {"nsubjpass", "nsubj:pass"}
NOUN_UPOS = {"NOUN", "PROPN"}


def _argument_relations(include_passive: bool) -> dict[str, tuple[SPRelation, SPRelation]]:
    """deprel of a verb's noun argument -> (one-hop, two-hop) relation."""
    subjects = SUBJECT_DEPRELS | (PASSIVE_SUBJECT_DEPRELS if include_passive else set())
    return {**{d: (SPRelation.DOBJ, SPRelation.DOBJ_AMOD) for d in OBJECT_DEPRELS},
            **{d: (SPRelation.NSUBJ, SPRelation.NSUBJ_AMOD) for d in subjects}}


_ARGUMENT_RELATIONS = {flag: _argument_relations(flag) for flag in (False, True)}


def _rule_pairs(rows: list[tuple], include_passive: bool) -> list[tuple[SPRelation, tuple, tuple]]:
    """Apply the five extraction rules to one sentence's token rows.

    A row is ``(index, lemma, upos, head, deprel, ...)`` with contiguous
    indices from 1.  Returns ``(relation, head row, dependent row)`` per
    pair: each verb argument in token order, followed by its two-hop
    adjectives, then the amod pairs by noun index.  A passive
    subject is semantically an object, so nsubjpass/nsubj:pass edges are
    dropped unless ``include_passive`` is set.  Dependents are restricted
    to NOUN/PROPN (pronouns excluded) for the verb relations and to ADJ
    for the modifier relations.
    """
    arguments = _ARGUMENT_RELATIONS[include_passive]
    amods: dict[int, list[tuple]] = {}  # noun index -> its ADJ rows, in token order
    args = []
    for row in rows:
        deprel = row[4]
        if deprel == "amod":
            head = row[3]
            if head and row[2] == "ADJ" and rows[head - 1][2] in NOUN_UPOS:
                amods.setdefault(head, []).append(row)
        elif deprel in arguments and row[3] and row[2] in NOUN_UPOS:
            args.append(row)
    pairs = []
    for dep in args:
        verb = rows[dep[3] - 1]
        if verb[2] == "VERB":
            one_hop, two_hop = arguments[dep[4]]
            pairs.append((one_hop, verb, dep))
            for adj in amods.get(dep[0], ()):
                pairs.append((two_hop, verb, adj))
    for noun_index in sorted(amods):
        noun = rows[noun_index - 1]
        for adj in amods[noun_index]:
            pairs.append((SPRelation.AMOD, noun, adj))
    return pairs


class CountTableError(SelPrefError):
    pass


class CountTable:
    """Pair counts in one store: relation -> head -> Counter(dependent -> count).

    Marginals and totals are sums over that store, so nothing needs to be
    kept in sync; a head's dependents are one dict lookup away.
    Construction is the only mutation path, and it adds a count with
    ``_heads[rel][head][dep] += n``; every read uses ``.get``, so a query
    never adds a head, and a finished table is safe to share between readers.
    """

    def __init__(self):
        self._heads: dict[SPRelation, defaultdict[str, Counter]] = {
            r: defaultdict(Counter) for r in SPRelation}

    @classmethod
    def from_pairs(cls, pairs: Iterable[SPPair]) -> "CountTable":
        """A table counting each occurrence of a pair once."""
        table = cls()
        store = table._heads
        for pair in pairs:
            store[pair.relation][pair.head][pair.dependent] += 1
        return table

    def count(self, relation: SPRelation, head: str, dependent: str) -> int:
        deps = self._heads[relation].get(head)
        return 0 if deps is None else deps[dependent]

    def marginal(self, relation: SPRelation, head: str) -> int:
        deps = self._heads[relation].get(head)
        return 0 if deps is None else deps.total()

    def total(self, relation: SPRelation) -> int:
        return sum(deps.total() for deps in self._heads[relation].values())

    def dependents_of(self, relation: SPRelation, head: str) -> Mapping[str, int]:
        """Attested dependents of a head with their counts (a read-only view)."""
        deps = self._heads[relation].get(head)
        return _NO_DEPENDENTS if deps is None else MappingProxyType(deps)

    def heads(self, relation: SPRelation) -> list[str]:
        return list(self._heads[relation])

    def items(self, relation: SPRelation) -> Iterator[tuple[str, str, int]]:
        """(head, dependent, count) grouped by head, each in insertion order."""
        for head, deps in self._heads[relation].items():
            for dep, count in deps.items():
                yield head, dep, count


_NO_DEPENDENTS: Mapping[str, int] = MappingProxyType({})


def count_conllu(fh: TextIO, source: str = "<stream>", skip_malformed: bool = False,
                 include_passive: bool = False) -> CountTable:
    """Count the pairs of a CoNLL-U stream in one pass.

    Sentences come from ``read_conllu`` and pairs from ``_rule_pairs``;
    no ``SPPair`` is built.  A lemma that would enter a pair gets
    ``SPPair``'s check, and a failing one names its token's line: it raises
    ``CorpusFormatError`` or, with ``skip_malformed``, drops its sentence
    like any other malformed one.
    Logs one summary line at info level.
    """
    table = CountTable()
    store = table._heads
    lowered: dict[str, str] = {}  # lemmas that passed the check -> lowercased
    read = skipped = tokens = 0
    for rows in read_conllu(fh, source, skip_malformed):
        read += 1
        if rows is None:
            skipped += 1
            continue
        try:
            keys = _pair_keys(_rule_pairs(rows, include_passive), lowered, source)
        except CorpusFormatError as err:
            if not skip_malformed:
                raise
            log.warning("%s:%d: skipping sentence: %s", source, err.lineno, err.message)
            skipped += 1
            continue
        tokens += len(rows)
        for rel, head, dep in keys:
            store[rel][head][dep] += 1
    log.info("%d sentences read, %d skipped, %d tokens counted; pairs %s",
             read, skipped, tokens,
             " ".join(f"{rel.value}={table.total(rel)}" for rel in SPRelation))
    return table


def _pair_keys(pairs: list[tuple[SPRelation, tuple, tuple]], lowered: dict[str, str],
               source: str) -> list[tuple[SPRelation, str, str]]:
    """(relation, head, dependent) per pair, with the lemmas
    checked and lowercased as ``SPPair`` does; ``lowered`` caches the
    lemmas that passed.  The first lemma that fails raises
    ``CorpusFormatError`` at its token's line."""
    try:
        return [(rel, lowered[head[1]], lowered[dep[1]]) for rel, head, dep in pairs]
    except KeyError:
        pass
    for _, head, dep in pairs:
        for role, row in (("head", head), ("dependent", dep)):
            if row[1] not in lowered:
                try:
                    _cached_lemma(lowered, role, row[1])
                except BadLemmaError as err:
                    raise CorpusFormatError(source, row[5], str(err)) from None
    return _pair_keys(pairs, lowered, source)


COUNTS_HEADER = "#sp-counts v1"


def write_counts(table: CountTable, fh: TextIO) -> None:
    """Write the counts rows, without a header: relations in ``SPRelation``
    order, then heads sorted, then each head's dependents by count
    descending, then dependent.

    One head at a time: a head's rows are sorted and written with one
    ``fh.write``, so the writer holds one head's rows (and the sorted head
    names), never a relation's."""
    for rel in SPRelation:
        heads = table._heads[rel]
        for head in sorted(heads):
            prefix = f"{rel.value}\t{head}\t"
            rows = sorted(heads[head].items(), key=lambda r: (-r[1], r[0]))
            fh.write("".join([f"{prefix}{dep}\t{count}\n" for dep, count in rows]))


_RELATIONS = {r.value: r for r in SPRelation}
_COUNT_MAX = 2**63 - 1  # the numeric backends hold a count as an int64


def read_counts(fh: TextIO, source: str = "<stream>") -> CountTable:
    """Read the TSV counts format straight into a table's store.

    Each distinct lemma gets ``SPPair``'s check and lowercasing once,
    without building a pair per row; every error names ``source:line``.
    A row's count is at least 1, and a pair's, summed over its rows, at
    most ``2**63 - 1``.
    """
    table = CountTable()
    store = table._heads
    lemmas: dict[str, str] = {}
    for lineno, (rel_name, head, dep, count_text) in _rows(fh, source, 4, CountTableError):
        try:
            count = int(count_text)
        except ValueError:
            raise CountTableError(f"{source}:{lineno}: bad count {_clip(count_text)}") from None
        if count < 1:
            raise CountTableError(f"{source}:{lineno}: count must be >= 1, "
                                  f"got {_shown(str(count))}")
        try:
            relation = _RELATIONS.get(rel_name) or parse_relation(rel_name)
            head = lemmas.get(head) or _cached_lemma(lemmas, "head", head)
            dep = lemmas.get(dep) or _cached_lemma(lemmas, "dependent", dep)
        except (UnknownRelationError, BadLemmaError) as err:
            raise CountTableError(f"{source}:{lineno}: {err}") from None
        deps = store[relation][head]
        deps[dep] = count = deps[dep] + count
        if count > _COUNT_MAX:
            raise CountTableError(f"{source}:{lineno}: count must be <= {_COUNT_MAX}, "
                                  f"got {_shown(str(count))}")
    return table


class _Excluding(Sequence):
    """A sorted word pool less some of its words, as a read-only sequence.

    The excluded words' positions are found by ``bisect`` once; ``len`` and
    ``[k]`` then cost O(excluded), so a draw from the view costs the
    excluded words, not the pool.  ``random.choice`` and ``random.sample``
    only take its length and index it, so they draw what they would from
    the list of the kept words.
    """

    __slots__ = ("_pool", "_gaps")

    def __init__(self, pool: list[str], excluded: Iterable[str]):
        self._pool = pool
        gaps = []
        for word in set(excluded):
            i = bisect_left(pool, word)
            if i < len(pool) and pool[i] == word:
                gaps.append(i)
        self._gaps = sorted(gaps)

    def __len__(self) -> int:
        return len(self._pool) - len(self._gaps)

    def __getitem__(self, k: int) -> str:
        if not 0 <= k < len(self):
            raise IndexError(k)
        for gap in self._gaps:  # step over each excluded word at or before k
            if gap > k:
                break
            k += 1
        return self._pool[k]


@dataclass(frozen=True)
class Candidate:
    pair: SPPair
    source: str  # "frequent" | "random"


def generate_candidates(
    counts: CountTable,
    lexicon: Lexicon,
    relation: SPRelation,
    heads_per_relation: int = 500,
    frequent_per_head: int = 2,
    random_per_head: int = 2,
    seed: int = 0,
) -> list[Candidate]:
    """Pick annotation candidates: per frequent head, its most frequent
    dependents plus uniform draws from the lexicon pool.

    Heads are ranked by marginal count (ties broken lexicographically);
    random dependents are drawn without replacement, excluding dependents
    already chosen for that head.  They are drawn from a view of the sorted
    pool that skips those dependents, so a head costs O(its degree), not
    O(pool).
    """
    for name, value in (("heads_per_relation", heads_per_relation),
                        ("frequent_per_head", frequent_per_head),
                        ("random_per_head", random_per_head)):
        if value < 0:
            raise SelPrefError(f"{name} must be >= 0, got {_shown(str(value))}")
    if counts.total(relation) == 0:
        raise CountTableError(f"no counts for relation {relation.value}")
    rng = random.Random(seed)
    ranked_heads = sorted(
        counts.heads(relation),
        key=lambda h: (-counts.marginal(relation, h), h),
    )[:heads_per_relation]
    # only the random draws need a pool, so an empty one is no fault without them
    pool = sorted(lexicon.dependents_for(relation)) if random_per_head else []

    out: list[Candidate] = []
    for head in ranked_heads:
        attested = counts.dependents_of(relation, head)
        frequent = sorted(attested, key=lambda d: (-attested[d], d))[:frequent_per_head]
        out.extend(Candidate(SPPair(relation, head, d), "frequent") for d in frequent)
        available = _Excluding(pool, frequent)
        if len(available) < random_per_head:
            raise LexiconError(f"lexicon pool for {relation.value} too small: need "
                               f"{random_per_head} unchosen dependents for head {_clip(head)}, "
                               f"have {len(available)}")
        out.extend(
            Candidate(SPPair(relation, head, d), "random")
            for d in rng.sample(available, random_per_head)
        )
    return out


CANDIDATES_HEADER = "#sp-candidates v1"


def write_candidates(candidates: Iterable[Candidate], fh: TextIO) -> None:
    """Write the candidates rows, without a header."""
    for cand in candidates:
        p = cand.pair
        fh.write(f"{p.relation.value}\t{p.head}\t{p.dependent}\t{cand.source}\n")


def read_pairs(fh: TextIO, source: str = "<stream>") -> list[SPPair]:
    """Read a pair list: TSV with relation, head, dependent in the first
    three columns (extra columns ignored; # lines skipped)."""
    return [pair for _, pair in _parsed_rows(fh, source, 3, CountTableError, _pair, extra=True)]
