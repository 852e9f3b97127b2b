"""Dependency-pattern extraction and pair counting.

The five patterns: a verb's direct object (dobj), a verb's subject (nsubj),
a noun's adjectival modifier (amod), and the two-hop compositions linking a
verb to the adjective modifying its object (dobj_amod) or subject
(nsubj_amod).
"""

from __future__ import annotations

import json
import logging
import random
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, TextIO

from .conllu import CorpusFormatError, Sentence, sentence_rows
from .core import (
    BadLemmaError,
    Lexicon,
    SelPrefError,
    SPPair,
    SPRelation,
    UnknownRelationError,
    _check_lemma,
    parse_relation,
)

log = logging.getLogger(__name__)

# Stanford-style and UD v2 labels are unified.
OBJECT_DEPRELS = {"dobj", "obj"}
SUBJECT_DEPRELS = {"nsubj"}
PASSIVE_SUBJECT_DEPRELS = {"nsubjpass", "nsubj:pass"}
NOUN_UPOS = {"NOUN", "PROPN"}

# The rules name a relation by its position here, so a caller can index its
# own per-relation objects without hashing an enum member.
_RELATION_ORDER = (SPRelation.DOBJ, SPRelation.NSUBJ, SPRelation.AMOD,
                   SPRelation.DOBJ_AMOD, SPRelation.NSUBJ_AMOD)
_DOBJ, _NSUBJ, _AMOD, _DOBJ_AMOD, _NSUBJ_AMOD = range(len(_RELATION_ORDER))


def _argument_relations(include_passive: bool) -> dict[str, tuple[int, int]]:
    """deprel of a verb's noun argument -> (one-hop, two-hop) relation."""
    subjects = SUBJECT_DEPRELS | (PASSIVE_SUBJECT_DEPRELS if include_passive else set())
    return {**{d: (_DOBJ, _DOBJ_AMOD) for d in OBJECT_DEPRELS},
            **{d: (_NSUBJ, _NSUBJ_AMOD) for d in subjects}}


_ARGUMENT_RELATIONS = {flag: _argument_relations(flag) for flag in (False, True)}


def _rule_pairs(rows: list[tuple], include_passive: bool) -> list[tuple[int, tuple, tuple]]:
    """Apply the five extraction rules to one sentence's token rows.

    A row is ``(index, lemma, upos, head, deprel, ...)`` with contiguous
    indices from 1.  Returns ``(relation position, head row, dependent
    row)`` per pair: each verb argument in token order, followed by its
    two-hop adjectives, then the amod pairs by noun index.
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
            pairs.append((_AMOD, noun, adj))
    return pairs


def extract_pairs(sentence: Sentence, include_passive: bool = False) -> list[SPPair]:
    """Apply the five extraction rules to one parsed sentence.

    A passive subject is semantically an object, so nsubjpass/nsubj:pass
    edges are dropped unless ``include_passive`` is set.  Dependents are
    restricted to NOUN/PROPN (pronouns excluded) for the verb relations
    and to ADJ for the modifier relations.
    """
    rows = [(t.index, t.lemma, t.upos, t.head_index, t.deprel) for t in sentence]
    return [SPPair(_RELATION_ORDER[rel], head[1], dep[1])
            for rel, head, dep in _rule_pairs(rows, include_passive)]


class CountTableError(SelPrefError, ValueError):
    pass


class CountTable:
    """Pair counts in one store: relation -> head -> Counter(dependent -> count).

    Marginals and totals are sums over that store, so nothing needs to be
    kept in sync; a head's dependents are one dict lookup away.
    Construction is the only mutation path, so a finished table is safe
    to share between readers.
    """

    def __init__(self):
        self._heads: dict[SPRelation, dict[str, Counter]] = {r: {} for r in SPRelation}

    def _add(self, pair: SPPair, count: int = 1) -> None:
        if count < 1:
            raise CountTableError(f"count must be >= 1, got {count}")
        heads = self._heads[pair.relation]
        deps = heads.get(pair.head)
        if deps is None:
            deps = heads[pair.head] = Counter()
        deps[pair.dependent] += count

    @classmethod
    def from_pairs(cls, pairs: Iterable[SPPair]) -> "CountTable":
        table = cls()
        for pair in pairs:
            table._add(pair)
        return table

    def count(self, relation: SPRelation, head: str, dependent: str) -> int:
        deps = self._heads[relation].get(head)
        return 0 if deps is None else deps[dependent]

    def marginal(self, relation: SPRelation, head: str) -> int:
        deps = self._heads[relation].get(head)
        return 0 if deps is None else deps.total()

    def total(self, relation: SPRelation) -> int:
        return sum(deps.total() for deps in self._heads[relation].values())

    def unique_pairs(self, relation: SPRelation) -> int:
        return sum(len(deps) for deps in self._heads[relation].values())

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

    def merge(self, other: "CountTable") -> "CountTable":
        """Combine two tables; counting is associative over corpus splits."""
        out = CountTable()
        for table in (self, other):
            for rel, heads in table._heads.items():
                store = out._heads[rel]
                for head, deps in heads.items():
                    store.setdefault(head, Counter()).update(deps)
        return out

    def validate(self) -> None:
        for rel, heads in self._heads.items():
            for head, deps in heads.items():
                if not deps:
                    raise CountTableError(f"{rel}: empty entry for head {head!r}")
                if min(deps.values()) < 1:
                    raise CountTableError(f"{rel}: stored count < 1")


_NO_DEPENDENTS: Mapping[str, int] = MappingProxyType({})


def build_counts(corpus: Iterable[Sentence], include_passive: bool = False) -> CountTable:
    """Accumulate a CountTable over a sentence stream (bounded memory)."""
    table = CountTable()
    for sentence in corpus:
        for pair in extract_pairs(sentence, include_passive=include_passive):
            table._add(pair)
    return table


def count_conllu(fh: TextIO, source: str = "<stream>", skip_malformed: bool = False,
                 include_passive: bool = False) -> CountTable:
    """Count the pairs of a CoNLL-U stream in one pass.

    The table, the errors and the warnings are those of
    ``build_counts(read_conllu(fh, source, skip_malformed), include_passive)``,
    but no ``Token``, ``Sentence`` or ``SPPair`` is built.  A lemma that
    would enter a pair gets ``SPPair``'s check, and a failing one names its
    token's line: it raises ``CorpusFormatError`` or, with
    ``skip_malformed``, drops its sentence like any other malformed one.
    Logs one summary line at info level.
    """
    table = CountTable()
    stores = [table._heads[rel] for rel in _RELATION_ORDER]
    lowered: dict[str, str] = {}  # lemmas that passed the check -> lowercased
    read = skipped = tokens = 0
    for rows in sentence_rows(fh, source, skip_malformed):
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
            heads = stores[rel]
            deps = heads.get(head)
            if deps is None:
                deps = heads[head] = Counter()
            deps[dep] += 1
    log.info("%d sentences read, %d skipped, %d tokens counted; pairs %s",
             read, skipped, tokens,
             " ".join(f"{rel.value}={table.total(rel)}" for rel in _RELATION_ORDER))
    return table


def _pair_keys(pairs: list[tuple[int, tuple, tuple]], lowered: dict[str, str],
               source: str) -> list[tuple[int, str, str]]:
    """(relation position, head, dependent) per pair, with the lemmas
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
                    lowered[row[1]] = _check_lemma(role, row[1])
                except BadLemmaError as err:
                    raise CorpusFormatError(source, row[5], str(err)) from None
    return _pair_keys(pairs, lowered, source)


COUNTS_HEADER = "#sp-counts v1"


def write_counts(table: CountTable, fh: TextIO, config: dict | None = None) -> None:
    """Write the TSV counts format, sorted by (relation, head, count desc)."""
    fh.write(COUNTS_HEADER + "\n")
    if config is not None:
        fh.write("#config " + json.dumps(config, sort_keys=True) + "\n")
    for rel in SPRelation:
        rows = sorted(table.items(rel), key=lambda r: (r[0], -r[2], r[1]))
        for head, dep, count in rows:
            fh.write(f"{rel.value}\t{head}\t{dep}\t{count}\n")


_RELATIONS = {r.value: r for r in SPRelation}


def read_counts(fh: TextIO, source: str = "<stream>") -> CountTable:
    """Read the TSV counts format straight into a table's store.

    Lemmas get the same checks and lowercasing as ``SPPair``, without
    building one per row; every error names ``source:line``.
    """
    table = CountTable()
    store = table._heads
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or line[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CountTableError(f"{source}:{lineno}: expected 4 columns, got {len(fields)}")
        rel_name, head, dep, count_text = fields
        try:
            count = int(count_text)
        except ValueError:
            raise CountTableError(f"{source}:{lineno}: bad count {count_text!r}") from None
        if count < 1:
            raise CountTableError(f"{source}:{lineno}: count must be >= 1, got {count}")
        relation = _RELATIONS.get(rel_name)
        if relation is None:
            try:
                relation = parse_relation(rel_name)
            except UnknownRelationError as err:
                raise CountTableError(f"{source}:{lineno}: {err}") from None
        if (not head.strip() or not dep.strip()
                or "\r" in head or "\r" in dep or "\n" in head or "\n" in dep):
            try:
                _check_lemma("head", head)
                _check_lemma("dependent", dep)
            except BadLemmaError as err:
                raise CountTableError(f"{source}:{lineno}: {err}") from None
        heads = store[relation]
        head = head.lower()
        deps = heads.get(head)
        if deps is None:
            deps = heads[head] = Counter()
        deps[dep.lower()] += count
    return table


class CandidatePoolError(SelPrefError, ValueError):
    pass


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
    already chosen for that head.
    """
    if counts.total(relation) == 0:
        raise CandidatePoolError(f"no counts for relation {relation.value}")
    rng = random.Random(seed)
    ranked_heads = sorted(
        counts.heads(relation),
        key=lambda h: (-counts.marginal(relation, h), h),
    )[:heads_per_relation]
    pool = sorted(lexicon.dependents_for(relation))

    out: list[Candidate] = []
    for head in ranked_heads:
        attested = counts.dependents_of(relation, head)
        frequent = sorted(attested, key=lambda d: (-attested[d], d))[:frequent_per_head]
        out.extend(Candidate(SPPair(relation, head, d), "frequent") for d in frequent)
        chosen = set(frequent)
        available = [d for d in pool if d not in chosen]
        if len(available) < random_per_head:
            raise CandidatePoolError(
                f"lexicon pool for {relation.value} too small: need {random_per_head} "
                f"unchosen dependents for head {head!r}, have {len(available)}"
            )
        out.extend(
            Candidate(SPPair(relation, head, d), "random")
            for d in rng.sample(available, random_per_head)
        )
    return out


CANDIDATES_HEADER = "#sp-candidates v1"


def write_candidates(candidates: Iterable[Candidate], fh: TextIO, config: dict | None = None) -> None:
    fh.write(CANDIDATES_HEADER + "\n")
    if config is not None:
        fh.write("#config " + json.dumps(config, sort_keys=True) + "\n")
    for cand in candidates:
        p = cand.pair
        fh.write(f"{p.relation.value}\t{p.head}\t{p.dependent}\t{cand.source}\n")


def read_pairs(fh: TextIO, source: str = "<stream>") -> list[SPPair]:
    """Read a pair list: TSV with relation, head, dependent in the first
    three columns (extra columns ignored; # lines skipped)."""
    pairs = []
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise CountTableError(f"{source}:{lineno}: expected >= 3 columns, got {len(fields)}")
        pairs.append(SPPair(parse_relation(fields[0]), fields[1], fields[2]))
    return pairs
