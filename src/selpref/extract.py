"""Dependency-pattern extraction and pair counting.

The five patterns: a verb's direct object (dobj), a verb's subject (nsubj),
a noun's adjectival modifier (amod), and the two-hop compositions linking a
verb to the adjective modifying its object (dobj_amod) or subject
(nsubj_amod).
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, TextIO

from .conllu import Sentence
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

# Stanford-style and UD v2 labels are unified.
OBJECT_DEPRELS = {"dobj", "obj"}
SUBJECT_DEPRELS = {"nsubj"}
PASSIVE_SUBJECT_DEPRELS = {"nsubjpass", "nsubj:pass"}
NOUN_UPOS = {"NOUN", "PROPN"}


def extract_pairs(sentence: Sentence, include_passive: bool = False) -> list[SPPair]:
    """Apply the five extraction rules to one parsed sentence.

    A passive subject is semantically an object, so nsubjpass/nsubj:pass
    edges are dropped unless ``include_passive`` is set.  Dependents are
    restricted to NOUN/PROPN (pronouns excluded) for the verb relations
    and to ADJ for the modifier relations.
    """
    pairs: list[SPPair] = []
    # amod children per noun index, in token order
    amods: dict[int, list[str]] = defaultdict(list)
    for tok in sentence:
        if tok.deprel == "amod" and tok.upos == "ADJ" and tok.head_index > 0:
            noun = sentence.token_at(tok.head_index)
            if noun.upos in NOUN_UPOS:
                amods[noun.index].append(tok.lemma)

    subject_deprels = SUBJECT_DEPRELS | (PASSIVE_SUBJECT_DEPRELS if include_passive else set())
    for tok in sentence:
        if tok.head_index == 0 or tok.upos not in NOUN_UPOS:
            continue
        head = sentence.token_at(tok.head_index)
        if head.upos != "VERB":
            continue
        if tok.deprel in OBJECT_DEPRELS:
            one_hop, two_hop = SPRelation.DOBJ, SPRelation.DOBJ_AMOD
        elif tok.deprel in subject_deprels:
            one_hop, two_hop = SPRelation.NSUBJ, SPRelation.NSUBJ_AMOD
        else:
            continue
        pairs.append(SPPair(one_hop, head.lemma, tok.lemma))
        for adj in amods[tok.index]:
            pairs.append(SPPair(two_hop, head.lemma, adj))

    for noun_index, adjs in sorted(amods.items()):
        noun = sentence.token_at(noun_index)
        for adj in adjs:
            pairs.append(SPPair(SPRelation.AMOD, noun.lemma, adj))
    return pairs


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
