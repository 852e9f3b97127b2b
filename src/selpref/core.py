"""Shared domain types: relations, pairs, plausibility range, vocabulary,
and the opener every input file goes through."""

from __future__ import annotations

import enum
import gzip
import json
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, TextIO


class SelPrefError(Exception):
    """Base class for all toolkit errors."""


class UnknownRelationError(SelPrefError, ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown selectional relation: {_clip(name)}")
        self.name = name


class BadLemmaError(SelPrefError, ValueError):
    pass


class PlausibilityRangeError(SelPrefError, ValueError):
    pass


class SPRelation(enum.Enum):
    """The five selectional relations.

    One-hop: verb-object (dobj), verb-subject (nsubj), noun-adjective (amod).
    Two-hop: verb-object-adjective (dobj_amod) and verb-subject-adjective
    (nsubj_amod), composing an object/subject edge with an adjectival
    modifier edge.
    """

    DOBJ = "dobj"
    NSUBJ = "nsubj"
    AMOD = "amod"
    DOBJ_AMOD = "dobj_amod"
    NSUBJ_AMOD = "nsubj_amod"

    def __str__(self) -> str:
        return self.value

    def __lt__(self, other) -> bool:  # by name, as the artifacts list relations
        return self.value < other.value if isinstance(other, SPRelation) else NotImplemented

    @property
    def head_pos(self) -> str:
        """POS class of the head lemma: 'verb' except for amod ('noun')."""
        return "noun" if self is SPRelation.AMOD else "verb"

    @property
    def dependent_pos(self) -> str:
        """POS class of the dependent lemma: noun for dobj/nsubj, else adj."""
        return "noun" if self in (SPRelation.DOBJ, SPRelation.NSUBJ) else "adj"


def parse_relation(name: str) -> SPRelation:
    """Parse a relation name, case-insensitively."""
    try:
        return SPRelation(name.strip().lower())
    except ValueError:
        raise UnknownRelationError(name) from None


def _check_lemma(role: str, lemma: str) -> str:
    if not lemma or not lemma.strip():
        raise BadLemmaError(f"{role} lemma is empty")
    if "\t" in lemma or "\n" in lemma or "\r" in lemma:
        raise BadLemmaError(f"{role} lemma contains tab/newline: {_clip(lemma)}")
    return lemma.lower()


@dataclass(frozen=True, order=True)
class SPPair:
    """A (relation, head, dependent) triple, the unit of SP knowledge.

    Heads are verbs (nouns for amod); dependents are nouns for dobj/nsubj
    and adjectives otherwise.  Lemmas are lowercased at construction and
    may not contain tabs or newlines.  Pairs sort by relation, head, dependent.
    """

    relation: SPRelation
    head: str
    dependent: str

    def __post_init__(self):
        object.__setattr__(self, "head", _check_lemma("head", self.head))
        object.__setattr__(self, "dependent", _check_lemma("dependent", self.dependent))


# Human plausibility judgments live on a 0-10 scale.
PLAUSIBILITY_MIN = 0.0
PLAUSIBILITY_MAX = 10.0


def check_plausibility(value: float) -> float:
    """Validate a plausibility score, returning it unchanged."""
    if not PLAUSIBILITY_MIN <= value <= PLAUSIBILITY_MAX:
        raise PlausibilityRangeError(
            f"plausibility {value} outside [{PLAUSIBILITY_MIN}, {PLAUSIBILITY_MAX}]"
        )
    return float(value)


class InputDecodeError(SelPrefError, ValueError):
    pass


# what a text read raises on bytes that are not UTF-8 or on a broken .gz
_DECODE_ERRORS = (UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile)


@contextmanager
def open_input(path) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading, gunzipping a `.gz` path.

    Bytes that are not UTF-8, and a truncated or corrupt `.gz` stream,
    end in an InputDecodeError naming the first bad line. Only that error
    path rescans the file, so readers pay nothing per line for it.
    """
    gz = str(path).endswith(".gz")
    with (gzip.open(path, "rt", encoding="utf-8") if gz
          else open(path, encoding="utf-8")) as fh:
        try:
            yield fh
        except _DECODE_ERRORS as err:
            raise InputDecodeError(_first_bad_line(path, gz, err)) from None


def _load_json(fh: TextIO, source, error: type[SelPrefError]):
    """The JSON document of a text stream. Bad syntax, nesting too deep
    and an int past the digit limit raise ``error`` naming ``source``."""
    text = fh.read()  # outside the try: a decode error is open_input's to locate
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise error(f"{source}:{err.lineno}: invalid JSON: {err.msg}") from None
    except (RecursionError, ValueError) as err:
        raise error(f"{source}: invalid JSON: {_clip(str(err))}") from None


def _line_ends(raw: bytes) -> int:
    # text mode ends a line at \n, \r\n and a lone \r
    return raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")


def _first_bad_line(path, gz: bool, err: Exception) -> str:
    lineno = 1
    try:
        with gzip.open(path, "rb") if gz else open(path, "rb") as fh:
            for raw in fh:
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    lineno += _line_ends(raw[:bad.start])
                    return (f"{path}:{lineno}: not UTF-8: {bad.reason} "
                            f"(byte 0x{raw[bad.start]:02x})")
                lineno += _line_ends(raw)
    except (OSError, *_DECODE_ERRORS) as bad:
        return f"{path}:{lineno}: {bad}"
    return f"{path}: {err}"


class LexiconError(SelPrefError, ValueError):
    pass


class EmptyPoolError(LexiconError):
    """The lexicon has no word of the class a relation draws from. It
    names no file: a caller that knows the lexicon's path puts it first."""


@dataclass(frozen=True)
class Lexicon:
    """Vocabulary partitioned into verbs, nouns, and adjectives.

    The release vocabulary is 2,500 words: 500 verbs, 1,343 nouns, and 657
    adjectives; arbitrary partitions are accepted as long as the three sets
    are pairwise disjoint.
    """

    verbs: frozenset[str]
    nouns: frozenset[str]
    adjectives: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "verbs", frozenset(w.lower() for w in self.verbs))
        object.__setattr__(self, "nouns", frozenset(w.lower() for w in self.nouns))
        object.__setattr__(self, "adjectives", frozenset(w.lower() for w in self.adjectives))
        overlap = (self.verbs & self.nouns) | (self.verbs & self.adjectives) | (
            self.nouns & self.adjectives
        )
        if overlap:
            sample = ", ".join(sorted(overlap)[:5])
            raise LexiconError(f"lexicon POS sets overlap on: {sample}")

    def pool(self, pos: str) -> frozenset[str]:
        """The word set for a POS class name ('verb' | 'noun' | 'adj')."""
        try:
            return {"verb": self.verbs, "noun": self.nouns, "adj": self.adjectives}[pos]
        except KeyError:
            raise LexiconError(f"unknown POS class {pos!r}") from None

    def heads_for(self, relation: SPRelation) -> frozenset[str]:
        return self._drawn(relation, "head", relation.head_pos)

    def dependents_for(self, relation: SPRelation) -> frozenset[str]:
        return self._drawn(relation, "dependent", relation.dependent_pos)

    def _drawn(self, relation: SPRelation, role: str, pos: str) -> frozenset[str]:
        """The non-empty pool a relation's heads or dependents come from."""
        words = self.pool(pos)
        if not words:
            raise EmptyPoolError(f"no {pos} entries, needed for {relation.value} {role}s")
        return words

    @classmethod
    def from_tsv(cls, path) -> "Lexicon":
        """Load a `lemma<TAB>pos` file with pos in {verb, noun, adj}."""
        pos_of: dict[str, str] = {}
        with open_input(path) as fh:
            for lineno, (lemma, pos) in _rows(fh, path, 2, LexiconError):
                if pos not in _POS_CLASSES:
                    raise LexiconError(f"{path}:{lineno}: unknown POS {_clip(pos)}")
                lemma = lemma.lower()
                if pos_of.setdefault(lemma, pos) != pos:
                    raise LexiconError(f"{path}:{lineno}: {_clip(lemma)} is both "
                                       f"{pos_of[lemma]} and {pos}")
        return cls(*(frozenset(w for w, p in pos_of.items() if p == pos)
                     for pos in _POS_CLASSES))


_POS_CLASSES = ("verb", "noun", "adj")  # in Lexicon's field order


def _rows(fh: Iterable[str], source, ncols: int, error: type[SelPrefError],
          extra: bool = False) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-split fields) per data row of a TSV stream.

    Blank lines and lines starting with ``#`` are skipped. A row has
    exactly ``ncols`` fields, or at least that many with ``extra``; any
    other width raises ``error`` at ``source:line``.
    """
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or line[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != ncols and not (extra and len(fields) > ncols):
            raise error(f"{source}:{lineno}: expected {'>= ' * extra}{ncols} columns, "
                        f"got {len(fields)}")
        yield lineno, fields


def _parsed_rows(fh: Iterable[str], source, ncols: int, error: type[SelPrefError],
                 parse: Callable[[list[str]], Any], extra: bool = False) -> Iterator[tuple]:
    """(line number, parse(fields)) per data row as ``_rows`` reads it; a
    SelPrefError from ``parse`` is raised again as ``error`` at ``source:line``."""
    for lineno, fields in _rows(fh, source, ncols, error, extra):
        try:
            parsed = parse(fields)
        except SelPrefError as err:
            raise error(f"{source}:{lineno}: {err}") from None
        yield lineno, parsed


def _pair(fields: list[str]) -> SPPair:
    """The pair of a row whose first fields are relation, head, dependent."""
    return SPPair(parse_relation(fields[0]), fields[1], fields[2])


def _clip(text: str) -> str:
    """repr of an input field echoed in an error, cut to 40 characters."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


def _shown(text: str) -> str:
    """a number or JSON text echoed in an error: printable text unquoted,
    cut to 40 characters; anything else as _clip gives it."""
    if not text.isprintable():
        return _clip(text)
    return text if len(text) <= 40 else text[:40] + "..."
