"""Minimal streaming CoNLL-U reader.

Only the columns the extraction rules need are kept: ID, LEMMA, UPOS, HEAD,
DEPREL.  Multiword-token ranges (IDs like ``3-4``) and empty nodes (``3.1``)
are skipped; comment lines start with ``#``; a blank line ends a sentence.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .core import SelPrefError

log = logging.getLogger(__name__)

N_COLUMNS = 10


class CorpusFormatError(SelPrefError, ValueError):
    """Malformed CoNLL-U input, carrying file/line coordinates."""

    def __init__(self, source: str, lineno: int, message: str):
        super().__init__(f"{source}:{lineno}: {message}")
        self.source = source
        self.lineno = lineno
        self.message = message


@dataclass(frozen=True)
class Token:
    index: int          # 1-based position within the sentence
    lemma: str
    upos: str
    head_index: int     # 0 = root
    deprel: str

    def __post_init__(self):
        message = _token_error(self.index, self.head_index)
        if message is not None:
            raise ValueError(message)


class Sentence:
    """An ordered, contiguously indexed token list."""

    def __init__(self, tokens: Iterable[Token]):
        self.tokens = list(tokens)
        message = _sentence_error([t.index for t in self.tokens],
                                  [t.head_index for t in self.tokens])
        if message is not None:
            raise ValueError(message)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def token_at(self, index: int) -> Token:
        return self.tokens[index - 1]


def _token_error(index: int, head: int) -> str | None:
    """What is wrong with one token's index and head, or None."""
    if index < 1:
        return f"token index must be >= 1, got {index}"
    if head < 0:
        return f"head index must be >= 0, got {head}"
    if head == index:
        return f"token {index} is its own head"
    return None


def _sentence_error(indices: list[int], heads: list[int]) -> str | None:
    """The first position whose index is not its position, or whose head
    lies beyond the sentence end; None when there is none."""
    n = len(indices)
    if indices == list(range(1, n + 1)) and (not heads or max(heads) <= n):
        return None
    for pos, (index, head) in enumerate(zip(indices, heads), 1):
        if index != pos:
            return f"token indices not contiguous at position {pos}"
        if head > n:
            return f"token {index} points at head {head} beyond sentence end"
    return None


def sentence_rows(
    fh: TextIO,
    source: str = "<stream>",
    skip_malformed: bool = False,
) -> Iterator[list[tuple] | None]:
    """Stream each sentence as a list of token rows, or None for a sentence
    skipped as malformed: the parsing under ``read_conllu``, without a
    ``Token`` or ``Sentence`` per item.

    A row is ``(index, lemma, upos, head, deprel, line number)``.  Each
    token line is checked as it is read (column count, integer id and head,
    index >= 1, head >= 0, not its own head); contiguity and head range are
    checked once per sentence.  A fault raises ``CorpusFormatError`` or,
    with ``skip_malformed``, is logged and drops the sentence.
    """
    rows: list[tuple] = []
    bad = False
    start_line = 1
    for lineno, line in enumerate(fh, 1):
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) == N_COLUMNS:
            tok_id = fields[0]
            if "-" in tok_id or "." in tok_id:
                continue  # multiword-token range or empty node
            try:
                index = int(tok_id)
            except ValueError:
                message = f"bad token id {tok_id!r}"
            else:
                try:
                    head = int(fields[6])
                except ValueError:
                    message = f"bad head index {fields[6]!r}"
                else:
                    if index >= 1 and head >= 0 and head != index:
                        rows.append((index, fields[2], fields[3], head, fields[7], lineno))
                        continue
                    message = _token_error(index, head)
        elif line.rstrip("\n").rstrip("\r"):
            message = f"expected {N_COLUMNS} tab-separated columns, got {len(fields)}"
        else:  # a blank line ends the sentence
            if bad or rows:
                yield None if bad else _checked_sentence(rows, source, start_line, skip_malformed)
            rows = []
            bad = False
            start_line = lineno + 1
            continue
        err = CorpusFormatError(source, lineno, message)
        if not skip_malformed:
            raise err
        log.warning("skipping sentence with malformed line: %s", err)
        bad = True
    if bad or rows:
        yield None if bad else _checked_sentence(rows, source, start_line, skip_malformed)


def _checked_sentence(rows: list[tuple], source: str, start_line: int,
                      skip_malformed: bool) -> list[tuple] | None:
    message = _sentence_error([row[0] for row in rows], [row[3] for row in rows])
    if message is None:
        return rows
    if not skip_malformed:
        raise CorpusFormatError(source, start_line, message)
    log.warning("%s:%d: skipping sentence: %s", source, start_line, message)
    return None


def read_conllu(
    fh: TextIO,
    source: str = "<stream>",
    skip_malformed: bool = False,
) -> Iterator[Sentence]:
    """Stream sentences from a CoNLL-U file object.

    With ``skip_malformed`` the offending sentence is dropped and logged
    instead of raising (the CLI default); library callers get fail-fast
    behaviour.
    """
    for rows in sentence_rows(fh, source, skip_malformed):
        if rows is not None:
            yield Sentence(Token(*row[:5]) for row in rows)


def read_conllu_file(path, skip_malformed: bool = False) -> Iterator[Sentence]:
    with open(path, encoding="utf-8") as fh:
        yield from read_conllu(fh, source=str(path), skip_malformed=skip_malformed)
