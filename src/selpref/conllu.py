"""Minimal streaming CoNLL-U reader.

Only the columns the extraction rules need are kept: ID, LEMMA, UPOS, HEAD,
DEPREL.  Multiword-token ranges (IDs like ``3-4``) and empty nodes (``3.1``)
are skipped; comment lines start with ``#``; a blank line ends a sentence.
"""

from __future__ import annotations

import logging
from typing import Iterator, TextIO

from .core import SelPrefError, _clip, _shown

log = logging.getLogger(__name__)

N_COLUMNS = 10


class CorpusFormatError(SelPrefError):
    """Malformed CoNLL-U input, carrying file/line coordinates."""

    def __init__(self, source: str, lineno: int, message: str):
        super().__init__(f"{source}:{lineno}: {message}")
        self.lineno = lineno
        self.message = message


def read_conllu(
    fh: TextIO,
    source: str = "<stream>",
    skip_malformed: bool = False,
) -> Iterator[list[tuple] | None]:
    """Stream each sentence as a list of token rows, or None for a sentence
    skipped as malformed.

    A row is ``(index, lemma, upos, head, deprel, line number)``.  Each
    token line is checked as it is read (column count, integer id and head,
    index >= 1, head >= 0, not its own head); contiguity and head range are
    checked once per sentence.  A fault raises ``CorpusFormatError`` or,
    with ``skip_malformed`` (the CLI's ``--skip-malformed``), is logged
    and drops the sentence.
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
                message = f"bad token id {_clip(tok_id)}"
            else:
                try:
                    head = int(fields[6])
                except ValueError:
                    message = f"bad head index {_clip(fields[6])}"
                else:
                    if index >= 1 and head >= 0 and head != index:
                        rows.append((index, fields[2], fields[3], head, fields[7], lineno))
                        continue
                    if index < 1:
                        message = f"token index must be >= 1, got {_shown(str(index))}"
                    elif head < 0:
                        message = f"head index must be >= 0, got {_shown(str(head))}"
                    else:
                        message = f"token {_shown(str(index))} is its own head"
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
    """The rows of a sentence, or None (or ``CorpusFormatError``) when an
    index is not its position or a head lies beyond the sentence end."""
    n = len(rows)
    if [row[0] for row in rows] == list(range(1, n + 1)) and max([row[3] for row in rows]) <= n:
        return rows
    for pos, (index, _, _, head, *_) in enumerate(rows, 1):
        if index != pos:
            message = f"token indices not contiguous at position {pos}"
            break
        if head > n:
            message = f"token {index} points at head {_shown(str(head))} beyond sentence end"
            break
    if not skip_malformed:
        raise CorpusFormatError(source, start_line, message)
    log.warning("%s:%d: skipping sentence: %s", source, start_line, message)
    return None
