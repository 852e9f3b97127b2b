"""Word embedding table, read from GloVe-style text files.

numpy is imported by the functions that compute with it, so importing
this module does not load it; the first vectors file read does.
"""

from __future__ import annotations

import logging
from array import array
from typing import TYPE_CHECKING, TextIO

from .core import _DECODE_ERRORS, SelPrefError, _clip, open_input

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)


class EmbeddingError(SelPrefError):
    pass


class EmbeddingTable:
    """lemma -> fixed-dimension vector, loaded once and then read-only.

    Row i of the ``(n, d)`` float64 ``matrix`` is the vector of
    ``words[i]``; the matrix is wrapped without a copy and made read-only.
    ``index`` maps a word to its row and ``norms`` holds the row norms.
    """

    def __init__(self, words: list[str], matrix: np.ndarray):
        import numpy as np

        if (row := _non_finite_row(matrix)) is not None:
            raise EmbeddingError(f"non-finite components in vector for {_clip(words[row])}")
        self.index = {w: i for i, w in enumerate(words)}
        self.matrix = matrix
        self.matrix.flags.writeable = False
        # row-wise dot products, without an (n, d) temporary of squares
        self.norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        self.norms.flags.writeable = False


def _non_finite_row(matrix: np.ndarray) -> int | None:
    """The first row with a NaN or infinite component, or None."""
    import numpy as np

    finite = np.isfinite(matrix).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def load_embeddings(path) -> EmbeddingTable:
    """Read GloVe text format: `word v1 v2 ... vd`, one entry per line.

    Duplicate words keep their first occurrence; a dimension change
    mid-file or a kept non-finite vector is an error naming its line.
    The file is opened once. numpy parses the numbers of a plain file
    (``_read_plain``); any other file, or one numpy refuses, is read
    again from the start by ``_read_lines``, which names a faulty line.
    """
    with open_input(path) as fh:
        parsed = _read_plain(fh)
        if parsed is None:
            fh.seek(0)
            parsed = _read_lines(fh, path)
    words, lines, matrix = parsed
    if lines > len(words):  # every line read is kept or a duplicate
        log.warning("%s: %d duplicate words ignored (first kept)", path, lines - len(words))
    if (row := _non_finite_row(matrix)) is not None:
        word, lineno = list(words.items())[row]
        raise EmbeddingError(f"{path}:{lineno}: non-finite component in vector for {_clip(word)}")
    return EmbeddingTable(list(words), matrix)


def _read_plain(fh: TextIO):
    """(kept word -> its line, lines read, kept rows) of a file whose
    every line is plain, else None.

    A line is plain when it is printable and holds as many spaces as
    the first line, at least one. One pass checks that and notes each
    word's first line; then ``np.loadtxt`` parses the numbers from the
    start of the handle, and a number it refuses gives None. It takes
    no printable number that float() refuses; it strips the separators
    U+001C-U+001F from a number, which float() refuses, so a line with
    one is not plain.
    """
    words: dict[str, int] = {}
    dim = lineno = 0
    try:
        for lineno, line in enumerate(fh, 1):
            text = line.rstrip("\n")
            spaces = text.count(" ")
            dim = dim or spaces
            if not spaces or spaces != dim or not text.isprintable():
                return None
            words.setdefault(text[:text.index(" ")], lineno)
    except _DECODE_ERRORS:
        if not lineno:  # no line comes first, and a gzip header cut short reads again as empty
            raise
        return None  # _read_lines meets it after the lines before it
    if not words:
        return None
    import numpy as np

    fh.seek(0)
    try:
        matrix = np.loadtxt(fh, delimiter=" ", usecols=range(1, dim + 1), comments=None,
                            quotechar=None, ndmin=2)
    except ValueError:
        return None
    if len(matrix) != lineno:
        return None
    if len(words) < lineno:
        matrix = matrix[[i - 1 for i in words.values()]]
    return words, lineno, matrix


def _read_lines(fh: TextIO, path):
    """``_read_plain``'s result for any file, each line split and its
    components parsed by float(); a line's fault is an error naming it."""
    import numpy as np

    words: dict[str, int] = {}  # kept word -> its line, in row order
    buf = array("d")
    dim = None
    for lineno, line in enumerate(fh, 1):
        parts = line.rstrip("\n").split(" ")
        if len(parts) < 2:
            raise EmbeddingError(f"{path}:{lineno}: no vector components")
        word = parts[0]
        try:
            vec = [float(x) for x in parts[1:]]
        except ValueError:
            raise EmbeddingError(f"{path}:{lineno}: non-numeric component") from None
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise EmbeddingError(
                f"{path}:{lineno}: dimension {len(vec)} != {dim}"
            )
        if word not in words:
            words[word] = lineno
            buf.extend(vec)
    if not words:
        raise EmbeddingError(f"{path}: empty embedding file")
    return words, lineno, np.frombuffer(buf).reshape(len(words), dim)
