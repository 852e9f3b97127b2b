"""Word embedding table, read from GloVe-style text files."""

from __future__ import annotations

import logging
from array import array

import numpy as np

from .core import SelPrefError, _clip, open_input

log = logging.getLogger(__name__)


class EmbeddingError(SelPrefError, ValueError):
    pass


class EmptyEmbeddingFile(EmbeddingError):
    pass


class ZeroVectorError(EmbeddingError, ArithmeticError):
    pass


class EmbeddingTable:
    """lemma -> fixed-dimension vector, loaded once and then read-only.

    Row i of the ``(n, d)`` float64 ``matrix`` is the vector of
    ``words[i]``; the matrix is wrapped without a copy and made read-only.
    ``index`` maps a word to its row and ``norms`` holds the row norms.
    """

    def __init__(self, words: list[str], matrix: np.ndarray):
        if (row := _non_finite_row(matrix)) is not None:
            raise EmbeddingError(f"non-finite components in vector for {words[row]!r}")
        self.index = {w: i for i, w in enumerate(words)}
        self.matrix = matrix
        self.matrix.flags.writeable = False
        # row-wise dot products, without an (n, d) temporary of squares
        self.norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        self.norms.flags.writeable = False

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def __len__(self) -> int:
        return len(self.index)

    def get(self, word: str) -> np.ndarray | None:
        i = self.index.get(word)
        return None if i is None else self.matrix[i]


def _non_finite_row(matrix: np.ndarray) -> int | None:
    """The first row with a NaN or infinite component, or None."""
    finite = np.isfinite(matrix).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def load_embeddings(path) -> EmbeddingTable:
    """Read GloVe text format: `word v1 v2 ... vd`, one entry per line.

    Duplicate words keep their first occurrence; a dimension change
    mid-file or a kept non-finite vector is an error naming its line.
    The components go straight into one flat buffer, read once.
    """
    words: dict[str, int] = {}  # kept word -> its line, in row order
    buf = array("d")
    dim = None
    with open_input(path) as fh:
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
        raise EmptyEmbeddingFile(f"{path}: empty embedding file")
    if lineno > len(words):  # every line read is kept or a duplicate
        log.warning("%s: %d duplicate words ignored (first kept)", path, lineno - len(words))
    matrix = np.frombuffer(buf).reshape(len(words), dim)
    if (row := _non_finite_row(matrix)) is not None:
        word, lineno = list(words.items())[row]
        raise EmbeddingError(f"{path}:{lineno}: non-finite component in vector for {_clip(word)}")
    return EmbeddingTable(list(words), matrix)
