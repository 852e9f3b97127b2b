"""Word embedding table: GloVe-style text files plus cosine similarity."""

from __future__ import annotations

import logging
import math
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

    The vectors are the rows of one ``(n, d)`` float64 ``matrix``;
    ``index`` maps a word to its row and ``norms`` holds the row norms.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise EmptyEmbeddingFile("no embedding vectors")
        dims = {v.shape for v in vectors.values()}
        if len(dims) != 1:
            raise EmbeddingError(f"mixed embedding dimensions: {sorted(dims)}")
        self._set_rows(list(vectors), np.array(list(vectors.values()), dtype=np.float64))

    @classmethod
    def from_rows(cls, words: list[str], matrix: np.ndarray) -> "EmbeddingTable":
        """Wrap a float64 matrix whose row i is the vector of ``words[i]``,
        without copying it."""
        table = cls.__new__(cls)
        table._set_rows(words, matrix)
        return table

    def _set_rows(self, words: list[str], matrix: np.ndarray) -> None:
        if not np.isfinite(matrix).all():
            row = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
            raise EmbeddingError(f"non-finite components in vector for {words[row]!r}")
        self.index = {w: i for i, w in enumerate(words)}
        self.matrix = matrix
        self.matrix.flags.writeable = False
        self.dim = matrix.shape[1]
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


def load_embeddings(path) -> EmbeddingTable:
    """Read GloVe text format: `word v1 v2 ... vd`, one entry per line.

    Duplicate words keep their first occurrence; a dimension change
    mid-file is an error naming the offending line. The components go
    straight into one flat buffer that becomes the table's matrix.
    """
    words: dict[str, None] = {}
    buf = array("d")
    dim = None
    dupes = 0
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
            if word in words:
                dupes += 1
                continue
            words[word] = None
            buf.extend(vec)
    if not words:
        raise EmptyEmbeddingFile(f"{path}: empty embedding file")
    if dupes:
        log.warning("%s: %d duplicate words ignored (first kept)", path, dupes)
    try:
        return EmbeddingTable.from_rows(list(words), np.frombuffer(buf).reshape(len(words), dim))
    except EmbeddingError:  # the one check it makes: every component finite
        raise EmbeddingError(_non_finite_line(path)) from None


def _non_finite_line(path) -> str:
    """Locate the first kept non-finite vector by reading the file again."""
    seen = set()
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, 1):
            word, *parts = line.rstrip("\n").split(" ")
            if word not in seen and not all(math.isfinite(float(x)) for x in parts):
                return f"{path}:{lineno}: non-finite component in vector for {_clip(word)}"
            seen.add(word)
    return f"{path}: non-finite component"


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine of a zero-norm vector is undefined")
    # rounding can push dot/(na*nb) an ulp past +-1 for (anti)parallel
    # vectors; clamp so downstream averages stay inside [-1, 1]
    return max(-1.0, min(1.0, float(np.dot(a, b) / (na * nb))))
