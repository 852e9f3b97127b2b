import math
import random

import numpy as np
import pytest

from selpref import embeddings
from selpref.core import SPPair, SPRelation
from selpref.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    load_embeddings,
)
from selpref.extract import CountTable
from selpref.scorers import DSModel, LookupModel, PPModel, pp_score

R = SPRelation.DOBJ


def embedding_table(vectors: dict) -> EmbeddingTable:
    """The table of a word -> vector dict, rows in its order."""
    return EmbeddingTable(list(vectors), np.array(list(vectors.values()), dtype=np.float64))


def ds(counts, emb, pair):
    """``ds_score`` through its one caller, the ``ds`` model."""
    return DSModel(counts, emb).score(pair)


def table(*entries):
    pairs = []
    for head, dep, k in entries:
        pairs += [SPPair(R, head, dep)] * k
    return CountTable.from_pairs(pairs)


class TestPP:
    def test_eq1_division(self):
        t = table(("eat", "worm", 2), ("eat", "bread", 2))
        assert pp_score(t, SPPair(R, "eat", "worm")) == 0.5

    def test_single_dependent_is_one(self):
        t = table(("eat", "worm", 7))
        assert pp_score(t, SPPair(R, "eat", "worm")) == 1.0

    def test_unseen_head_is_missing(self):
        t = table(("eat", "worm", 1))
        assert pp_score(t, SPPair(R, "drink", "worm")) is None

    def test_seen_head_unseen_dependent_is_zero(self):
        t = table(("eat", "worm", 1))
        assert pp_score(t, SPPair(R, "eat", "rock")) == 0.0

    def test_normalization_sums_to_one(self):
        rng = random.Random(11)
        for trial in range(50):
            entries = [
                ("eat", f"d{i}", rng.randint(1, 20))
                for i in range(rng.randint(1, 15))
            ]
            t = table(*entries)
            total = sum(pp_score(t, SPPair(R, "eat", d)) for _, d, _ in entries)
            assert abs(total - 1.0) < 1e-9

    def test_monotone_in_counts(self):
        t = table(("eat", "worm", 9), ("eat", "bread", 3), ("eat", "rock", 1))
        s = lambda d: pp_score(t, SPPair(R, "eat", d))
        assert s("worm") > s("bread") > s("rock") > s("pebble") == 0.0


class TestDS:
    def emb(self):
        # unit-norm 2d vectors at controlled angles
        def at(theta):
            return np.array([math.cos(theta), math.sin(theta)])

        return embedding_table({
            "query": at(0.0),
            "close": at(math.acos(0.8)),
            "far": at(math.acos(0.4)),
            "same": at(0.0),
        })

    def test_hand_example(self):
        t = table(("eat", "close", 3), ("eat", "far", 1))
        got = ds(t, self.emb(), SPPair(R, "eat", "query"))
        assert got == pytest.approx((3 * 0.8 + 1 * 0.4) / 4, abs=1e-12)

    def test_identity_dependent(self):
        t = table(("eat", "same", 5))
        got = ds(t, self.emb(), SPPair(R, "eat", "query"))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_unseen_head_missing(self):
        t = table(("eat", "close", 1))
        assert ds(t, self.emb(), SPPair(R, "drink", "query")) is None

    def test_no_embedding_for_dependent_missing(self):
        t = table(("eat", "close", 1))
        assert ds(t, self.emb(), SPPair(R, "eat", "zebra")) is None

    def test_attested_without_embeddings_drop_from_z(self):
        t = table(("eat", "close", 3), ("eat", "zebra", 97))
        got = ds(t, self.emb(), SPPair(R, "eat", "query"))
        assert got == pytest.approx(0.8, abs=1e-12)

    def test_all_attested_unembedded_missing(self):
        t = table(("eat", "zebra", 4))
        assert ds(t, self.emb(), SPPair(R, "eat", "query")) is None

    def test_bounded(self):
        rng = random.Random(23)
        words = [f"w{i}" for i in range(30)]
        vecs = {
            w: np.array([rng.gauss(0, 1) for _ in range(5)]) for w in words
        }
        emb = embedding_table(vecs)
        entries = [("eat", w, rng.randint(1, 9)) for w in words[:20]]
        t = table(*entries)
        for w in words:
            got = ds(t, emb, SPPair(R, "eat", w))
            assert got is not None
            assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12

    def test_zero_vector_is_an_error(self):
        emb = embedding_table({"a": np.zeros(3), "b": np.ones(3)})
        t = table(("eat", "a", 1))
        with pytest.raises(EmbeddingError, match="^cosine of a zero-norm vector is undefined "
                                                 "for dobj pair 'eat' 'b'$"):
            ds(t, emb, SPPair(R, "eat", "b"))


class TestLoadEmbeddings:
    @pytest.mark.parametrize("text, dupes, fault", [
        ("a 1 2\nb 3 4\n", 0, None),
        ("a 1 2\na 9 9\nb 3 4\nb 5 6\n", 2, None),
        ("a 1 2\na 9 inf\nb nan 4\n", 1, ":3: non-finite component in vector for 'b'"),
        ("a 1 2\nb 3\t 4\nb 5 6\n", 1, None),
        ("a 1 2\nb 1_0 inf\n", 0, ":2: non-finite component in vector for 'b'"),
        ("a 1 2\nb 1 2 3\n", 0, ":2: dimension 3 != 2"),
    ], ids=["plain", "duplicates", "non-finite", "per-line", "per-line non-finite",
            "per-line fault"])
    def test_file_is_opened_once(self, tmp_path, monkeypatch, caplog, text, dupes, fault):
        p = tmp_path / "emb.txt"
        p.write_text(text)
        opened = []
        monkeypatch.setattr(embeddings, "open_input",
                            lambda path, _open=embeddings.open_input:
                            opened.append(path) or _open(path))
        if fault is None:
            assert len(load_embeddings(p).index) == 2
        else:
            with pytest.raises(EmbeddingError) as exc:
                load_embeddings(p)
            assert str(exc.value) == f"{p}{fault}"
        assert opened == [p]
        warned = [r.getMessage() for r in caplog.records if "duplicate" in r.getMessage()]
        assert warned == ([f"{p}: {dupes} duplicate words ignored (first kept)"] if dupes else [])

    def test_small_file(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("air 0.1 0.2\nwater -1 2.5\n")
        emb = load_embeddings(p)
        assert emb.matrix.shape == (2, 2)
        assert len(emb.index) == 2
        assert np.allclose(emb.matrix[emb.index["water"]], [-1.0, 2.5])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("")
        with pytest.raises(EmbeddingError, match="empty embedding file$"):
            load_embeddings(p)

    def test_dimension_change_names_line(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 2\nb 3 4\nc 5 6 7\n")
        with pytest.raises(EmbeddingError) as exc:
            load_embeddings(p)
        assert ":3" in str(exc.value)

    def test_duplicates_keep_first(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 2\na 9 9\n")
        emb = load_embeddings(p)
        assert np.allclose(emb.matrix[emb.index["a"]], [1.0, 2.0])

    def test_non_finite_row_echoes_a_clipped_word(self):
        with pytest.raises(EmbeddingError) as exc:
            EmbeddingTable(["a", "w" * 5000], np.array([[1.0, 1.0], [np.nan, 1.0]]))
        assert len(str(exc.value)) < 100

    def test_non_numeric_component(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 x\n")
        with pytest.raises(EmbeddingError):
            load_embeddings(p)


def test_models_share_missing_semantics():
    t = table(("eat", "worm", 1))
    emb = embedding_table({"worm": np.ones(2), "rock": np.ones(2) * 2})
    for model in [PPModel(t), DSModel(t, emb), LookupModel({})]:
        assert model.score(SPPair(R, "nonexistent", "worm")) is None
