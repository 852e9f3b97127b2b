import io
import math
import random
from collections import Counter

import numpy as np
import pytest

from selpref.core import Lexicon, SPPair, SPRelation
from selpref.evaluation import (
    ConfounderPoolError,
    ConstantInputError,
    CorrelationError,
    DuplicatePairError,
    EvalReport,
    GoldFormatError,
    GoldSet,
    LengthMismatchError,
    SignificanceError,
    evaluate,
    import_sp10k_directory,
    load_gold,
    load_gold_file,
    pseudo_disambiguation,
    significance,
    spearman,
    write_gold,
)
from selpref.scorers import LookupModel

R = SPRelation.DOBJ


def gold_from(rows):
    return GoldSet(
        (SPPair(SPRelation(rel), h, d), v) for rel, h, d, v in rows
    )


class TestSpearman:
    def test_identity(self):
        assert spearman([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_example(self):
        assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)

    def test_closed_form_on_tie_free_vectors(self):
        """1 - 6*sum(d^2)/(n(n^2-1)) on random permutations."""
        rng = random.Random(2)
        for trial in range(200):
            n = rng.randint(2, 60)
            x = list(range(1, n + 1))
            y = x[:]
            rng.shuffle(y)
            d2 = sum((xi - yi) ** 2 for xi, yi in zip(x, y))
            expected = 1 - 6 * d2 / (n * (n * n - 1))
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_tied_data_matches_rank_pearson_oracle(self):
        """With ties, rho must equal Pearson on hand-computed average ranks."""

        def oracle_ranks(v):
            out = []
            for item in v:
                less = sum(1 for o in v if o < item)
                equal = sum(1 for o in v if o == item)
                out.append(less + (equal + 1) / 2.0)
            return out

        def pearson(a, b):
            ma = sum(a) / len(a)
            mb = sum(b) / len(b)
            num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
            da = math.sqrt(sum((x - ma) ** 2 for x in a))
            db = math.sqrt(sum((y - mb) ** 2 for y in b))
            return num / (da * db)

        rng = random.Random(5)
        for trial in range(200):
            n = rng.randint(3, 25)
            x = [rng.randint(0, 5) for _ in range(n)]
            y = [rng.randint(0, 5) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expected = pearson(oracle_ranks(x), oracle_ranks(y))
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(9)
        for _ in range(30):
            x = [rng.random() for _ in range(10)]
            y = [rng.random() for _ in range(10)]
            assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-15)

    def test_monotone_invariance(self):
        rng = random.Random(13)
        x = [rng.random() for _ in range(40)]
        y = [rng.random() for _ in range(40)]
        base = spearman(x, y)
        assert spearman([3 * v + 1 for v in x], y) == pytest.approx(base, abs=1e-12)
        assert spearman([math.exp(v) for v in x], y) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            spearman([1, 2], [1, 2, 3])

    def test_constant_vector(self):
        with pytest.raises(ConstantInputError):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(ConstantInputError):
            spearman([1, 2, 3], [5, 5, 5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # NaN used to sort last and so take the best rank
        with pytest.raises(CorrelationError):
            spearman([bad, 2.0, 1.0], [3.0, 2.0, 1.0])
        with pytest.raises(CorrelationError):
            spearman([3.0, 2.0, 1.0], [1.0, bad, 0.0])

    def test_too_short(self):
        with pytest.raises(Exception):
            spearman([1], [2])


class TestGoldSet:
    def test_load(self):
        text = "#sp10k v1\ndobj\teat\tmeal\t10.00\nnsubj\tsing\tbird\t9.5\n"
        gold = load_gold(io.StringIO(text))
        assert len(gold) == 2
        assert gold.value(SPPair(SPRelation.DOBJ, "eat", "meal")) == 10.0
        assert gold.relations() == [SPRelation.DOBJ, SPRelation.NSUBJ]

    def test_empty_file_is_empty_set(self):
        gold = load_gold(io.StringIO(""))
        assert len(gold) == 0

    def test_out_of_range_score(self):
        with pytest.raises(GoldFormatError) as exc:
            load_gold(io.StringIO("dobj\teat\tmeal\t10.5\n"), source="f")
        assert "f:1" in str(exc.value)

    def test_unknown_relation(self):
        with pytest.raises(GoldFormatError):
            load_gold(io.StringIO("iobj\teat\tmeal\t5\n"))

    def test_duplicate_pair(self):
        text = "dobj\teat\tmeal\t10\ndobj\teat\tmeal\t9\n"
        with pytest.raises(DuplicatePairError):
            load_gold(io.StringIO(text))

    def test_roundtrip(self, tmp_path):
        gold = gold_from([
            ("dobj", "eat", "meal", 10.0),
            ("dobj", "eat", "rock", 0.25),
            ("amod", "apple", "fresh", 9.0),
        ])
        p = tmp_path / "gold.tsv"
        with open(p, "w") as fh:
            write_gold(gold, fh)
        back = load_gold_file(p)
        assert dict(back.items()) == dict(gold.items())

    def test_directory_adapter(self, tmp_path):
        names = {
            "dobj": "dobj.txt",
            "nsubj": "nsubj_annotation.txt",
            "amod": "annotation_amod.tsv",
            "dobj_amod": "dobj_amod.txt",
            "nsubj_amod": "nsubj_amod.txt",
        }
        (tmp_path / "annotations").mkdir()
        for rel, name in names.items():
            where = tmp_path if rel != "amod" else tmp_path / "annotations"
            (where / name).write_text(f"h{rel}\td{rel}\t7.5\n")
        gold = import_sp10k_directory(tmp_path)
        assert len(gold) == 5
        assert gold.value(SPPair(SPRelation.AMOD, "hamod", "damod")) == 7.5

    def test_directory_adapter_missing_relation(self, tmp_path):
        (tmp_path / "dobj.txt").write_text("a\tb\t5\n")
        with pytest.raises(GoldFormatError):
            import_sp10k_directory(tmp_path)


class TestEvaluate:
    def small_gold(self):
        rows = []
        for i, (d, v) in enumerate([("meal", 10.0), ("bread", 8.0),
                                    ("idea", 2.0), ("rock", 0.5)]):
            rows.append(("dobj", "eat", d, v))
        rows += [("amod", "apple", "fresh", 9.0), ("amod", "apple", "loud", 1.0),
                 ("amod", "sky", "blue", 9.5)]
        return gold_from(rows)

    def test_perfect_model(self):
        gold = self.small_gold()
        model = LookupModel({p: gold.value(p) for p, _ in gold.items()})
        report = evaluate(model, gold, missing_policy="drop")
        for res in report.per_relation.values():
            assert res.rho == pytest.approx(1.0)
            assert res.coverage == 1.0
        assert report.overall == pytest.approx(1.0)

    def test_negated_model(self):
        gold = self.small_gold()
        model = LookupModel({p: -gold.value(p) for p, _ in gold.items()})
        report = evaluate(model, gold, missing_policy="drop")
        for res in report.per_relation.values():
            assert res.rho == pytest.approx(-1.0)

    def test_overall_is_unweighted_mean(self):
        gold = gold_from([
            ("dobj", "eat", "meal", 10.0), ("dobj", "eat", "rock", 0.0),
            ("dobj", "eat", "soup", 7.0),
            ("amod", "apple", "fresh", 9.0), ("amod", "apple", "loud", 1.0),
            ("amod", "sky", "blue", 8.0),
        ])
        scores = {}
        for p, v in gold.items():
            # perfect on dobj, reversed on amod
            scores[p] = v if p.relation is R else -v
        report = evaluate(LookupModel(scores), gold, missing_policy="drop")
        assert report.overall == pytest.approx(0.0, abs=1e-12)

    def test_floor_penalizes_abstention(self):
        gold = self.small_gold()
        table = {p: gold.value(p) for p, _ in gold.items()}
        # abstain on the worst dobj pair; floor imputes below every score
        del table[SPPair(R, "eat", "rock")]
        report = evaluate(LookupModel(table), gold, missing_policy="floor")
        res = report.per_relation[R]
        assert res.coverage == pytest.approx(0.75)
        assert res.n_used == 4
        assert res.rho == pytest.approx(1.0)  # rock was lowest anyway

        # abstain on the best pair instead: floor puts it at the bottom
        table = {p: gold.value(p) for p, _ in gold.items()}
        del table[SPPair(R, "eat", "meal")]
        report = evaluate(LookupModel(table), gold, missing_policy="floor")
        assert report.per_relation[R].rho < 1.0

    def test_drop_equals_floor_at_full_coverage(self):
        gold = self.small_gold()
        rng = random.Random(31)
        model = LookupModel({p: rng.random() for p, _ in gold.items()})
        a = evaluate(model, gold, missing_policy="drop")
        b = evaluate(model, gold, missing_policy="floor")
        for rel in a.per_relation:
            assert a.per_relation[rel].rho == pytest.approx(
                b.per_relation[rel].rho, abs=1e-15
            )

    def test_undefined_relation_flagged(self):
        gold = gold_from([
            ("dobj", "eat", "meal", 10.0), ("dobj", "eat", "rock", 0.0),
        ])
        model = LookupModel({SPPair(R, "eat", "meal"): 1.0})  # only one scorable
        report = evaluate(model, gold, missing_policy="drop")
        res = report.per_relation[R]
        assert res.rho is None
        assert res.note

    def test_report_serialization(self):
        gold = self.small_gold()
        model = LookupModel({p: gold.value(p) for p, _ in gold.items()})
        report = evaluate(model, gold)
        doc = report.to_dict()
        assert doc["overall_rho"] == pytest.approx(1.0)
        assert set(doc["relations"]) == {"dobj", "amod"}
        text = report.to_table()
        assert "overall" in text
        assert "dobj" in text


class TestSignificance:
    def test_separated_models(self):
        gold = list(range(20))
        a = list(range(20))          # perfect
        b = list(reversed(a))        # maximally wrong
        p = significance(a, b, gold, resamples=500, seed=1)
        assert p < 1 / 500 + 1e-9

    def test_identical_models(self):
        rng = random.Random(3)
        gold = [rng.random() for _ in range(30)]
        a = [rng.random() for _ in range(30)]
        p = significance(a, a, gold, resamples=400, seed=2)
        assert p == 1.0  # delta always exactly 0, never positive

    def test_seeded_determinism(self):
        rng = random.Random(7)
        gold = [rng.random() for _ in range(25)]
        a = [g + rng.gauss(0, 0.3) for g in gold]
        b = [rng.random() for _ in range(25)]
        p1 = significance(a, b, gold, resamples=300, seed=11)
        p2 = significance(a, b, gold, resamples=300, seed=11)
        assert p1 == p2

    def test_misaligned_vectors(self):
        with pytest.raises(LengthMismatchError):
            significance([1, 2], [1, 2, 3], [1, 2, 3])

    def test_too_few_pairs(self):
        with pytest.raises(SignificanceError):
            significance(list(range(5)), list(range(5)), list(range(5)))


class TestPseudoDisambiguation:
    def vocab(self):
        return Lexicon(
            verbs=frozenset({"eat", "drink"}),
            nouns=frozenset({f"n{i}" for i in range(20)} | {"meal", "soup"}),
            adjectives=frozenset(),
        )

    def test_oracle_model_scores_one(self):
        pairs = [SPPair(R, "eat", "meal"), SPPair(R, "drink", "soup")]
        model = LookupModel({p: 1.0 for p in pairs})
        # unseen pairs score None -> 0.5 credit; give them explicit zeros
        full = {p: 1.0 for p in pairs}
        for v in ["eat", "drink"]:
            for d in self.vocab().nouns:
                full.setdefault(SPPair(R, v, d), 0.0)
        model = LookupModel(full)
        assert pseudo_disambiguation(model, pairs, self.vocab(), seed=4) == 1.0

    def test_constant_model_is_half(self):
        pairs = [SPPair(R, "eat", "meal"), SPPair(R, "drink", "soup")]
        full = {}
        for v in ["eat", "drink"]:
            for d in self.vocab().nouns:
                full[SPPair(R, v, d)] = 7.7
        model = LookupModel(full)
        assert pseudo_disambiguation(model, pairs, self.vocab(), seed=4) == 0.5

    def test_missing_counts_half(self):
        pairs = [SPPair(R, "eat", "meal")]
        model = LookupModel({})
        assert pseudo_disambiguation(model, pairs, self.vocab(), seed=1) == 0.5

    def test_bounded(self):
        rng = random.Random(17)
        pairs = [SPPair(R, "eat", f"n{i}") for i in range(10)]
        model = LookupModel({
            SPPair(R, "eat", d): rng.random() for d in self.vocab().nouns
        })
        acc = pseudo_disambiguation(model, pairs, self.vocab(), seed=3)
        assert 0.0 <= acc <= 1.0

    def test_pool_exhaustion(self):
        vocab = Lexicon(
            verbs=frozenset({"eat"}),
            nouns=frozenset({"meal"}),
            adjectives=frozenset(),
        )
        with pytest.raises(ConfounderPoolError):
            pseudo_disambiguation(
                LookupModel({}), [SPPair(R, "eat", "meal")], vocab, seed=1
            )

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            pseudo_disambiguation(LookupModel({}), [], self.vocab(), seed=1)

    def test_seeded_determinism(self):
        rng = random.Random(19)
        pairs = [SPPair(R, "eat", f"n{i}") for i in range(8)]
        model = LookupModel({
            SPPair(R, "eat", d): rng.random() for d in self.vocab().nouns
        })
        a = pseudo_disambiguation(model, pairs, self.vocab(), seed=5)
        b = pseudo_disambiguation(model, pairs, self.vocab(), seed=5)
        assert a == b
