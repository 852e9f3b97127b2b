import io
import math
import random
import tracemalloc

import pytest

from selpref.annotate import (
    RATINGS_COLUMNS,
    AnnotationError,
    RawRating,
    Survey,
    aggregate,
    filter_annotations,
    generate_survey,
    iaa,
    read_ratings,
    render_question,
    scale_rating_mean,
)
from selpref.core import SPPair, SPRelation

R = SPRelation.DOBJ


def rating(ann, rel, head, dep, value, expected=None):
    return RawRating(
        annotator_id=ann,
        pair=SPPair(rel, head, dep),
        rating=value,
        expected=None if expected is None else frozenset(expected),
    )


class TestTemplates:
    def test_dobj(self):
        q = render_question(SPPair(SPRelation.DOBJ, "ask", "question"))
        assert q == ("How suitable do you think it is if we use question "
                     "as the object of the verb ask?")

    def test_nsubj(self):
        q = render_question(SPPair(SPRelation.NSUBJ, "sing", "bird"))
        assert q == ("How suitable do you think it is if we use bird "
                     "as the subject of the verb sing?")

    def test_amod(self):
        q = render_question(SPPair(SPRelation.AMOD, "apple", "fresh"))
        assert q == ("How suitable do you think it is if we use fresh "
                     "to describe the noun apple?")

    def test_dobj_amod(self):
        q = render_question(SPPair(SPRelation.DOBJ_AMOD, "eat", "tasty"))
        assert q == ("How suitable do you think it is if we use tasty "
                     "to describe the object of the verb eat?")

    def test_nsubj_amod(self):
        q = render_question(SPPair(SPRelation.NSUBJ_AMOD, "smile", "friendly"))
        assert q == ("How suitable do you think it is if we use friendly "
                     "to describe the subject of the verb smile?")


class TestGenerateSurvey:
    def pairs(self):
        return [SPPair(R, f"v{i}", f"n{i}") for i in range(100)]

    def checkpoints(self):
        return [SPPair(R, "eat", "meal"), SPPair(R, "eat", "sky"), SPPair(R, "drink", "water")]

    def test_counts(self):
        s = generate_survey(self.pairs(), self.checkpoints(), seed=1)
        assert len(s.questions) == 103
        assert sum(p in self.checkpoints() for p in s.questions) == 3
        assert s.relation is R

    def test_shuffle_is_seeded(self):
        a = generate_survey(self.pairs(), self.checkpoints(), seed=1)
        b = generate_survey(self.pairs(), self.checkpoints(), seed=1)
        c = generate_survey(self.pairs(), self.checkpoints(), seed=2)
        order = lambda s: [(p.head, p.dependent) for p in s.questions]
        assert order(a) == order(b)
        assert order(a) != order(c)

    def test_wrong_pair_count(self):
        with pytest.raises(AnnotationError):
            generate_survey(self.pairs()[:99], self.checkpoints(), seed=1)

    def test_mixed_relations_rejected(self):
        bad = self.pairs()[:99] + [SPPair(SPRelation.AMOD, "sky", "blue")]
        with pytest.raises(AnnotationError,
                           match=r"^survey mixes relations: \['amod', 'dobj'\]$"):
            generate_survey(bad, self.checkpoints(), seed=1)

    def test_json_export(self):
        s = generate_survey(self.pairs(), self.checkpoints(), seed=1)
        doc = s.to_dict()
        assert doc["relation"] == "dobj"
        assert len(doc["questions"]) == 103
        assert doc["questions"][0]["index"] == 1
        assert "options" in doc and len(doc["options"]) == 5


class TestFilter:
    def test_checkpoint_failure_drops_annotator(self):
        rows = [
            rating("a1", R, "eat", "meal", 5, expected={4, 5}),
            rating("a1", R, "v1", "n1", 3),
            rating("a2", R, "eat", "meal", 2, expected={4, 5}),
            rating("a2", R, "v1", "n1", 4),
        ]
        kept, rejected = filter_annotations(rows)
        assert {r.annotator_id for r in kept} == {"a1"}
        assert len(rejected) == 1
        assert rejected[0].annotator_id == "a2"
        assert "checkpoint" in rejected[0].reason

    def test_zero_variance_drops_annotator(self):
        rows = [rating("flat", R, f"v{i}", f"n{i}", 3) for i in range(10)]
        rows += [rating("ok", R, f"v{i}", f"n{i}", (i % 5) + 1) for i in range(10)]
        kept, rejected = filter_annotations(rows)
        assert {r.annotator_id for r in kept} == {"ok"}
        assert rejected[0].annotator_id == "flat"
        assert "variance" in rejected[0].reason

    def test_single_rating_not_flagged_as_flat(self):
        rows = [rating("solo", R, "v1", "n1", 3)]
        kept, rejected = filter_annotations(rows)
        assert len(kept) == 1
        assert not rejected

    def test_empty_input(self):
        kept, rejected = filter_annotations([])
        assert kept == [] and rejected == []

    def test_idempotent(self):
        rng = random.Random(4)
        rows = []
        for a in range(6):
            ok_cp = rng.random() < 0.7
            rows.append(rating(f"a{a}", R, "eat", "meal",
                               5 if ok_cp else 1, expected={4, 5}))
            for i in range(8):
                rows.append(rating(f"a{a}", R, f"v{i}", f"n{i}", rng.randint(1, 5)))
        once, rej1 = filter_annotations(rows)
        twice, rej2 = filter_annotations(once)
        assert once == twice
        assert rej2 == []


class TestAggregate:
    def test_endpoints(self):
        rows = [rating(f"a{i}", R, "eat", "meal", 5) for i in range(10)]
        rows += [rating(f"a{i}", R, "eat", "rock", 1) for i in range(10)]
        scores, under = aggregate(rows)
        assert scores[SPPair(R, "eat", "meal")] == 10.0
        assert scores[SPPair(R, "eat", "rock")] == 0.0
        assert not under

    def test_midpoint(self):
        assert scale_rating_mean(3.0) == 5.0
        assert scale_rating_mean(1.0) == 0.0
        assert scale_rating_mean(5.0) == 10.0

    def test_mixed_ratings(self):
        values = [5, 5, 5, 5, 5, 4, 4, 4, 4, 4]
        rows = [rating(f"a{i}", R, "eat", "soup", v) for i, v in enumerate(values)]
        scores, _ = aggregate(rows)
        assert scores[SPPair(R, "eat", "soup")] == pytest.approx(8.75)

    def test_threshold(self):
        rows = [rating(f"a{i}", R, "eat", "soup", 4) for i in range(9)]
        scores, under = aggregate(rows, min_ratings=10)
        assert not scores
        assert under[SPPair(R, "eat", "soup")] == 9

    def test_negative_min_ratings_raises(self):
        rows = [rating(f"a{i}", R, "eat", "soup", 4) for i in range(3)]
        for bad in (-1, -5):
            with pytest.raises(AnnotationError,
                               match=rf"^min_ratings must be >= 0, got {bad}$"):
                aggregate(rows, min_ratings=bad)
        assert aggregate(rows, min_ratings=0)[0] == {SPPair(R, "eat", "soup"): 7.5}

    def test_checkpoints_excluded(self):
        rows = [rating(f"a{i}", R, "eat", "meal", 5, expected={4, 5})
                for i in range(10)]
        scores, under = aggregate(rows)
        assert not scores and not under

    def test_order_preserving(self):
        rng = random.Random(8)
        for _ in range(30):
            m1 = rng.uniform(1, 5)
            m2 = rng.uniform(1, 5)
            if m1 == m2:
                continue
            assert (m1 < m2) == (scale_rating_mean(m1) < scale_rating_mean(m2))

    def test_range(self):
        rng = random.Random(12)
        rows = []
        for i in range(40):
            for a in range(10):
                rows.append(rating(f"a{a}", R, f"v{i}", f"n{i}", rng.randint(1, 5)))
        scores, _ = aggregate(rows)
        assert all(0.0 <= v <= 10.0 for v in scores.values())


def iaa_oracle(tables):
    """Brute-force leave-one-out agreement, recomputed from scratch with
    its own rank arithmetic."""

    def ranks(v):
        return [
            sum(1 for o in v if o < x) + (sum(1 for o in v if o == x) + 1) / 2
            for x in v
        ]

    def rho(a, b):
        ra, rb = ranks(a), ranks(b)
        ma = sum(ra) / len(ra)
        mb = sum(rb) / len(rb)
        num = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
        den = math.sqrt(sum((x - ma) ** 2 for x in ra)) * math.sqrt(
            sum((y - mb) ** 2 for y in rb)
        )
        return num / den

    rhos = []
    for ann in tables:
        mine, others_mean = [], []
        for pair in tables[ann]:
            others = [tables[o][pair] for o in tables if o != ann and pair in tables[o]]
            if others:
                mine.append(tables[ann][pair])
                others_mean.append(sum(others) / len(others))
        rhos.append(rho(mine, others_mean))
    return sum(rhos) / len(rhos)


class TestIAA:
    def test_identical_annotators(self):
        rows = []
        for a in range(4):
            for i, v in enumerate([1, 3, 5, 2, 4]):
                rows.append(rating(f"a{a}", R, f"v{i}", f"n{i}", v))
        per_rel, overall = iaa(rows)
        assert per_rel[R] == pytest.approx(1.0)
        assert overall == pytest.approx(1.0)

    def test_three_annotators_match_oracle(self):
        grids = [
            [5, 4, 3, 2, 1],
            [4, 5, 2, 3, 1],
            [5, 3, 4, 1, 2],
        ]
        rows = []
        tables = {}
        for a, grid in enumerate(grids):
            tables[f"a{a}"] = {}
            for i, v in enumerate(grid):
                rows.append(rating(f"a{a}", R, f"v{i}", f"n{i}", v))
                tables[f"a{a}"][SPPair(R, f"v{i}", f"n{i}")] = v
        per_rel, overall = iaa(rows)
        assert per_rel[R] == pytest.approx(iaa_oracle(tables), abs=1e-9)
        assert overall == pytest.approx(iaa_oracle(tables), abs=1e-9)

    def test_random_populations_match_oracle(self):
        rng = random.Random(21)
        for trial in range(25):
            n_ann = rng.randint(2, 6)
            n_pairs = rng.randint(3, 12)
            rows, tables = [], {}
            retry = False
            for a in range(n_ann):
                grid = [rng.randint(1, 5) for _ in range(n_pairs)]
                if len(set(grid)) < 2:
                    retry = True
                    break
                tables[f"a{a}"] = {}
                for i, v in enumerate(grid):
                    rows.append(rating(f"a{a}", R, f"v{i}", f"n{i}", v))
                    tables[f"a{a}"][SPPair(R, f"v{i}", f"n{i}")] = v
            if retry:
                continue
            try:
                per_rel, _ = iaa(rows)
            except AnnotationError:
                continue  # rest-average can still be constant
            assert per_rel[R] == pytest.approx(iaa_oracle(tables), abs=1e-9)

    def test_overall_is_mean_of_relations(self):
        rows = []
        for a in range(3):
            for i, v in enumerate([5, 4, 1, 2]):
                rows.append(rating(f"a{a}", R, f"v{i}", f"n{i}", v))
            for i, v in enumerate([1, 2, 4, 5]):
                rows.append(rating(f"a{a}", SPRelation.AMOD, f"h{i}", f"m{i}", v))
        per_rel, overall = iaa(rows)
        assert overall == pytest.approx(
            (per_rel[R] + per_rel[SPRelation.AMOD]) / 2
        )

    def test_single_annotator_rejected(self):
        rows = [rating("solo", R, f"v{i}", f"n{i}", i % 5 + 1) for i in range(5)]
        with pytest.raises(AnnotationError):
            iaa(rows)

    def test_insufficient_shared_pairs(self):
        rows = [
            rating("a1", R, "v1", "n1", 3),
            rating("a1", R, "v2", "n2", 4),
            rating("a2", R, "v9", "n9", 3),
            rating("a2", R, "v8", "n8", 4),
        ]
        with pytest.raises(AnnotationError):
            iaa(rows)


class TestRatingsIO:
    def test_roundtrip(self):
        rows = [
            rating("a1", R, "eat", "meal", 5, expected={4, 5}),
            rating("a1", R, "v1", "n1", 3),
            rating("a2", SPRelation.NSUBJ_AMOD, "smile", "friendly", 4),
        ]
        text = "annotator_id,relation,head,dependent,rating,is_checkpoint,expected\n" + "".join(
            f"{r.annotator_id},{r.pair.relation},{r.pair.head},{r.pair.dependent},{r.rating},"
            f"{int(r.is_checkpoint)},{'|'.join(map(str, sorted(r.expected or ())))}\n"
            for r in rows)
        assert read_ratings(io.StringIO(text)) == rows

    def test_bad_header(self):
        with pytest.raises(AnnotationError):
            read_ratings(io.StringIO("nope,nope\n"))

    def test_bad_rating_value(self):
        buf = io.StringIO(
            "annotator_id,relation,head,dependent,rating,is_checkpoint,expected\n"
            "a1,dobj,eat,meal,9,0,\n"
        )
        with pytest.raises(AnnotationError) as exc:
            read_ratings(buf, source="r.csv")
        assert "r.csv:2" in str(exc.value)


def test_rawrating_validation():
    with pytest.raises(AnnotationError):
        rating("a", R, "x", "y", 6)
    # a rating is a checkpoint exactly when it has expected answers
    assert rating("a", R, "x", "y", 3, expected={3}).is_checkpoint
    assert not rating("a", R, "x", "y", 3).is_checkpoint


def test_ratings_retain_at_most_128_bytes_each():
    # 20 surveys of 100 pairs, each rated by its own 12 annotators, so every
    # pair text and annotator id repeats, as in a crowd survey
    rng = random.Random(7)
    rows = []
    for survey in range(20):
        pairs = [(f"verb{rng.randrange(500)}", f"noun{rng.randrange(1500)}") for _ in range(100)]
        for ann in range(12):
            rows += [f"worker-{survey:02d}-{ann:02d},dobj,{h},{d},{rng.randint(1, 5)},0,"
                     for h, d in pairs]
    fh = io.StringIO(",".join(RATINGS_COLUMNS) + "\n" + "\n".join(rows) + "\n")
    tracemalloc.start()
    try:
        ratings = read_ratings(fh, "r.csv")
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ratings) == 24_000
    assert retained / len(ratings) <= 128, retained / len(ratings)
