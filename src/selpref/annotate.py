"""Crowd-annotation pipeline: survey generation, annotator filtering,
rating aggregation onto the 0-10 plausibility scale, and leave-one-out
inter-annotator agreement."""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, TextIO

from .core import SelPrefError, SPPair, SPRelation, _clip, _pair, _parsed_rows, _shown
from .evaluation import ConstantInputError, spearman


class AnnotationError(SelPrefError):
    pass


RATING_MIN = 1
RATING_MAX = 5

RATING_OPTIONS = [
    (5, "Perfectly match"),
    (4, "Make sense"),
    (3, "Normal"),
    (2, "Seems weird"),
    (1, "It's not applicable at all"),
]

# how a survey question puts the dependent to the head, per relation
_ROLES = {
    SPRelation.DOBJ: "as the object of the verb",
    SPRelation.NSUBJ: "as the subject of the verb",
    SPRelation.AMOD: "to describe the noun",
    SPRelation.DOBJ_AMOD: "to describe the object of the verb",
    SPRelation.NSUBJ_AMOD: "to describe the subject of the verb",
}

PAIRS_PER_SURVEY = 100
CHECKPOINTS_PER_SURVEY = 3


def render_question(pair: SPPair) -> str:
    return (f"How suitable do you think it is if we use {pair.dependent} "
            f"{_ROLES[pair.relation]} {pair.head}?")


@dataclass
class Survey:
    """The questions of one relation, as generate_survey builds them."""

    relation: SPRelation
    questions: list[SPPair]

    def to_dict(self) -> dict:
        return {
            "relation": self.relation.value,
            "instructions": (
                "Rate how suitable each word combination is. Select one "
                "option per question."
            ),
            "options": [{"rating": r, "label": l} for r, l in RATING_OPTIONS],
            "example": {
                "question": render_question(
                    SPPair(SPRelation.DOBJ, "eat", "meal")
                ),
                "answer": "Perfectly match (5)",
            },
            "questions": [
                {
                    "index": i + 1,
                    "relation": p.relation.value,
                    "head": p.head,
                    "dependent": p.dependent,
                    "text": render_question(p),
                }
                for i, p in enumerate(self.questions)
            ],
        }


def generate_survey(pairs: list[SPPair], checkpoints: list[SPPair], seed: int = 0) -> Survey:
    """Build one 103-question survey: 100 pairs plus 3 checkpoints, in
    seeded shuffled order. The survey never shows a checkpoint's accepted
    answers, so they stay with read_checkpoints, which checks them."""
    if len(pairs) != PAIRS_PER_SURVEY:
        raise AnnotationError(f"need exactly {PAIRS_PER_SURVEY} pairs, got {len(pairs)}")
    if len(checkpoints) != CHECKPOINTS_PER_SURVEY:
        raise AnnotationError(
            f"need exactly {CHECKPOINTS_PER_SURVEY} checkpoints, got {len(checkpoints)}"
        )
    questions = pairs + checkpoints
    relations = {p.relation for p in questions}
    if len(relations) != 1:
        raise AnnotationError(f"survey mixes relations: {sorted(r.value for r in relations)}")
    (relation,) = relations
    random.Random(seed).shuffle(questions)
    return Survey(relation=relation, questions=questions)


@dataclass(frozen=True, slots=True)
class RawRating:
    annotator_id: str
    pair: SPPair
    rating: int
    expected: Optional[frozenset[int]] = None  # accepted checkpoint answers

    def __post_init__(self):
        if not (RATING_MIN <= self.rating <= RATING_MAX):
            raise AnnotationError(f"rating {_shown(str(self.rating))} outside [1,5]")

    @property
    def is_checkpoint(self) -> bool:
        return self.expected is not None


@dataclass
class Rejection:
    annotator_id: str
    reason: str


def filter_annotations(
    ratings: list[RawRating],
) -> tuple[list[RawRating], list[Rejection]]:
    """Drop every rating from annotators who failed a checkpoint or rated
    every question identically (zero variance)."""
    by_annotator: dict[str, list[RawRating]] = {}
    for r in ratings:
        by_annotator.setdefault(r.annotator_id, []).append(r)

    kept: list[RawRating] = []
    rejected: list[Rejection] = []
    for ann_id in sorted(by_annotator):
        rows = by_annotator[ann_id]
        reason = None
        for r in rows:
            if r.is_checkpoint and r.rating not in r.expected:
                reason = (
                    f"checkpoint failed: rated ({r.pair.head}, "
                    f"{r.pair.dependent}) as {r.rating}, expected one of "
                    f"{sorted(r.expected)}"
                )
                break
        if reason is None and len({r.rating for r in rows}) == 1 and len(rows) > 1:
            reason = f"zero rating variance across {len(rows)} questions"
        if reason is None:
            kept.extend(rows)
        else:
            rejected.append(Rejection(ann_id, reason))
    return kept, rejected


def aggregate(
    kept: list[RawRating], min_ratings: int = 10
) -> tuple[dict[SPPair, float], dict[SPPair, int]]:
    """Mean rating per pair mapped onto [0,10] by scale_rating_mean.

    Checkpoint answers never enter the aggregate. Pairs with fewer than
    min_ratings ratings come back in the second map (pair -> how many it
    got) instead of being scored.
    """
    if min_ratings < 0:
        raise AnnotationError(f"min_ratings must be >= 0, got {_shown(str(min_ratings))}")
    sums: dict[SPPair, float] = {}
    counts: dict[SPPair, int] = {}
    for r in kept:
        if r.is_checkpoint:
            continue
        sums[r.pair] = sums.get(r.pair, 0.0) + r.rating
        counts[r.pair] = counts.get(r.pair, 0) + 1
    scores = {}
    underrated = {}
    for pair, n in counts.items():
        if n >= min_ratings:
            scores[pair] = scale_rating_mean(sums[pair] / n)
        else:
            underrated[pair] = n
    return scores, underrated


def scale_rating_mean(mean: float) -> float:
    """The 1-5 to 0-10 affine map used by aggregate."""
    return (mean - 1.0) * 2.5


def _leave_one_out(by_annotator: dict[str, dict[SPPair, float]]) -> list[float]:
    """Each annotator's Spearman against the others' mean rating of the
    pairs they share. The others' mean is taken off one sum per pair;
    ratings are small integers, so the sums are exact."""
    total: Counter[SPPair] = Counter()
    count: Counter[SPPair] = Counter()
    for table in by_annotator.values():
        total.update(table)
        count.update(table.keys())
    rhos = []
    for ann_id in sorted(by_annotator):
        mine = by_annotator[ann_id]
        # in table order: the ranks and fsum of spearman do not see the order
        shared = [(mine[pair], (total[pair] - mine[pair]) / (count[pair] - 1))
                  for pair in mine if count[pair] > 1]
        if len(shared) < 2:
            raise AnnotationError(
                f"annotator {_clip(ann_id)} shares fewer than 2 pairs with the rest"
            )
        try:
            rhos.append(spearman([a for a, _ in shared], [b for _, b in shared]))
        except ConstantInputError as err:
            raise AnnotationError(f"annotator {_clip(ann_id)}: {err}") from None
    return rhos


def iaa(kept: list[RawRating]) -> tuple[dict[SPRelation, float], float]:
    """Leave-one-out agreement: each annotator's Spearman against the mean
    of everyone else, averaged per relation; overall = mean of the
    per-relation values."""
    by_rel: dict[SPRelation, dict[str, dict[SPPair, float]]] = {}
    for r in kept:
        if r.is_checkpoint:
            continue
        by_rel.setdefault(r.pair.relation, {}).setdefault(
            r.annotator_id, {}
        )[r.pair] = float(r.rating)
    if not by_rel:
        raise AnnotationError("no non-checkpoint ratings")
    per_relation = {}
    for rel in sorted(by_rel):
        annotators = by_rel[rel]
        if len(annotators) < 2:
            raise AnnotationError(
                f"{rel.value}: need at least 2 annotators, got {len(annotators)}"
            )
        rhos = _leave_one_out(annotators)
        per_relation[rel] = sum(rhos) / len(rhos)
    overall = sum(per_relation.values()) / len(per_relation)
    return per_relation, overall


RATINGS_COLUMNS = [
    "annotator_id", "relation", "head", "dependent",
    "rating", "is_checkpoint", "expected",
]


def parse_rating_set(text: str) -> frozenset[int]:
    """A |-joined set of ratings, as a checkpoint's expected answers."""
    try:
        ratings = frozenset(int(v) for v in text.split("|"))
    except ValueError:
        ratings = frozenset()
    if not ratings or not all(RATING_MIN <= r <= RATING_MAX for r in ratings):
        raise AnnotationError(f"bad expected ratings {_clip(text)}")
    return ratings


def read_survey_pairs(fh: TextIO, source: str = "<stream>") -> list[SPPair]:
    """A survey's pair list (extra columns ignored), all of the first row's relation."""
    rows = _parsed_rows(fh, source, 3, AnnotationError, lambda f: (_pair(f),), extra=True)
    return [pair for pair, in _of_relation(rows, source, None, "pair")]


def read_checkpoints(fh: TextIO, source: str = "<stream>", relation: Optional[SPRelation] = None
                     ) -> list[tuple[SPPair, frozenset[int]]]:
    """A survey's CHECKPOINTS_PER_SURVEY rows of pair and |-joined expected
    ratings, all of ``relation`` (the first row's when None)."""
    rows = _parsed_rows(fh, source, 4, AnnotationError,
                        lambda f: (_pair(f), parse_rating_set(f[3])))
    return _of_relation(rows, source, relation, "checkpoint", CHECKPOINTS_PER_SURVEY)


def _of_relation(rows, source, relation, kind: str, need: Optional[int] = None) -> list[tuple]:
    """The located rows of a survey input, each led by a pair of
    ``relation`` that no earlier row gave."""
    out: dict[SPPair, tuple] = {}
    for lineno, row in rows:
        pair = row[0]
        relation = relation or pair.relation
        if pair.relation is not relation:
            raise AnnotationError(f"{source}:{lineno}: {kind} relation "
                                  f"{pair.relation}, survey relation {relation}")
        if pair in out:
            raise AnnotationError(f"{source}:{lineno}: duplicate pair {pair.relation} "
                                  f"{_clip(pair.head)} {_clip(pair.dependent)}")
        out[pair] = row
    if need is not None and len(out) != need:
        raise AnnotationError(f"{source}: need exactly {need} {kind}s, got {len(out)}")
    return list(out.values())


def read_ratings(fh: TextIO, source: str = "<stream>") -> list[RawRating]:
    """Read a ratings CSV: a RATINGS_COLUMNS header, then one row per
    rating, whose is_checkpoint field is 1 exactly when its |-joined
    expected answers are given, else 0.  An error names the line its row
    ends on."""
    reader = csv.reader(fh)
    out = []
    # one pair and one annotator id per distinct text
    pairs: dict[tuple[str, str, str], SPPair] = {}
    annotators: dict[str, str] = {}
    try:
        header = next(reader, None)
        if header != RATINGS_COLUMNS:
            raise AnnotationError(f"{source}:1: bad header {_clip(','.join(header or []))}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(RATINGS_COLUMNS):
                raise AnnotationError(
                    f"{source}:{reader.line_num}: expected {len(RATINGS_COLUMNS)} "
                    f"fields, got {len(row)}"
                )
            ann_id, rel, head, dep, rating, is_cp, expected = row
            try:
                pair = pairs.get((rel, head, dep))
                if pair is None:
                    pair = pairs[rel, head, dep] = _pair(row[1:4])
                # positional: the slots dataclass builds faster than by keyword
                r = RawRating(annotators.setdefault(ann_id, ann_id), pair, int(rating),
                              parse_rating_set(expected) if expected else None)
                if is_cp not in ("0", "1"):
                    raise AnnotationError(f"bad is_checkpoint {_clip(is_cp)}")
                if r.is_checkpoint != (is_cp == "1"):
                    raise AnnotationError("expected answers on a non-checkpoint rating"
                                          if r.is_checkpoint else
                                          "checkpoint rating without expected answers")
                out.append(r)
            except SelPrefError as err:
                raise AnnotationError(f"{source}:{reader.line_num}: {err}") from None
            except ValueError:  # only int() raises a bare one
                raise AnnotationError(
                    f"{source}:{reader.line_num}: bad rating {_clip(rating)}") from None
    except csv.Error as err:
        raise AnnotationError(f"{source}:{reader.line_num}: {err}") from None
    return out
