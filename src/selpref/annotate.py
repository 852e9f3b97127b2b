"""Crowd-annotation pipeline: survey generation, annotator filtering,
rating aggregation onto the 0-10 plausibility scale, and leave-one-out
inter-annotator agreement."""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, TextIO

from .core import SelPrefError, SPPair, SPRelation, _clip, _pair, _parsed_rows, _shown
from .evaluation import ConstantInputError, spearman


class AnnotationError(SelPrefError, ValueError):
    pass


class MixedRelationError(AnnotationError):
    pass


class InsufficientOverlapError(AnnotationError):
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

QUESTION_TEMPLATES = {
    SPRelation.DOBJ: (
        "How suitable do you think it is if we use {dependent} as the "
        "object of the verb {head}?"
    ),
    SPRelation.NSUBJ: (
        "How suitable do you think it is if we use {dependent} as the "
        "subject of the verb {head}?"
    ),
    SPRelation.AMOD: (
        "How suitable do you think it is if we use {dependent} to "
        "describe the noun {head}?"
    ),
    SPRelation.DOBJ_AMOD: (
        "How suitable do you think it is if we use {dependent} to "
        "describe the object of the verb {head}?"
    ),
    SPRelation.NSUBJ_AMOD: (
        "How suitable do you think it is if we use {dependent} to "
        "describe the subject of the verb {head}?"
    ),
}

PAIRS_PER_SURVEY = 100
CHECKPOINTS_PER_SURVEY = 3


def render_question(pair: SPPair) -> str:
    return QUESTION_TEMPLATES[pair.relation].format(
        head=pair.head, dependent=pair.dependent
    )


@dataclass(frozen=True)
class SurveyQuestion:
    pair: SPPair
    expected: Optional[frozenset[int]] = None  # accepted checkpoint answers

    @property
    def text(self) -> str:
        return render_question(self.pair)

    @property
    def is_checkpoint(self) -> bool:
        return self.expected is not None


@dataclass
class Survey:
    """The questions of one relation, as generate_survey builds them."""

    relation: SPRelation
    questions: list[SurveyQuestion]

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
                    "relation": q.pair.relation.value,
                    "head": q.pair.head,
                    "dependent": q.pair.dependent,
                    "text": q.text,
                }
                for i, q in enumerate(self.questions)
            ],
        }


def generate_survey(
    pairs: list[SPPair],
    checkpoints: list[tuple[SPPair, frozenset[int]]],
    seed: int = 0,
) -> Survey:
    """Build one 103-question survey: 100 pairs plus 3 checkpoints with
    known acceptable answers, in seeded shuffled order."""
    if len(pairs) != PAIRS_PER_SURVEY:
        raise AnnotationError(f"need exactly {PAIRS_PER_SURVEY} pairs, got {len(pairs)}")
    if len(checkpoints) != CHECKPOINTS_PER_SURVEY:
        raise AnnotationError(
            f"need exactly {CHECKPOINTS_PER_SURVEY} checkpoints, got {len(checkpoints)}"
        )
    relations = {p.relation for p in pairs} | {p.relation for p, _ in checkpoints}
    if len(relations) != 1:
        raise MixedRelationError(f"survey mixes relations: {sorted(r.value for r in relations)}")
    (relation,) = relations
    for _, expected in checkpoints:
        if not expected or not all(RATING_MIN <= e <= RATING_MAX for e in expected):
            raise AnnotationError(f"bad checkpoint expected set: {sorted(expected)}")

    questions = [SurveyQuestion(p) for p in pairs] + [
        SurveyQuestion(p, frozenset(expected)) for p, expected in checkpoints
    ]
    random.Random(seed).shuffle(questions)
    return Survey(relation=relation, questions=questions)


@dataclass(frozen=True)
class RawRating:
    annotator_id: str
    pair: SPPair
    rating: int
    is_checkpoint: bool = False
    expected: Optional[frozenset[int]] = None

    def __post_init__(self):
        if not (RATING_MIN <= self.rating <= RATING_MAX):
            raise AnnotationError(f"rating {_shown(str(self.rating))} outside [1,5]")
        if self.is_checkpoint and not self.expected:
            raise AnnotationError("checkpoint rating without expected answers")
        if not self.is_checkpoint and self.expected:
            raise AnnotationError("expected answers on a non-checkpoint rating")


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
        shared = [(mine[pair], (total[pair] - mine[pair]) / (count[pair] - 1))
                  for pair in sorted(mine) if count[pair] > 1]
        if len(shared) < 2:
            raise InsufficientOverlapError(
                f"annotator {_clip(ann_id)} shares fewer than 2 pairs with the rest"
            )
        try:
            rhos.append(spearman([a for a, _ in shared], [b for _, b in shared]))
        except ConstantInputError as err:
            raise InsufficientOverlapError(f"annotator {_clip(ann_id)}: {err}") from None
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
        raise InsufficientOverlapError("no non-checkpoint ratings")
    per_relation = {}
    for rel in sorted(by_rel):
        annotators = by_rel[rel]
        if len(annotators) < 2:
            raise InsufficientOverlapError(
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


def write_ratings(ratings: Iterable[RawRating], fh: TextIO) -> None:
    writer = csv.writer(fh)
    writer.writerow(RATINGS_COLUMNS)
    for r in ratings:
        writer.writerow([
            r.annotator_id,
            r.pair.relation.value,
            r.pair.head,
            r.pair.dependent,
            r.rating,
            "1" if r.is_checkpoint else "0",
            "|".join(str(e) for e in sorted(r.expected)) if r.expected else "",
        ])


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
    """The located rows of a survey input, each led by a pair of ``relation``."""
    out = []
    for lineno, row in rows:
        relation = relation or row[0].relation
        if row[0].relation is not relation:
            raise MixedRelationError(f"{source}:{lineno}: {kind} relation "
                                     f"{row[0].relation}, survey relation {relation}")
        out.append(row)
    if need is not None and len(out) != need:
        raise AnnotationError(f"{source}: need exactly {need} {kind}s, got {len(out)}")
    return out


def read_ratings(fh: TextIO, source: str = "<stream>") -> list[RawRating]:
    """Read write_ratings' CSV; an error names the line its row ends on."""
    reader = csv.reader(fh)
    out = []
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
            ann_id, _, _, _, rating, is_cp, expected = row
            try:
                out.append(RawRating(
                    annotator_id=ann_id,
                    pair=_pair(row[1:4]),
                    rating=int(rating),
                    is_checkpoint=is_cp == "1",
                    expected=parse_rating_set(expected) if expected else None,
                ))
            except SelPrefError as err:
                raise AnnotationError(f"{source}:{reader.line_num}: {err}") from None
            except ValueError:  # only int() raises a bare one
                raise AnnotationError(
                    f"{source}:{reader.line_num}: bad rating {_clip(rating)}") from None
    except csv.Error as err:
        raise AnnotationError(f"{source}:{reader.line_num}: {err}") from None
    return out
