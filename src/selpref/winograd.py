"""Pronoun resolution for adjective-predicate schema questions.

Each question has a verb, two candidates filling its subject and object
roles, and an adjective describing the ambiguous pronoun. The resolver
compares the plausibility of the adjective describing the verb's subject
(nsubj_amod) against its object (dobj_amod) and picks the strictly
higher side; missing knowledge or a tie means no prediction.
"""

from __future__ import annotations

import csv
import enum
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, TextIO

from .core import (SCHEMA_VERSION, SelPrefError, SPPair, SPRelation, _check_lemma, _load_json,
                   _shown)
from .scorers import ScoreModel


SUBJECT, OBJECT = "subject", "object"


@dataclass(frozen=True)
class Mention:
    surface: str
    lemma: str

    def __post_init__(self):
        if not self.surface or not self.lemma:
            raise SelPrefError("candidate surface and lemma must be non-empty")


@dataclass(frozen=True)
class WinogradQuestion:
    id: str
    sentence: str
    verb: str
    adjective: str
    candidate_subject: Mention
    candidate_object: Mention
    gold: str
    note: str = ""

    def __post_init__(self):
        if self.gold not in (SUBJECT, OBJECT):
            raise SelPrefError(f"question {_shown(self.id)}: gold must be subject/object")
        if self.candidate_subject.lemma == self.candidate_object.lemma:
            raise SelPrefError(f"question {_shown(self.id)}: candidates must differ")
        if not (isinstance(self.verb, str) and isinstance(self.adjective, str)):
            raise SelPrefError(f"question {_shown(self.id)}: verb and adjective must be strings")
        # resolve pairs them: a lemma SPPair rejects fails here, not while scoring
        _check_lemma("verb", self.verb)
        _check_lemma("adjective", self.adjective)


class Outcome(enum.Enum):
    CORRECT = "correct"
    WRONG = "wrong"
    NA = "na"


@dataclass(frozen=True)
class Prediction:
    question_id: str
    gold: str
    subject_score: Optional[float]
    object_score: Optional[float]

    @property
    def predicted(self) -> Optional[str]:
        """The strictly higher-scoring side; None on a missing score or a tie."""
        s, o = self.subject_score, self.object_score
        if s is None or o is None or s == o:
            return None
        return SUBJECT if s > o else OBJECT

    @property
    def outcome(self) -> Outcome:
        predicted = self.predicted
        if predicted is None:
            return Outcome.NA
        return Outcome.CORRECT if predicted == self.gold else Outcome.WRONG


def resolve(q: WinogradQuestion, model: ScoreModel) -> Prediction:
    """Score the adjective against both roles of the verb; the Prediction
    answers with the strictly higher one and abstains on a missing score
    or a tie."""
    return Prediction(
        question_id=q.id,
        gold=q.gold,
        subject_score=model.score(SPPair(SPRelation.NSUBJ_AMOD, q.verb, q.adjective)),
        object_score=model.score(SPPair(SPRelation.DOBJ_AMOD, q.verb, q.adjective)),
    )


@dataclass(frozen=True)
class AccuracySummary:
    correct: int
    wrong: int
    na: int

    @property
    def total(self) -> int:
        return self.correct + self.wrong + self.na

    @property
    def ap(self) -> Optional[float]:
        """Precision over answered questions; None when nothing was answered."""
        answered = self.correct + self.wrong
        if answered == 0:
            return None
        return self.correct / answered

    @property
    def ao(self) -> float:
        """Overall accuracy with unanswered questions credited at chance."""
        return (self.correct + self.na / 2.0) / self.total

    def to_dict(self) -> dict:
        return {**asdict(self), "total": self.total, "ap": self.ap, "ao": self.ao}


def score_accuracy(predictions: Iterable[Prediction]) -> AccuracySummary:
    counts = Counter(p.outcome for p in predictions)
    if not counts:
        raise SelPrefError("no predictions to score")
    return AccuracySummary(correct=counts[Outcome.CORRECT], wrong=counts[Outcome.WRONG],
                           na=counts[Outcome.NA])


def load_questions(fh: TextIO, source: str = "<stream>") -> list[WinogradQuestion]:
    doc = _load_json(fh, source)
    if not (isinstance(doc, dict) and isinstance(doc.get("questions"), list)
            and doc["questions"]):
        raise SelPrefError(f"{source}: expected an object with a non-empty questions array")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # True == 1.0 == 1
        raise SelPrefError(f"{source}: unsupported schema_version "
                           f"{_shown(repr(version))}")
    out: dict[str, WinogradQuestion] = {}
    for i, rec in enumerate(doc["questions"]):
        try:
            q = WinogradQuestion(
                id=str(rec["id"]),
                sentence=rec["sentence"],
                verb=rec["verb"],
                adjective=rec["adjective"],
                candidate_subject=Mention(rec["candidate_subject"]["surface"],
                                          rec["candidate_subject"]["lemma"]),
                candidate_object=Mention(rec["candidate_object"]["surface"],
                                         rec["candidate_object"]["lemma"]),
                gold=rec["gold"],
                note=rec.get("note", ""),
            )
        except (KeyError, TypeError, SelPrefError) as err:
            raise SelPrefError(f"{source}: question #{i}: {err}") from None
        if q.id in out:
            raise SelPrefError(f"{source}: duplicate question id {_shown(q.id)}")
        out[q.id] = q
    return list(out.values())


def bundled_questions() -> list[WinogradQuestion]:
    """The 72 adjective-pattern schema questions shipped with the package."""
    from importlib import resources

    ref = resources.files("selpref").joinpath("data/wsc72.json")
    with ref.open(encoding="utf-8") as fh:
        return load_questions(fh, source="wsc72.json")


PREDICTION_COLUMNS = [
    "question_id", "gold", "subject_score", "object_score",
    "predicted", "outcome",
]


def write_predictions(predictions: Iterable[Prediction], fh: TextIO) -> None:
    writer = csv.writer(fh)
    writer.writerow(PREDICTION_COLUMNS)
    for p in predictions:
        writer.writerow([
            p.question_id,
            p.gold,
            "" if p.subject_score is None else repr(p.subject_score),
            "" if p.object_score is None else repr(p.object_score),
            p.predicted or "",
            p.outcome.value,
        ])
