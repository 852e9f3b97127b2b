import io
import json
import random

import pytest

from selpref.core import SPPair, SPRelation
from selpref.scorers import LookupModel
from selpref.winograd import (
    AccuracySummary,
    Mention,
    Outcome,
    WinogradError,
    WinogradQuestion,
    bundled_questions,
    load_questions,
    resolve,
    score_accuracy,
    write_predictions,
)


def make_question(gold="subject", verb="eat", adjective="hungry", qid="q1"):
    return WinogradQuestion(
        id=qid,
        sentence="The fish ate the worm. It was hungry.",
        verb=verb,
        adjective=adjective,
        candidate_subject=Mention("the fish", "fish"),
        candidate_object=Mention("the worm", "worm"),
        gold=gold,
    )


def model_with(subject_score, object_score, verb="eat", adjective="hungry"):
    table = {}
    if subject_score is not None:
        table[SPPair(SPRelation.NSUBJ_AMOD, verb, adjective)] = subject_score
    if object_score is not None:
        table[SPPair(SPRelation.DOBJ_AMOD, verb, adjective)] = object_score
    return LookupModel(table)


# accuracy arithmetic

def test_precision_and_overall_accuracy_rows():
    # each row: counts in, expected percentages out, checked to 0.1 points
    rows = [
        ((33, 35, 4), 48.5, 48.6),
        ((36, 36, 0), 50.0, 50.0),
        ((36, 19, 17), 65.5, 61.8),
        ((13, 0, 59), 100.0, 59.0),
    ]
    for (c, w, na), ap_pct, ao_pct in rows:
        s = AccuracySummary(correct=c, wrong=w, na=na)
        assert s.total == 72
        assert abs(s.ap * 100.0 - ap_pct) < 0.1
        assert abs(s.ao * 100.0 - ao_pct) < 0.1


def test_precision_undefined_when_nothing_answered():
    s = AccuracySummary(correct=0, wrong=0, na=10)
    assert s.ap is None
    assert s.ao == 0.5
    assert s.to_dict()["ap"] is None


def test_all_answered_all_correct():
    s = AccuracySummary(correct=5, wrong=0, na=0)
    assert s.ap == 1.0
    assert s.ao == 1.0


# resolution

def test_resolve_picks_strictly_higher_subject():
    p = resolve(make_question(gold="subject"), model_with(8.0, 3.0))
    assert p.outcome is Outcome.CORRECT
    assert p.predicted == "subject"
    assert p.subject_score == 8.0 and p.object_score == 3.0


def test_resolve_wrong_when_gold_is_other_role():
    p = resolve(make_question(gold="object"), model_with(8.0, 3.0))
    assert p.outcome is Outcome.WRONG
    assert p.predicted == "subject"


def test_resolve_tie_abstains():
    p = resolve(make_question(), model_with(5.0, 5.0))
    assert p.outcome is Outcome.NA
    assert p.predicted is None


def test_resolve_missing_subject_score_abstains():
    p = resolve(make_question(), model_with(None, 3.0))
    assert p.outcome is Outcome.NA
    assert p.subject_score is None and p.object_score == 3.0


def test_resolve_missing_object_score_abstains():
    p = resolve(make_question(), model_with(4.0, None))
    assert p.outcome is Outcome.NA


def test_relabeling_symmetry():
    # swapping the roles of the candidates, the gold label, and the two
    # relation scores must leave the outcome unchanged
    rng = random.Random(20260819)
    for _ in range(200):
        s = rng.choice([None, rng.uniform(0, 10)])
        o = rng.choice([None, rng.uniform(0, 10)])
        gold = rng.choice(["subject", "object"])
        mirror_gold = "object" if gold == "subject" else "subject"
        p = resolve(make_question(gold=gold), model_with(s, o))
        q = resolve(make_question(gold=mirror_gold), model_with(o, s))
        assert p.outcome is q.outcome


def test_outcome_matches_argmax_property():
    rng = random.Random(99)
    for _ in range(300):
        s = rng.choice([None, round(rng.uniform(0, 10), 2)])
        o = rng.choice([None, round(rng.uniform(0, 10), 2)])
        gold = rng.choice(["subject", "object"])
        p = resolve(make_question(gold=gold), model_with(s, o))
        if s is None or o is None or s == o:
            assert p.outcome is Outcome.NA
        else:
            want = "subject" if s > o else "object"
            assert p.predicted == want
            assert (p.outcome is Outcome.CORRECT) == (want == gold)


def test_question_validation():
    with pytest.raises(WinogradError):
        make_question(gold="neither")
    with pytest.raises(WinogradError):
        WinogradQuestion(
            id="x", sentence="s", verb="v", adjective="a",
            candidate_subject=Mention("the cat", "cat"),
            candidate_object=Mention("that cat", "cat"),
            gold="subject",
        )
    with pytest.raises(WinogradError):
        Mention("", "cat")


def test_score_accuracy_counts():
    qs = [make_question(qid=f"q{i}") for i in range(4)]
    model = model_with(8.0, 3.0)
    preds = [resolve(q, model) for q in qs[:2]]
    preds += [resolve(make_question(gold="object", qid="w"), model)]
    preds += [resolve(make_question(qid="n"), model_with(None, None))]
    s = score_accuracy(preds)
    assert (s.correct, s.wrong, s.na) == (2, 1, 1)


def test_score_accuracy_rejects_empty():
    with pytest.raises(WinogradError):
        score_accuracy([])


# bundled data

def test_bundled_questions_ids_and_shape():
    qs = bundled_questions()
    assert len(qs) == 72
    ids = sorted(int(q.id) for q in qs)
    assert ids == sorted([
        3, 4, 7, 8, 15, 16, 19, 20, 35, 36, 39, 40, 43, 44, 45, 46,
        51, 52, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 87, 88, 89, 90,
        97, 98, 107, 108, 109, 110, 111, 112, 119, 120, 131, 132,
        147, 148, 150, 153, 154, 157, 158, 171, 172, 179, 180,
        185, 186, 199, 200, 227, 228, 247, 248, 251, 252, 256, 257,
        262, 263, 265, 282, 284,
    ])
    golds = {q.gold for q in qs}
    assert golds == {"subject", "object"}
    for q in qs:
        assert q.sentence and q.verb and q.adjective


def test_bundled_questions_solved_by_gold_informed_scoring():
    # a scorer that ranks the gold role's pair higher answers every
    # question, and never wrongly
    for q in bundled_questions():
        hi, lo = (9.0, 1.0) if q.gold == "subject" else (1.0, 9.0)
        p = resolve(q, model_with(hi, lo, verb=q.verb, adjective=q.adjective))
        assert p.outcome is Outcome.CORRECT, q.id


def test_bundled_partial_knowledge_yields_na_not_wrong():
    qs = bundled_questions()
    model = LookupModel({})
    preds = [resolve(q, model) for q in qs]
    s = score_accuracy(preds)
    assert (s.correct, s.wrong, s.na) == (0, 0, 72)
    assert s.ap is None
    assert s.ao == 0.5


# serialization

def test_load_questions_rejects_wrong_schema_version():
    doc = {"schema_version": 99, "questions": []}
    with pytest.raises(WinogradError):
        load_questions(io.StringIO(json.dumps(doc)))


def test_load_questions_rejects_duplicate_ids():
    rec = {
        "id": "1", "sentence": "s", "verb": "v", "adjective": "a",
        "candidate_subject": {"surface": "a cat", "lemma": "cat"},
        "candidate_object": {"surface": "a dog", "lemma": "dog"},
        "gold": "subject",
    }
    doc = {"schema_version": 1, "questions": [rec, dict(rec)]}
    with pytest.raises(WinogradError, match="duplicate"):
        load_questions(io.StringIO(json.dumps(doc)))


def test_load_questions_rejects_missing_field():
    rec = {
        "id": "1", "sentence": "s", "verb": "v",
        "candidate_subject": {"surface": "a cat", "lemma": "cat"},
        "candidate_object": {"surface": "a dog", "lemma": "dog"},
        "gold": "subject",
    }
    doc = {"schema_version": 1, "questions": [rec]}
    with pytest.raises(WinogradError, match="#0"):
        load_questions(io.StringIO(json.dumps(doc)))


def test_predictions_csv_roundtrippable_fields():
    model = model_with(8.0, 3.0)
    preds = [
        resolve(make_question(qid="a"), model),
        resolve(make_question(qid="b"), model_with(None, 3.0)),
    ]
    buf = io.StringIO()
    write_predictions(preds, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("question_id,")
    assert lines[1].split(",")[:2] == ["a", "subject"]
    na_row = lines[2].split(",")
    assert na_row[2] == "" and na_row[5] == "na"


def test_summary_json_is_stable():
    s = score_accuracy([resolve(make_question(), model_with(8.0, 3.0))])
    doc = s.to_dict()
    assert doc["correct"] == 1
    assert doc["ao"] == 1.0
