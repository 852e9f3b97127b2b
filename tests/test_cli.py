import io
import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

import selpref
from selpref.cli import main
from selpref.conllu import read_conllu
from selpref.extract import build_counts, count_conllu, read_counts, write_counts

# the child interpreter finds the package the same way this one did
SRC = str(Path(selpref.__file__).resolve().parent.parent)
FIXTURE = Path(__file__).parent / "data" / "fixture.conllu"

FISH_WORM = """\
1\tThe\tthe\tDET\tDT\t_\t3\tdet\t_\t_
2\thungry\thungry\tADJ\tJJ\t_\t3\tamod\t_\t_
3\tfish\tfish\tNOUN\tNN\t_\t4\tnsubj\t_\t_
4\tate\teat\tVERB\tVBD\t_\t0\troot\t_\t_
5\tthe\tthe\tDET\tDT\t_\t7\tdet\t_\t_
6\ttasty\ttasty\tADJ\tJJ\t_\t7\tamod\t_\t_
7\tworm\tworm\tNOUN\tNN\t_\t4\tobj\t_\t_
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def data_lines(path):
    return [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]


def strip_timestamps(text):
    return "\n".join(
        line for line in text.splitlines() if "generated_at" not in line
    )


@pytest.fixture
def corpus(tmp_path):
    return write(tmp_path / "corpus.conllu", FISH_WORM)


def make_counts(tmp_path, corpus):
    out = tmp_path / "counts.tsv"
    assert main(["extract", "--in", corpus, "--out", str(out)]) == 0
    return out


def make_lexicon(tmp_path):
    rows = [("eat", "verb"), ("see", "verb")]
    rows += [(n, "noun") for n in
             ["fish", "worm", "bird", "cat", "dog", "stone", "bread"]]
    rows += [(a, "adj") for a in ["hungry", "tasty", "small", "red"]]
    return write(tmp_path / "lexicon.tsv",
                 "".join(f"{w}\t{p}\n" for w, p in rows))


def test_extract_fish_worm_six_records(tmp_path, corpus):
    out = make_counts(tmp_path, corpus)
    lines = data_lines(out)
    assert len(lines) == 6
    assert "dobj\teat\tworm\t1" in lines
    assert "nsubj_amod\teat\thungry\t1" in lines
    assert "dobj_amod\teat\ttasty\t1" in lines


def test_extract_embeds_resolved_config(tmp_path, corpus):
    out = make_counts(tmp_path, corpus)
    config_lines = [
        line for line in out.read_text().splitlines()
        if line.startswith("#config ")
    ]
    assert len(config_lines) == 1
    cfg = json.loads(config_lines[0].removeprefix("#config "))
    assert cfg["subcommand"] == "extract"
    assert cfg["include_passive"] is False
    assert cfg["seed"] is None


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--nonsense"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_seed_is_a_flag_error(tmp_path, corpus):
    counts = make_counts(tmp_path, corpus)
    lex = make_lexicon(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["candidates", "--counts", str(counts), "--lexicon", lex,
              "--relation", "dobj"])
    assert exc.value.code == 2


def test_data_error_exit_1_with_coordinates(tmp_path, capsys):
    bad = write(tmp_path / "bad.conllu", "1\tonly\tthree\n")
    rc = main(["extract", "--in", bad])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad.conllu:1" in err


def test_missing_input_file_exit_1(tmp_path, capsys):
    rc = main(["extract", "--in", str(tmp_path / "absent.conllu")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# the verb heading the subject pair on line 3 has a one-space lemma
BLANK_HEAD = FISH_WORM.replace("4\tate\teat\t", "4\tate\t \t") + """
1\tBirds\tbird\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsing\tsing\tVERB\t_\t_\t0\troot\t_\t_
"""


def test_blank_lemma_in_a_pair_exit_1_with_coordinates(tmp_path, capsys):
    bad = write(tmp_path / "blank.conllu", BLANK_HEAD)
    assert main(["extract", "--in", bad]) == 1
    assert capsys.readouterr().err == f"error: {bad}:4: head lemma is empty\n"


def test_blank_lemma_in_a_pair_skipped_with_skip_malformed(tmp_path, caplog):
    # then a sentence of two bad lines (two warnings, one skipped sentence)
    # and one of a single bad line that the end of the file closes
    bad = write(tmp_path / "blank.conllu", BLANK_HEAD + """
1\tfish\tfish\tNOUN\t_\t_\tx\tnsubj\t_\t_
2\tswim\tswim\tVERB\t_\t_\t0\troot

1\tx
""")
    out = tmp_path / "counts.tsv"
    with caplog.at_level(logging.INFO):
        assert main(["extract", "--in", bad, "--skip-malformed", "--out", str(out)]) == 0
    assert [r.getMessage() for r in caplog.records if r.name.startswith("selpref.")] == [
        f"{bad}:4: skipping sentence: head lemma is empty",
        f"skipping sentence with malformed line: {bad}:12: bad head index 'x'",
        f"skipping sentence with malformed line: {bad}:13: "
        "expected 10 tab-separated columns, got 8",
        f"skipping sentence with malformed line: {bad}:15: "
        "expected 10 tab-separated columns, got 2",
        "4 sentences read, 3 skipped, 2 tokens counted; "
        "pairs dobj=0 nsubj=1 amod=0 dobj_amod=0 nsubj_amod=0"]
    assert data_lines(out) == ["nsubj\tsing\tbird\t1"]


def test_blank_lemma_outside_every_pair_is_accepted(tmp_path):
    corpus = write(tmp_path / "c.conllu",
                   FISH_WORM.replace("1\tThe\tthe\t", "1\tThe\t \t"))
    assert data_lines(make_counts(tmp_path, corpus)) == data_lines(
        make_counts(tmp_path, write(tmp_path / "fw.conllu", FISH_WORM)))


def test_extract_info_summary_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "selpref.cli", "extract", "--in", str(FIXTURE),
         "--out", str(tmp_path / "counts.tsv"), "--log-level", "info"],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "INFO selpref.extract: 107 sentences read, 0 skipped, 733 tokens counted; "
        "pairs dobj=78 nsubj=86 amod=130 dobj_amod=63 nsubj_amod=67\n")


def test_library_entry_points_agree_with_cli(tmp_path):
    """build_counts over read_conllu, count_conllu and the CLI give one table."""
    def written(table):
        buf = io.StringIO()
        write_counts(table, buf)
        return buf.getvalue()

    for passive in (False, True):
        with open(FIXTURE, encoding="utf-8") as fh:
            layered = written(build_counts(read_conllu(fh, str(FIXTURE)), passive))
        with open(FIXTURE, encoding="utf-8") as fh:
            one_pass = written(count_conllu(fh, str(FIXTURE), include_passive=passive))
        out = tmp_path / "counts.tsv"
        flag = "--include-passive" if passive else "--no-include-passive"
        assert main(["extract", "--in", str(FIXTURE), flag, "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            cli = written(read_counts(fh))
        assert layered == one_pass == cli
        assert layered.count("\n") > 100


def test_version_names_formats():
    proc = subprocess.run(
        [sys.executable, "-m", "selpref.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "selpref" in proc.stdout
    assert "sp-counts v1" in proc.stdout
    assert "sp10k v1" in proc.stdout


def test_candidates_deterministic_bytes(tmp_path, corpus):
    counts = make_counts(tmp_path, corpus)
    lex = make_lexicon(tmp_path)
    out = tmp_path / "cands.tsv"
    outs = []
    for _ in range(2):
        rc = main(["candidates", "--counts", str(counts), "--lexicon", lex,
                   "--relation", "dobj", "--seed", "7", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b"#config" in outs[0]


def test_candidates_seed_changes_output(tmp_path, corpus):
    counts = make_counts(tmp_path, corpus)
    lex = make_lexicon(tmp_path)
    texts = []
    for seed in ("7", "8"):
        out = tmp_path / f"s{seed}.tsv"
        main(["candidates", "--counts", str(counts), "--lexicon", lex,
              "--relation", "dobj", "--seed", seed, "--out", str(out)])
        texts.append("\n".join(
            line for line in out.read_text().splitlines()
            if not line.startswith("#")
        ))
    assert texts[0] != texts[1]


def test_score_pp_backend_writes_na_for_unseen_head(tmp_path, corpus):
    counts = make_counts(tmp_path, corpus)
    pairs = write(tmp_path / "pairs.tsv",
                  "dobj\teat\tworm\ndobj\teat\tstone\ndobj\tsee\tworm\n")
    out = tmp_path / "scores.tsv"
    rc = main(["score", "--backend", "pp", "--counts", str(counts),
               "--pairs", pairs, "--out", str(out)])
    assert rc == 0
    lines = data_lines(out)
    assert lines[0] == "dobj\teat\tworm\t1.0"
    assert lines[1] == "dobj\teat\tstone\t0.0"
    assert lines[2] == "dobj\tsee\tworm\tNA"


def test_config_file_precedence(tmp_path, corpus):
    counts = make_counts(tmp_path, corpus)
    lex = make_lexicon(tmp_path)
    cfg = write(tmp_path / "cfg.json",
                json.dumps({"frequent_per_head": 1, "random_per_head": 0}))
    out = tmp_path / "c.tsv"
    # config file fills what flags leave unset
    main(["candidates", "--counts", str(counts), "--lexicon", lex,
          "--relation", "dobj", "--seed", "1", "--config", cfg,
          "--out", str(out)])
    resolved = json.loads(
        [ln for ln in out.read_text().splitlines()
         if ln.startswith("#config ")][0].removeprefix("#config ")
    )
    assert resolved["frequent_per_head"] == 1
    assert resolved["random_per_head"] == 0
    # an explicit flag beats the config file
    main(["candidates", "--counts", str(counts), "--lexicon", lex,
          "--relation", "dobj", "--seed", "1", "--config", cfg,
          "--random-per-head", "2", "--out", str(out)])
    resolved = json.loads(
        [ln for ln in out.read_text().splitlines()
         if ln.startswith("#config ")][0].removeprefix("#config ")
    )
    assert resolved["random_per_head"] == 2


def test_config_file_unknown_key_exit_1(tmp_path, corpus, capsys):
    cfg = write(tmp_path / "cfg.json", json.dumps({"frequent_per_heads": 1}))
    rc = main(["extract", "--in", corpus, "--config", cfg])
    assert rc == 1
    assert "frequent_per_heads" in capsys.readouterr().err


def test_eval_gold_as_model_reports_perfect_rho(tmp_path, capsys):
    gold = write(tmp_path / "gold.tsv", (
        "#sp10k v1\n"
        "dobj\teat\tworm\t9.00\n"
        "dobj\teat\tstone\t1.00\n"
        "dobj\teat\tbread\t7.50\n"
        "nsubj\teat\tcat\t8.00\n"
        "nsubj\teat\tfence\t0.50\n"
    ))
    out = tmp_path / "report.json"
    rc = main(["eval", "--gold", gold, "--backend", "lookup",
               "--scores", gold, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["overall_rho"] == 1.0
    assert doc["relations"]["dobj"]["rho"] == 1.0
    assert doc["meta"]["config"]["subcommand"] == "eval"
    table = capsys.readouterr().out
    assert "overall" in table and "1.0000" in table


def test_eval_backend_without_inputs_exit_2(tmp_path):
    gold = write(tmp_path / "gold.tsv", "#sp10k v1\ndobj\teat\tworm\t9.00\n")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--gold", gold, "--backend", "ds"])
    assert exc.value.code == 2


def test_pseudo_deterministic_and_seeded(tmp_path, corpus):
    counts = make_counts(tmp_path, corpus)
    lex = make_lexicon(tmp_path)
    pairs = write(tmp_path / "pos.tsv", "dobj\teat\tworm\n")
    out = tmp_path / "pseudo.json"
    docs = []
    for _ in range(2):
        rc = main(["pseudo", "--backend", "pp", "--counts", str(counts),
                   "--pairs", pairs, "--lexicon", lex, "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        docs.append(out.read_text())
    assert strip_timestamps(docs[0]) == strip_timestamps(docs[1])
    doc = json.loads(docs[0])
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert doc["meta"]["config"]["seed"] == 3


def test_train_nn_byte_identical_reruns(tmp_path, corpus):
    counts = make_counts(tmp_path, corpus)
    lex = make_lexicon(tmp_path)
    out = tmp_path / "model.npz"
    blobs = []
    for _ in range(2):
        rc = main(["train-nn", "--counts", str(counts), "--lexicon", lex,
                   "--seed", "11", "--out", str(out),
                   "--embedding-dim", "4", "--hidden-dim", "6",
                   "--epochs", "2"])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_trained_model_scores_through_cli(tmp_path, corpus):
    counts = make_counts(tmp_path, corpus)
    lex = make_lexicon(tmp_path)
    model = tmp_path / "m.npz"
    main(["train-nn", "--counts", str(counts), "--lexicon", lex,
          "--seed", "11", "--out", str(model),
          "--embedding-dim", "4", "--hidden-dim", "6", "--epochs", "1"])
    pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tworm\ndobj\teat\tpizza\n")
    out = tmp_path / "scores.tsv"
    rc = main(["score", "--backend", "nn", "--model", str(model),
               "--pairs", pairs, "--out", str(out)])
    assert rc == 0
    lines = data_lines(out)
    assert float(lines[0].split("\t")[3]) == pytest.approx(
        float(lines[0].split("\t")[3]))
    assert lines[1].endswith("\tNA")


def test_survey_roundtrip_and_determinism(tmp_path):
    pair_rows = "".join(f"dobj\tverb{i}\tnoun{i}\n" for i in range(100))
    pairs = write(tmp_path / "pairs.tsv", pair_rows)
    checkpoints = write(tmp_path / "cp.tsv", (
        "dobj\teat\tmeal\t4|5\n"
        "dobj\teat\tsky\t1|2\n"
        "dobj\tdrink\twater\t4|5\n"
    ))
    out = tmp_path / "survey.json"
    texts = []
    for _ in range(2):
        rc = main(["survey", "--pairs", pairs, "--checkpoints", checkpoints,
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        texts.append(out.read_text())
    assert strip_timestamps(texts[0]) == strip_timestamps(texts[1])
    doc = json.loads(texts[0])
    assert len(doc["questions"]) == 103
    # checkpoints are mixed in without any visible marker
    listed = {(q["head"], q["dependent"]) for q in doc["questions"]}
    assert ("eat", "meal") in listed and ("drink", "water") in listed
    assert not any("checkpoint" in k for q in doc["questions"] for k in q)


def test_aggregate_and_iaa_pipeline(tmp_path):
    header = "annotator_id,relation,head,dependent,rating,is_checkpoint,expected"
    rows = [header]
    # 11 annotators with distinct but monotone rating habits
    for a in range(11):
        for i, base in enumerate([1, 2, 3, 4, 5]):
            rating = min(5, max(1, base + (a % 2)))
            rows.append(f"ann{a},dobj,eat,dep{i},{rating},0,")
        rows.append(f"ann{a},dobj,eat,meal,5,1,4|5")
    ratings = write(tmp_path / "ratings.csv", "\n".join(rows) + "\n")
    gold_out = tmp_path / "gold.tsv"
    report_out = tmp_path / "agg.json"
    rc = main(["aggregate", "--ratings", ratings, "--out", str(gold_out),
               "--report", str(report_out)])
    assert rc == 0
    assert gold_out.read_text().startswith("#sp10k v1\n")
    assert len(data_lines(gold_out)) == 5
    doc = json.loads(report_out.read_text())
    assert doc["pairs_scored"] == 5
    assert doc["rejections"] == []

    iaa_out = tmp_path / "iaa.json"
    rc = main(["iaa", "--ratings", ratings, "--out", str(iaa_out)])
    assert rc == 0
    iaa_doc = json.loads(iaa_out.read_text())
    assert "dobj" in iaa_doc["per_relation"]
    assert -1.0 <= iaa_doc["overall"] <= 1.0


def test_omcs_match_and_matrix(tmp_path):
    gold = write(tmp_path / "gold.tsv", (
        "#sp10k v1\n"
        "dobj\teat\tapple\t9.00\n"
        "dobj\teat\tstone\t1.00\n"
        "nsubj\tbark\tdog\t9.50\n"
    ))
    omcs = write(tmp_path / "omcs.tsv", (
        "eat\tUsedFor\tapple\n"
        "dog\tCapableOf\tbark loudly\n"
    ))
    match_out = tmp_path / "match.json"
    rc = main(["omcs-match", "--gold", gold, "--omcs", omcs,
               "--out", str(match_out)])
    assert rc == 0
    doc = json.loads(match_out.read_text())
    assert doc["groups"]["perfect"]["pairs"] == 2
    assert doc["groups"]["perfect"]["exact"] == 1

    csv_out = tmp_path / "matrix.csv"
    json_out = tmp_path / "matrix.json"
    rc = main(["omcs-matrix", "--gold", gold, "--omcs", omcs,
               "--kind", "exact", "--out", str(csv_out),
               "--json", str(json_out)])
    assert rc == 0
    assert "UsedFor" in csv_out.read_text()
    matrix_doc = json.loads(json_out.read_text())
    assert matrix_doc["exact"]["dobj"]["UsedFor"] == 1


def test_omcs_requires_exactly_one_source(tmp_path):
    gold = write(tmp_path / "gold.tsv", "#sp10k v1\ndobj\teat\tapple\t9.00\n")
    with pytest.raises(SystemExit) as exc:
        main(["omcs-match", "--gold", gold])
    assert exc.value.code == 2


def test_winograd_gold_lookup_summary(tmp_path):
    questions = {
        "schema_version": 1,
        "questions": [
            {
                "id": "256", "sentence": "The fish ate the worm. It was hungry.",
                "verb": "eat", "adjective": "hungry",
                "candidate_subject": {"surface": "the fish", "lemma": "fish"},
                "candidate_object": {"surface": "the worm", "lemma": "worm"},
                "gold": "subject",
            },
            {
                "id": "257", "sentence": "The fish ate the worm. It was tasty.",
                "verb": "eat", "adjective": "tasty",
                "candidate_subject": {"surface": "the fish", "lemma": "fish"},
                "candidate_object": {"surface": "the worm", "lemma": "worm"},
                "gold": "object",
            },
        ],
    }
    qfile = write(tmp_path / "q.json", json.dumps(questions))
    gold = write(tmp_path / "scores.tsv", (
        "#sp10k v1\n"
        "nsubj_amod\teat\thungry\t10.00\n"
        "dobj_amod\teat\thungry\t2.50\n"
        "nsubj_amod\teat\ttasty\t1.00\n"
    ))
    out = tmp_path / "summary.json"
    preds = tmp_path / "preds.csv"
    rc = main(["winograd", "--gold", gold, "--questions", qfile,
               "--out", str(out), "--predictions", str(preds)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["correct"] == 1
    assert doc["wrong"] == 0
    assert doc["na"] == 1
    assert doc["ap"] == 1.0
    assert doc["ao"] == 0.75
    assert doc["meta"]["config"]["backend"] == "lookup"
    pred_lines = preds.read_text().splitlines()
    assert pred_lines[0].startswith("question_id,")
    assert len(pred_lines) == 3


def test_winograd_bundled_default(tmp_path):
    gold = write(tmp_path / "empty.tsv", "#sp10k v1\n")
    out = tmp_path / "summary.json"
    rc = main(["winograd", "--gold", gold, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["total"] == 72
    assert doc["na"] == 72
    assert doc["ap"] is None


def test_log_level_env_override(tmp_path):
    corpus = tmp_path / "c.conllu"
    corpus.write_text(FISH_WORM, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "selpref.cli", "extract",
         "--in", str(corpus)],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin",
                                             "PYTHONPATH": SRC,
                                             "SELPREF_LOG_LEVEL": "info"},
    )
    assert proc.returncode == 0
    assert "extract:" in proc.stderr

@pytest.mark.parametrize("row, message", [
    ("bogus\teat\tworm\t2", "unknown selectional relation: 'bogus'"),
    ("dobj\t\tworm\t2", "head lemma is empty"),
    ("dobj\teat\t   \t2", "dependent lemma is empty"),
])
def test_bad_counts_row_exit_1_with_coordinates(tmp_path, capsys, row, message):
    counts = write(tmp_path / "counts.tsv",
                   f"#sp-counts v1\ndobj\teat\tfish\t3\n{row}\n")
    pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tfish\n")
    rc = main(["score", "--backend", "pp", "--counts", counts,
               "--pairs", pairs])
    assert rc == 1
    assert f"error: {counts}:3: {message}" in capsys.readouterr().err


def test_carriage_return_in_counts_lemma_exit_1_with_coordinates(tmp_path, capsys):
    # a text-mode read treats the lone \r as a line break, so the row
    # splits in two and the first half is reported where it starts
    path = tmp_path / "counts.tsv"
    path.write_bytes(b"#sp-counts v1\ndobj\tea\rt\tfish\t3\n")
    pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tfish\n")
    rc = main(["score", "--backend", "pp", "--counts", str(path),
               "--pairs", pairs])
    assert rc == 1
    assert f"error: {path}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_lookup_score_exit_1_with_coordinates(tmp_path, capsys, value):
    gold = write(tmp_path / "gold.tsv", (
        "#sp10k v1\n"
        "dobj\teat\tworm\t9.00\n"
        "dobj\teat\tstone\t1.00\n"
        "dobj\teat\tbread\t7.50\n"
    ))
    scores = write(tmp_path / "scores.tsv", (
        "#sp-scores v1\n"
        "dobj\teat\tworm\t1\n"
        f"dobj\teat\tstone\t{value}\n"
        "dobj\teat\tbread\t0.5\n"
    ))
    rc = main(["eval", "--gold", gold, "--backend", "lookup",
               "--scores", scores])
    assert rc == 1
    assert f"error: {scores}:3: non-finite value" in capsys.readouterr().err


def test_nn_model_that_is_not_npz_exit_1(tmp_path, capsys):
    lexicon = make_lexicon(tmp_path)
    pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tworm\n")
    rc = main(["score", "--backend", "nn", "--model", lexicon,
               "--pairs", pairs])
    assert rc == 1
    assert f"error: {lexicon}: not a readable model file" in capsys.readouterr().err
