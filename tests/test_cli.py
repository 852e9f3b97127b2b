import argparse
import contextlib
import gzip
import inspect
import io
import json
import logging
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selpref
from selpref import embeddings
from selpref.annotate import aggregate
from selpref.cli import DEFAULTS, build_parser, main
from selpref.evaluation import evaluate
from selpref.extract import (
    count_conllu,
    generate_candidates,
    read_counts,
    write_counts,
)
from selpref.nn import NNConfig
from test_golden import BACKEND_FLAGS, NOUNS, VERBS
from test_golden import COMMANDS as GOLDEN_COMMANDS
from test_golden import write_inputs as write_golden_inputs

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
    """count_conllu and the CLI give one table."""
    def written(table):
        buf = io.StringIO()
        write_counts(table, buf)
        return buf.getvalue()

    for passive in (False, True):
        with open(FIXTURE, encoding="utf-8") as fh:
            one_pass = written(count_conllu(fh, str(FIXTURE), include_passive=passive))
        out = tmp_path / "counts.tsv"
        flag = "--include-passive" if passive else "--no-include-passive"
        assert main(["extract", "--in", str(FIXTURE), flag, "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            cli = written(read_counts(fh))
        assert one_pass == cli
        assert one_pass.count("\n") > 100


def test_version_names_formats():
    proc = subprocess.run(
        [sys.executable, "-m", "selpref.cli", "--version"],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0
    assert "selpref" in proc.stdout
    assert "sp-counts v1" in proc.stdout
    assert "sp10k v1" in proc.stdout
    assert "questions schema 1)" in " ".join(proc.stdout.split())  # winograd's, read when asked


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


# one case per value that used to end in a traceback, plus a bool for an int
# and a log level outside the flag's choices
@pytest.mark.parametrize("sub, doc, message", [
    ("extract", {"log_level": 5}, "key 'log_level' must be a string, got 5"),
    ("train-nn", {"margin": "1"}, "key 'margin' must be a number, got \"1\""),
    ("train-nn", {"epochs": 1.5}, "key 'epochs' must be an integer, got 1.5"),
    ("train-nn", {"epochs": True}, "key 'epochs' must be an integer, got true"),
    ("candidates", {"heads_per_relation": "5"},
     "key 'heads_per_relation' must be an integer, got \"5\""),
    ("eval", {"missing": "bogus"}, "key 'missing' must be one of drop, floor, got \"bogus\""),
    ("extract", {"log_level": "verbose"},
     "key 'log_level' must be one of debug, info, warning, error, got \"verbose\""),
    ("eval", {"missing": "x" * 100},
     "key 'missing' must be one of drop, floor, got \"" + "x" * 39 + "..."),
    ("train-nn", {"batch_size": 1.5}, "key 'batch_size' must be an integer, got 1.5"),
    ("train-nn", {"margin": 10 ** 400},
     "key 'margin' must be a number in float range, got 1" + "0" * 39 + "..."),
])
def test_config_file_bad_value_exit_1(tmp_path, corpus, capsys, sub, doc, message):
    counts, lex = str(make_counts(tmp_path, corpus)), make_lexicon(tmp_path)
    gold = write(tmp_path / "gold.tsv", "#sp10k v1\ndobj\teat\tworm\t9.00\n")
    argv = {"extract": ["--in", corpus],
            "train-nn": ["--counts", counts, "--lexicon", lex, "--seed", "1",
                         "--out", str(tmp_path / "m.npz")],
            "candidates": ["--counts", counts, "--lexicon", lex, "--relation", "dobj",
                           "--seed", "1"],
            "eval": ["--gold", gold, "--backend", "lookup", "--scores", gold]}[sub]
    cfg = write(tmp_path / "cfg.json", json.dumps(doc))
    assert main([sub, *argv, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


# text that json cannot turn into a value (nested past the recursion
# limit, an integer past Python's 4300-digit limit), and unknown keys
# that would split the error line if echoed raw
@pytest.mark.parametrize("text, message", [
    ("[" * 100000, "invalid JSON: 'maximum recursion depth exceeded while d'..."),
    ('{"epochs": ' + "9" * 5000 + "}",
     "invalid JSON: 'Exceeds the limit (4300 digits) for inte'..."),
    ('{"a\\nb": 1, "zz": 2}', "unknown config keys: 'a\\nb, zz'"),
], ids=["deep", "5000 digits", "odd keys"])
def test_config_file_unreadable_json_exit_1(tmp_path, corpus, capsys, text, message):
    cfg = write(tmp_path / "cfg.json", text)
    assert main(["extract", "--in", corpus, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


def test_config_file_int_for_a_float_is_accepted(tmp_path, corpus):
    """An int in a --config file for a float option resolves to the float
    its flag gives: the same value and type, so the same model bytes."""
    argv = ["train-nn", "--counts", str(make_counts(tmp_path, corpus)),
            "--lexicon", make_lexicon(tmp_path), "--seed", "1", "--epochs", "1"]
    float_keys = [key for key, value in DEFAULTS.items() if type(value) is float]
    assert float_keys
    for key in float_keys:
        cfg = write(tmp_path / "cfg.json", json.dumps({key: 2}))
        models = []
        for route in (["--config", cfg], ["--" + key.replace("_", "-"), "2"]):
            model = tmp_path / f"m{len(models)}.npz"
            assert main(argv + route + ["--out", str(model)]) == 0
            with np.load(model) as z:
                resolved = json.loads(str(z["meta__config"]))[key]
            assert type(resolved) is float and resolved == 2.0, (key, route)
            models.append(model.read_bytes())
        assert models[0] == models[1], key


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


@pytest.mark.parametrize("flag, value", [
    ("--margin", "nan"), ("--margin", "inf"), ("--learning-rate", "nan"),
    ("--learning-rate", "inf"),
])
def test_train_nn_non_finite_setting_exit_1(tmp_path, corpus, capsys, flag, value):
    counts = make_counts(tmp_path, corpus)
    out = tmp_path / "model.npz"
    rc = main(["train-nn", "--counts", str(counts), "--lexicon", make_lexicon(tmp_path),
               "--seed", "1", "--out", str(out), flag, value])
    assert rc == 1
    name = flag.removeprefix("--").replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} must be positive and finite\n"
    assert not out.exists()


def test_train_nn_batch_size_0_exit_1(tmp_path, corpus, capsys):
    counts = make_counts(tmp_path, corpus)
    out = tmp_path / "model.npz"
    rc = main(["train-nn", "--counts", str(counts), "--lexicon", make_lexicon(tmp_path),
               "--seed", "1", "--out", str(out), "--batch-size", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: batch_size must be positive\n"
    assert not out.exists()


def test_train_nn_instances_past_memory_exit_1(tmp_path, corpus, capsys, monkeypatch):
    # a count that fits in int64 but whose instances do not fit in memory;
    # the failing expansion is stubbed, never allocated
    counts = make_counts(tmp_path, corpus)
    counts.write_text(counts.read_text(encoding="utf-8").replace(
        "dobj\teat\tworm\t1\n", f"dobj\teat\tworm\t{10 ** 12}\n"), encoding="utf-8")

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("selpref.nn.np.repeat", no_memory)
    out = tmp_path / "model.npz"
    rc = main(["train-nn", "--counts", str(counts), "--lexicon", make_lexicon(tmp_path),
               "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {counts}: dobj: 1000000000000 training instances do not fit in memory\n")
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "#sp-counts v1\n"], ids=["empty", "header only"])
def test_train_nn_on_counts_without_rows_names_the_file(tmp_path, capsys, text):
    counts = write(tmp_path / "counts.tsv", text)
    out = tmp_path / "model.npz"
    assert main(["train-nn", "--counts", counts, "--lexicon", make_lexicon(tmp_path),
                 "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {counts}: empty training stream\n"
    assert not out.exists()


def test_train_nn_info_summary_line(tmp_path, corpus):
    counts = make_counts(tmp_path, corpus)
    argv = [sys.executable, "-m", "selpref.cli", "train-nn", "--counts", str(counts),
            "--lexicon", make_lexicon(tmp_path), "--seed", "1", "--epochs", "2",
            "--embedding-dim", "4", "--hidden-dim", "6", "--out", "model.npz"]
    for level in ([], ["--log-level", "info"]):     # default: warning
        proc = subprocess.run([*argv, *level], capture_output=True, text=True, cwd=tmp_path,
                              env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC})
        assert proc.returncode == 0
        if not level:
            assert proc.stderr == ""
            continue
        summary, *losses = proc.stderr.splitlines()
        assert re.fullmatch(
            r"INFO selpref\.nn: instances dobj=1 nsubj=1 amod=2 dobj_amod=1 nsubj_amod=1; "
            r"batch 64; 2 epochs in \d+\.\d\d s, \d+ instances/s", summary), summary
        assert [line.split(":")[1] for line in losses] == [
            f" train-nn {rel}" for rel in ("amod", "dobj", "dobj_amod", "nsubj", "nsubj_amod")]
    assert b"instances" not in (tmp_path / "model.npz").read_bytes()


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


OMCS_GOLD = "#sp10k v1\ndobj\teat\tapple\t9.00\nnsubj\tbark\tdog\t9.50\n"


@pytest.mark.parametrize("sub", ["omcs-match", "omcs-matrix"])
@pytest.mark.parametrize("row, reason", [
    ("cat\tIsA", "expected 3 columns, got 2"),
    ("\tIsA\tpet", "triplet phrases must be non-empty"),
    ("cat\t\tpet", "triplet relation label must be non-empty"),
])
def test_omcs_bad_row_without_gold_words_is_located(tmp_path, capsys, sub, row, reason):
    gold = write(tmp_path / "gold.tsv", OMCS_GOLD)
    omcs = write(tmp_path / "omcs.tsv", f"eat\tUsedFor\tapple\n\n{row}\ndog\tIsA\tbark\n")
    out = str(tmp_path / "out")
    assert main([sub, "--gold", gold, "--omcs", omcs, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {omcs}:3: {reason}\n"


@pytest.mark.parametrize("sub", ["omcs-match", "omcs-matrix"])
def test_omcs_conceptnet_coverage_equals_omcs_coverage(sub, tmp_path, capsys):
    gold = write(tmp_path / "gold.tsv", OMCS_GOLD + "dobj\teat\tstone\t1.00\n")
    triplets = [("eat", "UsedFor", "apples"), ("dog", "CapableOf", "bark loudly"),
                ("eating", "IsA", "stone"), ("cat", "IsA", "pet")]
    omcs = write(tmp_path / "omcs.tsv", "".join(f"{s}\t{r}\t{e}\n" for s, r, e in triplets))
    concept = "/c/en/{}".format
    dump = write(tmp_path / "dump.csv", "".join(
        f"/a/x\t/r/{r}\t{concept(s.replace(' ', '_'))}\t{concept(e.replace(' ', '_'))}\t"
        '{"sources": ["/s/contributor/omcs/dev"]}\n' for s, r, e in triplets))
    docs, texts = {}, {}
    for flag, path in (("--omcs", omcs), ("--conceptnet", dump)):
        doc, table = tmp_path / f"{flag[2:]}.json", tmp_path / f"{flag[2:]}.csv"
        outputs = ["--out", str(doc)] if sub == "omcs-match" else [
            "--out", str(table), "--json", str(doc)]
        assert main([sub, "--gold", gold, flag, path, *outputs]) == 0
        texts[flag] = capsys.readouterr().out
        if sub == "omcs-matrix":  # the CSV minus its #config echo of the flags
            texts[flag] = [l for l in table.read_text(encoding="utf-8").splitlines()
                           if not l.startswith("#config ")]
        docs[flag] = json.loads(doc.read_text(encoding="utf-8"))
        del docs[flag]["meta"]
    assert docs["--omcs"] == docs["--conceptnet"]
    assert texts["--omcs"] == texts["--conceptnet"]
    if sub == "omcs-match":
        assert docs["--omcs"]["groups"]["perfect"] == {"pairs": 2, "exact": 1, "partial": 1,
                                                       "exact_rate": 0.5, "partial_rate": 0.5}
        assert docs["--omcs"]["groups"]["impossible"]["partial"] == 0
    else:
        assert docs["--omcs"]["exact"]["dobj"] == {"IsA": 1, "UsedFor": 1}
        assert docs["--omcs"]["partial"]["nsubj"] == {"CapableOf": 1}


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
    rc = main(["winograd", "--backend", "lookup", "--scores", gold, "--questions", qfile,
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


def test_winograd_gold_flag_is_a_usage_error(tmp_path, capsys):
    gold = write(tmp_path / "gold.tsv", GOLD)
    with pytest.raises(SystemExit) as exc:
        main(["winograd", "--gold", gold])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gold" in capsys.readouterr().err


def test_winograd_bundled_default(tmp_path):
    gold = write(tmp_path / "empty.tsv", "#sp10k v1\n")
    out = tmp_path / "summary.json"
    rc = main(["winograd", "--backend", "lookup", "--scores", gold, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["total"] == 72
    assert doc["na"] == 72
    assert doc["ap"] is None


@pytest.mark.parametrize("rows, where, message", [
    ("dobj\teat\tmeal\t4|5\nnsubj\teat\tsky\t1|2\ndobj\tdrink\twater\t4|5\n", ":2",
     "checkpoint relation nsubj, survey relation dobj"),
    ("dobj\teat\tmeal\t4|5\ndobj\teat\tsky\t1|9\ndobj\tdrink\twater\t4|5\n", ":2",
     "bad expected ratings '1|9'"),
    ("dobj\teat\tmeal\t4|5\n#\ndobj\teat\tsky\tlow\n", ":3", "bad expected ratings 'low'"),
    ("dobj\teat\tmeal\t4|5\ndobj\tdrink\twater\t4|5\n", "",
     "need exactly 3 checkpoints, got 2"),
    pytest.param("dobj\teat\tmeal\t4|5\ndobj\teat\tsky\t1|2\ndobj\tEat\tmeal\t5\n", ":3",
                 "duplicate pair dobj 'eat' 'meal'", id="a pair given twice"),
])
def test_bad_checkpoints_exit_1_with_coordinates(tmp_path, capsys, rows, where, message):
    pairs = write(tmp_path / "pairs.tsv", "".join(f"dobj\tverb{i}\tnoun{i}\n"
                                                  for i in range(100)))
    checkpoints = write(tmp_path / "cp.tsv", rows)
    assert main(["survey", "--pairs", pairs, "--checkpoints", checkpoints,
                 "--seed", "5"]) == 1
    assert capsys.readouterr().err == f"error: {checkpoints}{where}: {message}\n"


RATINGS_HEAD = "annotator_id,relation,head,dependent,rating,is_checkpoint,expected\n"


@pytest.mark.parametrize("rows, where, message", [
    pytest.param("a,dobj,eat,worm,3,1,9\n", ":2", "bad expected ratings '9'",
                 id="checkpoint expecting 9"),
    pytest.param("a,dobj,eat,worm,3,0,\na,dobj,eat,worm,low,0,\n", ":3",
                 "bad rating 'low'", id="non-integer rating"),
    pytest.param("a,dobj,eat,worm," + "x" * 5000 + ",0,\n", ":2",
                 f"bad rating '{'x' * 40}'...", id="5000-character rating"),
    pytest.param('"a\nb",dobj,eat,worm,3,0,\na,dobj,eat,worm,3,0,4|5\n', ":4",
                 "expected answers on a non-checkpoint rating",
                 id="row after a field spanning two lines"),
    pytest.param("a,dobj,eat,worm," + "1" * 131073 + ",0,\n", ":2",
                 "field larger than field limit (131072)", id="field over the csv limit"),
    pytest.param("a,dobj,eat,meal,5,1,\n", ":2", "checkpoint rating without expected answers",
                 id="checkpoint without expected answers"),
    pytest.param("a,dobj,eat,meal,5,yes,\n", ":2", "bad is_checkpoint 'yes'",
                 id="is_checkpoint yes"),
    pytest.param("a,dobj,eat,meal,5,0,\na,dobj,eat,meal,5,true,4|5\n", ":3",
                 "bad is_checkpoint 'true'", id="is_checkpoint true"),
    pytest.param("a,dobj,eat,meal,5,2,\n", ":2", "bad is_checkpoint '2'",
                 id="is_checkpoint 2"),
])
def test_bad_ratings_exit_1_with_coordinates(tmp_path, capsys, rows, where, message):
    ratings = write(tmp_path / "r.csv", RATINGS_HEAD + rows)
    assert main(["aggregate", "--ratings", ratings]) == 1
    assert capsys.readouterr().err == f"error: {ratings}{where}: {message}\n"


def test_bad_ratings_header_is_clipped_and_located(tmp_path, capsys):
    ratings = write(tmp_path / "r.csv", "x" * 5000 + "\n")
    assert main(["iaa", "--ratings", ratings]) == 1
    assert capsys.readouterr().err == f"error: {ratings}:1: bad header '{'x' * 40}'...\n"


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "9" * 5000, "1_0e400"],
                         ids=["nan", "inf", "1e400", "5000 nines", "underscored 1e401"])
def test_non_finite_embedding_exit_1_with_coordinates(tmp_path, capsys, monkeypatch, corpus,
                                                      value):
    """The skipped duplicate `eat` on line 3 is not reported, line 4 is,
    and the vectors file, plain or gzipped, is opened once. numpy refuses
    `1_0e400`, so that file is read again line by line."""
    text = f"eat 1 2\nfish 1 2\neat 3 {value}\n{'w' * 50} {value} 1\n"
    opened = []
    monkeypatch.setattr(embeddings, "open_input",
                        lambda path, _open=embeddings.open_input: opened.append(path) or _open(path))
    pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tworm\n")
    counts = str(make_counts(tmp_path, corpus))
    for vectors, data in ((tmp_path / "v.txt", text.encode()),
                          (tmp_path / "v.txt.gz", gzip.compress(text.encode()))):
        vectors.write_bytes(data)
        opened.clear()
        assert main(["score", "--backend", "ds", "--counts", counts,
                     "--embeddings", str(vectors), "--pairs", pairs]) == 1
        assert capsys.readouterr().err == (
            f"error: {vectors}:4: non-finite component in vector for '{'w' * 40}'...\n")
        assert opened == [str(vectors)]


@pytest.mark.parametrize("flag", ["--heads-per-relation", "--seed"])
def test_bad_int_flag_value_is_clipped(tmp_path, capsys, flag):
    argv = ["candidates", "--counts", "c.tsv", "--lexicon", "l.tsv", "--relation", "dobj",
            "--seed", "1", flag, "9" * 5000]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: invalid int value: '{'9' * 40}'...\n")
    assert len(err) < 600


@pytest.mark.parametrize("argv", [["score", "--counts", "COUNTS", "--pairs", "BAD"],
                                  ["aggregate", "--ratings", "BAD"]])
def test_bad_input_leaves_no_output_file(tmp_path, corpus, argv):
    files = {"BAD": write(tmp_path / "bad.txt", "x\n"),
             "COUNTS": str(make_counts(tmp_path, corpus))}
    out = tmp_path / "out.tsv"
    assert main([files.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("option", ["heads_per_relation", "frequent_per_head",
                                    "random_per_head"])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_candidates_negative_count_exit_1(tmp_path, corpus, capsys, option, route):
    counts, lex = str(make_counts(tmp_path, corpus)), make_lexicon(tmp_path)
    argv = ["candidates", "--counts", counts, "--lexicon", lex, "--relation", "dobj",
            "--seed", "1"]
    if route == "flag":
        argv += ["--" + option.replace("_", "-"), "-2"]
    else:
        argv += ["--config", write(tmp_path / "cfg.json", json.dumps({option: -2}))]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {option} must be >= 0, got -2\n"


@pytest.mark.parametrize("route", ["flag", "config"])
def test_aggregate_negative_min_ratings_exit_1(golden_inputs, tmp_path, capsys, route):
    out = tmp_path / "gold.tsv"
    argv = ["aggregate", "--ratings", str(golden_inputs / "ratings.csv"), "--out", str(out)]
    if route == "flag":
        argv += ["--min-ratings", "-5"]
    else:
        argv += ["--config", write(tmp_path / "cfg.json", json.dumps({"min_ratings": -5}))]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: min_ratings must be >= 0, got -5\n"
    assert not out.exists()


def test_candidates_zero_counts_are_accepted(tmp_path, corpus):
    out = tmp_path / "c.tsv"
    assert main(["candidates", "--counts", str(make_counts(tmp_path, corpus)),
                 "--lexicon", make_lexicon(tmp_path), "--relation", "dobj", "--seed", "1",
                 "--frequent-per-head", "0", "--random-per-head", "0",
                 "--out", str(out)]) == 0
    assert data_lines(out) == []


def config_echo(path):
    line, = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.startswith("#config ")]
    return json.loads(line.removeprefix("#config "))


def test_config_file_value_is_echoed_and_used_by_eval(tmp_path):
    gold = write(tmp_path / "gold.tsv", "#sp10k v1\ndobj\teat\tworm\t9.00\n"
                                        "dobj\teat\tstone\t1.00\ndobj\teat\tbread\t5.00\n")
    scores = write(tmp_path / "scores.tsv", "dobj\teat\tworm\t2.0\ndobj\teat\tstone\t1.0\n")
    cfg = write(tmp_path / "cfg.json", json.dumps({"missing": "drop"}))
    out = tmp_path / "report.json"
    assert main(["eval", "--gold", gold, "--backend", "lookup", "--scores", scores,
                 "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["missing_policy"] == "drop"
    assert doc["relations"]["dobj"]["n_used"] == 2
    assert doc["meta"]["config"]["missing"] == "drop"


def test_config_key_without_a_flag_is_accepted_and_not_echoed(tmp_path, corpus):
    cfg = write(tmp_path / "cfg.json", json.dumps({"epochs": 3, "skip_malformed": True}))
    out = tmp_path / "counts.tsv"
    assert main(["extract", "--in", corpus, "--config", cfg, "--out", str(out)]) == 0
    assert config_echo(out) == {"subcommand": "extract", "in": corpus, "out": str(out),
                                "seed": None, "include_passive": False,
                                "skip_malformed": True}


def test_every_config_key_is_a_flag_defaulting_to_none():
    # the resolver fills only flags the command line left at None, so a
    # flag with a default of its own would hide the config file
    subparsers, = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flagged = set()
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest in DEFAULTS:
                assert sub.get_default(action.dest) is None, (name, action.dest)
                flagged.add(action.dest)
    assert flagged == set(DEFAULTS)


# flag, SELPREF_LOG_LEVEL, --config log_level -> whether info is logged
@pytest.mark.parametrize("flag, env, file, shown", [
    ("info", "error", "error", True),
    ("warning", "info", "info", False),
    (None, "info", "error", True),
    (None, "error", "info", False),
    (None, "", "info", True),
    (None, None, "info", True),
    (None, None, None, False),
])
def test_log_level_precedence(tmp_path, flag, env, file, shown):
    corpus = write(tmp_path / "c.conllu", FISH_WORM)
    argv = [sys.executable, "-m", "selpref.cli", "extract", "--in", corpus]
    argv += ["--log-level", flag] if flag else []
    if file:
        argv += ["--config", write(tmp_path / "cfg.json", json.dumps({"log_level": file}))]
    environ = {"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC}
    if env is not None:
        environ["SELPREF_LOG_LEVEL"] = env
    proc = subprocess.run(argv, capture_output=True, text=True, env=environ)
    assert proc.returncode == 0
    assert ("extract:" in proc.stderr) is shown


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


@pytest.mark.parametrize("value", ["basic_format", "verbose"])
def test_bad_log_level_env_exit_1(corpus, capsys, monkeypatch, value):
    monkeypatch.setenv("SELPREF_LOG_LEVEL", value)
    assert main(["extract", "--in", corpus]) == 1
    assert capsys.readouterr().err == (
        "error: SELPREF_LOG_LEVEL: must be one of debug, info, warning, error, "
        f"got {value!r}\n")


@pytest.mark.parametrize("row, message", [
    ("bogus\teat\tworm\t2", "unknown selectional relation: 'bogus'"),
    ("dobj\t\tworm\t2", "head lemma is empty"),
    ("dobj\teat\t   \t2", "dependent lemma is empty"),
    pytest.param("dobj\teat\tworm\t" + "9" * 5000, f"bad count '{'9' * 40}'...",
                 id="5000-digit count"),
    ("dobj\teat\tworm\t-3", "count must be >= 1, got -3"),
    pytest.param("dobj\teat\tworm\t-" + "9" * 4000,
                 f"count must be >= 1, got -{'9' * 39}...", id="4000-digit negative count"),
    pytest.param(f"dobj\teat\tworm\t{2**63}", f"count must be <= {2**63 - 1}, got {2**63}",
                 id="count of 2**63"),
    pytest.param(f"dobj\teat\tfish\t{2**63 - 3}", f"count must be <= {2**63 - 1}, got {2**63}",
                 id="pair count summed past the bound"),
])
def test_bad_counts_row_exit_1_with_coordinates(tmp_path, capsys, row, message):
    counts = write(tmp_path / "counts.tsv",
                   f"#sp-counts v1\ndobj\teat\tfish\t3\n{row}\n")
    pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tfish\n")
    rc = main(["score", "--backend", "pp", "--counts", counts,
               "--pairs", pairs])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {counts}:3: {message}\n"
    assert len(err) < len(counts) + 80


def test_count_at_the_int64_bound_is_read(tmp_path, capsys):
    counts = write(tmp_path / "counts.tsv", f"#sp-counts v1\ndobj\teat\tfish\t{2**63 - 1}\n")
    pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tfish\n")
    assert main(["score", "--backend", "pp", "--counts", counts, "--pairs", pairs]) == 0
    assert capsys.readouterr().out.endswith("dobj\teat\tfish\t1.0\n")


@pytest.mark.parametrize("backend, digits, shown", [
    pytest.param("ds", "1" + "0" * 400, "1" + "0" * 39 + "...", id="ds, 401-digit count"),
    pytest.param("nn", "1" + "0" * 20, "1" + "0" * 20, id="nn, 21-digit count")])
def test_count_past_the_int64_bound_exit_1_before_any_output(tmp_path, capsys, backend,
                                                             digits, shown):
    # a bigger count overflowed in the numeric backends; the table reader
    # refuses it before the scores file or the model is opened
    counts = write(tmp_path / "counts.tsv", f"#sp-counts v1\ndobj\teat\tfish\t{digits}\n")
    out = tmp_path / "out"
    if backend == "ds":
        vectors = write(tmp_path / "v.txt", "eat 1 2\nfish 2 1\n")
        pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tfish\n")
        argv = ["score", "--backend", "ds", "--counts", counts, "--embeddings", vectors,
                "--pairs", pairs, "--out", str(out)]
    else:
        argv = ["train-nn", "--counts", counts, "--lexicon", make_lexicon(tmp_path),
                "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {counts}:2: count must be <= {2**63 - 1}, got {shown}\n")
    assert not out.exists()


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


def test_score_output_reads_back_as_lookup_scores(tmp_path, corpus, capsys):
    counts = str(make_counts(tmp_path, corpus))
    gold = write(tmp_path / "gold.tsv", (
        "#sp10k v1\n"
        "dobj\teat\tworm\t9.00\n"
        "dobj\teat\tstone\t1.00\n"
        "nsubj\teat\tfish\t8.00\n"
        "nsubj\teat\tstone\t2.00\n"
        "nsubj\tsee\tbird\t5.00\n"          # unseen head: pp scores NA
    ))
    scores = tmp_path / "scores.tsv"
    assert main(["score", "--backend", "pp", "--counts", counts,
                 "--pairs", gold, "--out", str(scores)]) == 0
    assert data_lines(scores)[-1] == "nsubj\tsee\tbird\tNA"
    capsys.readouterr()
    assert main(["eval", "--gold", gold, "--backend", "pp", "--counts", counts]) == 0
    direct = capsys.readouterr().out
    assert main(["eval", "--gold", gold, "--backend", "lookup",
                 "--scores", str(scores)]) == 0
    assert capsys.readouterr().out == direct
    assert "nsubj     0.5000  0.667" in direct   # the NA pair counts as uncovered


@pytest.mark.parametrize("before", [None, "#an earlier artifact\n"], ids=["new", "existing"])
def test_a_failed_score_leaves_no_partial_artifact(tmp_path, capsys, before):
    counts = write(tmp_path / "counts.tsv", "dobj\teat\tapple\t3\n")
    vectors = write(tmp_path / "vectors.txt", "eat 1 0\napple 1 0\npear 0 0\n")
    pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tapple\ndobj\teat\tpear\n")
    out = tmp_path / "out.tsv"
    if before is not None:
        out.write_text(before, encoding="utf-8")
    assert main(["score", "--backend", "ds", "--counts", counts, "--embeddings", vectors,
                 "--pairs", pairs, "--out", str(out)]) == 1
    assert "zero-norm vector" in capsys.readouterr().err
    left = {"counts.tsv", "vectors.txt", "pairs.tsv"} | ({"out.tsv"} if before else set())
    assert {p.name for p in tmp_path.iterdir()} == left  # no temporary file either
    assert (out.read_text(encoding="utf-8") if before else None) == before


def test_nn_model_that_is_not_npz_exit_1(tmp_path, capsys):
    lexicon = make_lexicon(tmp_path)
    pairs = write(tmp_path / "pairs.tsv", "dobj\teat\tworm\n")
    rc = main(["score", "--backend", "nn", "--model", lexicon,
               "--pairs", pairs])
    assert rc == 1
    assert f"error: {lexicon}: not a readable model file" in capsys.readouterr().err


GOLD = "#sp10k v1\ndobj\teat\tworm\t9.00\nnsubj\teat\tfish\t8.00\n"
UNDECODABLE = b"#first line\n\xffsecond line\n"

# one command per reader family; BAD is the file with the undecodable byte
READER_FAMILIES = {
    "omcs": ["omcs-match", "--gold", "GOLD", "--omcs", "BAD"],
    "conceptnet": ["omcs-match", "--gold", "GOLD", "--conceptnet", "BAD"],
    "gold": ["eval", "--gold", "BAD", "--backend", "lookup", "--scores", "GOLD"],
    "scores": ["eval", "--gold", "GOLD", "--backend", "lookup", "--scores", "BAD"],
    "counts": ["score", "--counts", "BAD", "--pairs", "PAIRS"],
    "pairs": ["score", "--counts", "COUNTS", "--pairs", "BAD"],
    "conllu": ["extract", "--in", "BAD"],
    "lexicon": ["candidates", "--counts", "COUNTS", "--lexicon", "BAD",
                "--relation", "dobj", "--seed", "1"],
    "embeddings": ["score", "--backend", "ds", "--counts", "COUNTS",
                   "--embeddings", "BAD", "--pairs", "PAIRS"],
    "questions": ["winograd", "--backend", "lookup", "--scores", "GOLD", "--questions", "BAD"],
    "ratings": ["iaa", "--ratings", "BAD"],
    "checkpoints": ["survey", "--pairs", "PAIRS", "--checkpoints", "BAD",
                    "--seed", "1"],
    "config": ["iaa", "--ratings", "BAD", "--config", "BAD"],
}


@pytest.mark.parametrize("family", sorted(READER_FAMILIES))
def test_undecodable_input_exit_1_with_coordinates(tmp_path, capsys, corpus, family):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(UNDECODABLE)
    files = {"BAD": str(bad), "GOLD": write(tmp_path / "gold.tsv", GOLD),
             "PAIRS": write(tmp_path / "pairs.tsv", "dobj\teat\tworm\n"),
             "COUNTS": str(make_counts(tmp_path, corpus))}
    argv = [files.get(arg, arg) for arg in READER_FAMILIES[family]]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:2: not UTF-8: invalid start byte (byte 0xff)\n")


@pytest.mark.parametrize("data, line, reason", [
    # text mode also ends a line at a lone \r, so the bad byte is on line 4
    (b"#a\r#b\r\n#c\n#\xff\n", 4, "invalid start byte (byte 0xff)"),
    (b"#a\n#b\n\n#\xc3", 4, "unexpected end of data (byte 0xc3)"),
])
def test_undecodable_line_counts_every_line_ending(tmp_path, capsys, data, line, reason):
    gold = write(tmp_path / "gold.tsv", GOLD)
    bad = tmp_path / "omcs.tsv"
    bad.write_bytes(data)
    assert main(["omcs-match", "--gold", gold, "--omcs", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}:{line}: not UTF-8: {reason}\n"


def test_truncated_gzip_input_exit_1_with_coordinates(tmp_path, capsys):
    packed = gzip.compress((FISH_WORM + "\n").encode() * 400)
    cut = packed[:len(packed) // 2]
    path = tmp_path / "corpus.conllu.gz"
    path.write_bytes(cut)
    # the line that the readable part of the stream ends in
    line = zlib.decompressobj(wbits=31).decompress(cut).count(b"\n") + 1
    assert line > 100
    assert main(["extract", "--in", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:{line}: Compressed file ended before the "
        "end-of-stream marker was reached\n")


def test_gz_input_that_is_not_gzip_exit_1_with_coordinates(tmp_path, capsys):
    path = write(tmp_path / "corpus.conllu.gz", FISH_WORM)
    assert main(["extract", "--in", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:1: Not a gzipped file")


def test_omcs_info_summary_line(tmp_path):
    gold = write(tmp_path / "gold.tsv", (
        "#sp10k v1\n"
        "dobj\teat\tapple\t9.00\n"
        "dobj\teat\tstone\t1.00\n"
        "nsubj\tbark\tdog\t9.50\n"
    ))
    # the last two rows witness no gold pair and are not indexed, but
    # they are read and their tokens lemmatized; the comment is neither
    omcs = write(tmp_path / "omcs.tsv", (
        "eat\tUsedFor\tapples\n"
        "dog\tCapableOf\tbark loudly\n"
        "# a comment\n"
        "Dogs\tIsA\tanimal\n"
        "cat\tIsA\tpet\n"
    ))
    line = ("INFO selpref.commonsense: 4 triplets read, 9 distinct tokens "
            "lemmatized; pairs exact=1 partial=1 none=1\n")
    artifacts = {"omcs-match": ["--out", "match.json"],
                 "omcs-matrix": ["--out", "matrix.csv", "--json", "matrix.json"]}
    for sub, outputs in artifacts.items():
        for level in ([], ["--log-level", "info"]):     # default: warning
            proc = subprocess.run(
                [sys.executable, "-m", "selpref.cli", sub, "--gold", gold,
                 "--omcs", omcs, *outputs, *level],
                capture_output=True, text=True, cwd=tmp_path,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
            )
            assert proc.returncode == 0
            assert proc.stderr == (line if level else "")
            assert "lemmatized" not in proc.stdout
    for name in ("match.json", "matrix.csv", "matrix.json"):
        assert "lemmatized" not in (tmp_path / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tsv-fuzz")
    files = {"gold.tsv": GOLD,
             "pairs.tsv": "dobj\teat\tworm\nnsubj\teat\tfish\n",
             "counts.tsv": "#sp-counts v1\ndobj\teat\tworm\t2\nnsubj\teat\tfish\t1\n",
             "survey_pairs.tsv": "".join(f"dobj\tverb{i}\tnoun{i}\n" for i in range(100)),
             "checkpoints.tsv": "dobj\teat\tbread\t4|5\ndobj\teat\tstone\t1|2\n"
                                "dobj\tdrink\twater\t4|5\n"}
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


# one command per TSV reader, and the start of its stdout on success;
# bad.tsv is the fuzzed file, the others are fixed
TSV_FAMILIES = {
    "pairs": (["score", "--counts", "counts.tsv", "--pairs", "bad.tsv"], "#sp-scores v1\n"),
    "gold": (["eval", "--gold", "bad.tsv", "--backend", "lookup", "--scores", "gold.tsv"],
             "relation"),
    "scores": (["eval", "--gold", "gold.tsv", "--backend", "lookup", "--scores", "bad.tsv"],
               "relation"),
    "checkpoints": (["survey", "--pairs", "survey_pairs.tsv", "--checkpoints", "bad.tsv",
                     "--seed", "1"], "{"),
    "survey-pairs": (["survey", "--pairs", "bad.tsv", "--checkpoints", "checkpoints.tsv",
                      "--seed", "1"], "{"),
    "lexicon": (["candidates", "--counts", "counts.tsv", "--lexicon", "bad.tsv",
                 "--relation", "dobj", "--seed", "1", "--random-per-head", "0"],
                "#sp-candidates v1\n"),
    "counts": (["score", "--counts", "bad.tsv", "--pairs", "pairs.tsv"], "#sp-scores v1\n"),
    "omcs": (["omcs-match", "--gold", "gold.tsv", "--omcs", "bad.tsv"], "group"),
}

OMCS_PIECES = [b"\t", b"\n", b"\r", b" ", b"#", b"eat", b"worms", b"Fish", b"UsedFor",
               b"\xc3\xa9", b"\xe2\x80\xa8", b"\x00", b"\x0c", b"\xff", b"\xc3"]
# fields of rows, good and bad for some reader; rows join fields with tabs
FIELDS = [b"dobj", b"NSUBJ", b"bogus", b"eat", b"Worm", b"fish", b"", b" ", b"#x",
          b"1", b"3", b"0", b"-2", b"3.5", b"1_0", b" 4 ", b"9" * 5000, b"nan", b"NA", b"12",
          b"verb", b"noun", b"adj", b"4|5", b"1|9", b"eat worms",
          b"\r", b"\xc3\xa9", b"\xe2\x80\xa8", b"\x1c", b"\x00", b"\xff"]
ROWS = st.one_of(
    st.sampled_from([2, 3, 4]).flatmap(
        lambda n: st.lists(st.sampled_from(FIELDS), min_size=n, max_size=n)),
    st.lists(st.sampled_from(FIELDS), min_size=1, max_size=5)).map(b"\t".join)


@pytest.mark.parametrize("family", sorted(TSV_FAMILIES))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=64),
                      st.lists(st.sampled_from(OMCS_PIECES + FIELDS), max_size=40).map(b"".join),
                      st.lists(ROWS, max_size=6).map(b"\n".join)))
def test_any_bytes_exit_0_or_error_line(fuzz_dir, family, data):
    bad = fuzz_dir / "bad.tsv"
    bad.write_bytes(data)
    command, stdout = TSV_FAMILIES[family]
    argv = [str(fuzz_dir / arg) if arg.endswith(".tsv") else arg for arg in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        assert err.getvalue() == "" and out.getvalue().startswith(stdout)
        return
    assert rc == 1
    # a survey needs 3 checkpoints and 100 pairs: the errors that are not a row's
    row_error = rf"error: {re.escape(str(bad))}:\d+: .+\n"
    file_error = {"checkpoints": rf"error: {re.escape(str(bad))}: need exactly 3 checkpoints, "
                                 rf"got \d+\n",
                  "survey-pairs": rf"error: {re.escape(str(bad))}: need exactly 100 pairs, "
                                  rf"got \d+\n"}
    assert (re.fullmatch(row_error, err.getvalue())
            or family in file_error and re.fullmatch(file_error[family], err.getvalue())), \
        err.getvalue()
    assert len(err.getvalue()) < len(str(bad)) + 150


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["debug", "info", "drop", "floor", "pp", "lookup", "exact"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6)
CONFIG_DOCS = st.dictionaries(st.sampled_from(sorted(DEFAULTS) + ["epoch", "", "in"]),
                              JSON_VALUES, max_size=4)
JSON_PIECES = [b"{", b"}", b"[", b"]", b":", b",", b" ", b"\n", b'"epochs"', b'"log_level"',
               b'"info"', b"1", b"-2", b"1.5", b"1e999", b"NaN", b"true", b"null",
               b"9" * 5000, b"[" * 2000, b"\xff", b"\x00", b"\xc3\xa9"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.one_of(CONFIG_DOCS.map(lambda doc: json.dumps(doc).encode()),
                      JSON_VALUES.map(lambda value: json.dumps(value).encode()),
                      st.binary(max_size=64),
                      st.lists(st.sampled_from(JSON_PIECES), max_size=20).map(b"".join)))
def test_any_config_bytes_exit_0_or_error_line(fuzz_dir, data):
    corpus, cfg = fuzz_dir / "corpus.conllu", fuzz_dir / "cfg.json"
    corpus.write_text(FISH_WORM, encoding="utf-8")
    cfg.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["extract", "--in", str(corpus), "--config", str(cfg)])
    if rc == 0:
        assert err.getvalue() == "" and out.getvalue().startswith("#sp-counts v1\n")
        return
    assert rc == 1
    assert re.fullmatch(rf"error: {re.escape(str(cfg))}(:\d+)?: .+\n", err.getvalue()), \
        err.getvalue()
    assert len(err.getvalue()) < len(str(cfg)) + 150


def rows_of(good, pieces, sep, widths):
    """Byte lines joined by newlines: mostly well-formed ones drawn from
    ``good``, the rest ``pieces`` joined by ``sep``, as many as a width
    drawn from ``widths``."""
    free = st.sampled_from(widths).flatmap(
        lambda n: st.lists(st.sampled_from(pieces), min_size=n, max_size=n)).map(sep.join)
    return st.lists(st.one_of(good, good, good, free), max_size=6).map(b"\n".join)


BAD_BYTES = [b"", b" ", b"\r", b"\x00", b"\xff", b"\xc3\xa9", b"\xe2\x80\xa8", b"x" * 5000,
             b"9" * 5000, b"9" * 4000, b"-" + b"9" * 4000]
CONLLU_FIELDS = [b"1", b"2", b"3", b"0", b"-1", b"1-2", b"2.1", b"x", b"_", b"eat", b"Fish",
                 b"VERB", b"NOUN", b"nsubj", b"obj", b"amod", b"root", b"aux:pass", b"#"
                 ] + BAD_BYTES
SENTENCES = st.lists(st.tuples(st.sampled_from(["Eat", "fish", "hungry", " "]),
                               st.sampled_from(["VERB", "NOUN", "ADJ"]), st.integers(0, 3),
                               st.sampled_from(["root", "nsubj", "obj", "amod", "nsubj:pass"])),
                     min_size=1, max_size=3).map(lambda tokens: "".join(
                         f"{i}\t_\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_\n"
                         for i, (lemma, upos, head, deprel) in enumerate(tokens, 1)).encode())
RATINGS_HEADER = b"annotator_id,relation,head,dependent,rating,is_checkpoint,expected\n"
RATING_FIELDS = [b"a1", b"dobj", b"NSUBJ", b"bogus", b"eat", b"worm", b"1", b"3", b"9",
                 b"0", b"4|5", b"1|9", b"|", b'"a\nb"', b'"x,""y"', b'"', b"1" * 131073
                 ] + BAD_BYTES
RATINGS = st.builds("{},{},eat,{},{},{}".format, st.sampled_from(["a1", "a2", '"a\n3"']),
                    st.sampled_from(["dobj", "NSUBJ"]), st.sampled_from(["worm", "fish"]),
                    st.integers(1, 5), st.sampled_from(["0,", "1,4|5", "1,1"])
                    ).map(str.encode)
VECTOR_FIELDS = [b"eat", b"worm", b"1", b"-0.5", b"nan", b"inf", b"1e400", b"1_0"] + BAD_BYTES
VECTORS = st.builds("{} {} {}".format, st.sampled_from(["eat", "worm", "fish", "x" * 50]),
                    st.sampled_from(["1", "-0.5", "0", "2e3"]),
                    st.sampled_from(["1", "0.25", "0", "nan"])).map(str.encode)
GOOD_QUESTION = {"id": "q", "sentence": "s", "verb": "eat", "adjective": "hungry",
                 "candidate_subject": {"surface": "the fish", "lemma": "fish"},
                 "candidate_object": {"surface": "the worm", "lemma": "worm"}, "gold": "subject"}
QUESTION_VALUES = JSON_VALUES | st.sampled_from(["", " ", "a\tb", "x" * 5000, "object"])
QUESTIONS = st.just(GOOD_QUESTION) | st.builds(
    lambda over, drop: {k: v for k, v in {**GOOD_QUESTION, **over}.items() if k not in drop},
    st.dictionaries(st.sampled_from(sorted(GOOD_QUESTION)), QUESTION_VALUES, max_size=1),
    st.sets(st.sampled_from(sorted(GOOD_QUESTION)), max_size=1))
QUESTION_LISTS = st.lists(QUESTIONS, min_size=1, max_size=3).map(lambda qs: [
    {**q, "id": f"q{i}"} if q.get("id") == "q" else q for i, q in enumerate(qs)])
QUESTION_DOCS = st.fixed_dictionaries({
    "schema_version": st.one_of(st.just(1), st.just(1), QUESTION_VALUES),
    "questions": st.one_of(QUESTION_LISTS, QUESTION_LISTS, QUESTION_VALUES)})

# one command per input that is not a TSV, the start of its stdout on
# success, the bytes its fuzzed file bad.tsv is drawn from, and the errors
# it may end in that name no line
INPUT_FAMILIES = {
    "conllu": (["extract", "--in", "bad.tsv"], "#sp-counts v1\n",
               rows_of(SENTENCES, CONLLU_FIELDS, b"\t", [10, 10, 9, 11]), None),
    "ratings": (["aggregate", "--ratings", "bad.tsv", "--min-ratings", "1"], "#sp10k v1\n",
                rows_of(RATINGS, RATING_FIELDS, b",", [7, 7, 6, 8]).map(
                    lambda rows: RATINGS_HEADER + rows), None),
    "questions": (["winograd", "--backend", "lookup", "--scores", "gold.tsv",
                   "--questions", "bad.tsv"], "{",
                  QUESTION_DOCS.map(lambda doc: json.dumps(doc).encode()), "{bad}: .+"),
    "embeddings": (["score", "--backend", "ds", "--counts", "counts.tsv",
                    "--embeddings", "bad.tsv", "--pairs", "pairs.tsv"], "#sp-scores v1\n",
                   rows_of(VECTORS, VECTOR_FIELDS, b" ", [1, 3, 3, 4]),
                   "{bad}: (empty embedding file|cosine of a zero-norm vector is undefined "
                   "for .+)"),
}

@pytest.mark.parametrize("family", sorted(INPUT_FAMILIES))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_any_input_bytes_exit_0_or_error_line(fuzz_dir, family, data):
    command, stdout, structured, unlocated = INPUT_FAMILIES[family]
    bad = fuzz_dir / "bad.tsv"
    bad.write_bytes(data.draw(st.one_of(
        st.binary(max_size=64), structured,
        st.lists(st.sampled_from(JSON_PIECES + FIELDS), max_size=20).map(b"".join))))
    argv = [str(fuzz_dir / arg) if arg.endswith(".tsv") else arg for arg in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        assert err.getvalue() == "" and out.getvalue().startswith(stdout)
        return
    assert rc == 1
    where = re.escape(str(bad))
    other = "" if unlocated is None else "|" + unlocated.format(bad=where)
    assert re.fullmatch(rf"error: ({where}:\d+: .+{other})\n", err.getvalue()), err.getvalue()
    assert len(err.getvalue()) < len(str(bad)) + 150


@pytest.mark.parametrize("version, shown", [(True, "True"), (1.0, "1.0"), ("1", "'1'")],
                         ids=["true", "1.0", "string 1"])
def test_questions_schema_version_must_be_the_int_1(tmp_path, capsys, version, shown):
    gold = write(tmp_path / "gold.tsv", GOLD)
    questions = write(tmp_path / "q.json", json.dumps(
        {"schema_version": version, "questions": [GOOD_QUESTION]}))
    assert main(["winograd", "--backend", "lookup", "--scores", gold,
                 "--questions", questions]) == 1
    assert capsys.readouterr().err == (
        f"error: {questions}: unsupported schema_version {shown}\n")


@pytest.mark.parametrize("rows, message", [
    pytest.param(["a" * 5001 + ",dobj,eat,worm,3,0,", "b,dobj,eat,worm,4,0,",
                  "b,dobj,eat,fish,2,0,"],
                 f"annotator '{'a' * 40}'... shares fewer than 2 pairs with the rest",
                 id="long id sharing one pair"),
    pytest.param(["a" * 5001 + ",dobj,eat,worm,3,0,", "a" * 5001 + ",dobj,eat,fish,3,0,",
                  "a" * 5001 + ",dobj,eat,stone,5,0,", "b,dobj,eat,worm,4,0,",
                  "b,dobj,eat,fish,2,0,"],
                 f"annotator '{'a' * 40}'...: rank variance is zero (constant input)",
                 id="long id constant on the shared pairs"),
])
def test_iaa_overlap_error_names_the_file_and_clips_the_id(tmp_path, capsys, rows, message):
    ratings = write(tmp_path / "r.csv", RATINGS_HEAD + "\n".join(rows) + "\n")
    assert main(["iaa", "--ratings", ratings]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {ratings}: {message}\n"
    assert len(err) < len(ratings) + 150


LONG = "x" * 5000
LONG_SHOWN = f"'{'x' * 40}'..."


def long_lemma_inputs(tmp_path):
    """A lexicon and counts whose one verb is 5,000 characters long and
    attested with both nouns of the lexicon."""
    return {"LEX": write(tmp_path / "lex.tsv", f"{LONG}\tverb\nfish\tnoun\nworm\tnoun\n"),
            "SHORT_LEX": write(tmp_path / "short.tsv", "eat\tverb\nfish\tnoun\n"),
            "COUNTS": write(tmp_path / "counts.tsv", f"dobj\t{LONG}\tfish\t2\n"
                                                     f"dobj\t{LONG}\tworm\t1\n"),
            "PAIRS": write(tmp_path / "pairs.tsv", f"dobj\t{LONG}\tfish\n"
                                                   f"dobj\t{LONG}\tworm\n"),
            "OUT": str(tmp_path / "model.npz")}


@pytest.mark.parametrize("argv, message", [
    pytest.param(["train-nn", "--counts", "COUNTS", "--lexicon", "SHORT_LEX", "--seed", "1",
                  "--out", "OUT"], f"{{COUNTS}}: dobj: head {LONG_SHOWN} not in the verb pool",
                 id="train-nn vocabulary"),
    pytest.param(["train-nn", "--counts", "COUNTS", "--lexicon", "LEX", "--seed", "1",
                  "--out", "OUT"],
                 f"{{COUNTS}}: dobj: every dependent attested for head {LONG_SHOWN}, "
                 "nothing left to corrupt with", id="train-nn negatives"),
    pytest.param(["candidates", "--counts", "COUNTS", "--lexicon", "LEX", "--relation", "dobj",
                  "--seed", "1"],
                 f"{{LEX}}: lexicon pool for dobj too small: need 2 unchosen dependents for "
                 f"head {LONG_SHOWN}, have 0", id="candidates pool"),
    pytest.param(["pseudo", "--pairs", "PAIRS", "--lexicon", "LEX", "--seed", "1",
                  "--counts", "COUNTS"],
                 f"{{LEX}}: no confounder available for dobj head {LONG_SHOWN}: "
                 "pool exhausted by attested pairs", id="pseudo confounders"),
])
def test_lemma_in_an_error_is_clipped(tmp_path, capsys, argv, message):
    files = long_lemma_inputs(tmp_path)
    assert main([files.get(arg, arg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message.format(**files)}\n"
    for path in (files["COUNTS"], files["LEX"]):  # the path is the user's
        err = err.replace(path, "")
    assert len(err.encode()) < 200


def test_untrained_relation_error_is_not_quoted(tmp_path, capsys):
    lexicon = write(tmp_path / "lex.tsv", "eat\tverb\nfish\tnoun\nworm\tnoun\ncat\tnoun\n")
    counts = write(tmp_path / "counts.tsv", "dobj\teat\tfish\t2\ndobj\teat\tworm\t1\n")
    model = str(tmp_path / "model.npz")
    assert main(["train-nn", "--counts", counts, "--lexicon", lexicon, "--seed", "1",
                 "--epochs", "1", "--out", model]) == 0
    assert main(["winograd", "--backend", "nn", "--model", model]) == 1
    assert re.fullmatch(rf"error: {re.escape(model)}: no network trained for relation [a-z_]+\n",
                        capsys.readouterr().err)


def past_reader_inputs(tmp_path):
    """Inputs each reader accepts whose fault shows only once a run uses
    them: a relation the counts lack, a lexicon too small to draw from, a
    zero vector, and a model trained for dobj alone."""
    files = {
        "COUNTS": write(tmp_path / "counts.tsv",
                        "dobj\teat\tapple\t3\nnsubj_amod\teat\ttasty\t1\n"),
        "DOBJ_COUNTS": write(tmp_path / "dobj.tsv", "dobj\teat\tapple\t3\n"),
        "LEX": write(tmp_path / "lex.tsv", "eat\tverb\napple\tnoun\n"),
        "LEX2": write(tmp_path / "lex2.tsv", "eat\tverb\napple\tnoun\npear\tnoun\n"),
        "VECTORS": write(tmp_path / "v.txt",
                         "eat 1 0\napple 1 0\npear 0 0\ntasty 1 0\nhungry 0 0\n"),
        "PAIRS": write(tmp_path / "pairs.tsv", "dobj\teat\tapple\n"),
        "ZERO_PAIRS": write(tmp_path / "zero.tsv", "dobj\teat\tapple\ndobj\teat\tpear\n"),
        "GOLD": write(tmp_path / "gold.tsv", "dobj\teat\tapple\t9.00\ndobj\teat\tpear\t3.00\n"),
        "QUESTIONS": write(tmp_path / "q.json", json.dumps({"schema_version": 1,
                                                            "questions": [GOOD_QUESTION]})),
        "MODEL": str(tmp_path / "m.npz")}
    assert main(["train-nn", "--counts", files["DOBJ_COUNTS"], "--lexicon", files["LEX2"],
                 "--seed", "1", "--epochs", "1", "--out", files["MODEL"]]) == 0
    return files


DS = ["--backend", "ds", "--counts", "COUNTS", "--embeddings", "VECTORS"]
ZERO_NORM = "{VECTORS}: cosine of a zero-norm vector is undefined for"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["candidates", "--counts", "COUNTS", "--lexicon", "LEX", "--relation", "amod",
                  "--seed", "1"], "{COUNTS}: no counts for relation amod", id="candidates counts"),
    pytest.param(["candidates", "--counts", "COUNTS", "--lexicon", "LEX", "--relation", "dobj",
                  "--seed", "1"], "{LEX}: lexicon pool for dobj too small: need 2 unchosen "
                 "dependents for head 'eat', have 0", id="candidates pool"),
    pytest.param(["pseudo", "--pairs", "PAIRS", "--lexicon", "LEX", "--seed", "1",
                  "--counts", "COUNTS"], "{LEX}: no confounder available for dobj head 'eat': "
                 "pool exhausted by attested pairs", id="pseudo confounders"),
    pytest.param(["score", "--pairs", "ZERO_PAIRS", *DS], f"{ZERO_NORM} dobj pair 'eat' 'pear'",
                 id="score ds"),
    pytest.param(["winograd", "--backend", "nn", "--model", "MODEL"],
                 "{MODEL}: no network trained for relation nsubj_amod", id="winograd nn"),
    pytest.param(["eval", "--gold", "GOLD", *DS], f"{ZERO_NORM} dobj pair 'eat' 'pear'",
                 id="eval ds"),
    pytest.param(["pseudo", "--pairs", "PAIRS", "--lexicon", "LEX2", "--seed", "1", *DS],
                 f"{ZERO_NORM} dobj pair 'eat' 'pear'", id="pseudo ds"),
    pytest.param(["winograd", "--questions", "QUESTIONS", *DS],
                 f"{ZERO_NORM} nsubj_amod pair 'eat' 'hungry'", id="winograd ds"),
])
def test_a_fault_past_the_readers_names_its_input(tmp_path, capsys, argv, message):
    files = past_reader_inputs(tmp_path)
    capsys.readouterr()
    assert main([files.get(arg, arg) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**files)}\n"


@pytest.mark.parametrize("text", ["", "# pairs\n\n"], ids=["empty", "comments only"])
def test_pseudo_without_test_pairs_names_the_file(tmp_path, capsys, corpus, text):
    pairs = write(tmp_path / "pairs.tsv", text)
    assert main(["pseudo", "--pairs", pairs, "--lexicon", make_lexicon(tmp_path),
                 "--seed", "1", "--counts", str(make_counts(tmp_path, corpus))]) == 1
    assert capsys.readouterr().err == f"error: {pairs}: no test pairs\n"


SURVEY_PAIRS = "".join(f"dobj\tverb{i}\tnoun{i}\n" for i in range(99))


@pytest.mark.parametrize("text, where, message", [
    pytest.param(SURVEY_PAIRS + "nsubj\tsee\tbird\n", ":100",
                 "pair relation nsubj, survey relation dobj", id="one nsubj row last"),
    pytest.param("# pairs\nnsubj\tsee\tbird\n" + SURVEY_PAIRS, ":3",
                 "pair relation dobj, survey relation nsubj", id="one nsubj row first"),
    pytest.param("", "", "need exactly 100 pairs, got 0", id="empty"),
    pytest.param(SURVEY_PAIRS, "", "need exactly 100 pairs, got 99", id="99 pairs"),
    pytest.param(SURVEY_PAIRS + "dobj\tverb7\tnoun7\n", ":100",
                 "duplicate pair dobj 'verb7' 'noun7'", id="a pair given twice"),
])
def test_bad_survey_pairs_exit_1_naming_the_file(tmp_path, capsys, text, where, message):
    pairs = write(tmp_path / "pairs.tsv", text)
    checkpoints = write(tmp_path / "cp.tsv", "dobj\teat\tmeal\t4|5\ndobj\teat\tsky\t1|2\n"
                                             "dobj\tdrink\twater\t4|5\n")
    assert main(["survey", "--pairs", pairs, "--checkpoints", checkpoints,
                 "--seed", "5"]) == 1
    assert capsys.readouterr().err == f"error: {pairs}{where}: {message}\n"


def test_cli_defaults_match_the_library_defaults():
    nn = NNConfig()
    for key in ("embedding_dim", "hidden_dim", "margin", "epochs", "learning_rate",
                "batch_size"):
        assert DEFAULTS[key] == getattr(nn, key), key
    assert DEFAULTS["negatives"] == nn.negatives_per_positive
    candidates = inspect.signature(generate_candidates).parameters
    for key in ("heads_per_relation", "frequent_per_head", "random_per_head"):
        assert DEFAULTS[key] == candidates[key].default, key
    default = {fn: {name: p.default for name, p in inspect.signature(fn).parameters.items()}
               for fn in (aggregate, evaluate)}
    assert DEFAULTS["min_ratings"] == default[aggregate]["min_ratings"]
    assert DEFAULTS["missing"] == default[evaluate]["missing_policy"]


# the flags of the golden commands that name an input, and those that name an output
INPUT_FLAGS = {"--in", "--counts", "--lexicon", "--embeddings", "--model", "--scores",
               "--ratings", "--pairs", "--gold", "--checkpoints", "--omcs", "--questions"}
OUTPUT_FLAGS = {"--out", "--report", "--json", "--predictions"}
EMPTY_INPUT_CASES = [(name, flag) for name, argv in GOLDEN_COMMANDS
                     for flag in argv if flag in INPUT_FLAGS]


def golden_argv(argv, inputs, outputs, empty_flag=None, empty=None):
    """argv with its input paths under ``inputs`` (the one after
    ``empty_flag`` replaced by ``empty``) and its output paths under ``outputs``."""
    out = []
    for flag, arg in zip(["", *argv], argv):
        if flag == empty_flag:
            arg = str(empty)
        elif flag in INPUT_FLAGS:
            arg = str(inputs / arg)
        elif flag in OUTPUT_FLAGS:
            arg = str(outputs / arg)
        out.append(arg)
    return out


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    """The golden test's inputs with every artifact its commands write."""
    root = tmp_path_factory.mktemp("golden")
    write_golden_inputs(root)
    for name, argv in GOLDEN_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(golden_argv(argv, root, root)) == 0, name
    return root


@pytest.mark.parametrize("name, flag", EMPTY_INPUT_CASES,
                         ids=[f"{name} {flag}" for name, flag in EMPTY_INPUT_CASES])
def test_empty_input_exit_0_or_one_error_line(golden_inputs, tmp_path, name, flag):
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    argv = golden_argv(dict(GOLDEN_COMMANDS)[name], golden_inputs, tmp_path, flag, empty)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 0 or rc == 1 and re.fullmatch(r"error: [^\n]+\n", err.getvalue()), \
        (rc, err.getvalue())


@pytest.mark.parametrize("argv, message", [
    pytest.param(["candidates", "--counts", "counts.tsv", "--lexicon", "EMPTY",
                  "--relation", "dobj", "--seed", "3"],
                 "no noun entries, needed for dobj dependents", id="candidates"),
    pytest.param(["pseudo", "--pairs", "candidates.tsv", "--lexicon", "EMPTY", "--seed", "9",
                  *BACKEND_FLAGS["pp"]],
                 "no noun entries, needed for dobj dependents", id="pseudo"),
    pytest.param(["train-nn", "--counts", "counts.tsv", "--lexicon", "EMPTY", "--seed", "5",
                  "--out", "model.npz"],
                 "no verb entries, needed for dobj heads", id="train-nn"),
])
def test_an_empty_lexicon_pool_is_blamed_on_the_lexicon(golden_inputs, tmp_path, capsys,
                                                        argv, message):
    empty = write(tmp_path / "empty.tsv", "# lemma\tpos\n")
    argv = golden_argv(argv, golden_inputs, tmp_path, "--lexicon", empty)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {empty}: {message}\n"


@pytest.mark.parametrize("name, bad, fault", [
    ("w1", np.zeros((3, 3)), "shape (3, 3), expected (6, 8)"),
    ("emb_head", np.zeros((1, 4)), "shape (1, 4), expected (27, 4)"),
    ("b1", np.zeros(2), "shape (2,), expected (6,)"),
    ("b1", np.array(["x"] * 6), "dtype <U1, expected float64"),
    # the first word written again over the second, as the sorted pools give them
    ("heads", np.array(VERBS[:1] + VERBS[:-1]), "'break' more than once"),
    ("deps", np.array(sorted(NOUNS)[:1] + sorted(NOUNS)[:-1]), "'alice' more than once"),
    # save writes 0.0 for the output bias the net lacks, so another value is refused
    ("b2", np.array(0.5), "value 0.5, expected 0.0"),
], ids=["w1 shape", "emb_head rows", "b1 length", "b1 dtype", "heads repeat", "deps repeat",
        "b2 nonzero"])
def test_nn_model_with_a_misfit_array_exit_1(golden_inputs, tmp_path, capsys, name, bad, fault):
    with np.load(golden_inputs / "model.npz") as z:
        arrays = dict(z)
    arrays[f"dobj__{name}"] = bad
    model = tmp_path / "model.npz"
    np.savez(model, **arrays)
    assert main(["score", "--backend", "nn", "--model", str(model),
                 "--pairs", str(golden_inputs / "candidates.tsv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {model}: not a readable model file: dobj__{name} has {fault}\n")


# the column of a lemma in each lemma-bearing TSV or CSV input of the golden commands
LEMMA_COLUMNS = {"--counts": 1, "--pairs": 1, "--gold": 1, "--scores": 1, "--lexicon": 0,
                 "--checkpoints": 1, "--ratings": 2, "--omcs": 0}
# a blank lemma is empty; a padded one has surrounding spaces, except in an
# OMCS phrase, which is free text split into tokens on whitespace
BLANK_LEMMA_CASES = [(name, flag, blank) for name, argv in GOLDEN_COMMANDS
                     for flag in argv if flag in LEMMA_COLUMNS
                     for blank in ("", " ") + ((" rock",) if flag != "--omcs" else ())]


@pytest.mark.parametrize("name, flag, blank", BLANK_LEMMA_CASES,
                         ids=[f"{name} {flag} {blank!r}" for name, flag, blank in BLANK_LEMMA_CASES])
def test_a_blank_lemma_is_one_located_error(golden_inputs, tmp_path, name, flag, blank):
    argv = dict(GOLDEN_COMMANDS)[name]
    source = golden_inputs / argv[argv.index(flag) + 1]
    text = source.read_text(encoding="utf-8")
    sep = "," if flag == "--ratings" else "\t"
    fields = text.splitlines()[-1].split(sep)  # the last line is a data row
    fields[LEMMA_COLUMNS[flag]] = blank
    bad = tmp_path / f"blank-{source.name}"
    bad.write_text(text + sep.join(fields) + "\n", encoding="utf-8")
    argv = golden_argv(argv, golden_inputs, tmp_path, flag, bad)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lineno = text.count("\n") + 1
    fault = "lemma has surrounding spaces" if blank.strip() else "empty"
    assert rc == 1 and re.fullmatch(rf"error: {re.escape(str(bad))}:{lineno}: [^\n]*{fault}\n",
                                    err.getvalue()), (rc, err.getvalue())


# the golden commands that compute with numpy: train-nn and the ds and nn
# backends; rank correlations are pure Python, so no other command may load it
NUMPY_COMMANDS = {"train-nn", "score-ds", "score-nn", "eval-ds", "eval-nn"}
# every command loads the cli and what it imports; beyond those, a command
# loads the modules it runs and no other
CLI_MODULES = {"selpref", "selpref.cli", "selpref.core", "selpref.conllu", "selpref.extract",
               "selpref.evaluation", "selpref.scorers"}
RUN_MODULES = {"train-nn": {"nn"}, "score-ds": {"embeddings"}, "eval-ds": {"embeddings"},
               "score-nn": {"nn"}, "eval-nn": {"nn"}, "aggregate": {"annotate"},
               "iaa": {"annotate"}, "survey": {"annotate"},
               "omcs-match": {"commonsense", "lemmatize"},
               "omcs-matrix": {"commonsense", "lemmatize"},
               "winograd-gold": {"winograd"}, "winograd-pp": {"winograd"}}
NUMPY_PROBE = """\
import sys
from selpref.cli import main
assert main(sys.argv[1:]) == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "selpref")), file=sys.stderr)
print("numpy" in sys.modules, file=sys.stderr)
"""


VERSION_PROBE = """\
import sys
from selpref.cli import main
try:
    main(["--version"])
except SystemExit as stop:
    assert stop.code == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "selpref")), file=sys.stderr)
"""


def test_version_loads_only_the_cli_modules():
    proc = subprocess.run([sys.executable, "-c", VERSION_PROBE], capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert "questions schema 1)" in " ".join(proc.stdout.split())
    assert set(proc.stderr.split()) == CLI_MODULES


@pytest.mark.parametrize("name, argv", GOLDEN_COMMANDS, ids=[name for name, _ in GOLDEN_COMMANDS])
def test_numpy_is_loaded_only_where_numbers_are_crunched(golden_inputs, tmp_path, name, argv):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *golden_argv(argv, golden_inputs, tmp_path)],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.splitlines()[-2].split())
    assert modules == CLI_MODULES | {f"selpref.{m}" for m in RUN_MODULES.get(name, ())}
    assert proc.stderr.splitlines()[-1] == str(name in NUMPY_COMMANDS)
