"""Tests of the benchmark itself, at the tiny input size.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = generate.generate(workload, 7, "tiny", tmp_path / "a", ROOT / "src")
    b = generate.generate(workload, 7, "tiny", tmp_path / "b", ROOT / "src")
    c = generate.generate(workload, 8, "tiny", tmp_path / "c", ROOT / "src")
    for key in a.files:
        assert a.path(key).read_bytes() == b.path(key).read_bytes(), key
    assert a.oracle.keys() == b.oracle.keys()
    assert any(a.path(k).read_bytes() != c.path(k).read_bytes() for k in a.files)


def test_vocabulary_has_release_size_and_the_question_words():
    vocab = generate.build_vocab(ROOT / "src")
    assert {pos: len(w) for pos, w in vocab.pools.items()} == generate.POOL_SIZES
    assert len(vocab.questions) == 72
    assert {v for v, _, _ in vocab.questions} <= set(vocab.pools["verb"])
    assert {a for _, a, _ in vocab.questions} <= set(vocab.pools["adj"])


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """One untraced iteration of every workload at the tiny size."""
    out = {}
    for name, wl in WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        inp = generate.generate(name, 3, "tiny", work, ROOT / "src")
        (work / "out").mkdir()
        with run.Runner(ROOT, work, f"test-{name}") as runner:
            _, outcomes = runner.iteration(wl.stages(inp))
        assert not runner.ledger.failures
        out[name] = (wl, inp, {k: oc.stderr for k, oc in outcomes.items()})
    return out


def _checks(pipelines, workload, root=None):
    wl, inp, stderr = pipelines[workload]
    if root is not None:
        inp = dataclasses.replace(inp, root=root)
    return {name: ok for name, ok, _ in wl.checks(inp, stderr)}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_every_check_passes_on_the_real_outputs(pipelines, workload):
    failed = {n for n, ok in _checks(pipelines, workload).items() if not ok}
    assert not failed


# omcs-matrix writes the partial matrix to its CSV whatever --kind says:
# the handler passes the --kind string to RelationMatrix.to_csv, whose
# cell() compares it against MatchKind.EXACT by identity. The benchmark
# runs --kind partial; this test keeps the exact kind in view.
@pytest.mark.xfail(strict=True, reason="omcs-matrix CSV ignores --kind exact")
def test_omcs_matrix_exact_csv(pipelines, tmp_path):
    _, inp, _ = pipelines["annotate-omcs"]
    out = tmp_path / "exact.csv"
    subprocess.run([sys.executable, "-m", "selpref.cli", "omcs-matrix",
                    "--gold", "out/gold.tsv", "--omcs", "omcs.tsv", "--kind", "exact",
                    "--out", str(out)],
                   cwd=inp.root, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   check=True, capture_output=True)
    ok, detail = oracles.check_omcs_matrix_csv(out, inp.root / "out" / "gold.tsv",
                                               inp.oracle["witnesses"], "exact")
    assert ok, detail


def _edit_tsv(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [i for i, l in enumerate(lines) if l and not l.startswith("#")]
    fields = lines[data[row]].split("\t")
    fields[col] = fn(fields[col])
    lines[data[row]] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    fn(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _bump(text: str, by: float) -> str:
    return repr(float(text) + by)


def _swap_prediction(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[4] = "object" if cells[4] == "subject" else "subject"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set(*keys, value):
    def fn(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value(doc[keys[-1]])
    return fn


# (workload, check, mutation of the workload directory)
MUTATIONS = [
    ("corpus-extract", "counts",
     lambda d: _edit_tsv(d / "out/counts.tsv", 0, 3, lambda c: str(int(c) + 1))),
    ("score-eval", "candidates-dobj",
     lambda d: _edit_tsv(d / "out/candidates-dobj.tsv", 0, 2, lambda w: w + "x")),
    ("score-eval", "score-pp",
     lambda d: _edit_tsv(d / "out/scores-pp.tsv", 0, 3, lambda v: _bump(v, 1e-15))),
    ("score-eval", "score-ds",
     lambda d: _edit_tsv(d / "out/scores-ds.tsv", 0, 3, lambda v: _bump(v, 1e-6))),
    ("score-eval", "eval-ds",
     lambda d: _edit_json(d / "out/eval-ds.json", _set("relations", "dobj", "rho",
                                                       value=lambda v: v + 1e-6))),
    ("score-eval", "pseudo-ds",
     lambda d: _edit_json(d / "out/pseudo-ds.json", _set("accuracy", value=lambda v: v + 0.01))),
    ("score-eval", "winograd-ds", lambda d: _swap_prediction(d / "out/winograd-ds.csv")),
    ("score-eval", "significance",
     lambda d: _edit_json(d / "out/significance.json", _set("p", value=lambda v: (v + 0.5) % 1))),
    ("nn-train", "score-nn",
     lambda d: _edit_tsv(d / "out/scores-nn.tsv", 2, 3, lambda v: _bump(v, 1e-6))),
    ("nn-train", "eval-nn",
     lambda d: _edit_json(d / "out/eval-nn.json", _set("overall_rho", value=lambda v: v + 1e-6))),
    ("nn-train", "winograd-nn", lambda d: _swap_prediction(d / "out/winograd-nn.csv")),
    ("annotate-omcs", "survey",
     lambda d: _edit_json(d / "out/survey.json", _set("questions", value=lambda q: q[:-1]))),
    ("annotate-omcs", "aggregate",
     lambda d: _edit_tsv(d / "out/gold.tsv", 5, 3, lambda v: f"{float(v) + 0.01:.2f}")),
    ("annotate-omcs", "iaa",
     lambda d: _edit_json(d / "out/iaa.json", _set("overall", value=lambda v: v + 1e-6))),
    ("annotate-omcs", "omcs-match",
     lambda d: _edit_json(d / "out/omcs-match.json",
                          _set("groups", "good", "exact", value=lambda v: v + 1))),
    ("annotate-omcs", "omcs-matrix-json",
     lambda d: _edit_json(d / "out/omcs-matrix.json", _set("exact", value=lambda v: {}))),
]


@pytest.mark.parametrize("workload,check,mutate", MUTATIONS,
                         ids=[f"{w}-{c}" for w, c, _ in MUTATIONS])
def test_check_catches_a_planted_wrong_output(pipelines, tmp_path, workload, check, mutate):
    _, inp, _ = pipelines[workload]
    copy = tmp_path / "w"
    shutil.copytree(inp.root, copy)
    mutate(copy)
    assert not _checks(pipelines, workload, copy)[check]


def test_skip_count_check_catches_a_missing_warning(pipelines):
    _, inp, stderr = pipelines["corpus-extract"]
    planted = inp.oracle["malformed"]
    assert planted > 0
    assert oracles.check_skipped(stderr["extract"], planted)[0]
    assert not oracles.check_skipped(stderr["extract"], planted + 1)[0]


def test_aggregate_check_catches_a_missed_rejection(pipelines, tmp_path):
    _, inp, _ = pipelines["annotate-omcs"]
    assert inp.oracle["rejected"]
    more = {**inp.oracle["rejected"], "nobody": "checkpoint"}
    out = inp.root / "out"
    assert not oracles.check_aggregate(out / "gold.tsv", out / "aggregate.json",
                                       inp.oracle["pair_ratings"], more)[0]


def test_matrix_csv_check_wants_the_requested_kind(pipelines, tmp_path):
    _, inp, _ = pipelines["annotate-omcs"]
    gold, witnesses = inp.root / "out" / "gold.tsv", inp.oracle["witnesses"]
    _, matrix = oracles.omcs_oracle(gold, witnesses)
    labels = sorted({l for kind in matrix.values() for row in kind.values() for l in row})
    for kind in ("exact", "partial"):
        lines = ["#config {}", "sp_relation," + ",".join(labels)]
        lines += [rel + "," + ",".join(str(matrix[kind].get(rel, {}).get(l, 0)) for l in labels)
                  for rel in generate.RELATIONS]
        (tmp_path / f"{kind}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert oracles.check_omcs_matrix_csv(tmp_path / "exact.csv", gold, witnesses, "exact")[0]
    ok, detail = oracles.check_omcs_matrix_csv(tmp_path / "partial.csv", gold, witnesses, "exact")
    assert not ok and "partial" in detail


def test_artifact_digest_ignores_only_the_timestamp(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text('{\n  "generated_at": "2026-01-01",\n  "x": 1\n}\n')
    b.write_text('{\n  "generated_at": "2027-02-02",\n  "x": 1\n}\n')
    c.write_text('{\n  "generated_at": "2026-01-01",\n  "x": 2\n}\n')
    assert oracles.artifact_digest(a) == oracles.artifact_digest(b)
    assert oracles.artifact_digest(a) != oracles.artifact_digest(c)


def test_rank_pearson_matches_the_package_spearman():
    from selpref.evaluation import spearman

    x = [3.0, 1.0, 2.0, 2.0, 5.0, 4.0, 4.0]
    y = [1.0, 2.0, 3.0, 3.0, 9.0, 0.5, 7.0]
    assert abs(oracles.rank_pearson(x, y) - spearman(x, y)) < 1e-12


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_traced_pass_reports_every_layer(workload):
    result, units, failures = run.run_workload(workload, 5, 1, True, "tiny", ROOT)
    assert not failures
    metrics = result["metrics"]
    assert set(metrics) == set(layers.UNITS) == set(units)
    for layer in layers.LAYERS:
        assert metrics[f"{layer}.self_s"] >= 0.0
    exercised = {"corpus-extract": ("conllu", "extract"),
                 "score-eval": ("extract", "embeddings", "scorers", "evaluation"),
                 "nn-train": ("nn",),
                 "annotate-omcs": ("annotate", "commonsense", "lemmatize")}[workload]
    assert metrics["cli.self_s"] > 0
    for layer in exercised:
        assert metrics[f"{layer}.self_s"] > 0, layer
    spans = list((ROOT / ".perfbench" / "spans").glob(f"{workload}-s5-t1-*.spans"))
    assert spans
    for path in spans:
        path.unlink()


def test_untraced_run_prints_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "nn-train", "--seed", "2",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    printed = {l.split()[0] for l in lines[:-1]}
    assert {"setup_s", "wall_s", "peak_rss_mb", "fail_ratio", "train_instances_per_s",
            "eval_pairs_per_s"} <= printed


def test_benchmark_json_lists_the_metrics_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
