"""Seeded benchmark of the selpref toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs ``src/selpref``). The inputs of
the workload are generated from the seed under ``.perfbench/`` (not
timed). The stages then run as ``selpref`` child processes, one at a
time: a closed loop with one client. Untraced (``--trace 0``) the
pipeline repeats until ``--seconds`` is spent (at least three times), and the
run reports the end-to-end metrics as medians over the iterations. Traced
(``--trace 1``) one untraced and one traced iteration run, and the run
reports the per-layer metrics. Every iteration's artifacts are checked
against the generator's oracles or against the first iteration's.

Human-readable ``name value unit`` lines come first; the last line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload and prints one table of the 13
end-to-end metrics. ``--size tiny`` shrinks every input for tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# one BLAS thread here and in every child, set before numpy loads: the
# children run one at a time on a few shared cores, and OpenBLAS's own
# threads made the same stage's wall swing by a fifth
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import layers  # noqa: E402
import oracles  # noqa: E402
from generate import SIZES, generate  # noqa: E402
from tracer import load_records  # noqa: E402
from workloads import E2E_UNITS, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "key_items_per_s": "1/s"}
MIN_ITERATIONS = 3


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and "Traceback (most recent call last)" not in self.stderr


@dataclass
class Ledger:
    """Ops attempted and failed: every child process and every check."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok


class Runner:
    """Runs one workload's children in its directory, one at a time, through
    ``spawn.py``; keeps the ledger. Use it as a context manager."""

    def __init__(self, root: Path, work: Path, run_id: str):
        self.work = work
        self.run_id = run_id
        self.ledger = Ledger()
        src = str(root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + pythonpath if pythonpath else ""),
               "SELPREF_LOG_LEVEL": "warning"}
        self._spawner = subprocess.Popen([sys.executable, "-S", str(HERE / "spawn.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         env=env, text=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._spawner.terminate()   # kills the child it is waiting for
            try:
                self._spawner.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._spawner.kill()
                self._spawner.wait()
        self._spawner.stdout.close()

    def spawn(self, name: str, argv: list[str]) -> Outcome:
        """Run one child to completion; its peak RSS comes from wait4."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        request = {"argv": argv, "cwd": str(self.work), "stdout": str(out_path),
                   "stderr": str(err_path)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        oc = Outcome(reply["wall"], reply["maxrss_kb"] / 1024.0, reply["returncode"],
                     out_path.read_text(encoding="utf-8", errors="replace"),
                     err_path.read_text(encoding="utf-8", errors="replace"))
        self.ledger.op(name, oc.ok, f"exit {oc.returncode}: {oc.stderr.strip()[-300:]}")
        return oc

    def stage(self, st, spans: Path | None = None) -> Outcome:
        if spans is None and st.mode == "cli":
            argv = [sys.executable, "-m", "selpref.cli", *st.args]
        else:
            trace = ["--spans", str(spans), "--run", self.run_id, "--stage", st.name] if spans else []
            argv = [sys.executable, str(HERE / "child.py"), *trace, st.mode, *st.args]
        return self.spawn(st.name, argv)

    def iteration(self, stages, spans_dir: Path | None = None):
        """One pass of the pipeline: (wall, outcomes by stage name)."""
        outcomes = {}
        t = time.perf_counter()
        for st in stages:
            spans = spans_dir / f"{st.name}.spans" if spans_dir else None
            outcomes[st.name] = self.stage(st, spans)
        return time.perf_counter() - t, outcomes


def _digests(out: Path) -> dict[str, str]:
    return {p.name: oracles.artifact_digest(p) for p in sorted(out.iterdir()) if p.is_file()}


def _check(runner: Runner, wl, inp, outcomes) -> None:
    stderr = {name: oc.stderr for name, oc in outcomes.items()}
    try:
        for name, ok, detail in wl.checks(inp, stderr):
            runner.ledger.op(f"check {name}", ok, detail)
    except (OSError, ValueError, KeyError, TypeError) as err:
        # an artifact missing or unreadable is a failed check, not a crash
        runner.ledger.op("check", False, f"{type(err).__name__}: {err}")


def _same_artifacts(runner: Runner, first: dict, out: Path, label: str) -> None:
    now = _digests(out)
    changed = sorted(k for k in first.keys() | now.keys() if first.get(k) != now.get(k))
    runner.ledger.op(f"artifacts identical ({label})", not changed, f"changed: {changed}")


def measure(wl, inp, runner: Runner, seconds: float) -> dict:
    """Untraced closed loop: end-to-end metrics."""
    stages = wl.stages(inp)
    out = inp.root / "out"
    walls = {st.name: [] for st in stages}
    setups, iteration_walls, rss, first = [], [], 0.0, None
    start = time.perf_counter()
    while True:
        # one set-up probe before every pass, so both medians sample the
        # whole run rather than its first seconds
        oc = runner.spawn(f"setup {len(iteration_walls) + 1}",
                          [sys.executable, str(HERE / "child.py"), "setup", wl.name, "."])
        if oc.ok:
            setups.append(json.loads(oc.stdout)["setup_s"])
        wall, outcomes = runner.iteration(stages)
        iteration_walls.append(wall)
        for name, oc in outcomes.items():
            walls[name].append(oc.wall)
            rss = max(rss, oc.rss_mb)
        try:
            for k, v in wl.timings(inp.root).items():
                walls.setdefault(k, []).append(v)
        except (OSError, ValueError, KeyError) as err:
            runner.ledger.op("stage timings", False, str(err))
        if first is None:
            _check(runner, wl, inp, outcomes)
            first = _digests(out)
        else:
            _same_artifacts(runner, first, out, f"iteration {len(iteration_walls)}")
        elapsed = time.perf_counter() - start
        if len(iteration_walls) >= MIN_ITERATIONS and elapsed * (1 + 1 / len(iteration_walls)) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "wall_s": statistics.median(iteration_walls),
        "peak_rss_mb": rss,
    }
    try:
        metrics.update(wl.throughput(inp, walls))
    except (KeyError, ZeroDivisionError, statistics.StatisticsError) as err:
        runner.ledger.op("throughput", False, str(err))
    metrics["key_items_per_s"] = metrics.get(wl.key, float("nan"))
    metrics["iterations"] = len(iteration_walls)
    return metrics


def trace(wl, inp, runner: Runner, spans_file: Path) -> dict:
    """One untraced and one traced iteration: per-layer metrics."""
    stages = wl.stages(inp)
    out = inp.root / "out"
    wall, untraced = runner.iteration(stages)
    _check(runner, wl, inp, untraced)
    first = _digests(out)
    spans_dir = inp.root / "spans"
    spans_dir.mkdir()
    traced_wall, traced = runner.iteration(stages, spans_dir)
    _same_artifacts(runner, first, out, "traced")
    probes = {}
    probe_args = {"dependents": ("probe-dependents", "counts.tsv", "gold.tsv"),
                  "lemmatize": ("probe-lemmatize", "omcs.tsv")}
    for key, (mode, *args) in probe_args.items():
        if all((inp.root / a).is_file() for a in args):
            dest = f"probe-{key}.json"
            if runner.spawn(mode, [sys.executable, str(HERE / "child.py"), mode, *args, dest]).ok:
                probes[key] = json.loads((inp.root / dest).read_text(encoding="utf-8"))
    # one spans file per run, written once: the stages' records in order
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_file, "wb") as fh:
        for st in stages:
            part = spans_dir / f"{st.name}.spans"
            if part.is_file():
                fh.write(part.read_bytes())
    spans = layers.Spans(load_records(spans_file))
    return layers.layer_metrics(inp, stages, spans, untraced, traced, probes,
                                traced_wall - wall)


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: str,
                 root: Path) -> tuple[dict, dict[str, str], list[str]]:
    """One benchmark run: (result object, units of the metrics it holds,
    descriptions of the failed ops)."""
    wl = WORKLOADS[name]
    run_id = f"{name}-s{seed}-t{int(traced)}-p{os.getpid()}"
    base = root / ".perfbench"
    work = base / run_id
    shutil.rmtree(work, ignore_errors=True)
    try:
        inp = generate(name, seed, size, work, root / "src")
        (work / "out").mkdir()
        with Runner(root, work, run_id) as runner:
            if traced:
                metrics = trace(wl, inp, runner, base / "spans" / f"{run_id}.spans")
                units = layers.UNITS
            else:
                metrics = measure(wl, inp, runner, seconds)
                metrics["fail_ratio"] = len(runner.ledger.failures) / runner.ledger.attempted
                units = {**E2E_UNITS, **END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = runner.ledger
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures), "metrics": metrics}
    return result, units, ledger.failures


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "selpref" / "cli.py").is_file():
        print("run.py: no src/selpref here; run it from the root of a selpref checkout",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        return _table(args, root)
    result, units, _ = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.size, root)
    metrics = result["metrics"]
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {_fmt(metrics[name])} {unit}")
    wanted = END_TO_END if not args.trace else layers.UNITS
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()}
    print(json.dumps(result))
    return 0


def _table(args, root: Path) -> int:
    """Every workload in turn; one row per end-to-end metric."""
    cols = {}
    for name in WORKLOADS:
        result, _, _ = run_workload(name, args.seed, args.seconds, False, args.size, root)
        cols[name] = result["metrics"]
    width = max(map(len, E2E_UNITS)) + 2
    print("metric".ljust(width) + "unit".ljust(7) + "".join(n.rjust(16) for n in cols))
    for metric, unit in E2E_UNITS.items():
        cells = [_fmt(m[metric]) if metric in m else "-" for m in cols.values()]
        print(metric.ljust(width) + unit.ljust(7) + "".join(c.rjust(16) for c in cells))
    return 0 if all(m["fail_ratio"] == 0 for m in cols.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
