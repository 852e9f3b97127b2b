"""The benchmark's set-up probe, run for every workload on its tiny inputs.

``perfbench/child.py setup WORKLOAD DIR`` imports the CLI and calls the
workload's public loaders (``read_conllu``, ``read_counts``,
``load_gold_file``, ``read_ratings``, ...) in a fresh interpreter.  A
loader that is renamed or removed fails every benchmark run of that
workload at set-up, so the probe is run here on inputs written by
``perfbench/generate.py``.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import selpref

SRC = Path(selpref.__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_generate():
    spec = importlib.util.spec_from_file_location("perfbench_generate", BENCH / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


generate = _load_generate()


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_benchmark_setup_probe_runs(workload, tmp_path):
    generate.generate(workload, 3, "tiny", tmp_path, SRC)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "setup", workload, "."],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    setup_s = json.loads(proc.stdout)["setup_s"]
    assert math.isfinite(setup_s) and setup_s > 0
