"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd_root, *args):
    run = os.path.join(cwd_root, "perfbench", "run.py")
    return subprocess.run([sys.executable, run, *args], cwd=cwd_root,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_is_generated_from_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == catalog.benchmark_json()


def test_catalog_fits_the_contract():
    spec = catalog.benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128 and 2 <= len(spec["workloads"]) <= 8


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w for w, _ in catalog.WORKLOADS])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    table = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in table]
    for name, metric in result["metrics"].items():
        assert metric["unit"] == catalog.UNITS[name]
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        wall = json.loads(next(line for line in proc.stdout.splitlines()
                               if line.startswith("wall ")).removeprefix("wall "))
        assert set(wall) == {"setup_s", "img_per_s", "probe_fit_s", "host_scale"}
        assert all(v > 0 for v in wall.values())


def test_tracer_restores_every_function(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import tracing

    def bindings():
        owners = {m for m, *_ in tracing.SPANNED} | {tracing.T, tracing.attacks}
        return {(owner, name): value for owner in owners
                for name, value in vars(owner).items() if callable(value)}

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    assert bindings() != before
    tracer.uninstall()
    assert bindings() == before


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "--workload", "act_pretrain", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
