"""Run one advclr benchmark workload, or all of them, and print the result.

    python3 perfbench/run.py --workload act_pretrain --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: it imports advclr from ``src/`` there and
fails (exit code 2, no result) when the sources are missing. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones (see catalog.py). Lines before it record the environment
(``env``) and, untraced, the program's own wall figures next to the
host-speed scale applied to the reported times (``wall``, see bench.HostClock).
Scratch files go to ``.perfbench/`` in the checkout and are removed on exit;
a traced run leaves its spans in ``.perfbench/traces/``.

``--workload all`` runs each workload in a fresh process (``launch``) and
prints a table, then every workload's env, wall and result lines as one JSON.
"""

import os
import sys

# OpenBLAS and OpenMP read these once, when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import tempfile

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = tuple(name for name, _ in catalog.WORKLOADS)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny datasets and epochs, for the benchmark's own tests")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    try:
        # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit}


def run_one(args) -> int:
    sys.path[:0] = [SRC, HERE]
    import advclr
    if os.path.dirname(os.path.abspath(advclr.__file__)) != os.path.join(SRC, "advclr"):
        print(f"perfbench: imported advclr from {advclr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    size = bench.SIZES[args.size]
    try:
        if args.trace:
            trace_path = os.path.join(SCRATCH, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            result = bench.measure_traced(args.workload, args.seed, args.seconds, size,
                                          workdir, trace_path)
            names = [m[0] for m in catalog.PER_LAYER]
        else:
            result = bench.measure(args.workload, args.seed, args.seconds, size, workdir)
            names = [m[0] for m in catalog.END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    values = result["metrics"]
    missing = sorted(set(names) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(), sort_keys=True))
    if "wall" in result:
        print("wall " + json.dumps(result["wall"], sort_keys=True))
    print(f"{args.workload}: iterations={result['iterations']} ops={result['attempted']} "
          f"failed_ops={result['failed']}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": float(values[n]), "unit": catalog.UNITS[n]} for n in names},
    }))
    return 0


def launch(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict | None:
    """Run one workload in a fresh process; its parsed env, wall and result
    lines, or None when it fails."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: failed with exit code {proc.returncode}")
        return None
    out = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "wall"):
            out[tag] = json.loads(rest)
    return out


def run_all(args) -> int:
    """Each workload in a fresh process; a table, then all outputs as JSON."""
    outputs, status = {}, 0
    for name in WORKLOAD_NAMES:
        out = launch(name, args.seed, args.seconds, args.trace, args.size)
        if out is None:
            status = 1
            continue
        outputs[name] = out
        res = out["result"]
        print(f"{name}: correct={res['correct']} ops={res['attempted']} "
              f"failed_ops={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<44} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(outputs))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "advclr", "__init__.py")):
        print(f"perfbench: no advclr sources in {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
