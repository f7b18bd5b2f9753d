"""Measure every workload over ten seeds and write a BENCH_<n>.json.

    python3 perfbench/baseline.py --out perfbench/BENCH_1.json

For each seed, every workload runs in a fresh process at BENCHMARK.json's run
length, through run.py's ``launch`` as ``run.py --workload all`` does. For
every end-to-end metric the file keeps each run's value, the median, the
quartiles and the spread (quartile distance over median) next to the
metric's bound. Times are in reference-host seconds (see bench.HostClock), so
next to each scaled time the file keeps the program's own wall figures and
each run's host_scale, which show how far the correction moved them. A traced
run per workload adds the per-layer metrics with the end-to-end metric each
should move. Compare commits by their medians, on one host with the same
kernel.
"""

import argparse
import json
import statistics
import sys

import catalog
import run

SEEDS = range(10)


def _launch(workload: str, seed: int, trace: int) -> dict:
    out = run.launch(workload, seed, catalog.RUN_SECONDS, trace, "full")
    if out is None:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    return out


def _summary(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "runs": values}


def _workload_report(runs: list[dict], traced: dict) -> dict:
    results = [r["result"] for r in runs]
    end_to_end = {}
    for name, unit, _, bound in catalog.END_TO_END:
        entry = dict(unit=unit, **_summary([r["metrics"][name]["value"] for r in results], bound))
        if name in runs[0]["wall"]:
            walls = [r["wall"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(walls, n=4)
            entry.update(wall_median=statistics.median(walls),
                         wall_spread=(q3 - q1) / statistics.median(walls), wall_runs=walls)
        end_to_end[name] = entry
    scales = [r["wall"]["host_scale"] for r in runs]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "host_scale": {"median": statistics.median(scales), "runs": scales},
        "end_to_end": end_to_end,
        "traced": {"correct": traced["result"]["correct"], "seed": SEEDS[0],
                   "per_layer": {name: dict(traced["result"]["metrics"][name], moves=moves)
                                 for name, _, _, moves in catalog.PER_LAYER}},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    names = [name for name, _ in catalog.WORKLOADS]
    runs = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            out = _launch(name, seed, 0)
            runs[name].append(out)
            print(name, seed, {k: round(v["value"], 4) for k, v in out["result"]["metrics"].items()},
                  "host_scale", round(out["wall"]["host_scale"], 4), flush=True)
    report = {"run_seconds": catalog.RUN_SECONDS, "seeds": list(SEEDS),
              "env": runs[names[0]][0]["env"], "workloads": {}}
    for name in names:
        report["workloads"][name] = _workload_report(runs[name], _launch(name, SEEDS[0], 1))
        for metric, s in report["workloads"][name]["end_to_end"].items():
            wall = f", wall spread {s['wall_spread']:.4f}" if "wall_spread" in s else ""
            print(f"  {name} {metric}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){wall}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
