#!/usr/bin/env python3
"""Compare two sets of perfbench results (see perfbench/README.md).

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by perfbench/run.py (its
.bench_build/perfbench/results/), typically from the parent commit and from
a change, run with the same seeds. For every workload found in both:

* runs whose configs differ are refused: a changed rate, SLO, thread count
  or cost-model constant makes the workloads different programs, and a
  "gain" between them means nothing;
* virtual-time metrics must repeat exactly for each seed present in both;
* host-time metrics are compared by median, with the quartile spread of
  each side, against the bounds in BENCHMARK.json.

Exits 2 on a config mismatch, 1 on a virtual-time change or a host metric
worse than its bound, 0 otherwise.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: result}} of the untraced (end-to-end) runs."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        for entry in json.loads(spec_path.read_text())["end_to_end"]:
            bounds[entry["name"]] = entry["bound"]

    status = 0
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        b_cfg = {r["config_digest"] for r in b_runs.values()}
        n_cfg = {r["config_digest"] for r in n_runs.values()}
        if len(b_cfg | n_cfg) != 1:
            b_conf = next(iter(b_runs.values()))["config"]
            n_conf = next(iter(n_runs.values()))["config"]
            diff = sorted(k for k in set(b_conf) | set(n_conf)
                          if b_conf.get(k) != n_conf.get(k))
            print(f"{workload}: configs differ ({', '.join(diff) or 'within a set'}); "
                  "refusing to compare")
            return 2
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        metrics = next(iter(b_runs.values()))["end_to_end"]
        for name, meta in sorted(metrics.items()):
            if meta["clock"] in ("virtual", "count"):
                seeds = sorted(set(b_runs) & set(n_runs))
                changed = [s for s in seeds
                           if b_runs[s]["end_to_end"][name]["value"] !=
                           n_runs[s]["end_to_end"].get(name, {}).get("value")]
                verdict = "exact" if not changed else f"CHANGED (seeds {changed})"
                if changed:
                    status = 1
                print(f"  {name:22} {meta['clock']:8} {verdict}")
                continue
            if meta["clock"] != "host":
                continue
            b_q = spread([r["end_to_end"][name]["value"] for r in b_runs.values()])
            n_q = spread([r["end_to_end"][name]["value"] for r in n_runs.values()])
            delta = n_q[1] / b_q[1] - 1
            worse = delta if meta["better"] == "lower" else -delta
            verdict = "within bound"
            if name in bounds and worse > bounds[name]:
                verdict, status = f"REGRESSION (bound {bounds[name]:.0%})", 1
            elif -worse > (b_q[2] - b_q[0]) / b_q[1]:
                verdict = "better than the base spread"
            print(f"  {name:22} host     base {b_q[1]:.6g} [{b_q[0]:.6g}, {b_q[2]:.6g}]"
                  f"  new {n_q[1]:.6g} [{n_q[0]:.6g}, {n_q[2]:.6g}]"
                  f"  {delta:+.1%}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
