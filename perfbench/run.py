#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark (secureTF libraries plus the perfbench binary) under .bench_build/;
later calls only rebuild what changed. The binary's tables go to stdout, the
full result (config, every metric, every check) to
.bench_build/perfbench/results/, and the last stdout line is one JSON object
with the metrics BENCHMARK.json lists for the mode: its end_to_end metrics
with --trace 0, its per_layer metrics with --trace 1.

--self-test checks that the benchmark catches a regression and attributes
it: a harness-only delay injected around every SecureTfContext::read_file
call must raise runtime.fs_shield.read_s and wall_s on cold_start_shielded
and leave serve_poisson unchanged.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RESULTS = BUILD / "results"
WORKLOADS = ("serve_poisson", "train_ps_hw", "cold_start_shielded")
RUN_TIMEOUT_S = 170
SELF_TEST_DELAY_MS = 2000.0
SELF_TEST_SECONDS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; serialised by a lock."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no secureTF sources under {ROOT}; run from a checkout root")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD.parent / "perfbench.lock", "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))


def run_workload(workload, seed, seconds, trace, delay_ms=0.0, quiet=False):
    """Runs one workload in its own process; returns (exit code, result)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    if delay_ms:
        stem += f"-delay{delay_ms:g}ms"
    out = RESULTS / f"{stem}.json"
    out.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           "--inject-read-delay-ms", str(delay_ms)]
    if trace:
        cmd += ["--host-trace", str(RESULTS / f"{stem}.host_trace.json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            cmd, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.DEVNULL if quiet else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if not out.is_file():
        fail(f"{workload} wrote no result (exit code {proc.returncode})")
    return proc.returncode, json.loads(out.read_text())


def result_line(result, returncode, trace):
    """The last stdout line: BENCHMARK.json's metrics for this mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if trace else "end_to_end"
    measured = result[section]
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name not in measured:
            fail(f"{result['workload']} does not report {section} metric {name}")
        if measured[name]["unit"] != entry["unit"]:
            fail(f"{name}: unit {measured[name]['unit']} differs from "
                 f"BENCHMARK.json's {entry['unit']}")
        metrics[name] = {"value": measured[name]["value"], "unit": entry["unit"]}
    return json.dumps({
        "correct": bool(result["correct"]) and returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def self_test(seed):
    """Injected read delay: moves cold start's read_s and wall_s only."""
    delay_ms = SELF_TEST_DELAY_MS
    runs = {}
    for workload in ("cold_start_shielded", "serve_poisson"):
        for delay in (0.0, delay_ms):
            code, result = run_workload(workload, seed, SELF_TEST_SECONDS, 1,
                                      delay, quiet=True)
            if code != 0 or not result["correct"]:
                fail(f"self-test: {workload} (delay {delay:g} ms) failed its checks")
            runs[workload, delay] = result

    def values(result):
        merged = {k: v["value"] for k, v in result["end_to_end"].items()}
        merged.update({k: v["value"] for k, v in result["per_layer"].items()})
        return merged

    ok = True
    delay_s = delay_ms / 1e3
    print(f"self-test: {delay_ms:g} ms injected around every read_file call")
    print(f"  {'workload':22} {'metric':28} {'base':>12} {'injected':>12}")
    for workload in ("cold_start_shielded", "serve_poisson"):
        base = values(runs[workload, 0.0])
        hit = values(runs[workload, delay_ms])
        for name in ("runtime.fs_shield.read_s", "wall_s"):
            print(f"  {workload:22} {name:28} {base[name]:12.6f} {hit[name]:12.6f}")
            moved = hit[name] - base[name]
            if workload == "cold_start_shielded":
                # One read per repetition: the delay shows up in full,
                # well above the host noise of a ~0.7 s read.
                good = moved > 0.5 * delay_s
            else:
                # serve never reads a shielded file: nothing may move.
                good = abs(moved) < 0.5 * delay_s
            ok = ok and good
            if not good:
                print(f"    FAIL: {name} moved by {moved:+.6f} s")
        if workload == "serve_poisson":
            virtual = [k for k, v in runs[workload, 0.0]["end_to_end"].items()
                       if v["clock"] == "virtual"]
            same = all(base[k] == hit[k] for k in virtual)
            print(f"  {workload:22} {'virtual metrics identical':28} {str(same):>12}")
            ok = ok and same
    if runs["cold_start_shielded", 0.0]["config_digest"] == \
            runs["cold_start_shielded", delay_ms]["config_digest"]:
        print("  FAIL: the injected delay is not recorded in the config")
        ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_test:
        return self_test(args.seed)
    code, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    line = result_line(result, code, args.trace)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
