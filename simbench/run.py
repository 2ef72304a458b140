#!/usr/bin/env python3
"""Benchmark runner: simulator throughput, Fig. 14 fidelity and per-layer
host cost of the DFX simulator.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `simbench` binary with cargo
(into $CARGO_TARGET_DIR, default `.bench_build`), pins itself to one
CPU, then starts one fresh process per repetition until `--seconds`
have passed (at least three), so no process-wide state can carry
between repetitions. Every
repetition checks its simulated outputs; repetitions of one seed must
produce the same output fingerprint. With `--trace 1` each repetition
is a pair, untraced then traced, whose fingerprints must match; the pair
gives the per-layer metrics and the tracing overhead.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See simbench/README.md for the metrics, the layers and the workloads.
"""

import argparse
import json
import os
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid-cold", "serve-sweep", "route-burst")
MIN_REPS = 3
# A repetition takes at most a few seconds; this only stops a hang.
REP_TIMEOUT_S = 100


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise RuntimeError("cargo build failed")
    return os.path.join(target, "release", "simbench")


def run_once(binary, args):
    """Runs one repetition process and parses its JSON line."""
    done = subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"simbench {' '.join(args)} exited with "
                           f"{done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"simbench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    # Pin this process, and so every repetition, to one CPU: migrations
    # between CPUs were the largest source of run-to-run spread. The
    # highest-numbered CPU is the one least likely to serve interrupts.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rep_args = ["--workload", args.workload, "--seed", str(args.seed)]

    # --- repetitions, each in a fresh process ---------------------------
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while len(plain) < MIN_REPS or time.monotonic() < deadline:
        plain.append(run_once(binary, rep_args))
        if args.trace:
            traced.append(run_once(binary, rep_args + ["--trace"]))

    # --- output checks ---------------------------------------------------
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = {f for r in reps for f in r["failures"]}
    reference = plain[0]
    for r in reps[1:]:
        if (r["fingerprint"], r["sim_tokens"]) != (reference["fingerprint"],
                                                   reference["sim_tokens"]):
            failed += r["attempted"]
            problems.add("simulated outputs differ between repetitions of one seed"
                         + (" (traced vs untraced)" if traced else ""))
    if args.workload == "grid-cold":
        mapes = {r["fig14_mape_pct"] for r in reps}
        fig14 = mapes.pop() if len(mapes) == 1 else None
    else:
        # Fidelity is a property of the simulator, not of this workload's
        # inputs: computed once, outside every timed phase.
        fig14 = run_once(binary, ["--fidelity"])["fig14_mape_pct"]
    if fig14 is None:
        failed += reference["attempted"]
        problems.add("Fig. 14 fidelity is missing or not deterministic")
    correct = failed == 0

    # --- metrics ---------------------------------------------------------
    if args.trace:
        wanted = spec["per_layer"]
        values = {}
        for name in sorted({k for r in traced for k in r["layers"]}):
            values[name] = median([r["layers"].get(name, 0.0) for r in traced])
        base = median([r["timed_s"] for r in plain])
        values["trace.overhead_pct"] = (
            (median([r["timed_s"] for r in traced]) - base) / base * 100.0)
    else:
        wanted = spec["end_to_end"]
        values = {
            "sim_tokens_per_s": median([r["sim_tokens"] / r["timed_s"] for r in plain]),
            "setup_s": median([r["setup_s"] for r in plain]),
            "peak_rss_mib": median([r["peak_rss_mib"] for r in plain]),
            "fig14_mape_pct": fig14 if fig14 is not None else 0.0,
        }
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload never enters reports 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    # --- human-readable summary -----------------------------------------
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    log(f"workload {args.workload}: {why.get(args.workload, '')}")
    log(f"seed {args.seed}: {len(plain)} repetitions"
        + (f" + {len(traced)} traced" if traced else ""))
    print(f"simulated-output fingerprint {reference['fingerprint']} (seed {args.seed})")
    print(f"error_rate {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} operations)")
    for problem in sorted(problems):
        print(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>18.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        sys.exit(1)
