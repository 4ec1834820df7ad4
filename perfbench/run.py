#!/usr/bin/env python3
"""End-to-end sweep + serve benchmark with a per-layer breakdown.

Builds the benchmark binary (a Cargo package of its own in this directory,
depending on the repository's crates by path) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, with `--trace 1`
the per-layer ones.

Noise report (its output is not a result line):

    python3 perfbench/run.py --workload NAME --repeat 10 [--seed-base B]

runs the workload N times with seeds B, B+1, ... and prints, per
end-to-end metric, the median, quartiles, min/max and the quartile spread
as a share of the median.

`--tiny` runs smoke-scale sweeps with minimal repetitions (the self-test,
perfbench/test_bench.py, uses it). See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = [
    "sweep-fault-matrix",
    "sweep-language-matrix",
    "sweep-slack-topologies",
    "serve-repeat",
]
# The sweep engine's default master seed (rlnc_sweep::DEFAULT_SWEEP_SEED):
# on this seed the exports are checked against reference.txt.
DEFAULT_SEED = 0x5EED_2015_0613
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark in release mode and returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml / crates/)")
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's own output goes to stderr so stdout stays the result stream.
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if result.returncode != 0:
        fail("cargo build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", "rlnc-perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")
    return binary


def run_binary(binary, args, capture):
    """Runs the binary from the repository root; waits for it to end."""
    try:
        return subprocess.run(
            [binary] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")


def bench_args(workload, seed, seconds, trace, tiny):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return args + (["--tiny"] if tiny else [])


def repeat(binary, opts):
    """The noise report: N runs of one workload on consecutive seeds."""
    rows = {}
    units = {}
    verdicts = []
    for i in range(opts.repeat):
        seed = opts.seed_base + i
        result = run_binary(binary, bench_args(opts.workload, seed, opts.seconds, 0, opts.tiny), True)
        if result.returncode != 0:
            fail(f"run with seed {seed} exited with {result.returncode}")
        line = json.loads(result.stdout.strip().splitlines()[-1])
        verdicts.append((seed, line["correct"], line["attempted"], line["failed"]))
        for name, m in line["metrics"].items():
            rows.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} failed={line['failed']}", flush=True)
    print(f"\n{opts.workload}: {opts.repeat} runs of {opts.seconds} s, seeds {opts.seed_base}..{opts.seed_base + opts.repeat - 1}")
    print(f"{'metric':<18} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} {'iqr/med':>8}")
    summary = {}
    for name, values in rows.items():
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "spread": spread}
        print(f"{name:<18} {units[name]:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {min(values):>14.6g} {max(values):>14.6g} {spread:>8.4f}")
    print(json.dumps({"workload": opts.workload, "runs": verdicts, "summary": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-scale sweeps, minimal repetitions")
    parser.add_argument("--repeat", type=int, default=0, help="noise report: run N times")
    parser.add_argument("--seed-base", type=int, default=1, help="first seed of the noise report")
    opts = parser.parse_args()
    if not 0 < opts.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")

    binary = build()
    if opts.repeat > 0:
        repeat(binary, opts)
        return
    result = run_binary(binary, bench_args(opts.workload, opts.seed, opts.seconds, opts.trace, opts.tiny), False)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
