#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload voter --seed 1 --seconds 30 --trace 0

Without `--seconds`, a run lasts `run_seconds` of BENCHMARK.json.

The last line of standard output is the result: one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 1` the
metrics are the per-layer ones, and the traced run is also written to
`perfbench/out/<workload>-seed<n>-trace.json`.

Steadiness mode runs each workload N times, one seed per run, and prints
for every end-to-end metric its median, quartiles and spread (the
interquartile range as a share of the median) against the bound that
BENCHMARK.json gives it:

    python3 perfbench/run.py --steadiness 10 [--workload telemetry] [--seconds 30]

The benchmark is built with `cargo build --release` into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["voter", "telemetry", "bikeshare"]


def build():
    """Build the benchmark binary; exit non-zero if that fails."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        code = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT).returncode
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        sys.exit(1)
    if code != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        sys.exit(1)
    return os.path.join(target, "release", "perfbench")


def pin_to_one_cpu():
    """Pin this process (and what it execs) to the last CPU it may use.

    On a host with few shared cores, runs repeat far better when the OS
    does not spread the benchmark's threads over them (see README.md)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def run_once(binary, workload, seed, seconds, trace):
    """Run the binary once; return the parsed result line (None on failure),
    with the host steal the binary took out of the timed phase added as
    `host_steal_s`."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", os.path.join(HERE, "out")],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, preexec_fn=pin_to_one_cpu,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {workload} seed {seed} exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["host_steal_s"] = next(
        (float(l.split()[1]) for l in lines if l.startswith("host_steal_s ")), 0.0)
    return result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(binary, workloads, runs, seconds, first_seed):
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            r = run_once(binary, workload, seed, seconds, 0)
            if r is None or not r["correct"]:
                print(f"{workload}: seed {seed} failed its checks", file=sys.stderr)
                sys.exit(1)
            results.append(r)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {runs} runs of {seconds} s, seeds {first_seed}..{first_seed + runs - 1}, "
              f"failed share {shares}")
        print("  host steal per run (s): " + " ".join(f"{r['host_steal_s']:.2f}" for r in results))
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  ok")
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= bound
            worst = max(worst, spread / bound)
            summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound}
            print(f"  {name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bound:>6.2f}"
                  f"  {'yes' if ok else 'NO'}")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", f"steadiness-{workload}.json"), "w") as f:
            json.dump(summary, f, indent=1)
    print(f"\nlargest spread as a share of its bound: {worst:.3f}")
    return 0 if worst <= 1.0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="N", help="run each workload N times")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    binary = build()
    if args.steadiness:
        workloads = [args.workload] if args.workload else WORKLOADS
        sys.exit(steadiness(binary, workloads, args.steadiness, args.seconds, args.seed))
    if not args.workload:
        p.error("--workload is required")
    sys.stdout.flush()
    pin_to_one_cpu()
    os.execv(binary, [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join(HERE, "out"),
    ])


if __name__ == "__main__":
    main()
