#!/usr/bin/env python3
"""Build and run the star-rings benchmark.

One run (run from the repository root):

    python3 perfbench/run.py --workload embed-fresh --seed 1 --seconds 22 --trace 0

builds the `star-rings` server and the `perfbench` binary in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload, and
passes its output through: every metric by name with unit and sample
count, then one JSON line with the metrics BENCHMARK.json names.

Steadiness report:

    python3 perfbench/run.py --steadiness 10 --seed 1 [--vary-seeds]

runs every workload in two sets of k runs each (one seed, or k
consecutive seeds per set with --vary-seeds), and prints for every
end-to-end metric the median, quartiles, (Q3 - Q1) / median and
(max - min) / median of each set, and whether the two sets' medians
agree within the metric's bound, in either direction. It exits 1 if a
run fails, if the sets disagree, or if a quartile spread other than
set-up's exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["embed-fresh", "serve-orbit", "serve-cold"]
# The steadiness report compares two sets of runs of the same code.
SETS = 2


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Builds both binaries; returns their paths. Cargo's output goes to
    stderr so the last stdout line stays the result."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "star-rings"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "star-rings"), os.path.join(release, "perfbench")


def environment(seed):
    """The facts a result depends on besides the code: CPUs, compiler,
    commit and seed."""
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
        except (OSError, IndexError):
            return "unknown"
    return (f"environment: nproc={os.cpu_count()} rustc={first_line(['rustc', '--version'])!r} "
            f"commit={first_line(['git', 'rev-parse', 'HEAD'])} seed={seed}")


def run_once(server, perfbench, workload, seed, seconds, trace, capture):
    cmd = [perfbench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--server-bin", server,
           "--work-dir", os.path.join(target_dir(), "perfbench-work")]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode, None
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result


def steadiness(args, server, perfbench):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(environment(args.seed))
    ok = True
    for workload in WORKLOADS:
        sets = []
        for s in range(SETS):
            values = {name: [] for name in metrics}
            for i in range(args.steadiness):
                seed = args.seed + (1000 * s + i if args.vary_seeds else 0)
                code, result = run_once(server, perfbench, workload, seed, args.seconds, 0, True)
                if result is None or not result["correct"]:
                    print(f"{workload} seed={seed}: run failed (exit {code})")
                    ok = False
                    continue
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        print(f"== {workload}: {SETS} sets of {args.steadiness} runs, "
              f"{'seeds varied' if args.vary_seeds else 'one seed'}")
        print(f"  {'metric':<18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for name, m in metrics.items():
            medians = []
            for s, values in enumerate(sets):
                v = values[name]
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                medians.append(med)
                iqr, span = (q3 - q1) / med, (max(v) - min(v)) / med
                flags = []
                if name != "setup_s":
                    # set-up's spread is not gated; its median must still agree
                    if iqr > m["bound"]:
                        flags.append("IQR > bound")
                        ok = False
                    elif iqr > m["bound"] / 3:
                        flags.append("IQR > bound/3")
                    if span > m["bound"]:
                        flags.append("range > bound")
                flag = f"  ({', '.join(flags)})" if flags else ""
                print(f"  {name:<18} {s:>3} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                      f"{iqr:>8.3f} {span:>9.3f} {m['bound']:>6}{flag}")
                print(f"  {'':<18} {'':>3} runs: {' '.join(f'{x:.6g}' for x in v)}")
            if len(medians) == SETS:
                a, b = medians
                agree = abs(b - a) / a <= m["bound"]
                ok &= agree
                print(f"  {name:<18} sets: second vs first {(b - a) / a:+.3f} of the median -> "
                      f"{'agree' if agree else 'DISAGREE'}")
            else:
                ok = False
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=22)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="K", help="steadiness report: K runs per set")
    p.add_argument("--vary-seeds", action="store_true")
    args = p.parse_args()
    if args.steadiness is None and args.workload is None:
        p.error("give --workload or --steadiness")
    server, perfbench = build()
    if args.steadiness is not None:
        return steadiness(args, server, perfbench)
    print(environment(args.seed), flush=True)
    code, _ = run_once(server, perfbench, args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
