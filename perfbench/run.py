#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

builds perfbench (a Go module of its own that uses the repository's
packages through a replace directive) into .bench_build/ and runs it with
the given arguments. All build state (Go build cache, temporary files)
stays under .bench_build/.

Steadiness mode runs one workload repeatedly with seeds 1..N and prints,
for every end-to-end metric, the median, the quartiles, the spread
(interquartile distance as a share of the median) and the sample count,
next to the metric's bound in BENCHMARK.json, and whether the spread is
within the bound and within a third of it:

    python3 perfbench/run.py --steady --workload serve --runs 10 --seconds 20

With --save FILE the set's values are written to FILE as JSON; with
--against FILE each metric's median is also compared with the median of an
earlier set saved there, and the gap (the share by which the new median is
worse than the old one; negative when better) is printed against the bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD_DIR, "gocache"),
        "GOTMPDIR": os.path.join(BUILD_DIR, "tmp"),
        "GOMODCACHE": os.path.join(BUILD_DIR, "gomod"),
        "GOFLAGS": "-buildvcs=false",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        # The go command's telemetry counters live under the user's config
        # directory; keep them in the build directory too.
        "XDG_CONFIG_HOME": os.path.join(BUILD_DIR, "config"),
    })
    return env


def build():
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR, env=go_env(),
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def commit():
    # The ceiling keeps git from reporting an enclosing repository when the
    # checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_once(args, capture):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--spans-dir", BUILD_DIR]
    if capture:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout
    return subprocess.run(cmd, cwd=ROOT).returncode, None


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    failed = attempted = 0
    first = args.seed
    for i in range(args.runs):
        args.seed = first + i
        code, out = run_once(args, capture=True)
        if code != 0:
            sys.exit(f"perfbench: run with seed {args.seed} exited {code}")
        res = json.loads(out.strip().splitlines()[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            if name in values:
                values[name].append(m["value"])
        steal = re.search(r"^host steal ([0-9.]+)%", out, re.M)
        print(f"seed {args.seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
            + (f"; host steal {steal.group(1)}%" if steal else ""), flush=True)
    print(f"\nworkload {args.workload}: {args.runs} runs, seconds {args.seconds}, "
          f"attempted {attempted}, failed {failed}")
    print(f"{'metric':<14} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
          "  <=bound  <=bound/3")
    for name, xs in values.items():
        if len(xs) < 2:
            print(f"{name:<14} {len(xs):>3}  (too few samples)")
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        within = "yes" if spread <= bound else "NO"
        third = "yes" if spread <= bound / 3 else "no"
        print(f"{name:<14} {len(xs):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bound:>6.2f}"
              f"  {within:>7}  {third:>9}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds, "values": values}, f)
    if args.against:
        with open(args.against) as f:
            old = json.load(f)["values"]
        print(f"\nagainst {args.against}:")
        print(f"{'metric':<14} {'old median':>12} {'new median':>12} {'gap':>8} {'bound':>6}  <=bound")
        for name, xs in values.items():
            if len(xs) < 2 or len(old.get(name, [])) < 2:
                continue
            before, after = statistics.median(old[name]), statistics.median(xs)
            gap = (after - before) / before
            if bounds[name]["better"] == "higher":
                gap = -gap
            within = "yes" if gap <= bounds[name]["bound"] else "NO"
            print(f"{name:<14} {before:>12.5g} {after:>12.5g} {gap:>8.3f} {bounds[name]['bound']:>6.2f}  {within:>7}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--steady", action="store_true", help="run repeatedly and summarise the spread")
    p.add_argument("--runs", type=int, default=10, help="runs in steadiness mode")
    p.add_argument("--save", help="steadiness mode: write the set's values to this JSON file")
    p.add_argument("--against", help="steadiness mode: compare medians with a set saved by --save")
    args = p.parse_args()
    build()
    if args.steady:
        steady(args)
        return
    code, _ = run_once(args, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
