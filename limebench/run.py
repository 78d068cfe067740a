#!/usr/bin/env python3
"""Builds limebench from this checkout's sources and runs one workload.

    python3 limebench/run.py --workload compile|offload|service \
        --seed N --seconds S --trace 0|1 [--baseline FILE]

The build goes to $CARGO_TARGET_DIR when it points inside the checkout,
otherwise to .bench_build at the checkout root; build output goes to
stderr. The benchmark's own output, whose last line is the JSON result,
goes to stdout. The exit status is the benchmark's: non-zero when the
build fails or an output check fails.

--baseline FILE takes the saved stdout of an earlier run of the same
workload and prints, per row (paper filter, memory config, device), the
ratio of this run's p50 to the baseline's, and the geometric mean of the
per-filter ratios.
"""

import argparse
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    wanted = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if os.path.commonpath([wanted, ROOT]) != ROOT:
        wanted = os.path.join(ROOT, ".bench_build")
    return wanted


def build(out):
    binary = os.path.join(out, "limebench", "limebench")
    tree = os.path.join(out, "limebench")
    if not any(os.path.exists(os.path.join(tree, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", tree]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", tree, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return binary


ROW = re.compile(r"^((?:filter|config|device)/\S+)\s+\d+\s+(\S+)\s+\S+$")


def rows(lines):
    return {m.group(1): float(m.group(2))
            for m in map(ROW.match, lines) if m}


def compare(now, base):
    logs = []
    for row, p50 in sorted(now.items()):
        if row in base and base[row] > 0 and p50 > 0:
            print(f"ratio {row} {p50 / base[row]:.4f}")
            if row.startswith("filter/"):
                logs.append(math.log(p50 / base[row]))
    if logs:
        print(f"ratio geomean over {len(logs)} filters "
              f"{math.exp(sum(logs) / len(logs)):.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "offload", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--baseline", help="saved output of an earlier run")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"limebench: build failed: {e}", file=sys.stderr)
        return 1
    run = subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--state-dir", os.path.join(out, "limebench-state"),
    ], stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    # The JSON result stays the last line.
    for line in lines[:-1]:
        print(line)
    if args.baseline:
        with open(args.baseline) as f:
            compare(rows(lines), rows(f.read().splitlines()))
    if lines:
        print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
