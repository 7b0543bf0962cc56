#!/usr/bin/env python3
"""Build and run the GDISim performance benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload consolidated_day --seed 42 --seconds 30 --trace 0

Builds perfbench/ (which compiles the simulator from this checkout's sources,
Release by default) into the directory named by $CARGO_TARGET_DIR, else
.bench_build, then runs gdisim_perfbench with the same arguments. Its
human-readable report goes to stdout; the last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}, whose metrics are the
BENCHMARK.json `end_to_end` list with --trace 0 and its `per_layer` list with
--trace 1. With --hours (for example 24, the whole thesis day) it reports
every metric the run computed and has no time limit. The full run report
(run stamp, every metric, checks, spans) is written under
<build dir>/reports/. perfbench/METRICS.md explains each workload and metric.

Exits 2 without a result when the simulator sources are missing or the build
fails, and 1 when the benchmark itself fails or times out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(code, why):
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--hours", default=None,
                   help="simulated horizon in hours (default: the benchmark's 2)")
    return p.parse_args()


def build(build_dir):
    """Configures (once) and builds the benchmark; logs go to build.log."""
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log_path, "a") as log:
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target", "gdisim_perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(2, f"build step failed: {' '.join(cmd)} (log: {log_path})")
    return build_dir / "gdisim_perfbench"


def source_identity():
    """Git commit when the checkout is a repository; always a digest of the
    sources the benchmark builds (the checkout may not be a repository)."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    files += sorted(HERE.rglob("*"))
    for f in files:
        if f.is_file() and "__pycache__" not in f.parts:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return commit, digest.hexdigest()[:16]


def main():
    args = parse_args()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"no simulator sources under {ROOT} (need CMakeLists.txt and src/)")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(2, f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    commit, digest = source_identity()
    reports = build_dir / "reports"
    reports.mkdir(exist_ok=True)
    horizon = "" if args.hours is None else f"_h{args.hours}"
    report = reports / f"{args.workload}_seed{args.seed}{horizon}_trace{args.trace}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace, "--report", str(report),
           "--commit", commit, "--source-digest", digest]
    if args.hours is not None:
        cmd += ["--hours", args.hours]
    # The default horizon must finish within RUN_TIMEOUT_S; an explicit
    # --hours (up to the whole 24 h day) may take as long as it needs.
    timeout = RUN_TIMEOUT_S if args.hours is None else None
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(1, f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        fail(1, f"gdisim_perfbench exited with {proc.returncode}")

    result = json.loads(lines[-1])
    if args.hours is None:
        missing = [n for n in wanted if n not in result["metrics"]]
        if missing:
            fail(1, f"benchmark did not report {', '.join(missing)}")
        result["metrics"] = {n: result["metrics"][n] for n in wanted}
    print(f"full report: {report}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
