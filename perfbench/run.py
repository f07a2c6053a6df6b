#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (a CMake package that compiles ../src) into $CARGO_TARGET_DIR,
or .bench_build when unset; later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero, printing no result, when the library sources are
missing or the build fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hot_counter", "spread_counter", "coord_mix")


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "core" / "rmw.hpp").is_file():
        sys.exit("perfbench: library sources not found under src/")
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")

    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    try:
        binary = build(out / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", str(traces)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
