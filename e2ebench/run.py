#!/usr/bin/env python3
"""Build the end-to-end co-estimation benchmark from source and run it.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of tcpip_modes, multicore_cold, explore_funnel, serve_warm.
The first call configures and builds e2ebench/ (a CMake package that
compiles ../src) into .bench_build/; later calls only let CMake re-check the
build. Build output goes to stderr. The benchmark's own stdout is passed
through unchanged: a provenance line, one line per metric, and last one JSON
object with the keys correct, attempted, failed and metrics. See
e2ebench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "e2ebench"
WORKLOADS = ("tcpip_modes", "multicore_cold", "explore_funnel", "serve_warm")


def source_id():
    """The git commit when run in a git checkout, else a digest of the
    sources the binary is built from."""
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(path.relative_to(ROOT).as_posix().encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no program sources under src/, nothing to build")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "e2ebench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"e2ebench: build failed: {err}")
    sys.stdout.flush()
    proc = subprocess.run(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--source-id", source_id(),
         "--socket-dir", os.path.relpath(BUILD, ROOT)],
        cwd=ROOT, check=False)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
