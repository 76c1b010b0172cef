#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload lj-melt --seed 1 --seconds 25 --trace 0

The first call configures and builds perfbench/ (which pulls in the
repository's own CMake build) under $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. Build output goes to
standard error. The benchmark's standard output is passed through, so the
last line is the JSON result. MDBENCH_* variables are removed from the
benchmark's environment so every engine knob stays at its default.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("lj-melt", "eam-cu-1t", "rhodo-pppm", "lj-ranked8")


def run_checked(cmd, env):
    result = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: command failed ({result.returncode}): {' '.join(cmd)}")


def source_digest(root):
    """sha256 over the engine sources and build files, in path order."""
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"] + sorted(
        p for p in (root / "src").rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "none"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path.cwd()
    here = Path(__file__).resolve().parent
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        sys.exit("perfbench: run from the repository root (src/ not found)")

    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    build = build / "perfbench"
    env = {k: v for k, v in os.environ.items() if not k.startswith("MDBENCH_")}
    jobs = str(min(4, os.cpu_count() or 1))

    if not (build / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", str(here), "-B", str(build), *generator,
                     "-DCMAKE_BUILD_TYPE=Release", "-DMDBENCH_NATIVE_ARCH=ON"],
                    env)
    run_checked(["cmake", "--build", str(build), "--target", "perfbench",
                 "-j", jobs], env)

    out = build / "out"
    out.mkdir(exist_ok=True)
    cmd = [str(build / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(root),
           "--source-digest", source_digest(root)]
    if args.trace:
        cmd += ["--spans", str(out / f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
