#!/usr/bin/env python3
"""Build and run procbench, the process-tier benchmark of optcm.

Run from the root of a checkout:

    python3 procbench/run.py --workload proc-chain --seed 1 --seconds 40 --trace 0
    python3 procbench/run.py --test      # the benchmark's own tests

The first call configures and builds the package (procbench/CMakeLists.txt,
Release) under $CARGO_TARGET_DIR/procbench, or .bench_build/procbench when the
variable is unset; later calls only rebuild what changed.  Build output goes
to stderr, so the benchmark's JSON result stays the last line of stdout.  The
exit status is the benchmark's: 0 only when every run passed every check.
"""

import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "procbench"


def run_quietly(cmd) -> bool:
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(target: str) -> bool:
    out = build_dir()
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").is_file() or not run_quietly(configure):
        # No cache yet, or one written for another source tree: start clean.
        shutil.rmtree(out, ignore_errors=True)
        if not run_quietly(configure):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quietly(["cmake", "--build", str(out), "-j", jobs,
                        "--target", target])


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_address_layout() -> None:
    """Turn off address-space randomization for the benchmark and the nodes
    it forks, so that every invocation of one build runs with one memory
    layout.  With randomization on, the CPU time per write of proc-chain
    spread about twice as wide between invocations.  Best effort: where the
    call is refused the benchmark runs with the usual random layout."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def main(argv) -> int:
    if not (ROOT / "src" / "dsm" / "net" / "process_cluster.h").is_file():
        print("procbench: no optcm sources beside procbench/; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    target = "procbench_tests" if argv == ["--test"] else "procbench"
    if not build(target):
        print("procbench: build failed", file=sys.stderr)
        return 3
    if target == "procbench_tests":
        return subprocess.run([str(build_dir() / target)], cwd=ROOT).returncode
    return subprocess.run([str(build_dir() / target)] + argv, cwd=ROOT,
                          preexec_fn=fixed_address_layout).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
