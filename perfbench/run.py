#!/usr/bin/env python3
"""Build and run the fourindex end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
the library and the benchmark program (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only bring the build up to date. Build output goes
to stderr, so the last line of stdout is the run's JSON result. The
bench document, the Chrome trace of a traced run and the scratch
socket go to the build directory's out/ folder.

--self-test builds and runs the benchmark's own unit tests instead.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no fourindex sources (src/) next to perfbench/",
              file=sys.stderr)
        return False
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not quiet(configure):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return quiet(["cmake", "--build", bdir, "--target", target, "-j", jobs])


def main(argv):
    if argv == ["--self-test"]:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run([os.path.join(build_dir(), "perfbench_tests")]).returncode
    if not build("fourindex_perfbench"):
        return 1
    # A relative out/ keeps the AF_UNIX socket path short.
    out_dir = os.path.relpath(os.path.join(build_dir(), "out"))
    cmd = [os.path.join(build_dir(), "fourindex_perfbench")] + argv + ["--out-dir", out_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
