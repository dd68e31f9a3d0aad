#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lp-cold --seed 1 --seconds 10 --trace 0

Every other ``--name value`` pair (open-loop rates and latency limits,
fixed in BENCHMARK.json's command) is passed through to the benchmark
executable.  The build goes to ``.bench_build`` and each run works in
``.bench_run/<workload>-<seed>-<trace>``, both inside the checkout.  The
last line of standard output is the run's JSON result; a failed build
or an invalid run exits non-zero without one.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["./bin/dls_cli.exe", "./perfbench/bench.exe"]


def option(argv, name, default=None):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main():
    argv = sys.argv[1:]
    workload = option(argv, "--workload")
    seed = option(argv, "--seed", "1")
    trace = option(argv, "--trace", "0")
    if workload is None:
        print("usage: run.py --workload NAME --seed N --seconds S --trace 0|1", file=sys.stderr)
        return 2
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the root of a checkout (no dune-project here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--cache", "disabled",
         "--build-dir", BUILD_DIR] + TARGETS,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    dls = os.path.abspath(os.path.join(BUILD_DIR, "default", "bin", "dls_cli.exe"))
    run_dir = os.path.abspath(os.path.join(".bench_run", "%s-%s-%s" % (workload, seed, trace)))
    sys.stdout.flush()
    child = subprocess.Popen([exe] + argv + ["--dls", dls, "--run-dir", run_dir])

    # Pass a stop request on, so the benchmark can stop its own children.
    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
