#!/usr/bin/env python3
"""Builds the benchmark in release mode, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`) and needs no network: every dependency is a
path inside the checkout. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The generator runs in its own
process group with a deadline; if it overruns, the whole group (the
generator and the daemon it spawned) is killed and the run fails with a
message. Spans and daemon logs go under <target>/perfbench-runs/.
"""

import os
import signal
import subprocess
import sys
import time

# The generator stops itself at 160 s; this is the backstop.
DEADLINE_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    out_dir = os.path.join(target, "perfbench-runs")
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
           "--out-dir", out_dir]
    child = subprocess.Popen(cmd, env=env, start_new_session=True)

    def stop_group(*_):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        # The daemon is a grandchild: wait until the group is gone.
        for _ in range(100):
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)

    def on_signal(signum, _frame):
        stop_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return child.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        stop_group()
        print(f"perfbench: run overran its {DEADLINE_S} s deadline and was stopped",
              file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
