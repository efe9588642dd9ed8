#!/usr/bin/env python3
"""Build and run the meta-optimizer benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds perfbench/main.exe with
dune (into _build/, with dune's shared cache off), runs it in its own
process group, and passes its output through: the last line of standard
output is the JSON result.  A failed build, or a run that overstays its
time limit, exits non-zero without printing a result; on a timeout every
process the run started is killed and reaped.
"""

import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
TIME_LIMIT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join("_build", ".cache")))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    proc = subprocess.Popen([EXE] + sys.argv[1:], env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=TIME_LIMIT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # Wait for the rest of the group (pool workers, the serve daemon).
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        print("perfbench: run stopped before it finished", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
