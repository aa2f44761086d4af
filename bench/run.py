"""Run one benchmark workload in a fresh, pinned process.

    python3 bench/run.py --workload {certify,construct-large,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The workload process imports
hitlab from src/ and sees a fixed environment: PYTHONHASHSEED=0 and
HITLAB_THREADS set here to min(2, CPUs available), never taken from the
caller.  The recursion limit is left at the interpreter's default.  The
child's output is passed through; its last stdout line is the result.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "HITLAB_"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["HITLAB_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    return env


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "hitlab", "__init__.py")):
        print("error: no hitlab sources under src/; run from the root of a checkout", file=sys.stderr)
        return 2
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *sys.argv[1:]]
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout.decode())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
