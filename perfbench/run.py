#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a panagree checkout.  Builds perfbench/bench.exe
with dune, then runs it with a domain pool of exactly the number of
cores this process may use.  The benchmark's last stdout line is one
JSON object {correct, attempted, failed, metrics}; the exit status is
non-zero when the build fails, an argument is bad, or any correctness
gate fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def dune_build(target):
    """Build one dune target of the checkout; return dune's exit status."""
    # Keep every write inside the checkout: no shared dune cache, and the
    # compiler's temporary files under _build.
    tmp = os.path.join(ROOT, "_build", ".perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    p = subprocess.run(["dune", "build", "--root", ROOT, target],
                       cwd=ROOT, env=env, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
    return p.returncode


def build():
    """Build bench.exe from the checkout's sources; exit on failure."""
    for needed in ("dune-project", os.path.join("lib", "market"), os.path.join("lib", "service")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the root of a panagree checkout")
    if dune_build("./perfbench/bench.exe") != 0 or not os.path.exists(EXE):
        fail("build failed")
    return EXE


def commit():
    try:
        p = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main(argv):
    exe = build()
    n = nproc()
    print(f'{{"host": {{"commit": "{commit()}", "nproc": {n}}}}}', flush=True)
    cmd = [exe, "--nproc", str(n), "--jobs", str(n)] + argv
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    return p.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
