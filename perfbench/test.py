#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test.py

Run from the root of a panagree checkout.  Checks, on small inputs:
the OCaml checks in test_perfbench.ml (stream generator, replicas);
that every workload prints exactly the metrics BENCHMARK.json declares,
with valid names and units, in both modes; that every correctness gate
can fail (a tampered input must give a non-zero exit and
"correct": false); that a pool larger than the core count is refused;
and that run.py fails without a result outside a checkout.
"""

import json
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
GATES = {
    "market-wide": ["oracle", "jobs", "replica"],
    "serve-uniform": ["oracle", "jobs", "replica", "stats"],
}

failures = []


def check(label, ok, detail=""):
    print(f"{label}: {'ok' if ok else 'FAILED ' + detail}", flush=True)
    if not ok:
        failures.append(label)


def bench(*args):
    n = run.nproc()
    cmd = [run.EXE, "--nproc", str(n), "--jobs", str(n), "--scale", "small",
           "--seed", "1", "--seconds", "1"] + list(args)
    p = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, result


def main():
    run.build()
    check("build test_perfbench.exe", run.dune_build("./perfbench/test_perfbench.exe") == 0)
    exe = os.path.join(run.ROOT, "_build", "default", "perfbench", "test_perfbench.exe")
    check("test_perfbench.exe", subprocess.run([exe], cwd=run.ROOT).returncode == 0)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for names in declared.values():
        check("declared names and units are valid",
              all(NAME.match(n) and UNIT.match(u) for n, u in names.items()), str(names))

    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            rc, r = bench("--workload", w, "--trace", str(trace))
            label = f"{w} --trace {trace}"
            check(f"{label}: exit 0 and a result", rc == 0 and r is not None, f"rc {rc}")
            if r is None:
                continue
            check(f"{label}: result keys", sorted(r) == ["attempted", "correct", "failed", "metrics"])
            check(f"{label}: correct", r["correct"] is True and r["failed"] == 0
                  and isinstance(r["attempted"], int) and r["attempted"] >= 1)
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            check(f"{label}: metrics as declared", got == declared[trace], str(got))
            check(f"{label}: metric names match [A-Za-z0-9_.-]+",
                  all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in got))

    for w, gates in GATES.items():
        for gate in gates:
            rc, r = bench("--workload", w, "--trace", "0", "--tamper", gate)
            check(f"{w}: tampered {gate} gate fails", rc == 1 and r is not None
                  and r["correct"] is False and r["failed"] >= 1, f"rc {rc}")

    n = run.nproc()
    p = subprocess.run([run.EXE, "--workload", "serve-uniform", "--nproc", str(n),
                        "--jobs", str(n + 1), "--scale", "small"],
                       cwd=run.ROOT, capture_output=True, text=True)
    check("pool larger than nproc is refused", p.returncode == 2)

    # Outside a checkout: only BENCHMARK.json and this directory.
    bare = os.path.join(run.ROOT, "_build", "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "market-wide",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check("run.py outside a checkout fails without a result",
          p.returncode != 0 and '"correct"' not in p.stdout, f"rc {p.returncode}")

    if failures:
        print(f"{len(failures)} check(s) failed", flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
