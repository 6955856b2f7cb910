#!/usr/bin/env python3
"""Self-test of ontobench: a short run of every workload, untraced and traced.

Run from the root of an ontorew checkout:

    python3 ontobench/smoke_test.py

For each workload of BENCHMARK.json it runs ontobench/run.py for one second
with --trace 0 and --trace 1 and checks that the run exits 0, that the last
line is the result object with exactly the keys correct/attempted/failed/
metrics, that every answer matched the oracle, and that the metrics are
exactly the end_to_end (or per_layer) metrics of BENCHMARK.json with their
units. Then it checks the oracle comparison itself: a run whose first
non-empty answer is corrupted on purpose must fail (exit 1, correct false).
Exits 0 when everything holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            code, result = run(workload, trace)
            expect(code == 0 and result is not None, f"{what}: exits 0")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{what}: result keys")
            expect(result["correct"] is True, f"{what}: answers match oracle")
            expect(result["attempted"] >= 1, f"{what}: attempted >= 1")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{what}: emits every {section} metric "
                   f"(missing {sorted(set(wanted) - set(got))}, "
                   f"extra {sorted(set(got) - set(wanted))})")

    code, result = run("warm_wire", 0, "--inject-wrong-answer")
    expect(code == 1 and result is not None and result["correct"] is False,
           "a corrupted answer fails the oracle check")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
