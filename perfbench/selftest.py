#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py [--workload suite-best] [--seconds 2]

Runs the benchmark twice untraced and twice traced, at the default seed,
and checks that
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct and with no failed job;
  * the printed metric names and units are exactly BENCHMARK.json's
    end_to_end (untraced) or per_layer (traced) metrics;
  * the exact counts repeat identically across the two runs;
  * on suite-best, the certificate census reads the pinned 1223/16/19;
  * the traced run wrote spans with name, start, end, parent and job.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT_END_TO_END = ["kernel_cycles", "mem_traffic", "loops_fit"]
EXACT_PER_LAYER = ["sched.attempts", "sched.memo_requests",
                   "sched.memo_computes", "spill.rounds", "spill.lifetimes",
                   "regalloc.slack_regs", "verify.violations"]
SPAN_KEYS = {"id", "name", "start_ns", "end_ns", "parent", "job"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    check(proc.returncode == 0, f"trace={trace} run exits 0")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(1)
    return lines, json.loads(lines[-1])


def check_result(result, spec, trace):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"trace={trace} result keys")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"trace={trace} correct, 0 failed")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(list(got) == list(want),
          f"trace={trace} metric names match BENCHMARK.json "
          f"(missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))})")
    check(got == want, f"trace={trace} metric units match BENCHMARK.json")
    check(all(isinstance(v["value"], (int, float))
              for v in result["metrics"].values()),
          f"trace={trace} metric values are numbers")


def check_repeat(first, second, names, trace):
    for name in names:
        a = first["metrics"].get(name, {}).get("value")
        b = second["metrics"].get(name, {}).get("value")
        check(a is not None and a == b,
              f"trace={trace} exact count {name} repeats ({a} vs {b})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="suite-best")
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check(args.workload in [w["name"] for w in bench["workloads"]],
          f"{args.workload} is a BENCHMARK.json workload")

    for trace, spec, exact in ((0, bench["end_to_end"], EXACT_END_TO_END),
                               (1, bench["per_layer"], EXACT_PER_LAYER)):
        lines1, first = run(args.workload, args.seconds, trace)
        _, second = run(args.workload, args.seconds, trace)
        check_result(first, spec, trace)
        check_result(second, spec, trace)
        check_repeat(first, second, exact, trace)
        if args.workload == "suite-best":
            check(any("census 1223/16/19 vs pinned 1223/16/19: ok" in line
                      for line in lines1),
                  f"trace={trace} certificate census is 1223/16/19")
        if trace == 1:
            path = next((line.split(" to ", 1)[1] for line in lines1
                         if line.startswith("spans written to ")), None)
            check(path is not None and os.path.isfile(path),
                  "traced run wrote its spans")
            if path and os.path.isfile(path):
                with open(path) as f:
                    spans = [json.loads(line) for line in f]
                check(len(spans) > 0 and all(set(s) == SPAN_KEYS
                                             for s in spans),
                      f"{len(spans)} spans carry {sorted(SPAN_KEYS)}")
                check(all(s["end_ns"] >= s["start_ns"] for s in spans),
                      "every span ends after it starts")

    if failures:
        print(f"selftest FAILED: {len(failures)} check(s)")
        sys.exit(1)
    print("selftest OK")


if __name__ == "__main__":
    main()
