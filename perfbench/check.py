#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the root of a checkout.

    python3 perfbench/check.py selftest
        Same seed twice gives identical inputs, outputs and deterministic
        metrics; another seed gives other inputs. Exits 1 on a mismatch.

    python3 perfbench/check.py spread [--runs 10] [--first-seed 1]
                                      [--workload NAME ...]
        Runs each workload once per seed and prints, for every end-to-end
        metric, the median and the interquartile range as a share of the
        median, beside the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys

# Metrics that depend only on the seed, never on timing.
DETERMINISTIC = {
    0: ("fct_p50_ms", "fct_p99_ms"),
    1: ("quic.allocs_per_pkt", "quic.alloc_bytes_per_pkt", "quic.pkts_per_mb",
        "recovery.retx_timer.calls", "recovery.retx_bytes_frac",
        "sim.events_per_pkt", "sim.events_per_flow"),
}


def run(workload, seed, seconds, trace):
    """One benchmark run: (info line, result line) as parsed JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d trace %d"
                         % (workload, seed, trace))
    info = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit("incorrect result: %s seed %d trace %d"
                         % (workload, seed, trace))
    return info, result


def selftest(workloads):
    ok = True
    for workload in workloads:
        a_info, a = run(workload, 11, 1, 0)
        b_info, b = run(workload, 11, 1, 0)
        c_info, _ = run(workload, 12, 1, 0)
        d_info, d = run(workload, 11, 1, 1)
        e_info, e = run(workload, 11, 1, 1)
        checks = {
            "same seed, same inputs and outputs":
                a_info["inputs"] == b_info["inputs"]
                and a_info["outputs"] == b_info["outputs"],
            "same seed, same deterministic metrics":
                all(a["metrics"][m]["value"] == b["metrics"][m]["value"]
                    for m in DETERMINISTIC[0])
                and all(d["metrics"][m]["value"] == e["metrics"][m]["value"]
                        for m in DETERMINISTIC[1]),
            "traced run reproduces the untraced outputs":
                d_info["outputs"] == a_info["outputs"],
            "other seed, other inputs": a_info["inputs"] != c_info["inputs"],
        }
        for name, passed in checks.items():
            print("%-10s %-45s %s" % (workload, name,
                                      "ok" if passed else "FAILED"))
            ok &= passed
    return 0 if ok else 1


def spread(workloads, runs, first_seed, seconds):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads:
        values = {}
        for i in range(runs):
            _, result = run(workload, first_seed + i, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(workload)
        for name, vals in values.items():
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print("  %-20s median %12.6g  spread %.4f  bound %.2f  [%s]"
                  % (name, med, (q[2] - q[0]) / med, bounds[name],
                     " ".join("%.5g" % v for v in vals)))
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("selftest", "spread"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    if args.mode == "selftest":
        return selftest(workloads)
    return spread(workloads, args.runs, args.first_seed, bench["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
