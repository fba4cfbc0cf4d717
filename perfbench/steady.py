#!/usr/bin/env python3
"""Steadiness mode and run comparison for the repository benchmark.

Run from the repository root:

    python3 perfbench/steady.py --workload fleet_churn --runs 10
    python3 perfbench/steady.py --all --runs 10 --seed0 100
    python3 perfbench/steady.py --compare perfbench/out/a.json perfbench/out/b.json

The first two run the benchmark command of BENCHMARK.json once per seed
(seed0, seed0 + 1, ...) and report, per metric, the median, the quartiles
and the relative spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles). A spread at or
above a third of the metric's bound is flagged, and a bound three times
the observed spread is suggested. The summary is written to
perfbench/out/steady-<workload>.json.

--compare reads two such summaries and reports each metric's median
change against its bound. It refuses to compare host-time figures of
runs made with different core counts or thread settings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    info = next(json.loads(l[len("run_info "):]) for l in lines if l.startswith("run_info "))
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed checks")
    return result, info, digest


def host_key(info):
    return {k: info[k] for k in ("nproc", "host_threads", "gbu_threads_env")}


def summarize(bench, workload, runs, seed0, seconds, trace):
    declared = bench["end_to_end"] if trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    values = {m["name"]: [] for m in declared}
    host, digests = None, []
    for i in range(runs):
        seed = seed0 + i
        result, info, digest = run_once(bench, workload, seed, seconds, trace)
        if host is None:
            host = host_key(info)
        elif host_key(info) != host:
            raise SystemExit(f"host settings changed mid-sweep: {host} vs {host_key(info)}")
        digests.append({"seed": seed, "digest": digest})
        for name, v in result["metrics"].items():
            values.setdefault(name, []).append(v["value"])
        print(f"  seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in values if n in result["metrics"]),
            flush=True)
    metrics = {}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": vals}
    return {"workload": workload, "runs": runs, "seed0": seed0, "seconds": seconds,
            "trace": trace, "host": host, "digests": digests, "metrics": metrics}


def report(summary):
    print(f"== {summary['workload']} ({summary['runs']} runs, host {summary['host']})")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  suggest")
    for name, m in summary["metrics"].items():
        bound = m["bound"]
        flag = ""
        if bound is not None and m["spread"] >= bound / 3:
            flag = "  <-- spread >= bound/3"
        suggest = min(0.25, max(0.02, round(3 * m["spread"] + 0.005, 2)))
        print(f"{name:34} {m['median']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g} "
              f"{m['spread']:8.4f} {'' if bound is None else bound:>6}  {suggest}{flag}")


def compare(a_path, b_path, bench):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    if a["host"] != b["host"]:
        raise SystemExit(
            f"refusing to compare host-time figures across hosts: {a['host']} vs {b['host']}")
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    worse = 0
    print(f"{'metric':34} {'A median':>14} {'B median':>14} {'change':>8} {'bound':>6}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None or not ma["median"]:
            continue
        change = (mb["median"] - ma["median"]) / ma["median"]
        if better.get(name) == "higher":
            change = -change
        bound = ma["bound"]
        flag = ""
        if bound is not None and change > bound:
            flag = "  <-- worse beyond bound"
            worse += 1
        print(f"{name:34} {ma['median']:14.6g} {mb['median']:14.6g} {change:+8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return worse


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="every workload of BENCHMARK.json")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", help="summary path (default perfbench/out/steady-<workload>.json)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    bench = load_benchmark()
    if args.compare:
        sys.exit(1 if compare(*args.compare, bench) else 0)
    if args.all:
        workloads = [w["name"] for w in bench["workloads"]]
    elif args.workload:
        workloads = [args.workload]
    else:
        p.error("give --workload, --all or --compare")
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    for w in workloads:
        summary = summarize(bench, w, args.runs, args.seed0, seconds, args.trace)
        report(summary)
        path = args.out if (args.out and len(workloads) == 1) else os.path.join(
            OUT, f"steady-{w}{'-trace' if args.trace else ''}.json")
        with open(path, "w") as f:
            json.dump(summary, f, indent=1)
        print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
