#!/usr/bin/env python3
"""Steadiness report: run the benchmark several times per workload, each run
with another seed, and summarize every metric by its median, quartiles and
relative spread (quartile distance over median).

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]

Run ``k`` uses seed ``k`` (1 to ``--runs``) and tracing off.  BENCHMARK.json
at the root of the checkout gives the default workloads (all), the
``run_seconds`` of each run and the bounds the spreads are compared with.  An
end-to-end metric, ``setup_s`` included, is steady when its spread is below a
third of its bound.  The raw per-run values go to
``.perfbench/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        results = []
        for seed in range(1, args.runs + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=REPO, capture_output=True, text=True)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            results.append({"seed": seed, "exit": proc.returncode, "took_s": took,
                            "result": result})
            if proc.returncode != 0 or result is None:
                steady = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            for metric, entry in result["metrics"].items():
                per_metric.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: {took:.1f} s, "
                  f"{result['attempted'] - result['failed']}/{result['attempted']} checks",
                  flush=True)
        summary = {}
        for metric, values in per_metric.items():
            if len(values) < 2:
                continue
            s = summarize(values)
            s["bound"] = bounds[metric]
            s["ok"] = s["spread"] < s["bound"] / 3.0
            summary[metric] = s
            steady &= s["ok"]
        report["workloads"][name] = {"metrics": summary, "runs": results}
        for metric, s in summary.items():
            print(f"  {name:18s} {metric:22s} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}  bound {s['bound']:.2f} "
                  + ("ok" if s["ok"] else "WIDE"))

    out = REPO / ".perfbench" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {out.relative_to(REPO)}; "
          + ("every end-to-end spread is below a third of its bound" if steady
             else "NOT steady"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
