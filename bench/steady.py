#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: two sets of ten runs per workload, one seed per run.

    python3 bench/steady.py

Every workload in ``BENCHMARK.json`` runs for ``run_seconds``, ten times with
seeds 1 to 10 and then ten times with seeds 11 to 20. For each set, workload
and end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), their distance as a share of the
median, and the metric's bound: ``ok`` below a third of the bound, ``within
bound`` up to the bound, ``TOO WIDE`` above it. Then it prints how far the
second set's median moved from the first's, in the metric's worse direction,
against the bound. Then one traced run per workload, seed 1, prints the
per-layer metrics. Runs go one at a time, through the command that
``BENCHMARK.json`` names, from the root of the checkout. The raw results are
written to ``bench/.cache/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from env import CACHE, ROOT

SETS = (range(1, 11), range(11, 21))


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results]


def summarize(spec: dict, title: str, results: list[dict]) -> list[str]:
    lines = [f"== {title}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
             f"failed/attempted: {sorted({(r['failed'], r['attempted']) for r in results})}"]
    lines.append(f"   {'metric':22} {'unit':>5} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = values(results, m["name"])
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        lines.append(
            f"   {m['name']:22} {m['unit']:>5} {med:12.6g} {q1:12.6g} {q3:12.6g} "
            f"{spread:8.2%} {m['bound']:6.0%}  {verdict}"
        )
    return lines


def compare(spec: dict, workload: str, first: list[dict], second: list[dict]) -> list[str]:
    """How much worse the second set's median is than the first's, as a share of the first."""
    lines = [f"== {workload}: second set against the first",
             f"   {'metric':22} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'bound':>6}"]
    for m in spec["end_to_end"]:
        a = statistics.median(values(first, m["name"]))
        b = statistics.median(values(second, m["name"]))
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        lines.append(
            f"   {m['name']:22} {a:12.6g} {b:12.6g} {worse:9.2%} {m['bound']:6.0%}  "
            f"{'ok' if worse <= m['bound'] else 'TOO FAR'}"
        )
    return lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    raw: dict[str, list[dict]] = {}
    for k, seeds in enumerate(SETS, 1):
        for workload in names:
            results = raw[f"{workload} set {k}"] = []
            for seed in seeds:
                results.append(run_once(spec, workload, seed))
                print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
            print("\n".join(summarize(spec, f"{workload}, set {k}, seeds {seeds[0]}-{seeds[-1]}", results)), flush=True)
    for workload in names:
        print("\n".join(compare(spec, workload, raw[f"{workload} set 1"], raw[f"{workload} set 2"])), flush=True)
    for workload in names:
        traced = raw[f"{workload} traced"] = [run_once(spec, workload, SETS[0][0], trace=1)]
        print(f"== {workload}, traced, seed {SETS[0][0]}: correct: {traced[0]['correct']}, "
              f"failed/attempted: {traced[0]['failed']}/{traced[0]['attempted']}")
        for m in spec["per_layer"]:
            print(f"   {m['name']:26} {traced[0]['metrics'][m['name']]['value']:14.6g} {m['unit']}")
    CACHE.mkdir(exist_ok=True)
    (CACHE / "steady.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
