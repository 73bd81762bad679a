#!/usr/bin/env python3
"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

1. Runs every workload at toy size, untraced and traced, and checks that each
   run passes its correctness checks with no failed operation and prints
   exactly the metrics, with the units, that ``BENCHMARK.json`` names.
2. Corrupts one part of a real report or sweep at a time and shows that the
   correctness check aimed at it fails, after passing on the clean output.
3. Shows that the benchmark exits non-zero, printing no result, in a
   directory that holds only ``BENCHMARK.json`` and ``bench``.

Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import env

SEED = 7
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def toy_runs(spec: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            cmd = spec["command"] + [
                "--workload", w["name"], "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy",
            ]
            done = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=300)
            what = f"toy {w['name']} --trace {trace}"
            if done.returncode != 0:
                expect(False, f"{what}: exit {done.returncode}\n{done.stderr}")
                continue
            out = json.loads(done.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(
                set(out) == {"correct", "attempted", "failed", "metrics"}
                and out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                f"{what}: correct, 0 of {out['attempted']} operations failed",
            )
            expect(got == want, f"{what}: metrics and units match BENCHMARK.json")


def corruptions() -> None:
    import numpy as np

    from pcout import cli
    from pcout.baselines import classical_detect, ogk_estimate
    from pcout.evalsim import generate_contaminated
    from pcout.prcmpout import detect

    import checks
    import inputs

    inp = inputs.prepare(inputs.workload("csv-wide", toy=True), SEED)
    out = env.CACHE / "selftest-report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["detect", "--method", "prcmpout", "--input", str(inp.csv), "--output", str(out)])
    clean = json.loads(out.read_text())
    expect(checks.check_report(clean, inp.truth, inp.row_ids) == [], "clean toy report passes every report check")

    recs = clean["records"]
    d1 = np.array([r["stage1_distance"] for r in recs])
    d2 = np.array([r["stage2_distance"] for r in recs])
    upper_median = lambda d: int(np.argsort(d)[len(d) // 2])  # raising it raises the median
    outlier = int(np.flatnonzero(inp.truth)[0])
    inliers = np.flatnonzero(~inp.truth)
    calm = int(inliers[np.argmax([recs[i]["w_final"] for i in inliers])])

    def scale(i, key, factor):
        return lambda doc: doc["records"][i].__setitem__(key, doc["records"][i][key] * factor)

    def add(i, key, delta):
        return lambda doc: doc["records"][i].__setitem__(key, doc["records"][i][key] + delta)

    def flag_share(doc):
        for i in inliers[: len(inliers) // 5 + 1]:
            doc["records"][i]["flag"] = True
            doc["records"][i]["w_final"] = 0.0

    cases = {
        checks.stage1_median: scale(upper_median(d1), "stage1_distance", 1.001),
        checks.stage2_median: scale(upper_median(d2), "stage2_distance", 1.001),
        checks.w2_biweight: add(calm, "w2", -1e-3),
        checks.w1_biweight: add(calm, "w1", -1e-3),
        checks.w_final_product: add(calm, "w_final", -1e-6),
        checks.flag_rule: lambda doc: doc["records"][calm].__setitem__("flag", True),
        checks.config_echo: lambda doc: doc["header"]["config"].__setitem__("outlier_cut", 0.3),
        checks.p_star_bound: lambda doc: doc["header"].__setitem__("p_star", doc["header"]["n"]),
        checks.row_ids_round_trip: lambda doc: doc["records"][3].__setitem__("row_id", "x"),
        checks.planted_flagged: lambda doc: doc["records"][outlier].__setitem__("flag", False),
        checks.inlier_share: flag_share,
    }
    expect(set(cases) == set(checks.REPORT_CHECKS), "every report check has a corruption case")
    for check, corrupt in cases.items():
        doc = copy.deepcopy(clean)
        corrupt(doc)
        expect(check(checks.Report(doc, inp.truth, inp.row_ids)) is not None, f"report/{check.__name__} catches its corruption")

    # sweep checks, on a one-replication reference sweep of prcmpout
    seed, reps = inputs.input_seed(SEED), 1
    sweep_out = env.CACHE / "selftest-sweep.json"
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(inputs.sweep_argv("prcmpout", reps, seed, sweep_out))
    sweep = json.loads(sweep_out.read_text())
    flags, truths = {}, {}
    for p in inputs.P_VALUES:
        X, truth = generate_contaminated(inputs.sweep_spec(seed, p))
        flags[p], truths[p] = [detect(X).flags], [truth]
    expect(checks.check_sweep(sweep, "prcmpout", inputs.P_VALUES, reps) == [], "clean sweep passes the sweep checks")
    expect(checks.tally_matches(sweep, flags, truths) is None, "clean sweep tally matches")

    doc = copy.deepcopy(sweep)
    doc["rows"][0]["failures"].append("p=10 rep=0: injected")
    expect(checks.no_failures(doc, "prcmpout") is not None, "sweep/no_failures catches an injected failure")
    doc = copy.deepcopy(sweep)
    doc["rows"][-1]["mean_fn"] = 0.2
    expect(checks.prcmpout_error_rates(doc, "prcmpout") is not None, "sweep/prcmpout_error_rates catches FN 0.2 at p = 40")
    flipped = copy.deepcopy(flags)
    flipped[10][0][inputs.P_VALUES[0]] ^= True
    expect(checks.tally_matches(sweep, flipped, truths) is not None, "sweep/tally_matches catches one flipped flag")

    X, _ = generate_contaminated(inputs.sweep_spec(seed, 40))
    res = classical_detect(X, inputs.ALPHA)
    expect(checks.classical_matches(X, res, inputs.ALPHA) is None, "clean classical result matches numpy and scipy")
    bent = res.distances.copy()
    bent[5] *= 1.0 + 1e-6
    expect(
        checks.classical_matches(X, dataclasses.replace(res, distances=bent), inputs.ALPHA) is not None,
        "classical_matches catches a distance off by 1e-6",
    )
    expect(
        checks.classical_matches(X, dataclasses.replace(res, cutoff=res.cutoff * (1 + 1e-6)), inputs.ALPHA) is not None,
        "classical_matches catches a cutoff off by 1e-6",
    )
    scatter = ogk_estimate(X).scatter
    expect(checks.psd(scatter) is None, "clean OGK scatter is positive semidefinite")
    expect(checks.psd(scatter - 2 * np.linalg.eigvalsh(scatter)[0] * np.eye(40) - np.eye(40)) is not None,
           "psd catches a negative eigenvalue")

    rep = detect(X)
    composed = (rep.w1, rep.w2, rep.w_final, rep.flags)
    expect(checks.composed_matches(composed, rep) is None, "composed_matches accepts identical results")
    w2 = rep.w2.copy()
    w2[0] += 1e-9
    expect(checks.composed_matches((rep.w1, w2, rep.w_final, rep.flags), rep) is not None,
           "composed_matches catches w2 off by 1e-9")
    expect(checks.composed_matches((rep.w1, rep.w2, rep.w_final, ~rep.flags), rep) is not None,
           "composed_matches catches flipped flags")


def bare_directory(spec: dict) -> None:
    bare = env.CACHE / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(env.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(env.ROOT / path, bare / path, ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and done.stdout.strip() == "", "without the sources it exits non-zero and prints no result")


def main() -> int:
    env.configure()
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    toy_runs(spec)
    corruptions()
    bare_directory(spec)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
