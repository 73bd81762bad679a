"""Traced run: per-layer timings taken from outside, through each module's public functions.

A traced round calls the layers of ``pcout detect`` one by one on the
workload's CSV, then the layers of each detector on every replication of the
workload's sweep slice, and finally ``pcout.cli.main`` for ``detect`` and for
each ``sweep``. Each call sits in a span (name, start, end, parent) kept in
memory and written to ``bench/.cache/spans-<workload>.jsonl`` at the end.

A layer's time is the median self time of its spans (duration minus the time
its child spans cover). Layers shared by the CSV and the sweep (robust,
spectral, chisq, prcmpout) are timed on the workload's subject: the CSV for
the csv workloads, the sweep replications for ``sweep``. The traced
layer-by-layer pipeline and the untraced ``pcout.detect`` call swap places
from one round (one replication on the sweep) to the next, so neither always
runs first on freshly loaded data. Tracing overhead is the median, over those
pairs, of pipeline minus ``detect``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import statistics
import sys
import time
import traceback

import numpy as np

from pcout import cli
from pcout.baselines import classical_detect, ogk_detect, ogk_estimate, ogk_reweight, sign2_detect
from pcout.chisq import chi2_quantile
from pcout.dataio import document_to_json, load_csv, weight_report_document
from pcout.evalsim import confusion, generate_contaminated
from pcout.prcmpout import DetectorConfig, combine_weights, detect, stage1_location, stage2_scatter
from pcout.robust import robust_sphere
from pcout.spectral import pca_basis, project

import checks
from env import CACHE
from inputs import ALPHA, METHODS, P_VALUES, REFERENCE_REPS, input_seed, sweep_argv, sweep_spec

# metric -> (span, subject); subject None means the workload's own subject
TIMED_LAYERS = {
    "dataio.load_csv_s": ("dataio.load_csv", "csv"),
    "dataio.serialize_s": ("dataio.serialize", "csv"),
    "robust.sphere_s": ("robust.sphere", None),
    "robust.resphere_s": ("robust.resphere", None),
    "spectral.pca_basis_s": ("spectral.pca_basis", None),
    "spectral.project_s": ("spectral.project", None),
    "chisq.quantile_s": ("chisq.quantile", None),
    "prcmpout.stage1_s": ("prcmpout.stage1", None),
    "prcmpout.stage2_s": ("prcmpout.stage2", None),
    "prcmpout.combine_s": ("prcmpout.combine", None),
    "prcmpout.detect_s": ("prcmpout.detect", None),
    "evalsim.generate_s": ("evalsim.generate", "sweep"),
    "evalsim.confusion_s": ("evalsim.confusion", "sweep"),
    "baselines.ogk_estimate_s": ("baselines.ogk_estimate", "sweep"),
    "baselines.ogk_reweight_s": ("baselines.ogk_reweight", "sweep"),
    "baselines.ogk_detect_s": ("baselines.ogk_detect", "sweep"),
    "baselines.sign2_s": ("baselines.sign2", "sweep"),
    "baselines.classical_s": ("baselines.classical", "sweep"),
    "cli.main_s": ("cli.main", "csv"),
}

UNITS = {
    **{name: "s" for name in TIMED_LAYERS},
    "dataio.load_cells_per_s": "cells/s",
    "dataio.report_bytes": "bytes",
    "spectral.eig_order": "count",
    "spectral.p_star": "count",
    "prcmpout.flagged": "count",
    "trace.overhead_s": "s",
}

ROOTS = {"csv": "csv.round", "sweep": "sweep.rep"}


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(sid)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[sid] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> tuple[list[float], list[int]]:
        """Self time of every span, and the id of the root span it belongs to."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        root = list(range(len(dur)))
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[sid]
                root[sid] = root[parent]
        return own, root

    def by_name(self, root_name: str, whole: bool = False) -> dict[str, list[float]]:
        """Self times (durations if ``whole``) of the spans under every root called
        ``root_name``, by span name."""
        own, root = self.self_times()
        if whole:
            own = [e - s for s, e in zip(self.starts, self.ends)]
        out: dict[str, list[float]] = {}
        for sid, name in enumerate(self.names):
            if self.names[root[sid]] == root_name:
                out.setdefault(name, []).append(own[sid])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": sid, "parent": self.parents[sid], "name": name,
                    "start": self.starts[sid], "end": self.ends[sid],
                }) + "\n")

    def table(self) -> str:
        own, _ = self.self_times()
        per: dict[str, list[float]] = {}
        for sid, name in enumerate(self.names):
            per.setdefault(name, []).append(own[sid])
        total = sum(own)
        lines = [f"{'span':28} {'calls':>6} {'median self ms':>15} {'total self s':>13} {'share':>7}"]
        for name, vals in sorted(per.items(), key=lambda kv: -sum(kv[1])):
            lines.append(
                f"{name:28} {len(vals):6d} {1e3 * statistics.median(vals):15.4f} "
                f"{sum(vals):13.4f} {sum(vals) / total:7.1%}"
            )
        return "\n".join(lines)


def _pipeline(tr: Tracer, X, cfg: DetectorConfig):
    """The steps of ``pcout.detect``, one public call per span."""
    with tr.span("prcmpout.pipeline"):
        with tr.span("robust.sphere"):
            Xs, _ = robust_sphere(X)
        with tr.span("spectral.pca_basis"):
            basis = pca_basis(Xs, cfg.variance_threshold, max_components=X.shape[0] - 1)
        with tr.span("spectral.project"):
            Z = project(Xs, basis)
        with tr.span("robust.resphere"):
            Zs, _ = robust_sphere(Z)
        with tr.span("prcmpout.stage1"):
            w1, _, _ = stage1_location(Zs, cfg)
        with tr.span("prcmpout.stage2"):
            w2, _ = stage2_scatter(Zs, cfg)
        with tr.span("prcmpout.combine"):
            w_final = combine_weights(w1, w2, cfg.scale_const_s)
            flags = w_final < cfg.outlier_cut
    with tr.span("chisq.quantile"):  # the four quantiles detect needs at this p*
        for prob in (0.5, 0.5, cfg.stage2_m_quantile, cfg.stage2_c_quantile):
            chi2_quantile(prob, Zs.shape[1])
    return w1, w2, w_final, flags


def _pipeline_and_detect(tr: Tracer, X, cfg: DetectorConfig, detect_first: bool):
    """The traced pipeline and the untraced ``pcout.detect`` on X, in the given order."""
    if detect_first:
        with tr.span("prcmpout.detect"):
            report = detect(X, cfg)
    composed = _pipeline(tr, X, cfg)
    if not detect_first:
        with tr.span("prcmpout.detect"):
            report = detect(X, cfg)
    return composed, report


def _quiet_main(argv) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _csv_round(tr, w, inp, cfg, errors, k: int):
    out = CACHE / f"traced-report-{w.name}.json"
    echo = {"input": str(inp.csv), "method": "prcmpout", **dataclasses.asdict(cfg)}
    with tr.span("csv.round"):
        with tr.span("dataio.load_csv"):
            dm = load_csv(str(inp.csv))
        composed, report = _pipeline_and_detect(tr, dm.values, cfg, detect_first=k % 2 == 1)
        with tr.span("dataio.serialize"):
            text = document_to_json(weight_report_document(dm, report, echo))
        with tr.span("cli.main"):
            rc = _quiet_main(["detect", "--method", "prcmpout", "--input", str(inp.csv), "--output", str(out)])
    if not np.array_equal(dm.values, inp.X) or dm.row_ids != inp.row_ids:
        errors.append("csv: load_csv does not return the generated matrix and row ids bit for bit")
    if msg := checks.composed_matches(composed, report):
        errors.append(f"csv: {msg}")
    if rc != 0 or out.read_text(encoding="utf-8") != text:
        errors.append(f"csv: cli.main detect exited {rc} or wrote another report than the layers")
    errors.extend(checks.check_report(json.loads(text), inp.truth, inp.row_ids))
    return len(text.encode("utf-8"))


def _sweep_round(tr, seed, cfg, errors, k: int):
    flags = {m: {p: [] for p in P_VALUES} for m in METHODS}
    truths = {p: [] for p in P_VALUES}
    for p in P_VALUES:
        for rep in range(REFERENCE_REPS):
            with tr.span("sweep.rep"):
                with tr.span("evalsim.generate"):
                    X, truth = generate_contaminated(sweep_spec(seed, p, rep))
                composed, report = _pipeline_and_detect(tr, X, cfg, detect_first=(k + rep) % 2 == 1)
                with tr.span("baselines.classical"):
                    classical = classical_detect(X, ALPHA)
                with tr.span("baselines.ogk_estimate"):
                    est = ogk_estimate(X)
                with tr.span("baselines.ogk_reweight"):
                    ogk_reweight(X, est)
                with tr.span("baselines.ogk_detect"):
                    ogk = ogk_detect(X, ALPHA)
                with tr.span("baselines.sign2"):
                    sign2 = sign2_detect(X, ALPHA)
                found = {"prcmpout": composed[3], "classical": classical.flags, "ogk": ogk.flags, "sign2": sign2.flags}
                for f in found.values():
                    with tr.span("evalsim.confusion"):
                        confusion(truth, f)
            for msg in (
                checks.composed_matches(composed, report),
                checks.classical_matches(X, classical, ALPHA),
                checks.psd(est.scatter),
            ):
                if msg:
                    errors.append(f"sweep p={p} rep={rep}: {msg}")
            truths[p].append(truth)
            for m in METHODS:
                flags[m][p].append(found[m])
    out = CACHE / "traced-sweep.json"
    for m in METHODS:
        with tr.span("cli.sweep"):
            rc = _quiet_main(sweep_argv(m, REFERENCE_REPS, seed, out))
        doc = json.loads(out.read_text(encoding="utf-8"))
        if rc != 0:
            errors.append(f"sweep/{m}: cli.main exited {rc}")
        errors.extend(checks.check_sweep(doc, m, P_VALUES, REFERENCE_REPS))
        if msg := checks.tally_matches(doc, flags[m], truths):
            errors.append(f"sweep/{m}/tally: {msg}")


def _eig_probe(X, cfg) -> tuple[int, int]:
    """Order of the eigenproblem ``spectral.pca_basis`` solves on X, and the components it keeps.

    Wraps ``numpy.linalg.eigh`` for one untimed call, so the count shows the
    route the code takes (Gram matrix when p > n, covariance otherwise).
    """
    orders = []
    real = np.linalg.eigh

    def probe(a, *args, **kwargs):
        orders.append(int(np.shape(a)[-1]))
        return real(a, *args, **kwargs)

    Xs, _ = robust_sphere(X)
    np.linalg.eigh = probe
    try:
        basis = pca_basis(Xs, cfg.variance_threshold, max_components=X.shape[0] - 1)
    finally:
        np.linalg.eigh = real
    return max(orders, default=0), basis.n_components


def traced_run(w, inp, seed: int, seconds: float):
    """Run traced rounds for ``seconds``; return (metrics, errors, attempted, failed)."""
    cfg = DetectorConfig()
    seed = input_seed(seed)
    tr = Tracer()
    errors: list[str] = []
    ops = 2 + REFERENCE_REPS * len(P_VALUES) + len(METHODS)  # csv pass, cli detect, reps, cli sweeps
    attempted = failed = 0
    report_bytes = 0
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        attempted += ops
        try:
            report_bytes = _csv_round(tr, w, inp, cfg, errors, k)
            _sweep_round(tr, seed, cfg, errors, k)
        except Exception:
            traceback.print_exc()
            failed += ops
        if time.perf_counter() >= deadline:
            break

    groups = {subject: tr.by_name(root) for subject, root in ROOTS.items()}
    metrics = {}
    for metric, (span, subject) in TIMED_LAYERS.items():
        metrics[metric] = statistics.median(groups[subject or w.subject][span])
    # one pipeline and one detect under every root span, so the lists pair up
    mine = tr.by_name(ROOTS[w.subject], whole=True)
    metrics["trace.overhead_s"] = statistics.median(
        a - b for a, b in zip(mine["prcmpout.pipeline"], mine["prcmpout.detect"], strict=True)
    )
    metrics["dataio.load_cells_per_s"] = inp.X.size / metrics["dataio.load_csv_s"]
    metrics["dataio.report_bytes"] = report_bytes
    metrics["spectral.eig_order"], metrics["spectral.p_star"] = _eig_probe(inp.X, cfg)
    metrics["prcmpout.flagged"] = int(detect(inp.X, cfg).flags.sum())

    path = CACHE / f"spans-{w.name}.jsonl"
    tr.write(path)
    print(f"spans written to {path}\n{tr.table()}", file=sys.stderr)
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, errors, attempted, failed
