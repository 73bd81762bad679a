"""Correctness checks, each computed apart from the program.

Oracles come from scipy and plain numpy, never from ``pcout`` itself. Every
check is a named function that returns ``None`` when it holds and a message
when it does not, so the self-test can show that each one catches a corrupted
record.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import chi2

MAD_SCALE = 1.4826
REL_TOL_CHI2 = 1e-9  # the program's chi-square quantile is accurate to 1e-10
MAX_INLIER_FLAG_SHARE = 0.15
MAX_FN_AT_P40 = 0.05
MAX_FP = 0.15
RATE_CHECK_REPS = 16  # criterion 4 bounds error rates averaged over 16 replications

# the constants of the published method (Filzmoser, Maronna & Werner 2008);
# the weight checks use these, not the values the report echoes
VARIANCE_THRESHOLD = 0.99
SCALE_CONST_S = 0.25
OUTLIER_CUT = 0.25
STAGE1_FULL_WEIGHT_FRACTION = 1.0 / 3.0
STAGE1_C_MAD_MULTIPLIER = 2.5
STAGE2_M_QUANTILE = 0.25
STAGE2_C_QUANTILE = 0.99
PAPER_CONFIG = {
    "variance_threshold": VARIANCE_THRESHOLD,
    "scale_const_s": SCALE_CONST_S,
    "outlier_cut": OUTLIER_CUT,
    "stage1_full_weight_fraction": STAGE1_FULL_WEIGHT_FRACTION,
    "stage1_c_mad_multiplier": STAGE1_C_MAD_MULTIPLIER,
    "stage2_m_quantile": STAGE2_M_QUANTILE,
    "stage2_c_quantile": STAGE2_C_QUANTILE,
}


def biweight(d, M: float, c: float) -> np.ndarray:
    """Translated biweight: 1 up to M, 0 from c, (1 - ((d - M)/(c - M))^2)^2 between."""
    d = np.asarray(d, dtype=float)
    u = (d - M) / (c - M)
    return np.where(d <= M, 1.0, np.where(d >= c, 0.0, (1.0 - u**2) ** 2))


# --------------------------------------------------------------------------
# the JSON report of `pcout detect --method prcmpout`
# --------------------------------------------------------------------------

class Report:
    """Columns of a prcmpout report, with the truth the input was built from."""

    def __init__(self, doc: dict, truth: np.ndarray, row_ids: tuple[str, ...]):
        self.header = doc["header"]
        records = doc["records"]
        self.cfg = self.header["config"]
        self.p_star = int(self.header["p_star"])
        self.ids = [r["row_id"] for r in records]
        for key in ("w1", "w2", "w_final", "stage1_distance", "stage2_distance"):
            setattr(self, key, np.array([r[key] for r in records], dtype=float))
        self.flag = np.array([r["flag"] for r in records], dtype=bool)
        self.truth = np.asarray(truth, dtype=bool)
        self.row_ids = list(row_ids)


def _chi2_median_check(d: np.ndarray, p_star: int, stage: str):
    got = float(np.median(d)) ** 2
    want = float(chi2.ppf(0.5, p_star))
    if abs(got - want) > REL_TOL_CHI2 * want:
        return f"median({stage} distance)^2 = {got!r}, chi2.ppf(0.5, {p_star}) = {want!r}"
    return None


def stage1_median(r: Report):
    return _chi2_median_check(r.stage1_distance, r.p_star, "stage-1")


def stage2_median(r: Report):
    return _chi2_median_check(r.stage2_distance, r.p_star, "stage-2")


def w2_biweight(r: Report):
    M = np.sqrt(chi2.ppf(STAGE2_M_QUANTILE, r.p_star))
    c = np.sqrt(chi2.ppf(STAGE2_C_QUANTILE, r.p_star))
    err = np.abs(r.w2 - biweight(r.stage2_distance, M, c))
    if err.max() > 1e-8:
        return f"w2 differs from the recomputed biweight by {err.max():.3e} at row {int(err.argmax())}"
    return None


def w1_biweight(r: Report):
    d = r.stage1_distance
    M = float(np.quantile(d, STAGE1_FULL_WEIGHT_FRACTION))
    med = float(np.median(d))
    c = med + STAGE1_C_MAD_MULTIPLIER * MAD_SCALE * float(np.median(np.abs(d - med)))
    want = biweight(d, M, c) if c > M else (d <= M).astype(float)
    err = np.abs(r.w1 - want)
    if err.max() > 1e-9:
        return f"w1 differs from the recomputed biweight by {err.max():.3e} at row {int(err.argmax())}"
    return None


def w_final_product(r: Report):
    s = SCALE_CONST_S
    err = np.abs(r.w_final - (r.w1 + s) * (r.w2 + s) / (1.0 + s) ** 2)
    if err.max() > 1e-12:
        return f"w_final differs from (w1+s)(w2+s)/(1+s)^2 by {err.max():.3e} at row {int(err.argmax())}"
    return None


def flag_rule(r: Report):
    bad = np.flatnonzero(r.flag != (r.w_final < OUTLIER_CUT))
    if bad.size:
        return f"flag disagrees with w_final < outlier_cut at rows {bad[:5].tolist()}"
    if int(r.header["flagged"]) != int(r.flag.sum()):
        return f"header says {r.header['flagged']} flagged, records say {int(r.flag.sum())}"
    return None


def config_echo(r: Report):
    """The report was made with the published constants."""
    if r.cfg.get("method") != "prcmpout":
        return f"report method is {r.cfg.get('method')!r}, not 'prcmpout'"
    off = {k: r.cfg.get(k) for k, v in PAPER_CONFIG.items() if r.cfg.get(k) != v}
    if off:
        return f"config differs from the published constants: {off}"
    return None


def p_star_bound(r: Report):
    n, p = int(r.header["n"]), int(r.header["p"])
    if not 1 <= r.p_star <= min(n - 1, p):
        return f"p_star = {r.p_star} outside [1, min(n - 1, p)] = [1, {min(n - 1, p)}]"
    return None


def row_ids_round_trip(r: Report):
    if r.ids != r.row_ids:
        diff = [i for i, (a, b) in enumerate(zip(r.ids, r.row_ids)) if a != b]
        where = diff[0] if diff else min(len(r.ids), len(r.row_ids))
        return f"row ids do not round-trip: first difference at record {where}"
    return None


def planted_flagged(r: Report):
    missed = np.flatnonzero(r.truth & ~r.flag)
    if missed.size:
        return f"{missed.size} planted outliers not flagged, rows {(missed + 1)[:5].tolist()}"
    return None


def inlier_share(r: Report):
    share = float(r.flag[~r.truth].mean())
    if share > MAX_INLIER_FLAG_SHARE:
        return f"{share:.3f} of inliers flagged, bound {MAX_INLIER_FLAG_SHARE}"
    return None


REPORT_CHECKS = (
    stage1_median, stage2_median, w2_biweight, w1_biweight, w_final_product,
    flag_rule, config_echo, p_star_bound, row_ids_round_trip, planted_flagged, inlier_share,
)


def check_report(doc: dict, truth, row_ids) -> list[str]:
    r = Report(doc, truth, row_ids)
    return [f"report/{fn.__name__}: {msg}" for fn in REPORT_CHECKS if (msg := fn(r))]


# --------------------------------------------------------------------------
# the JSON output of `pcout sweep`
# --------------------------------------------------------------------------

def no_failures(doc: dict, method: str):
    failed = [f for row in doc["rows"] for f in row["failures"]]
    if failed:
        return f"{len(failed)} replications failed, first: {failed[0]}"
    return None


def prcmpout_error_rates(doc: dict, method: str):
    if method != "prcmpout":
        return None
    by_p = {row["p"]: row for row in doc["rows"]}
    if 40 in by_p and not by_p[40]["mean_fn"] <= MAX_FN_AT_P40:
        return f"mean FN {by_p[40]['mean_fn']} at p = 40 above {MAX_FN_AT_P40}"
    high = [(p, row["mean_fp"]) for p, row in by_p.items() if not row["mean_fp"] <= MAX_FP]
    if high:
        return f"mean FP above {MAX_FP} at {high}"
    return None


def check_sweep(doc: dict, method: str, p_values, reps: int) -> list[str]:
    """No failed replication, the requested rows, and, on a sweep long enough
    for criterion 4, its prcmpout error-rate bounds."""
    checks = (no_failures, prcmpout_error_rates) if reps >= RATE_CHECK_REPS else (no_failures,)
    errors = [f"sweep/{method}/{fn.__name__}: {msg}" for fn in checks if (msg := fn(doc, method))]
    shape = [(row["p"], row["detector"], row["replications"]) for row in doc["rows"]]
    if shape != [(p, method, reps) for p in p_values]:
        errors.append(f"sweep/{method}: rows {shape} do not match the request")
    return errors


def tally_matches(doc: dict, flags_by_p: dict, truth_by_p: dict):
    """Per-replication flags tallied with numpy reproduce the sweep's means."""
    for row in doc["rows"]:
        flags = np.array(flags_by_p[row["p"]], dtype=bool)
        truth = np.array(truth_by_p[row["p"]], dtype=bool)
        fn = ((truth & ~flags).sum(axis=1) / truth.sum(axis=1)).mean()
        fp = ((~truth & flags).sum(axis=1) / (~truth).sum(axis=1)).mean()
        for name, got, want in (("mean_fn", row["mean_fn"], fn), ("mean_fp", row["mean_fp"], fp)):
            if not np.isclose(got, want, rtol=1e-12, atol=0.0):
                return f"{name} = {got!r} at p = {row['p']}, numpy tally gives {want!r}"
    return None


def classical_matches(X, result, alpha: float):
    """Classical distances against a numpy.linalg.solve Mahalanobis; cutoff against scipy."""
    X = np.asarray(X, dtype=float)
    D = X - X.mean(axis=0)
    S = np.cov(X, rowvar=False)
    want = np.sqrt(np.einsum("ij,ij->i", D, np.linalg.solve(S, D.T).T))
    err = np.abs(result.distances - want) / want
    if err.max() > 1e-8:
        return f"classical distance off by {err.max():.3e} (relative) at row {int(err.argmax())}"
    cut = float(np.sqrt(chi2.ppf(1.0 - alpha, X.shape[1])))
    if abs(result.cutoff - cut) > REL_TOL_CHI2 * cut:
        return f"classical cutoff {result.cutoff!r}, sqrt(chi2.ppf(1 - alpha, p)) = {cut!r}"
    return None


def psd(scatter):
    ev = np.linalg.eigvalsh((scatter + scatter.T) / 2.0)
    if ev[0] < -1e-10 * max(abs(ev[-1]), 1.0):
        return f"OGK scatter has eigenvalue {ev[0]:.3e}"
    return None


def composed_matches(composed, report):
    """Layer-by-layer composition against ``pcout.detect``: same flags, weights within 1e-12."""
    w1, w2, w_final, flags = composed
    if not np.array_equal(flags, report.flags):
        return f"composed flags differ from detect at {np.flatnonzero(flags != report.flags)[:5].tolist()}"
    for name, a, b in (("w1", w1, report.w1), ("w2", w2, report.w2), ("w_final", w_final, report.w_final)):
        err = float(np.abs(a - b).max())
        if err > 1e-12:
            return f"composed {name} differs from detect by {err:.3e}"
    return None
