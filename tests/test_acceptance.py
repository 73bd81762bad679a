"""Acceptance criteria for the toolkit, one test per criterion.

Every test prints a single [PASS]/[FAIL] line (run with `pytest -s` to see
them in order). Monte-Carlo criteria run on the committed seed set: base seed
42, replication r at seed 42 + r.
"""

import math
import time

import numpy as np

from pcout.baselines import classical_detect, ogk_detect, ogk_estimate, sign2_detect
from pcout.chisq import chi2_quantile
from pcout.dataio import DataMatrix, document_csv_chunks, document_to_json, weight_report_document
from pcout.evalsim import (
    REFERENCE_OUTLIER_ROWS,
    SimSpec,
    confusion,
    dimension_sweep,
    document,
    generate_contaminated,
    time_detectors,
)
from pcout.prcmpout import combine_weights, detect, transform_distances
from pcout.robust import l1_median
from pcout.spectral import covariance, pca_basis, sym_eigen

BASE_SEED = 42

# Cutoff values sqrt(chi2(p, 1 - alpha)) as printed in the comparison table
CUTOFF_TABLE = {
    (0.05, 10): 4.278672, (0.05, 20): 5.604501, (0.05, 30): 6.616115, (0.05, 40): 7.46716,
    (0.10, 10): 3.998397, (0.10, 20): 5.330289, (0.10, 30): 6.344763, (0.10, 40): 7.197573,
    (0.15, 10): 3.81234, (0.15, 20): 5.14758, (0.15, 30): 6.163623, (0.15, 40): 7.017396,
    (0.20, 10): 3.666328, (0.20, 20): 5.003749, (0.20, 30): 6.020813, (0.20, 40): 6.875212,
}


def _criterion(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_1_cutoff_table():
    worst = 0.0
    for (alpha, p), printed in CUTOFF_TABLE.items():
        computed = math.sqrt(chi2_quantile(1.0 - alpha, p))
        worst = max(worst, abs(computed - printed))
    _criterion(1, "all 16 cutoff values within 1e-4", worst < 1e-4, f"worst |err| = {worst:.2e}")


def test_criterion_2_combination_boundary_algebra():
    grid = np.linspace(0.0, 1.0, 1000)
    W1, W2 = np.meshgrid(grid, grid, indexing="ij")
    flags = combine_weights(W1.ravel(), W2.ravel(), 0.25).reshape(1000, 1000) < 0.25

    # locus w1 = 1 (last grid row): flagged exactly when w2 < 0.0625
    locus_full = np.array_equal(flags[-1], grid < 0.0625)
    # diagonal w1 = w2 = t: flagged exactly when t < 0.375
    diag = np.array_equal(np.diagonal(flags), grid < 0.375)
    # exact boundary points land on the cut and are not flagged (strict rule)
    w_a = combine_weights([1.0], [0.0625], 0.25)[0]
    w_b = combine_weights([0.375], [0.375], 0.25)[0]
    exact = w_a == 0.25 and w_b == 0.25 and not (w_a < 0.25) and not (w_b < 0.25)

    _criterion(
        2,
        "final-weight boundary algebra on the 1000x1000 grid",
        locus_full and diag and exact,
        f"w(1, 0.0625) = {w_a!r}, w(0.375, 0.375) = {w_b!r}",
    )


def test_criterion_3_distance_calibration():
    rng = np.random.Generator(np.random.Philox(BASE_SEED))
    worst = 0.0
    for df in (1, 5, 40):
        target = chi2_quantile(0.5, df)
        for _ in range(100):
            raw = np.abs(rng.standard_normal(100)) + 0.1
            d = transform_distances(raw, df)
            worst = max(worst, abs(float(np.median(d)) ** 2 - target))
    _criterion(3, "median-calibration invariant at 1e-10", worst < 1e-10, f"worst |err| = {worst:.2e}")


def test_criterion_4_dimension_trend():
    spec = SimSpec(
        n=100,
        p=10,
        outlier_indices=REFERENCE_OUTLIER_ROWS,
        location_shift=1.5,
        scatter_factor=1.0,
        seed=BASE_SEED,
    )
    rows = dimension_sweep(
        lambda X: detect(X).flags, [10, 20, 30, 40], 16, spec, detector_name="prcmpout"
    )
    fns = [row.mean_fn for row in rows]
    fps = [row.mean_fp for row in rows]
    nonincreasing = all(fns[i + 1] <= fns[i] + 1e-12 for i in range(3))
    ok = nonincreasing and fns[-1] <= 0.05 and all(fp <= 0.15 for fp in fps)
    detail = "FN " + ", ".join(f"p={r.p}: {f:.3f}" for r, f in zip(rows, fns))
    detail += "; FP max " + f"{max(fps):.3f}"
    _criterion(4, "mean FN nonincreasing in p, <= 5% at p=40, FP <= 15%", ok, detail)


def test_criterion_5_false_positive_control_on_clean_data():
    rates = []
    for r in range(16):
        X, _ = generate_contaminated(SimSpec(n=100, p=10, seed=BASE_SEED + r))
        rates.append(float(detect(X).flags.mean()))
    mean_rate = float(np.mean(rates))
    _criterion(
        5,
        "clean-data flag rate below 10%",
        mean_rate < 0.10,
        f"mean flag rate = {mean_rate:.4f} over 16 seeds",
    )


def test_criterion_6_classical_calibration():
    X, _ = generate_contaminated(SimSpec(n=5000, p=5, seed=BASE_SEED))
    rate = float(classical_detect(X, alpha=0.05).flags.mean())
    _criterion(6, "classical flag rate 5% +/- 1%", abs(rate - 0.05) <= 0.01, f"rate = {rate:.4f}")


def test_criterion_7_masking():
    spec = SimSpec(
        n=100, p=10, outlier_indices=frozenset(range(1, 16)), location_shift=6.0, seed=BASE_SEED
    )
    classical_fns, prcmpout_fns = [], []
    for r in range(16):
        X, truth = generate_contaminated(
            SimSpec(
                n=spec.n, p=spec.p, outlier_indices=spec.outlier_indices,
                location_shift=spec.location_shift, seed=BASE_SEED + r,
            )
        )
        classical_fns.append(confusion(truth, classical_detect(X, 0.05).flags).fn_rate)
        prcmpout_fns.append(confusion(truth, detect(X).flags).fn_rate)
    mc, mp = float(np.mean(classical_fns)), float(np.mean(prcmpout_fns))
    _criterion(
        7,
        "classical mean FN strictly exceeds the robust detector's under masking",
        mc > mp,
        f"classical FN = {mc:.3f}, prcmpout FN = {mp:.3f}",
    )


def test_criterion_8_invariance_suite():
    rng = np.random.Generator(np.random.Philox(BASE_SEED))
    checks = {}

    # row-permutation equivariance of the detector
    X = rng.standard_normal((80, 8))
    X[:6] += 4.0
    perm = rng.permutation(80)
    base = detect(X)
    permuted = detect(X[perm])
    checks["permutation"] = bool(
        np.abs(permuted.w_final - base.w_final[perm]).max() < 1e-8
        and np.array_equal(permuted.flags, base.flags[perm])
    )

    # coordinatewise-affine invariance of the detector
    scales = rng.uniform(0.5, 5.0, 8) * rng.choice([-1.0, 1.0], 8)
    offsets = rng.uniform(-10.0, 10.0, 8)
    mapped = detect(X * scales + offsets)
    checks["affine"] = bool(
        np.abs(mapped.w1 - base.w1).max() < 1e-8
        and np.abs(mapped.w2 - base.w2).max() < 1e-8
        and np.abs(mapped.w_final - base.w_final).max() < 1e-8
        and np.array_equal(mapped.flags, base.flags)
    )

    # OGK scatter positive semidefiniteness
    psd = True
    for seed in range(4):
        g = np.random.Generator(np.random.Philox(seed))
        Y = g.standard_normal((60, 6)) @ g.standard_normal((6, 6))
        Y[:6] += 8.0
        psd = psd and np.linalg.eigvalsh(ogk_estimate(Y).scatter).min() >= -1e-10
    checks["ogk_psd"] = bool(psd)

    # spatial-sign radius invariance
    Z = rng.standard_normal((90, 7))
    Z[:5] += 6.0
    s_base = sign2_detect(Z, 0.05)
    s_scaled = sign2_detect(Z * 1000.0, 0.05)
    checks["sign2_radius"] = bool(
        np.array_equal(s_base.flags, s_scaled.flags)
        and np.abs(s_base.distances - s_scaled.distances).max() < 1e-12
    )

    # spatial-median orthogonal equivariance
    W = rng.standard_normal((60, 5))
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    checks["l1_median"] = bool(
        np.abs(l1_median(W @ Q) - l1_median(W) @ Q).max() < 1e-6
    )

    # the Gram route of pca_basis (p > n) agrees with the direct eigendecomposition
    V = rng.standard_normal((10, 50))
    w_gram = pca_basis(V, 1.0).eigenvalues
    w_direct, _ = sym_eigen(covariance(V))
    rel = np.abs(w_gram - w_direct[: len(w_gram)]) / w_direct[: len(w_gram)]
    checks["gram_vs_direct"] = bool(rel.max() < 1e-6)

    failed = [name for name, ok in checks.items() if not ok]
    _criterion(8, "invariance suite", not failed, f"failed: {failed}" if failed else "6 checks")


def test_criterion_9_norm_concentration():
    rng = np.random.Generator(np.random.Philox(BASE_SEED))
    means, sds = [], []
    for p in (10, 100, 1000):
        ratios = np.linalg.norm(rng.standard_normal((1000, p)), axis=1) / math.sqrt(p)
        means.append(float(ratios.mean()))
        sds.append(float(ratios.std()))
    ok = all(abs(m - 1.0) <= 0.02 for m in means) and sds[0] > sds[1] > sds[2]
    detail = "means " + ", ".join(f"{m:.4f}" for m in means)
    detail += "; sds " + ", ".join(f"{s:.4f}" for s in sds)
    _criterion(9, "norms concentrate near sqrt(p)", ok, detail)


def test_criterion_10_high_dimensional_speed():
    wide = time_detectors(
        {"prcmpout": lambda X: detect(X).flags},
        SimSpec(n=100, p=1000, seed=BASE_SEED),
        repeats=5,
    )[0]
    versus = time_detectors(
        {
            "prcmpout": lambda X: detect(X).flags,
            "ogk": lambda X: ogk_detect(X, 0.05).flags,
        },
        SimSpec(n=100, p=400, seed=BASE_SEED),
        repeats=5,
    )
    t_pc = next(r.median_seconds for r in versus if r.detector == "prcmpout")
    t_ogk = next(r.median_seconds for r in versus if r.detector == "ogk")
    ok = wide.median_seconds < 5.0 and t_pc <= t_ogk
    _criterion(
        10,
        "p=1000 under 5 s and not slower than OGK at p=400",
        ok,
        f"p=1000 median {wide.median_seconds:.3f}s; p=400 prcmpout {t_pc:.3f}s vs ogk {t_ogk:.3f}s",
    )


def test_criterion_11_determinism():
    spec = SimSpec(
        n=60, p=8, outlier_indices=frozenset({1, 2, 3}), location_shift=3.0, seed=BASE_SEED
    )
    sweeps = [
        document(spec, dimension_sweep(lambda X: detect(X).flags, [8, 16], 4, spec))
        for _ in range(2)
    ]
    sweeps = ["".join(document_csv_chunks(doc)) for doc in sweeps]
    X, _ = generate_contaminated(spec)
    n, p = X.shape
    dm = DataMatrix(X, tuple(str(i + 1) for i in range(n)), tuple(f"x{j + 1}" for j in range(p)))
    reports = [
        document_to_json(weight_report_document(dm, detect(X), {"method": "prcmpout"}))
        for _ in range(2)
    ]
    ok = sweeps[0] == sweeps[1] and reports[0] == reports[1]
    _criterion(11, "re-runs serialize byte-identically", ok)


def test_runtime_budgets_are_respected():
    # the whole acceptance suite is expected to stay well inside its stated
    # budgets; spot-check the only expensive pieces
    start = time.perf_counter()
    X, _ = generate_contaminated(SimSpec(n=100, p=1000, seed=BASE_SEED))
    detect(X)
    assert time.perf_counter() - start < 5.0
