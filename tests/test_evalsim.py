import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcout.baselines import classical_detect
from pcout.dataio import document_csv_chunks, document_to_json
from pcout.evalsim import (
    REFERENCE_OUTLIER_ROWS,
    SimSpec,
    TimingRow,
    confusion,
    dimension_sweep,
    document,
    generate_contaminated,
    time_detectors,
)


class TestSimSpec:
    def test_indices_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SimSpec(n=10, p=2, outlier_indices=frozenset({11}))

    def test_scatter_factor_must_be_positive(self):
        for factor in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="scatter_factor"):
                SimSpec(n=10, p=2, scatter_factor=factor)
        for shift in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="location_shift"):
                SimSpec(n=10, p=2, location_shift=shift)

    def test_scalar_shift_broadcasts(self):
        spec = SimSpec(n=10, p=3, outlier_indices=frozenset({2}), location_shift=1.5)
        X, _ = generate_contaminated(spec)
        base, _ = generate_contaminated(dataclasses.replace(spec, location_shift=0.0))
        assert X[1] - base[1] == pytest.approx([1.5, 1.5, 1.5])

    def test_to_dict_round_trips_through_json(self):
        spec = SimSpec(n=100, p=10, outlier_indices=frozenset({1, 50}), location_shift=2.0, seed=7)
        blob = json.dumps(spec.to_dict())
        assert json.loads(blob)["outlier_indices"] == [1, 50]

    def test_to_dict_is_every_field_in_order_with_the_indices_sorted(self):
        spec = SimSpec(n=100, p=10, outlier_indices=frozenset({50, 1}), scatter_factor=3, seed=7)
        want = {**dataclasses.asdict(spec), "outlier_indices": [1, 50]}
        assert list(spec.to_dict().items()) == list(want.items())


class TestGenerate:
    def test_no_outliers_means_all_false_truth(self):
        X, truth = generate_contaminated(SimSpec(n=20, p=4))
        assert X.shape == (20, 4)
        assert not truth.any()

    def test_identical_seeds_are_bit_identical(self):
        spec = SimSpec(n=50, p=6, outlier_indices=frozenset({1, 2, 3}), location_shift=2.0, seed=11)
        X1, t1 = generate_contaminated(spec)
        X2, t2 = generate_contaminated(spec)
        assert np.array_equal(X1, X2)
        assert np.array_equal(t1, t2)

    def test_truth_marks_exactly_the_planted_rows(self):
        spec = SimSpec(n=100, p=5, outlier_indices=REFERENCE_OUTLIER_ROWS, location_shift=3.0)
        _, truth = generate_contaminated(spec)
        assert set(np.flatnonzero(truth) + 1) == set(REFERENCE_OUTLIER_ROWS)

    def test_degenerate_contamination_is_indistinguishable(self):
        # zero shift and unit scatter: labeled rows are drawn from the same
        # law as the rest, so a calibrated detector flags both groups alike
        out_rates, in_rates = [], []
        for seed in range(16):
            spec = SimSpec(
                n=100, p=5, outlier_indices=REFERENCE_OUTLIER_ROWS,
                location_shift=0.0, scatter_factor=1.0, seed=seed,
            )
            X, truth = generate_contaminated(spec)
            flags = classical_detect(X, alpha=0.2).flags
            out_rates.append(flags[truth].mean())
            in_rates.append(flags[~truth].mean())
        assert abs(np.mean(out_rates) - np.mean(in_rates)) < 0.05


class TestConfusion:
    def test_table_one_notation(self):
        truth = np.array([True] * 18 + [False] * 82)
        flags = np.array([True] * 15 + [False] * 3 + [True] * 8 + [False] * 74)
        counts = confusion(truth, flags)
        assert (counts.a, counts.b, counts.c, counts.d) == (15, 3, 8, 74)
        assert counts.fn_rate == pytest.approx(3 / 18)
        assert counts.fp_rate == pytest.approx(8 / 82)

    def test_perfect_detection(self):
        truth = np.array([True, False, False])
        counts = confusion(truth, truth)
        assert counts.fn_rate == 0.0
        assert counts.fp_rate == 0.0

    def test_flag_everything(self):
        truth = np.array([True, False, False])
        counts = confusion(truth, np.ones(3, bool))
        assert counts.fn_rate == 0.0
        assert counts.fp_rate == 1.0

    def test_no_true_outliers_leaves_fn_undefined(self):
        counts = confusion(np.zeros(5, bool), np.zeros(5, bool))
        assert counts.fn_rate is None

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            confusion(np.zeros(3, bool), np.zeros(4, bool))

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=50))
    def test_counts_partition_n(self, pairs):
        truth = np.array([t for t, _ in pairs])
        flags = np.array([f for _, f in pairs])
        counts = confusion(truth, flags)
        assert counts.a + counts.b + counts.c + counts.d == len(pairs)


def _always_flag_far(X):
    return np.linalg.norm(X, axis=1) > 2.0 * np.sqrt(X.shape[1])


class TestDimensionSweep:
    def test_separable_contamination_has_zero_fn(self):
        spec = SimSpec(n=40, p=5, outlier_indices=frozenset({1, 2}), location_shift=50.0)
        rows = dimension_sweep(_always_flag_far, [5, 10], 1, spec, detector_name="norm")
        assert all(row.mean_fn == 0.0 for row in rows)

    def test_different_seeds_give_different_rates(self):
        spec_a = SimSpec(n=60, p=10, outlier_indices=frozenset(range(1, 10)), location_shift=2.0, seed=0)
        spec_b = dataclasses.replace(spec_a, seed=500)
        X_a, _ = generate_contaminated(spec_a)
        X_b, _ = generate_contaminated(spec_b)
        assert not np.array_equal(X_a, X_b)  # no accidental seed reuse
        row_a = dimension_sweep(_always_flag_far, [10], 4, spec_a)[0]
        row_b = dimension_sweep(_always_flag_far, [10], 4, spec_b)[0]
        assert (row_a.mean_fn, row_a.mean_fp) != (row_b.mean_fn, row_b.mean_fp)

    def test_deterministic(self):
        spec = SimSpec(n=50, p=8, outlier_indices=frozenset({1, 5}), location_shift=3.0, seed=3)
        rows1 = dimension_sweep(_always_flag_far, [8, 12], 4, spec)
        rows2 = dimension_sweep(_always_flag_far, [8, 12], 4, spec)
        assert rows1 == rows2

    def test_failures_recorded_per_cell(self):
        def fragile(X):
            if X.shape[1] == 12:
                raise ValueError("boom")
            return _always_flag_far(X)

        spec = SimSpec(n=30, p=8, outlier_indices=frozenset({1}), location_shift=10.0, seed=5)
        rows = dimension_sweep(fragile, [8, 12], 3, spec)
        ok_row = next(r for r in rows if r.p == 8)
        bad_row = next(r for r in rows if r.p == 12)
        assert not ok_row.failures
        assert len(bad_row.failures) == 3
        assert bad_row.mean_fn is None

    def test_a_flag_vector_of_the_wrong_length_is_recorded_on_the_row(self):
        spec = SimSpec(n=40, p=5, outlier_indices=frozenset({1}), location_shift=10.0, seed=5)
        rows = dimension_sweep(lambda X: np.zeros(3, bool), [5], 2, spec)
        assert rows[0].failures == tuple(
            f"p=5 rep={r}: label vectors differ in length: (40,) vs (3,)" for r in range(2)
        )
        assert rows[0].mean_fn is None and rows[0].mean_fp is None


def _recording(write=False):
    """A handle that keeps a copy of each matrix it gets, by width in call
    order (and then overwrites that matrix when ``write``); flags nothing."""
    seen = {}

    def handle(X):
        seen.setdefault(X.shape[1], []).append(X.copy())
        if write:
            X[...] = np.nan
        return np.zeros(len(X), dtype=bool)

    return handle, seen


_CELL_SPECS = {
    "reference rows": SimSpec(
        n=40, p=1, outlier_indices=frozenset({1, 7, 22, 40}), location_shift=1.5, seed=3
    ),
    "scatter 3 and a shift": SimSpec(
        n=40, p=1, outlier_indices=frozenset({2, 5, 31}), location_shift=-2.0, scatter_factor=3.0, seed=11
    ),
    "no planted rows": SimSpec(n=40, p=1, seed=0),
}


class TestSweepCells:
    """Each (p, replication) cell sees exactly ``generate_contaminated``'s matrix."""

    @staticmethod
    def _assert_cells_generated(seen, spec, p_values, replications):
        assert sorted(seen) == sorted(p_values)
        for p in p_values:
            # the r-th matrix of width p is replication r's
            assert len(seen[p]) == replications
            for r, got in enumerate(seen[p]):
                want, _ = generate_contaminated(dataclasses.replace(spec, p=p, seed=spec.seed + r))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (p, r)

    @pytest.mark.parametrize("name", sorted(_CELL_SPECS))
    def test_every_cell_is_the_generated_matrix(self, name):
        spec = _CELL_SPECS[name]
        handle, seen = _recording()
        rows = dimension_sweep(handle, [12, 5, 8], 3, spec)
        assert [row.p for row in rows] == [12, 5, 8]
        self._assert_cells_generated(seen, spec, [12, 5, 8], 3)

    def test_a_handle_that_writes_into_its_matrix_changes_no_later_cell(self):
        spec = _CELL_SPECS["reference rows"]
        handle, seen = _recording(write=True)
        dimension_sweep(handle, [12, 5, 8], 3, spec)
        self._assert_cells_generated(seen, spec, [12, 5, 8], 3)

    @pytest.mark.parametrize("p_values", [[5, 8, 5], [5, 0], [-3]])
    def test_repeated_or_nonpositive_p_is_refused_before_any_detection(self, p_values):
        calls = []

        def counting(X):
            calls.append(X.shape)
            return np.zeros(len(X), dtype=bool)

        with pytest.raises(ValueError, match="p values"):
            dimension_sweep(counting, p_values, 2, _CELL_SPECS["reference rows"])
        assert calls == []

    @pytest.mark.parametrize("p_values", [[1000, 20000], [20000, 1000], [5000, 10000, 20000]])
    def test_traced_peak_is_at_most_seven_quarters_of_the_largest_matrix(self, p_values):
        spec = SimSpec(n=100, p=1, outlier_indices=REFERENCE_OUTLIER_ROWS, location_shift=1.5)
        tracemalloc.start()
        try:
            dimension_sweep(lambda X: np.zeros(len(X), dtype=bool), p_values, 2, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * spec.n * max(p_values) * 8


class TestTimeDetectors:
    def test_medians_are_finite_and_positive(self):
        spec = SimSpec(n=50, p=10, seed=1)
        rows = time_detectors({"norm": _always_flag_far}, spec, repeats=3)
        assert len(rows) == 1
        assert rows[0].repeats == 3
        assert np.isfinite(rows[0].median_seconds)
        assert rows[0].median_seconds > 0.0

    def test_too_few_repeats_rejected(self):
        with pytest.raises(ValueError):
            time_detectors({"norm": _always_flag_far}, SimSpec(n=10, p=2), repeats=2)


class TestSerialization:
    """Sweep and timing documents as dataio writes them."""

    def test_csv_header_is_exact(self):
        spec = SimSpec(n=30, p=5, outlier_indices=frozenset({1}), location_shift=9.0, seed=2)
        rows = dimension_sweep(_always_flag_far, [5], 2, spec, detector_name="norm", alpha=0.05)
        text = "".join(document_csv_chunks(document(spec, rows)))
        assert text.splitlines()[0] == "p,alpha,detector,mean_fn,mean_fp,replications,seed"
        assert text.splitlines()[1].startswith("5,0.05,norm,")

    def test_json_embeds_the_spec(self):
        spec = SimSpec(n=30, p=5, outlier_indices=frozenset({1}), location_shift=9.0, seed=2)
        rows = dimension_sweep(_always_flag_far, [5], 2, spec)
        doc = json.loads(document_to_json(document(spec, rows)))
        assert doc["spec"] == spec.to_dict()
        assert doc["rows"][0]["p"] == 5

    def test_a_numpy_float_alpha_writes_as_the_json_form_reads_it(self):
        spec = SimSpec(n=30, p=5, outlier_indices=frozenset({1}), location_shift=9.0, seed=2)
        rows = dimension_sweep(_always_flag_far, [5], 1, spec, detector_name="norm", alpha=np.float64(0.05))
        doc = document(spec, rows)
        assert json.loads(document_to_json(doc))["rows"][0]["alpha"] == 0.05
        assert "".join(document_csv_chunks(doc)).splitlines()[1].startswith("5,0.05,norm,")

    def test_none_rates_serialize_as_empty_cells(self):
        spec = SimSpec(n=10, p=3, seed=1)  # no outliers: FN undefined
        rows = dimension_sweep(_always_flag_far, [3], 1, spec, detector_name="norm")
        line = "".join(document_csv_chunks(document(spec, rows))).splitlines()[1]
        assert line.split(",")[3] == ""

    def test_timing_csv(self):
        doc = document(SimSpec(n=10, p=2), [TimingRow("norm", 0.125, 3)])
        text = "".join(document_csv_chunks(doc))
        assert text.splitlines()[0] == "detector,median_seconds,repeats"
        assert text.splitlines()[1] == "norm,0.125,3"
