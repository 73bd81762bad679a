"""The benchmark's calls into pcout, on toy inputs.

``bench/tracing.py`` times ``pcout detect`` layer by layer through public
functions (``robust_sphere``'s pair, ``pca_basis``'s ``max_components``,
``stage1_location``'s triple) and counts the eigenproblem's order by wrapping
``np.linalg.eigh``. A change to any of these breaks the traced benchmark; this
test shows it in under a second. It imports the benchmark's modules without
calling ``env.configure()``, so nothing is written under ``bench/``.
"""

import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")  # bench/checks.py computes its oracles with scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import tracing  # noqa: E402

from pcout.evalsim import SimSpec, generate_contaminated  # noqa: E402
from pcout.prcmpout import DetectorConfig, detect  # noqa: E402

SHAPES = {"tall": (120, 8), "wide": (40, 120)}


def _input(name):
    n, p = SHAPES[name]
    spec = SimSpec(n=n, p=p, outlier_indices={3, 11, 27}, location_shift=3.0, seed=101)
    return generate_contaminated(spec)[0]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_traced_pipeline_composes_to_detect(name):
    X, cfg = _input(name), DetectorConfig()
    composed = tracing._pipeline(tracing.Tracer(), X, cfg)
    assert checks.composed_matches(composed, detect(X, cfg)) is None


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_eig_probe_sees_the_smaller_order(name):
    order, p_star = tracing._eig_probe(_input(name), DetectorConfig())
    assert order == min(SHAPES[name])
    assert 1 <= p_star <= SHAPES[name][0] - 1
