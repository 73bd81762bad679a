"""Robust multivariate outlier detection for wide data matrices.

The main entry point is :func:`pcout.detect`, a two-stage principal-component
detector that stays fast and well-conditioned when columns outnumber rows.
Comparison detectors (classical Mahalanobis, OGK, spatial-sign PCA) live in
:mod:`pcout.baselines`, the contamination-simulation harness in
:mod:`pcout.evalsim`, and the CSV command line in :mod:`pcout.cli`.
"""

from .prcmpout import DetectorConfig, WeightReport, detect

__version__ = "0.1.0"

__all__ = ["DetectorConfig", "WeightReport", "detect"]
