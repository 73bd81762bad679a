"""Command-line front end.

Subcommands: detect (run one detector on a CSV), sweep (dimension sweep of
averaged error rates on simulated contamination), bench (wall-clock
comparison), plotdata (turn a saved report into long-format figure data).

Exit codes: 0 success, 2 input error, 3 numeric/degeneracy error,
4 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import baselines, evalsim
from .dataio import (
    DataMatrix,
    InputDataError,
    PLOT_KINDS,
    detection_result_document,
    document_to_csv,
    document_to_json,
    emit_plot_data,
    load_csv,
    weight_report_document,
)
from .prcmpout import DetectorConfig, detect

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

DEFAULT_ALPHA = 0.05
DEFAULT_BETA = 0.9

# method -> run(X, alpha, beta, cfg) returning (result, settings echoed in
# the report header); alpha and beta are ignored by prcmpout, cfg by the rest
_RUNNERS = {
    "prcmpout": lambda X, alpha, beta, cfg: (detect(X, cfg), dataclasses.asdict(cfg)),
    "classical": lambda X, alpha, beta, cfg: (
        baselines.classical_detect(X, alpha), {"alpha": alpha}
    ),
    "ogk": lambda X, alpha, beta, cfg: (
        baselines.ogk_detect(X, alpha, beta=beta), {"alpha": alpha, "beta": beta}
    ),
    "sign2": lambda X, alpha, beta, cfg: (baselines.sign2_detect(X, alpha), {"alpha": alpha}),
}
METHODS = tuple(_RUNNERS)

_DETECTOR_FIELDS = [f.name for f in dataclasses.fields(DetectorConfig)]


class ConfigError(ValueError):
    """Invalid flag combination or parameter value."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; those are configuration
    # problems under this tool's exit-code contract
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcout", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="run a detector on a CSV file")
    p_detect.add_argument("--input", required=True, help="CSV file with a header row")
    p_detect.add_argument("--method", required=True, choices=METHODS)
    p_detect.add_argument("--alpha", type=float, default=None, help="cutoff level for classical/ogk/sign2")
    p_detect.add_argument(
        "--beta", type=float, default=None, help=f"ogk reweighting level (default {DEFAULT_BETA})"
    )
    p_detect.add_argument("--format", choices=("json", "csv"), default="json")
    p_detect.add_argument("--output", default=None, help="report path (stdout when omitted)")
    p_detect.add_argument("--plot-data", default=None, help="also write figure data to this path")
    for name in _DETECTOR_FIELDS:
        p_detect.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="dimension sweep over simulated contamination")
    p_sweep.add_argument("--method", default="prcmpout", choices=METHODS)
    p_sweep.add_argument("--alpha", type=float, default=None)
    p_sweep.add_argument("--p-values", default="10,20,30,40", help="comma-separated dimensions")
    p_sweep.add_argument("--replications", type=int, default=16)
    p_sweep.add_argument("--n", type=int, default=100)
    p_sweep.add_argument(
        "--outlier-indices",
        default=",".join(str(i) for i in sorted(evalsim.REFERENCE_OUTLIER_ROWS)),
        help="1-based planted outlier rows (empty string for none)",
    )
    p_sweep.add_argument("--shift", type=float, default=1.5, help="per-coordinate location shift")
    p_sweep.add_argument("--scatter-factor", type=float, default=1.0)
    p_sweep.add_argument("--seed", type=int, default=evalsim.DEFAULT_SEED)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sweep.add_argument("--output", default=None)
    p_sweep.add_argument("--plot-data", default=None)

    p_bench = sub.add_parser("bench", help="median wall-clock comparison of detectors")
    p_bench.add_argument("--methods", default="prcmpout,ogk", help="comma-separated method names")
    p_bench.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_bench.add_argument("--n", type=int, default=100)
    p_bench.add_argument("--p", type=int, default=400)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=evalsim.DEFAULT_SEED)
    p_bench.add_argument("--format", choices=("json", "csv"), default="csv")
    p_bench.add_argument("--output", default=None)

    p_plot = sub.add_parser("plotdata", help="figure data from a saved JSON report")
    p_plot.add_argument("--report", required=True, help="JSON report from detect or sweep")
    p_plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p_plot.add_argument("--output", default=None)

    return parser


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_document(doc: dict, fmt: str, path: str | None):
    _write(document_to_json(doc) if fmt == "json" else document_to_csv(doc), path)


def _check_level(flag: str, value: float | None):
    """The shared range check of --alpha and --beta."""
    if value is not None and not 0.0 < value < 1.0:
        raise ConfigError(f"{flag} must be in (0, 1), got {value}")


def _flag_handle(method: str, alpha: float | None):
    """Detector handle for the simulation harness, at the default tuning."""
    run = _RUNNERS[method]
    cfg = DetectorConfig()
    return lambda X: run(X, alpha, DEFAULT_BETA, cfg)[0].flags


def _cmd_detect(args) -> int:
    _check_level("--alpha", args.alpha)
    _check_level("--beta", args.beta)
    if args.method == "prcmpout" and args.alpha is not None:
        raise ConfigError("--alpha does not apply to the prcmpout method")
    set_overrides = [n for n in _DETECTOR_FIELDS if getattr(args, n) is not None]
    if set_overrides and args.method != "prcmpout":
        raise ConfigError(f"detector options {set_overrides} only apply to the prcmpout method")
    if args.beta is not None and args.method != "ogk":
        raise ConfigError("--beta only applies to the ogk method")
    try:
        cfg = DetectorConfig(**{name: getattr(args, name) for name in set_overrides})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    start = time.perf_counter()
    dm = load_csv(args.input)
    alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    beta = DEFAULT_BETA if args.beta is None else args.beta
    result, settings = _RUNNERS[args.method](dm.values, alpha, beta, cfg)
    config_echo = {"input": args.input, "method": args.method, **settings}
    if args.method == "prcmpout":
        doc, kind = weight_report_document(dm, result, config_echo), "weight_panels"
    else:
        doc, kind = detection_result_document(dm, result, config_echo), "distance_index"

    _write_document(doc, args.format, args.output)
    if args.plot_data is not None:
        _write(emit_plot_data(doc, kind), args.plot_data)
    elapsed = time.perf_counter() - start
    print(
        f"{args.method}: flagged {doc['header']['flagged']} of {dm.n_rows} rows "
        f"in {elapsed:.3f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {text!r}") from exc


def _cmd_sweep(args) -> int:
    if args.method == "prcmpout" and args.alpha is not None:
        raise ConfigError("--alpha does not apply to the prcmpout method")
    _check_level("--alpha", args.alpha)
    if args.replications < 1:
        raise ConfigError(f"--replications must be positive, got {args.replications}")
    alpha = None
    if args.method != "prcmpout":
        alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    p_values = _parse_int_list(args.p_values, "--p-values")
    if not p_values:
        raise ConfigError("--p-values must name at least one dimension")
    if any(p < 1 for p in p_values):
        raise ConfigError(f"--p-values must be positive, got {p_values}")
    indices = _parse_int_list(args.outlier_indices, "--outlier-indices")
    try:
        base_spec = evalsim.SimSpec(
            n=args.n,
            p=p_values[0],
            outlier_indices=frozenset(indices),
            location_shift=args.shift,
            scatter_factor=args.scatter_factor,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    handle = _flag_handle(args.method, alpha)
    rows = evalsim.dimension_sweep(
        handle, p_values, args.replications, base_spec, detector_name=args.method, alpha=alpha
    )
    doc = evalsim.document(base_spec, rows)
    _write_document(doc, args.format, args.output)
    if args.plot_data is not None:
        _write(emit_plot_data(doc, "sweep_curves"), args.plot_data)
    for row in rows:
        fn = "n/a" if row.mean_fn is None else f"{row.mean_fn:.3f}"
        fp = "n/a" if row.mean_fp is None else f"{row.mean_fp:.3f}"
        failed = (
            f"; {len(row.failures)} of {row.replications} replications failed, "
            f"first: {row.failures[0]}"
            if row.failures
            else ""
        )
        print(f"p={row.p}: mean FN {fn}, mean FP {fp}{failed}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("--methods must name at least one method")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    _check_level("--alpha", args.alpha)
    if args.repeats < 3:
        raise ConfigError(f"--repeats must be at least 3, got {args.repeats}")
    try:
        spec = evalsim.SimSpec(n=args.n, p=args.p, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    handles = {m: _flag_handle(m, args.alpha) for m in methods}
    rows = evalsim.time_detectors(handles, spec, repeats=args.repeats)
    _write_document(evalsim.document(spec, rows), args.format, args.output)
    for row in rows:
        print(f"{row.detector}: median {row.median_seconds:.4f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    try:
        with open(args.report, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputDataError(f"cannot read {args.report}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{args.report} is not valid JSON: {exc}") from exc
    try:
        text = emit_plot_data(doc, args.kind)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"{args.report} does not match kind {args.kind!r}: {exc}") from exc
    _write(text, args.output)
    return EXIT_OK


_COMMANDS = {
    "detect": _cmd_detect, "sweep": _cmd_sweep, "bench": _cmd_bench, "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"pcout: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputDataError as exc:
        print(f"pcout: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"pcout: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"pcout: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
