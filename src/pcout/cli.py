"""Command-line front end.

Subcommands: detect (run one detector on a CSV), sweep (dimension sweep of
averaged error rates on simulated contamination), bench (wall-clock
comparison), plotdata (turn a saved report or sweep into figure data).

Exit codes: 0 success, 2 input or output error, 3 numeric/degeneracy error,
4 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

from . import baselines, evalsim
from .dataio import (
    InputDataError,
    detection_result_document,
    document_csv_chunks,
    document_json_chunks,
    load_csv,
    plot_document,
    weight_report_document,
)
from .prcmpout import DetectorConfig, detect

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

DEFAULT_ALPHA = 0.05

# method -> run(X, alpha) returning the detector's result; prcmpout ignores alpha
_RUNNERS = {
    "prcmpout": lambda X, alpha: detect(X),
    "classical": baselines.classical_detect,
    "ogk": baselines.ogk_detect,
    "sign2": baselines.sign2_detect,
}
METHODS = tuple(_RUNNERS)


class ConfigError(ValueError):
    """Invalid flag combination or parameter value."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; those are configuration
    # problems under this tool's exit-code contract, returned by main
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcout", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="run a detector on a CSV file")
    p_detect.add_argument("--input", required=True, help="CSV file with a header row")
    p_detect.add_argument("--method", required=True, choices=METHODS)
    p_detect.add_argument("--alpha", type=float, default=None, help="cutoff level for classical/ogk/sign2")
    p_detect.add_argument("--format", choices=("json", "csv"), default="json")
    p_detect.add_argument("--output", default=None, help="report path (stdout when omitted)")

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

    p_bench = sub.add_parser("bench", help="median wall-clock comparison of detectors")
    p_bench.add_argument("--methods", default="prcmpout,ogk", help="comma-separated method names")
    p_bench.add_argument("--alpha", type=float, default=None)
    p_bench.add_argument("--n", type=int, default=100)
    p_bench.add_argument("--p", type=int, default=400)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=evalsim.DEFAULT_SEED)
    p_bench.add_argument("--format", choices=("json", "csv"), default="csv")
    p_bench.add_argument("--output", default=None)

    p_plot = sub.add_parser("plotdata", help="figure data from a saved JSON report or sweep")
    p_plot.add_argument("--report", required=True, help="JSON report from detect or sweep")
    p_plot.add_argument("--output", default=None)

    return parser


def _write_document(doc: dict, fmt: str, path: str | None) -> None:
    """Stream ``doc`` as ``fmt`` to the file at ``path``, or to stdout."""
    chunks = document_json_chunks(doc) if fmt == "json" else document_csv_chunks(doc)
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc.strerror}") from exc


def _alpha_for(methods, alpha: float | None) -> float:
    """The --alpha to run with: range-checked, refused unless some method
    uses it, DEFAULT_ALPHA when unset."""
    if alpha is None:
        return DEFAULT_ALPHA
    try:
        baselines.check_alpha(alpha)
    except ValueError as exc:
        raise ConfigError(f"--{exc}") from exc
    if all(m == "prcmpout" for m in methods):
        raise ConfigError("--alpha does not apply to the prcmpout method")
    return alpha


def _settings(method: str, alpha: float) -> dict:
    """The settings a detect report's header echoes for the method."""
    if method == "prcmpout":
        return dataclasses.asdict(DetectorConfig())
    return {"alpha": alpha, "beta": baselines.OGK_BETA} if method == "ogk" else {"alpha": alpha}


def _flag_handle(method: str, alpha: float | None):
    """Detector handle for the simulation harness."""
    run = _RUNNERS[method]
    return lambda X: run(X, alpha).flags


def _cmd_detect(args) -> int:
    alpha = _alpha_for([args.method], args.alpha)
    start = time.perf_counter()
    dm = load_csv(args.input)
    result = _RUNNERS[args.method](dm.values, alpha)
    config_echo = {"input": args.input, "method": args.method, **_settings(args.method, alpha)}
    build = weight_report_document if args.method == "prcmpout" else detection_result_document
    doc = build(dm, result, config_echo)
    _write_document(doc, args.format, args.output)
    elapsed = time.perf_counter() - start
    print(
        f"{args.method}: flagged {doc['header']['flagged']} of {doc['header']['n']} rows "
        f"in {elapsed:.3f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> list[int]:
    if not text.strip():
        return []
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {text!r}") from exc
    if len(set(values)) < len(values):
        raise ConfigError(f"{what} names a value more than once: {text!r}")
    return values


def _cmd_sweep(args) -> int:
    alpha = _alpha_for([args.method], args.alpha)
    if args.method == "prcmpout":
        alpha = None  # the sweep rows echo no alpha for prcmpout
    p_values = _parse_int_list(args.p_values, "--p-values")
    if not p_values:
        raise ConfigError("--p-values must name at least one dimension")
    indices = _parse_int_list(args.outlier_indices, "--outlier-indices")
    handle = _flag_handle(args.method, alpha)
    try:  # evalsim checks every count; a detector's failure is recorded on its row
        base_spec = evalsim.SimSpec(
            n=args.n,
            p=p_values[0],
            outlier_indices=frozenset(indices),
            location_shift=args.shift,
            scatter_factor=args.scatter_factor,
            seed=args.seed,
        )
        rows = evalsim.dimension_sweep(
            handle, p_values, args.replications, base_spec, detector_name=args.method, alpha=alpha
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    doc = evalsim.document(base_spec, rows)
    _write_document(doc, args.format, args.output)
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
    if len(set(methods)) < len(methods):
        raise ConfigError(f"--methods names a method more than once: {args.methods!r}")
    alpha = _alpha_for(methods, args.alpha)
    handles = {m: _flag_handle(m, alpha) for m in methods}
    try:  # evalsim checks every count; a detector's failure is recorded on its row
        spec = evalsim.SimSpec(n=args.n, p=args.p, seed=args.seed)
        rows = evalsim.time_detectors(handles, spec, repeats=args.repeats)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_document(evalsim.document(spec, rows), args.format, args.output)
    for row in rows:
        timing = f"failed: {row.failures[0]}" if row.failures else f"median {row.median_seconds:.4f}s"
        print(f"{row.detector}: {timing}", file=sys.stderr)
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
        points = plot_document(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"{args.report} is not a pcout report or sweep: {exc}") from exc
    _write_document(points, "csv", args.output)
    return EXIT_OK


_COMMANDS = {
    "detect": _cmd_detect, "sweep": _cmd_sweep, "bench": _cmd_bench, "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
        print(f"pcout: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
