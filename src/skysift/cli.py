"""Command-line front door.

Global flags select the model config (JSON with keys m1, k1, m2, k2, q, T,
kf, prior1; built-in defaults otherwise), the seed, the output directory,
and the accuracy target.  Exit codes: 0 success, 2 configuration problem
or an output that cannot be written, 3 numerical-accuracy failure.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .detector import (
    _conditional_error_from_margin,
    _fit_batch,
    _stream_reports,
    detect_batch,
    detector_from_scenario,
)
from .error_analysis import error_surface, total_error
from .errors import ConfigError, NumericalError
from .experiments import (
    EXPERIMENT_NAMES,
    SURFACE_RATIOS,
    SWEEP_HORIZONS,
    ExperimentConfig,
    horizon_errors,
    run_experiment,
    write_surface_csv,
)
from .model import Scenario
from .simulator import read_batch_csv, simulate_batch, write_batch_csv


# parse_args leaves the parser as it was and sets every default on a fresh
# Namespace, so one parser serves every main call in a process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skysift",
        description="MAP classification of aerial objects from velocity-deviation series",
    )
    parser.add_argument("--config", type=Path, help="JSON model config")
    parser.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    parser.add_argument(
        "--out-dir", type=Path, default=Path("."), help="artifact directory"
    )
    parser.add_argument(
        "--accuracy", type=float, default=1e-6, help="error-probability accuracy target"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a labeled trial batch as CSV")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--out", type=Path, help="output CSV (default <out-dir>/trials.csv)")

    p = sub.add_parser("detect", help="classify each trial of a CSV batch")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, help="JSON-lines output (default stdout)")

    p = sub.add_parser("detect-stream", help="per-sample running decision for one trial")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out", type=Path, help="JSON-lines output (default stdout)")

    p = sub.add_parser("fit", help="moment-match class statistics from labeled CSV")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--label", type=int, choices=(1, 2), help="fit only this class")
    p.add_argument("--out", type=Path, help="JSON output (default stdout)")

    p = sub.add_parser("error-total", help="exact total error probability (JSON)")
    p.add_argument("--out", type=Path, help="JSON output (default stdout)")

    p = sub.add_parser("error-surface", help="total error over parameter-ratio grid")
    p.add_argument("--gain-ratios", default=",".join(map(repr, SURFACE_RATIOS)))
    p.add_argument("--mass-ratios", default=",".join(map(repr, SURFACE_RATIOS)))
    p.add_argument("--out", type=Path, help="CSV output (default <out-dir>/surface.csv)")

    p = sub.add_parser("error-vs-horizon", help="exact error per horizon (CSV)")
    p.add_argument("--horizons", default=",".join(map(str, SWEEP_HORIZONS)))
    p.add_argument("--out", type=Path, help="CSV output (default stdout)")

    p = sub.add_parser("experiment", help="run a named study end to end")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.add_argument("--trials", type=int)
    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


def _parse_floats(raw: str, flag: str) -> list:
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {raw!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must list at least one value")
    return values


def _cmd_simulate(scenario: Scenario, args) -> None:
    batch = simulate_batch(scenario, args.trials, args.seed)
    out = args.out or (args.out_dir / "trials.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_batch_csv(batch, out)


# json.dumps writes a finite Python float as its repr, so %r of every float
# (never a numpy scalar) gives the same bytes at a fraction of the cost
_DECISION = '"decision": %d, "statistic": %r, "z": %r, "conditional_error": %r}'
_DETECT_LINE = '{"trial": %d, ' + _DECISION
_STREAM_LINE = '{"trial": %d, "k": %d, "y": %r, ' + _DECISION


def _cmd_detect(scenario: Scenario, args) -> None:
    batch = read_batch_csv(args.input)
    decisions, statistics, thresholds = detect_batch(detector_from_scenario(scenario), batch)
    errors = [_conditional_error_from_margin(z - s) for s, z in zip(statistics, thresholds)]
    rows = zip(range(batch.label.size), decisions, statistics, thresholds, errors)
    lines = [_DETECT_LINE % row for row in rows]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_detect_stream(scenario: Scenario, args) -> None:
    batch = read_batch_csv(args.input)
    n_trials = batch.label.size
    if not (0 <= args.trial < n_trials):
        raise ConfigError(f"trial {args.trial} out of range; batch has {n_trials} trials")
    detector = detector_from_scenario(scenario)
    lo, hi = batch.offsets[args.trial : args.trial + 2].tolist()
    values = batch.samples[lo:hi].tolist()
    try:
        lines = [
            _STREAM_LINE
            % (args.trial, k, y, r.decision, r.statistic, r.threshold, r.conditional_error)
            for k, (y, r) in enumerate(zip(values, _stream_reports(detector, values)))
        ]
    except ConfigError as exc:
        raise ConfigError(f"trial {args.trial}: {exc}") from exc
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_fit(scenario: Scenario, args) -> None:
    batch = read_batch_csv(args.input)
    labels = np.unique(batch.label).tolist()
    if args.label is not None:
        if args.label not in labels:
            raise ConfigError(f"no trials with label {args.label} in {args.input}")
        labels = [args.label]
    fitted = {}
    for label in labels:
        try:
            stats = _fit_batch(batch, label)
        except ConfigError as exc:
            raise ConfigError(f"label {label}: {exc}") from exc
        fitted[str(label)] = {"alpha": stats.alpha, "rho": stats.rho}
    _emit(json.dumps(fitted, indent=2) + "\n", args.out)


def _finite_or_null(items) -> dict:
    # a Chernoff bound that overflows a double is kept as inf; JSON gets null
    return {
        k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in items
    }


def _cmd_error_total(scenario: Scenario, args) -> None:
    report = asdict(total_error(scenario, args.accuracy), dict_factory=_finite_or_null)
    _emit(json.dumps(report, indent=2, allow_nan=False) + "\n", args.out)


def _cmd_error_surface(scenario: Scenario, args) -> None:
    gains = _parse_floats(args.gain_ratios, "--gain-ratios")
    masses = _parse_floats(args.mass_ratios, "--mass-ratios")
    errors = error_surface(scenario, gains, masses, args.accuracy)
    out = args.out or (args.out_dir / "surface.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_surface_csv(gains, masses, errors, out)


def _cmd_error_vs_horizon(scenario: Scenario, args) -> None:
    horizons = _parse_floats(args.horizons, "--horizons")
    rows = zip(*horizon_errors(scenario, horizons, args.accuracy))
    lines = ["kf,total_error"] + [f"{kf},{error!r}" for kf, error in rows]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_experiment(scenario: Scenario, args) -> None:
    config = ExperimentConfig(
        scenario=scenario,
        name=args.name,
        out_dir=args.out_dir,
        seed=args.seed,
        accuracy=args.accuracy,
        n_trials=args.trials,
    )
    run_experiment(config)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "detect-stream": _cmd_detect_stream,
    "fit": _cmd_fit,
    "error-total": _cmd_error_total,
    "error-surface": _cmd_error_surface,
    "error-vs-horizon": _cmd_error_vs_horizon,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = (
            Scenario.from_json(args.config) if args.config else Scenario.default()
        )
        _COMMANDS[args.command](scenario, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
