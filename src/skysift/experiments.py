"""Reproduction harness: seeded experiment runs with CSV/JSON artifacts.

Each ``run_<name>`` function writes plot-ready CSV files and returns their
paths; :func:`run_experiment` adds the manifest (config snapshot, seed,
package version, SHA-256 of every output, wall time) sufficient to re-run
bit-identically.  Plotting itself is out of scope; the column contracts are
documented per run function.
"""

import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .detector import (
    _full_statistics,
    _stream_reports,
    detect_batch,
    detector_from_scenario,
    threshold,
)
from .error_analysis import _check_target, error_surface, total_error
from .errors import ConfigError
from .model import Scenario
from .simulator import simulate_batch

__all__ = [
    "ExperimentConfig",
    "EXPERIMENT_NAMES",
    "run_scatter",
    "run_streaming",
    "run_mc_vs_exact",
    "run_surface",
    "run_horizon_sweep",
    "run_roc",
    "run_experiment",
]

EXPERIMENT_NAMES = ("scatter", "streaming", "mc-vs-exact", "surface", "horizon-sweep", "roc")

# trial-count defaults, used when the config leaves n_trials unset
_DEFAULT_TRIALS = {
    "streaming": 50,
    "mc-vs-exact": 5000,
}

# class-2/class-1 ratios of the default error surface, on both axes
SURFACE_RATIOS = (0.25, 0.5, 1.0, 2.0, 4.0)
# horizons of the default error-vs-horizon table
SWEEP_HORIZONS = (5, 10, 20, 40)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: model scenario, scale, seed, accuracy, output."""

    scenario: Scenario
    name: str
    out_dir: Path
    seed: int = 1
    accuracy: float = 1e-6
    n_trials: int | None = None

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(
                f"unknown experiment {self.name!r}; choose from {EXPERIMENT_NAMES}"
            )
        if not _is_integer(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.n_trials is not None and (not _is_integer(self.n_trials) or self.n_trials < 1):
            raise ConfigError(f"n_trials must be an integer >= 1, got {self.n_trials!r}")
        if not isinstance(self.accuracy, numbers.Real):
            raise ConfigError(f"accuracy must be a number in (0, 1), got {self.accuracy!r}")
        _check_target(self.accuracy)  # the range and floor every report holds, before any run
        object.__setattr__(self, "out_dir", Path(self.out_dir))

    def trials(self) -> int:
        return self.n_trials or _DEFAULT_TRIALS.get(self.name, 500)

    def to_dict(self) -> dict:
        """Every field but ``out_dir``, in field order, the scenario as its dict."""
        snapshot = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        return dict(snapshot, scenario=self.scenario.to_dict())

    @classmethod
    def from_manifest(cls, path, out_dir) -> "ExperimentConfig":
        """Rebuild the config recorded in a manifest, for bit-identical re-runs;
        its ``config`` must hold exactly the keys that ``to_dict`` writes."""
        try:
            with open(path, encoding="utf-8") as fh:
                snapshot = json.load(fh)["config"]
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise ConfigError(f"cannot read a config from manifest {path}: {exc!r}") from exc
        keys = sorted(f.name for f in fields(cls) if f.name != "out_dir")
        if not isinstance(snapshot, dict) or sorted(snapshot) != keys:
            raise ConfigError(f"manifest {path}: config must hold exactly the keys {keys}")
        scenario = Scenario.from_dict(snapshot["scenario"])
        return cls(**dict(snapshot, scenario=scenario, out_dir=out_dir))


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _cell(v) -> str:
    # None becomes an empty cell: outputs carry no non-finite values
    if v is None:
        return ""
    return repr(float(v)) if isinstance(v, float) else str(v)


def _write_json(path: Path, payload) -> Path:
    """``payload`` as JSON indented by 2, plus a trailing newline."""
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _write_csv(path: Path, header, rows) -> None:
    """CSV with CRLF line ends, floats written as their ``repr``; no cell
    needs quoting.  A row given as a str is a line of ready cells."""
    lines = [
        row if isinstance(row, str) else ",".join(map(_cell, row)) for row in [header, *rows]
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_surface_csv(gain_ratios, mass_ratios, errors, path) -> None:
    """Matrix CSV of an :func:`error_surface` result: rows are mass ratios,
    columns gain ratios, cells log10 of the total error; a cell whose error
    is 0.0 is left blank, so the file carries no non-finite value."""
    rows = (
        [float(mass)] + [math.log10(e) if e > 0 else None for e in row]
        for mass, row in zip(mass_ratios, errors)
    )
    _write_csv(path, ["mass_ratio\\gain_ratio"] + [float(g) for g in gain_ratios], rows)


def horizon_errors(scenario: Scenario, kf_values, accuracy: float) -> tuple:
    """The horizons and the total error at each, the rest of ``scenario``
    held fixed.  Every value must be a valid config ``kf`` (an integer
    >= 1); all are checked before any error is computed."""
    base = scenario.to_dict()
    scenarios = [Scenario.from_dict(dict(base, kf=kf)) for kf in kf_values]
    horizons = [s.sampling.horizon for s in scenarios]
    return horizons, [total_error(s, accuracy).total_error for s in scenarios]


def run_scatter(config: ExperimentConfig) -> list:
    """Per-trial statistic vs threshold.

    Outputs: scatter.csv with columns trial,label,statistic,z and
    scatter_summary.json with the empirical confusion matrix.
    """
    batch = simulate_batch(config.scenario, config.trials(), config.seed)
    detector = detector_from_scenario(config.scenario)
    decisions, statistics, thresholds = detect_batch(detector, batch)
    labels, decisions, z = batch.label, np.array(decisions), thresholds[0]

    csv_path = config.out_dir / "scatter.csv"
    z_cell = _cell(z)  # the same threshold on every row
    _write_csv(
        csv_path,
        ("trial", "label", "statistic", "z"),
        (
            f"{i},{label},{statistic!r},{z_cell}"
            for i, (label, statistic) in enumerate(zip(labels.tolist(), statistics))
        ),
    )
    summary = {
        "n_trials": int(labels.size),
        "threshold": z,
        "confusion": {
            f"true{t}_decided{d}": int(np.sum((labels == t) & (decisions == d)))
            for t in (1, 2)
            for d in (1, 2)
        },
        "empirical_error": float(np.mean(decisions != labels)),
    }
    summary_path = _write_json(config.out_dir / "scatter_summary.json", summary)
    return [csv_path, summary_path]


def run_streaming(config: ExperimentConfig) -> list:
    """Running decision trace on the first class-2 trial of a seeded batch.

    The trial is whichever class-2 trial the seed produces first; it is not
    selected for a pretty convergence pattern.  Outputs streaming.csv with
    columns k,y,statistic,z,decision,conditional_error and
    streaming_summary.json with the stabilization horizon.
    """
    batch = simulate_batch(config.scenario, config.trials(), config.seed)
    class2 = np.flatnonzero(batch.label == 2)
    if class2.size == 0:
        raise ConfigError(
            "no class-2 trial in the batch; increase n_trials or change the seed"
        )
    trial_idx = int(class2[0])
    detector = detector_from_scenario(config.scenario)

    values = batch.samples.reshape(batch.label.size, -1)[trial_idx].tolist()
    reports = list(_stream_reports(detector, values))
    decisions = [r.decision for r in reports]
    rows = (
        (k, y, r.statistic, r.threshold, r.decision, r.conditional_error)
        for k, (y, r) in enumerate(zip(values, reports))
    )
    csv_path = config.out_dir / "streaming.csv"
    _write_csv(
        csv_path, ("k", "y", "statistic", "z", "decision", "conditional_error"), rows
    )

    final = decisions[-1]
    stable_from = len(decisions) - 1
    while stable_from > 0 and decisions[stable_from - 1] == final:
        stable_from -= 1
    summary = {
        "trial": trial_idx,
        "true_label": 2,
        "final_decision": final,
        "stabilized_from_count": stable_from + 1,  # samples needed, 1-based
    }
    summary_path = _write_json(config.out_dir / "streaming_summary.json", summary)
    return [csv_path, summary_path]


def run_mc_vs_exact(config: ExperimentConfig) -> list:
    """Cumulative empirical error against the computed exact value.

    Outputs mc_vs_exact.csv with columns
    n_trials,empirical_error,exact_error,empirical_miss1,exact_miss1,
    empirical_miss2,exact_miss2 (per-conclusion components included; an
    empirical component is blank until its class has appeared).
    """
    report = total_error(config.scenario, config.accuracy)
    batch = simulate_batch(config.scenario, config.trials(), config.seed)
    decisions = detect_batch(detector_from_scenario(config.scenario), batch)[0]
    labels = batch.label
    wrong = (np.array(decisions) != labels).astype(float)

    n = labels.size
    block = max(1, n // 400)
    points = np.arange(block - 1, n, block)
    if points[-1] != n - 1:
        points = np.append(points, n - 1)

    def _rates(is_class):
        # blank until the class has appeared; 0/0 there is masked, not written
        hits, wrongs = np.cumsum(is_class)[points], np.cumsum(wrong * is_class)[points]
        with np.errstate(invalid="ignore"):
            rates = (wrongs / hits).tolist()
        return [repr(r) if h else "" for r, h in zip(rates, hits.tolist())]

    exact = (report.total_error, report.miss_given_1, report.miss_given_2)
    total, miss1, miss2 = map(_cell, exact)
    counts = points + 1
    errors = (np.cumsum(wrong)[points] / counts).tolist()
    rates1, rates2 = _rates(labels == 1), _rates(labels == 2)
    rows = [
        f"{k},{e!r},{total},{r1},{miss1},{r2},{miss2}"
        for k, e, r1, r2 in zip(counts.tolist(), errors, rates1, rates2)
    ]
    csv_path = config.out_dir / "mc_vs_exact.csv"
    _write_csv(
        csv_path,
        (
            "n_trials",
            "empirical_error",
            "exact_error",
            "empirical_miss1",
            "exact_miss1",
            "empirical_miss2",
            "exact_miss2",
        ),
        rows,
    )
    return [csv_path]


def run_surface(config: ExperimentConfig) -> list:
    """Total error over a grid of class-2/class-1 gain and mass ratios.

    Outputs surface.csv (see :func:`write_surface_csv`).  The grid is
    SURFACE_RATIOS, the powers of two from 1/4 to 4, on both axes.
    """
    errors = error_surface(config.scenario, SURFACE_RATIOS, SURFACE_RATIOS, config.accuracy)
    csv_path = config.out_dir / "surface.csv"
    write_surface_csv(SURFACE_RATIOS, SURFACE_RATIOS, errors, csv_path)
    return [csv_path]


def run_horizon_sweep(config: ExperimentConfig) -> list:
    """Exact total error at each of the SWEEP_HORIZONS.

    Outputs horizon_sweep.csv with columns kf,total_error and
    horizon_sweep_summary.json recording the fitted slope of log(error)
    versus horizon (the decay is expected to look exponential).
    """
    kf_values, errors = horizon_errors(config.scenario, SWEEP_HORIZONS, config.accuracy)
    csv_path = config.out_dir / "horizon_sweep.csv"
    _write_csv(csv_path, ("kf", "total_error"), zip(kf_values, errors))

    summary = {"kf": kf_values, "total_error": errors}
    if len(kf_values) >= 2 and all(e > 0 for e in errors):
        slope, intercept = np.polyfit(kf_values, np.log(errors), 1)
        summary["log_error_slope"] = float(slope)
        summary["log_error_intercept"] = float(intercept)
    summary_path = _write_json(config.out_dir / "horizon_sweep_summary.json", summary)
    return [csv_path, summary_path]


def run_roc(config: ExperimentConfig) -> list:
    """Empirical ROC by sweeping the decision threshold across the observed
    statistic range.

    Outputs roc.csv with columns threshold,false_positive_rate,
    true_positive_rate; the MAP threshold is included as one of the sweep
    points.  Class 2 is the 'positive' call: a trial is called 2 when its
    ``detect_full`` statistic exceeds the threshold, TPR is the fraction of
    class-2 trials called 2 and FPR that of class-1 trials.  A batch
    without both classes is refused.
    """
    batch = simulate_batch(config.scenario, config.trials(), config.seed)
    labels, samples = batch.label, batch.samples.reshape(batch.label.size, -1)
    detector = detector_from_scenario(config.scenario)
    statistics = _full_statistics(detector, samples)
    z = threshold(detector, samples.shape[1])
    sweep = np.unique(
        np.concatenate(
            [
                np.quantile(statistics, np.linspace(0.0, 1.0, 25)),
                [z, statistics.min() - 1.0, statistics.max() + 1.0],
            ]
        )
    )
    is2 = labels == 2
    if is2.all() or not is2.any():
        raise ConfigError("ROC sweep needs both classes present in the batch")
    called2 = statistics > sweep[:, None]
    fpr, tpr = called2[:, ~is2].mean(axis=1), called2[:, is2].mean(axis=1)
    csv_path = config.out_dir / "roc.csv"
    _write_csv(
        csv_path,
        ("threshold", "false_positive_rate", "true_positive_rate"),
        zip(sweep.tolist(), fpr.tolist(), tpr.tolist()),
    )
    return [csv_path]


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the experiment ``config.name`` (see EXPERIMENT_NAMES) and return
    its manifest.

    Creates ``config.out_dir``, calls ``run_<name>`` (looked up in this
    module when called) and writes ``<name>_manifest.json``: the config
    snapshot, package version, seed, SHA-256 of every output and the wall
    time of the run and the hashing.
    """
    runner = globals()["run_" + config.name.replace("-", "_")]
    config.out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    paths = runner(config)
    manifest = {
        "config": config.to_dict(),
        "version": __version__,
        "seed": config.seed,
        "outputs": {p.name: _sha256(p) for p in paths},
        "wall_seconds": time.monotonic() - started,
    }
    _write_json(config.out_dir / f"{config.name}_manifest.json", manifest)
    return manifest
