import csv
import json
import math

import numpy as np
import pytest

import skysift as sk
from skysift import experiments
from skysift.detector import (
    SufficientStatistics,
    detect_batch,
    detect_full,
    detect_simplified,
    detector_from_scenario,
    threshold,
)
from skysift.errors import ConfigError
from skysift.experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    _write_csv,
    horizon_errors,
    run_experiment,
)
from skysift.simulator import simulate_batch

from oracles import mc_vs_exact_rows


MC_VS_EXACT_COLUMNS = (
    "n_trials",
    "empirical_error",
    "exact_error",
    "empirical_miss1",
    "exact_miss1",
    "empirical_miss2",
    "exact_miss2",
)


def make_config(tmp_path, name, scenario=None, **kwargs):
    return ExperimentConfig(
        scenario=scenario or sk.Scenario.default(),
        name=name,
        out_dir=tmp_path / name,
        **kwargs,
    )


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        make_config(tmp_path, "unknown-name")
    with pytest.raises(ConfigError):
        make_config(tmp_path, "scatter", n_trials=0)
    with pytest.raises(ConfigError):
        make_config(tmp_path, "scatter", accuracy=0.0)
    with pytest.raises(ConfigError):
        make_config(tmp_path, "scatter", seed=-1)
    cfg = make_config(tmp_path, "scatter")
    assert cfg.trials() == 500
    assert make_config(tmp_path, "mc-vs-exact").trials() == 5000
    assert make_config(tmp_path, "scatter", n_trials=77).trials() == 77


def test_run_scatter(tmp_path):
    cfg = make_config(tmp_path, "scatter", n_trials=80, seed=3)
    manifest = run_experiment(cfg)

    header, rows = read_csv(cfg.out_dir / "scatter.csv")
    assert header == ["trial", "label", "statistic", "z"]
    assert len(rows) == 80

    # statistic column is recomputable from the simulated batch
    batch = simulate_batch(cfg.scenario, 80, 3)
    spec = detector_from_scenario(cfg.scenario)
    for row in rows[:5]:
        i = int(row[0])
        label, series = batch.trials[i]
        assert int(row[1]) == label
        assert float(row[2]) == pytest.approx(
            detect_full(spec, series).statistic, rel=1e-12
        )
        assert float(row[3]) == threshold(spec)
    # and equals the detect path bit for bit, on every row
    for row in rows:
        stats = SufficientStatistics.from_series(batch.trials[int(row[0])][1].samples)
        assert float(row[2]) == detect_simplified(spec, stats).statistic

    summary = json.loads((cfg.out_dir / "scatter_summary.json").read_text())
    confusion = summary["confusion"]
    assert sum(confusion.values()) == 80
    assert summary["n_trials"] == 80

    assert set(manifest["outputs"]) == {"scatter.csv", "scatter_summary.json"}
    assert manifest["seed"] == 3


def test_scatter_deterministic_outputs(tmp_path):
    cfg_a = make_config(tmp_path / "a", "scatter", n_trials=40, seed=5)
    cfg_b = make_config(tmp_path / "b", "scatter", n_trials=40, seed=5)
    hashes_a = run_experiment(cfg_a)["outputs"]
    hashes_b = run_experiment(cfg_b)["outputs"]
    assert hashes_a == hashes_b


def test_manifest_rerun_reproduces_checksums(tmp_path):
    cfg = make_config(tmp_path / "first", "scatter", n_trials=30, seed=8)
    first = run_experiment(cfg)
    manifest_path = cfg.out_dir / "scatter_manifest.json"
    assert manifest_path.exists()

    rebuilt = ExperimentConfig.from_manifest(manifest_path, tmp_path / "second")
    assert rebuilt.seed == cfg.seed
    assert rebuilt.n_trials == cfg.n_trials
    assert rebuilt.scenario.to_dict() == cfg.scenario.to_dict()
    second = run_experiment(rebuilt)
    assert second["outputs"] == first["outputs"]


KEYS = "manifest.json.*exactly the keys"


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda config: config.update(unknown_key=1), KEYS),
        (lambda config: config.pop("scenario"), KEYS),
        (lambda config: config.pop("seed"), KEYS),
        (lambda config: config.pop("accuracy"), KEYS),
        (lambda config: config.pop("n_trials"), KEYS),
        (lambda config: config.update(seed="8"), "seed must be an integer >= 0, got '8'"),
        (lambda config: config.update(seed=True), "seed must be an integer >= 0, got True"),
        (lambda config: config.update(n_trials=2.5), "n_trials must be an integer >= 1, got 2.5"),
        (lambda config: config.update(accuracy="x"), "accuracy must be a number in .*, got 'x'"),
        (lambda config: config.update(scenario=5), "config must be a JSON object, got int"),
    ],
    ids=[
        "unknown", "no-scenario", "no-seed", "no-accuracy", "no-n_trials",
        "str-seed", "bool-seed", "float-n_trials", "str-accuracy", "int-scenario",
    ],
)
def test_manifest_with_other_config_keys_is_refused(tmp_path, edit, match):
    """A manifest's config holds exactly the keys that to_dict writes, each
    of its type: a missing one would silently take its default, as seed 1
    for seed 8, and a wrong type would fail as a TypeError or run as
    another config (n_trials 2.5, seed true)."""
    cfg = make_config(tmp_path, "scatter", n_trials=30, seed=8)
    manifest = {"config": cfg.to_dict(), "outputs": {}}
    edit(manifest["config"])
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_manifest(path, tmp_path / "rerun")


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]", '{"outputs": {}}'])
def test_unreadable_manifest_is_refused(tmp_path, text):
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="manifest.json"):
        ExperimentConfig.from_manifest(path, tmp_path / "rerun")


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "deep"])
def test_manifest_that_cannot_be_decoded_is_refused(tmp_path, content):
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="cannot read manifest .*manifest.json"):
        ExperimentConfig.from_manifest(path, tmp_path / "rerun")


def test_run_mc_vs_exact(tmp_path):
    cfg = make_config(tmp_path, "mc-vs-exact", n_trials=2000, seed=1)
    run_experiment(cfg)
    header, rows = read_csv(cfg.out_dir / "mc_vs_exact.csv")
    assert header == list(MC_VS_EXACT_COLUMNS)
    counts = [int(r[0]) for r in rows]
    assert counts == sorted(counts)
    assert counts[-1] == 2000

    report = sk.total_error(cfg.scenario)
    exact = {float(r[2]) for r in rows}
    assert exact == {report.total_error}

    # all populated cells are finite; blanks only while a class is unseen
    for row in rows:
        for cell in row[1:]:
            if cell != "":
                assert math.isfinite(float(cell))
    assert rows[-1][3] != "" and rows[-1][5] != ""

    final_emp = float(rows[-1][1])
    se = math.sqrt(max(final_emp * (1 - final_emp), 1e-12) / 2000)
    assert abs(final_emp - report.total_error) <= 3 * se


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n_trials", [1, 2, 7, 400, 401, 1001])
def test_mc_vs_exact_columns_equal_the_per_row_reference(tmp_path, n_trials, seed):
    """The columnar table is byte for byte the row-by-row one: n // 400
    with and without a remainder, and blank cells while a class is unseen."""
    cfg = make_config(tmp_path, "mc-vs-exact", n_trials=n_trials, seed=seed)
    run_experiment(cfg)
    batch = simulate_batch(cfg.scenario, n_trials, seed)
    decisions = detect_batch(detector_from_scenario(cfg.scenario), batch)[0]
    rows = mc_vs_exact_rows(batch.label, decisions, sk.total_error(cfg.scenario))
    reference = tmp_path / "reference.csv"
    _write_csv(reference, MC_VS_EXACT_COLUMNS, rows)
    table = (cfg.out_dir / "mc_vs_exact.csv").read_bytes()
    assert table == reference.read_bytes()
    if n_trials == 1:
        [row] = read_csv(cfg.out_dir / "mc_vs_exact.csv")[1]
        assert sorted(cell == "" for cell in (row[3], row[5])) == [False, True], row


def test_run_streaming(tmp_path):
    cfg = make_config(tmp_path, "streaming", seed=2)
    run_experiment(cfg)
    header, rows = read_csv(cfg.out_dir / "streaming.csv")
    assert header == ["k", "y", "statistic", "z", "decision", "conditional_error"]
    assert len(rows) == cfg.scenario.sampling.horizon
    assert [int(r[0]) for r in rows] == list(range(20))
    for row in rows:
        assert int(row[4]) in (1, 2)
        assert 0.0 < float(row[5]) <= 0.5

    summary = json.loads((cfg.out_dir / "streaming_summary.json").read_text())
    assert summary["true_label"] == 2
    assert 1 <= summary["stabilized_from_count"] <= 20
    assert summary["final_decision"] == int(rows[-1][4])


def test_run_streaming_requires_a_class2_trial(tmp_path):
    scenario = sk.Scenario.from_dict({"prior1": 0.999})
    cfg = make_config(tmp_path, "streaming", scenario=scenario, n_trials=2, seed=1)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_run_horizon_sweep(tmp_path):
    cfg = make_config(tmp_path, "horizon-sweep")
    run_experiment(cfg)
    header, rows = read_csv(cfg.out_dir / "horizon_sweep.csv")
    assert header == ["kf", "total_error"]
    errors = [float(r[1]) for r in rows]
    assert [int(r[0]) for r in rows] == list(experiments.SWEEP_HORIZONS)
    assert all(b < a for a, b in zip(errors, errors[1:]))

    summary = json.loads((cfg.out_dir / "horizon_sweep_summary.json").read_text())
    assert summary["log_error_slope"] < 0.0


def test_horizon_errors(monkeypatch):
    scenario = sk.Scenario.default()
    [error] = horizon_errors(scenario, (1,), 1e-6)[1]
    assert error < 0.5  # even one sample beats guessing
    # a value that is not an integer >= 1 is refused by name, never
    # truncated, and before any error is computed
    monkeypatch.setattr(experiments, "total_error", None)
    for bad in (0, -3, 2.5, math.nan, math.inf):
        with pytest.raises(ConfigError, match=repr(bad)):
            horizon_errors(scenario, (5, bad), 1e-6)


def test_run_surface(tmp_path):
    cfg = make_config(tmp_path, "surface")
    run_experiment(cfg)
    header, rows = read_csv(cfg.out_dir / "surface.csv")
    assert header == ["mass_ratio\\gain_ratio"] + list(map(repr, experiments.SURFACE_RATIOS))
    assert [float(r[0]) for r in rows] == list(experiments.SURFACE_RATIOS)
    center = float(rows[2][3])  # identical classes
    assert center == math.log10(0.5)


def test_run_roc(tmp_path):
    cfg = make_config(tmp_path, "roc", n_trials=300, seed=4)
    run_experiment(cfg)
    header, rows = read_csv(cfg.out_dir / "roc.csv")
    assert header == ["threshold", "false_positive_rate", "true_positive_rate"]
    thresholds = [float(r[0]) for r in rows]
    fpr = [float(r[1]) for r in rows]
    tpr = [float(r[2]) for r in rows]
    assert thresholds == sorted(thresholds)
    assert fpr[0] == 1.0 and tpr[0] == 1.0
    assert fpr[-1] == 0.0 and tpr[-1] == 0.0
    assert all(b <= a for a, b in zip(fpr, fpr[1:]))
    assert all(b <= a for a, b in zip(tpr, tpr[1:]))
    z = threshold(detector_from_scenario(cfg.scenario))
    assert any(t == z for t in thresholds)


def test_roc_map_point_matches_exact_rates(tmp_path):
    """Law check: at the MAP threshold, FPR is the class-1 miss rate and TPR
    one minus the class-2 miss rate, each within 4 standard errors."""
    n = 4000
    cfg = make_config(tmp_path, "roc", n_trials=n, seed=12)
    run_experiment(cfg)
    _, rows = read_csv(cfg.out_dir / "roc.csv")
    z = threshold(detector_from_scenario(cfg.scenario))
    [(fpr, tpr)] = [(float(r[1]), float(r[2])) for r in rows if float(r[0]) == z]
    report = sk.total_error(cfg.scenario)
    n1 = int(np.sum(simulate_batch(cfg.scenario, n, 12).label == 1))
    se1 = math.sqrt(report.miss_given_1 * (1 - report.miss_given_1) / n1)
    se2 = math.sqrt(report.miss_given_2 * (1 - report.miss_given_2) / (n - n1))
    assert abs(fpr - report.miss_given_1) <= 4 * se1
    assert abs(tpr - (1 - report.miss_given_2)) <= 4 * se2


@pytest.mark.parametrize("seed", range(1, 21))
def test_run_roc_one_statistic_path(tmp_path, seed):
    """Sweep points and rates come from the same statistics: no trial exceeds
    the point at the largest statistic, and every rate recomputes exactly."""
    cfg = make_config(tmp_path, "roc", n_trials=500, seed=seed)
    run_experiment(cfg)
    _, rows = read_csv(cfg.out_dir / "roc.csv")
    batch = simulate_batch(cfg.scenario, 500, seed)
    spec = detector_from_scenario(cfg.scenario)
    statistics = np.array([detect_full(spec, s).statistic for _, s in batch.trials])
    is2 = batch.labels() == 2
    assert float(rows[-2][0]) == statistics.max()
    assert rows[-2][1:] == ["0.0", "0.0"]
    for thr, fpr, tpr in rows:
        called2 = statistics > float(thr)
        assert float(fpr) == called2[~is2].mean()
        assert float(tpr) == called2[is2].mean()


def test_run_experiment_dispatch(tmp_path):
    for name in EXPERIMENT_NAMES:
        cfg = ExperimentConfig(
            scenario=sk.Scenario.default(),
            name=name,
            out_dir=tmp_path / name,
            seed=2,
            n_trials=60 if name in ("scatter", "streaming", "mc-vs-exact", "roc") else None,
        )
        manifest = run_experiment(cfg)
        manifest_path = cfg.out_dir / f"{name}_manifest.json"
        recorded = json.loads(manifest_path.read_text())
        assert recorded == manifest
        assert list(recorded) == ["config", "version", "seed", "outputs", "wall_seconds"]
        assert recorded["config"]["name"] == name
        written = {p.name for p in cfg.out_dir.iterdir()} - {manifest_path.name}
        assert set(manifest["outputs"]) == written


def test_run_experiment_calls_the_module_runner(tmp_path, monkeypatch):
    """The runner is looked up when ``run_experiment`` is called, so a
    rebinding of ``experiments.run_roc`` (as a tracer makes) is the one run."""
    calls = []
    original = experiments.run_roc

    def recording(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(experiments, "run_roc", recording)
    cfg = make_config(tmp_path, "roc", n_trials=60, seed=2)
    manifest = run_experiment(cfg)
    assert calls == [cfg]
    assert set(manifest["outputs"]) == {"roc.csv"}
