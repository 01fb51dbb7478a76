import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from skysift.cli import _DETECT_LINE, _build_parser, main
from skysift.detector import (
    SufficientStatistics,
    _conditional_error_from_margin,
    detect_simplified,
    detector_from_scenario,
    fit_class_statistics,
)
from skysift.model import Scenario
from skysift.simulator import TrialBatch, simulate_batch, write_batch_csv

TOTAL_ERROR = 0.08114205841905656  # defaults, accuracy 1e-6


def run(*argv):
    return main([str(a) for a in argv])


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(
        payload if isinstance(payload, str) else json.dumps(payload),
        encoding="utf-8",
    )
    return path


def batch_csv(tmp_path, n_trials=50, seed=7):
    path = tmp_path / "trials.csv"
    write_batch_csv(simulate_batch(Scenario.default(), n_trials, seed), path)
    return path


def test_simulate_writes_default_path(tmp_path):
    assert run("--out-dir", tmp_path, "--seed", 9, "simulate", "--trials", 30) == 0
    text = (tmp_path / "trials.csv").read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    assert lines[0] == "trial,label,k,y"
    assert len(lines) == 1 + 30 * 20


def test_simulate_explicit_out(tmp_path):
    out = tmp_path / "nested" / "batch.csv"
    assert run("--seed", 2, "simulate", "--trials", 5, "--out", out) == 0
    assert out.exists()


def test_detect_matches_library(tmp_path):
    csv_path = batch_csv(tmp_path, n_trials=25, seed=11)
    out = tmp_path / "decisions.jsonl"
    assert run("detect", "--input", csv_path, "--out", out) == 0

    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["trial"] for r in records] == list(range(25))

    detector = detector_from_scenario(Scenario.default())
    batch = simulate_batch(Scenario.default(), 25, 11)
    for record, (_, series) in zip(records, batch.trials):
        report = detect_simplified(
            detector, SufficientStatistics.from_series(series.samples)
        )
        assert record["decision"] == report.decision
        assert record["statistic"] == report.statistic
        assert record["z"] == report.threshold
        assert 0 < record["conditional_error"] <= 0.5


def test_simulate_and_detect_bytes_pinned(tmp_path):
    """Digests of the seed-1, 1000-trial CSV and of its detect output."""
    csv_path = tmp_path / "trials.csv"
    out = tmp_path / "decisions.jsonl"
    assert run("--seed", 1, "simulate", "--trials", 1000, "--out", csv_path) == 0
    assert run("detect", "--input", csv_path, "--out", out) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "2d2ecaccf9918841ab0d01bd6544825b8f9409ee5e593c333b441fc6ba6c543e"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "33ea6601ecc769d4fd9faba9c7d52bb67439a7218739a0116c582b2d688193fd"
    )


@pytest.mark.parametrize(
    "name, output, digest",
    [
        (
            "mc-vs-exact",
            "mc_vs_exact.csv",
            "c738417d6e4648007de036cddc1ed5a5de89016ec3351a78af89d17c0c93abd5",
        ),
        (
            "scatter",
            "scatter.csv",
            "60fa09a36f12ba0ff105e4fc50fbe0bd4d0785836c2c6e828f2f7193733634a9",
        ),
        (
            "scatter",
            "scatter_summary.json",
            "b79bcc890041e8638bc87982ec521efad88c7dd86dce54ce97b1f53efde720c2",
        ),
        (
            "streaming",
            "streaming.csv",
            "7dc4458909d2687a0309d9b20d7d69211567ff390ab8a2e2664c21521a4fa8f3",
        ),
        (
            "streaming",
            "streaming_summary.json",
            "82bf727b5494fb432ef6a46c6d4f13c592bfc470f489f990a098749ad17861c5",
        ),
        (
            "roc",
            "roc.csv",
            "7f69f4fa3bb3807bddee45f5c527c1d865d165245606af29cf9d7b6cd53f5f3b",
        ),
        (
            "horizon-sweep",
            "horizon_sweep.csv",
            "366996cfadeda1537fa91d2724319348b4b095af345985d853c5123015352113",
        ),
        (
            "horizon-sweep",
            "horizon_sweep_summary.json",
            "adac82666aa0e155681b85ed60c5460cf2c2d996b675e46f8aced6f62a60ee4c",
        ),
        (
            "surface",
            "surface.csv",
            "5ead9001039b2d39c0a0a7a27f3280838954c8a92d516efce5faf15a75e27281",
        ),
    ],
    ids=[
        "mc_vs_exact.csv",
        "scatter.csv",
        "scatter_summary.json",
        "streaming.csv",
        "streaming_summary.json",
        "roc.csv",
        "horizon_sweep.csv",
        "horizon_sweep_summary.json",
        "surface.csv",
    ],
)
def test_experiment_bytes_pinned(tmp_path, name, output, digest):
    """Digests of the seed-1, 1000-trial experiment outputs."""
    argv = ("--seed", 1, "--out-dir", tmp_path, "experiment", name, "--trials", 1000)
    assert run(*argv) == 0
    assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, output, digest",
    [
        (
            ("error-total",),
            None,
            "c4883e0bb40319620f44640f8713bfe6d2ded95d96314a66479cb8a625c071b7",
        ),
        (
            ("error-surface",),
            "surface.csv",
            "5ead9001039b2d39c0a0a7a27f3280838954c8a92d516efce5faf15a75e27281",
        ),
        (
            ("error-surface", "--gain-ratios", "0.5,1,3", "--mass-ratios", "0.25,2"),
            "surface.csv",
            "66e2c960036f66eb682c7c56ce30be6fad9ccbf24b3cd24300191d0fa590f33b",
        ),
        (
            ("error-vs-horizon", "--horizons", "1,2,5,10,20,40"),
            None,
            "d77d1c793698f352744aab83c6cf680b4c32aee24694d2b9aa79f77bb33437e2",
        ),
        (
            ("error-vs-horizon",),
            None,
            "397394dad8fce18ec51288dbf9dba83d529de6b94e138d8dba00ab57544c251a",
        ),
    ],
    ids=[
        "error-total",
        "error-surface",
        "error-surface-custom",
        "error-vs-horizon",
        "error-vs-horizon-default",
    ],
)
def test_error_commands_bytes_pinned(tmp_path, capsys, argv, output, digest):
    """Digests of the error commands' outputs on the default scenario; None
    reads standard output."""
    assert run("--out-dir", tmp_path, *argv) == 0
    out = capsys.readouterr().out.encode()
    data = out if output is None else (tmp_path / output).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_fit_bytes_pinned(tmp_path, capsys):
    """Digest of the fit JSON of the seed-1, 200-trial CSV."""
    csv_path = tmp_path / "trials.csv"
    assert run("--seed", 1, "simulate", "--trials", 200, "--out", csv_path) == 0
    assert run("fit", "--input", csv_path) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "2eb84677db151069ba5233649409cdbaedcdfd634efe477fea5077550d848d88"
    )


@pytest.mark.parametrize("command", [("simulate",), ("experiment", "mc-vs-exact")])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    assert run("--seed", -1, "--out-dir", tmp_path, *command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [("simulate", "--trials", 1), ("experiment", "streaming")])
def test_oversized_simulation_exits_2_with_one_line(tmp_path, capsys, command):
    """kf 1e12 cannot be simulated: one error line naming the sample count
    and the limit, no traceback, and no output file."""
    cfg = write_config(tmp_path, {"kf": 10**12})
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run("--config", cfg, "--out-dir", out_dir, *command) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "2**23" in err
    assert list(out_dir.iterdir()) == []


def test_detect_ragged_trials(tmp_path):
    rng = np.random.default_rng(5)
    lengths = (3, 5, 5, 3, 5)
    samples = [rng.normal(size=n) for n in lengths]
    labels = [1 + i % 2 for i in range(len(lengths))]
    csv_path = tmp_path / "ragged.csv"
    out = tmp_path / "decisions.jsonl"
    batch = TrialBatch(labels, np.concatenate(samples), np.cumsum((0,) + lengths))
    write_batch_csv(batch, csv_path)
    assert run("detect", "--input", csv_path, "--out", out) == 0

    records = [json.loads(line) for line in out.read_text().splitlines()]
    detector = detector_from_scenario(Scenario.default())
    assert [r["trial"] for r in records] == list(range(len(lengths)))
    for record, trial in zip(records, samples):
        report = detect_simplified(detector, SufficientStatistics.from_series(trial))
        assert record["decision"] == report.decision
        assert record["statistic"] == report.statistic
        assert record["z"] == report.threshold
        assert record["conditional_error"] == report.conditional_error


def test_detect_overflowing_statistic_exits_2(tmp_path):
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text(
        "trial,label,k,y\n0,1,0,1e200\n0,1,1,1e200\n", encoding="utf-8"
    )
    with np.errstate(over="ignore"):
        assert run("detect", "--input", csv_path) == 2


def test_fit_refuses_an_overflowing_trial_with_one_line(tmp_path, capsys):
    """The trial (1e200, 0.5) has no finite energy sum: fit exits 2 with
    one error line and no numpy warning before it."""
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text(
        "trial,label,k,y\n0,1,0,1e200\n0,1,1,0.5\n1,2,0,0.1\n1,2,1,0.2\n", encoding="utf-8"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("fit", "--input", csv_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: label 1: sufficient statistics must be finite\n"


def test_fit_names_an_underflowing_sum_of_squares(tmp_path, capsys):
    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text("trial,label,k,y\n0,1,0,1e-200\n0,1,1,-1e-200\n", encoding="utf-8")
    assert run("fit", "--input", csv_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: label 1: the sum of squares is 0; the data cannot be fitted\n"


def test_detect_stream_refuses_an_overflowing_statistic(tmp_path, capsys):
    """The samples 1.2e154 and 0.5 have finite sums but an overflowing
    statistic: detect-stream refuses the trial, as detect does, and prints
    no row."""
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("trial,label,k,y\n0,1,0,0.1\n1,1,0,1.2e154\n1,1,1,0.5\n", encoding="utf-8")
    assert run("detect-stream", "--input", csv_path, "--trial", 1) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trial 1: decision statistic overflows\n"


def test_detect_stdout(tmp_path, capsys):
    csv_path = batch_csv(tmp_path, n_trials=4)
    assert run("detect", "--input", csv_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["decision"] in (1, 2) for line in lines)


def test_detect_stream_rows(tmp_path):
    csv_path = batch_csv(tmp_path, n_trials=6, seed=3)
    out = tmp_path / "stream.jsonl"
    assert run("detect-stream", "--input", csv_path, "--trial", 2, "--out", out) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["k"] for r in records] == list(range(20))
    assert all(r["trial"] == 2 for r in records)

    # the final streamed row equals detect's row for that trial, bit for bit
    detected = tmp_path / "detect.jsonl"
    assert run("detect", "--input", csv_path, "--out", detected) == 0
    batch_row = json.loads(detected.read_text().splitlines()[2])
    assert batch_row["trial"] == 2
    for key in ("decision", "statistic", "z", "conditional_error"):
        assert records[-1][key] == batch_row[key], key


def test_detect_stream_bytes_pinned(tmp_path):
    """Digest of the seed-1 stream of trial 3 over 200 samples."""
    cfg = write_config(tmp_path, {"kf": 200})
    csv_path, out = tmp_path / "trials.csv", tmp_path / "stream.jsonl"
    assert run("--config", cfg, "--seed", 1, "simulate", "--trials", 5, "--out", csv_path) == 0
    assert run("--config", cfg, "detect-stream", "--input", csv_path, "--trial", 3, "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6824efa38856ccb0751dc18e35ab96b8d476149eb6c53c90184a17341d78e081"
    )


@pytest.mark.parametrize("statistic", [-0.0, 5e-324, 1e300, -1.0986122886681096])
def test_detect_line_is_json_dumps(statistic):
    z = -1.0986122886681096  # the last statistic sits on the threshold: margin 0
    error = _conditional_error_from_margin(z - statistic)
    record = {
        "trial": 7,
        "decision": 1 if statistic <= z else 2,
        "statistic": statistic,
        "z": z,
        "conditional_error": error,
    }
    line = _DETECT_LINE % tuple(record.values())
    assert line == json.dumps(record)
    parsed = json.loads(line)
    assert [type(v) for v in parsed.values()] == [int, int, float, float, float]
    assert math.copysign(1.0, parsed["statistic"]) == math.copysign(1.0, statistic)
    if statistic == z:
        assert error == 0.5


def test_detect_and_stream_fields_are_plain_numbers(tmp_path, capsys):
    csv_path = batch_csv(tmp_path, n_trials=3)
    assert run("detect", "--input", csv_path) == 0
    assert run("detect-stream", "--input", csv_path, "--trial", 1) == 0
    for line in capsys.readouterr().out.splitlines():
        assert all(type(v) in (int, float) for v in json.loads(line).values()), line


def test_detect_stream_trial_out_of_range(tmp_path):
    csv_path = batch_csv(tmp_path, n_trials=3)
    assert run("detect-stream", "--input", csv_path, "--trial", 99) == 2


def test_fit_both_classes(tmp_path):
    csv_path = batch_csv(tmp_path, n_trials=200, seed=21)
    out = tmp_path / "fit.json"
    assert run("fit", "--input", csv_path, "--out", out) == 0
    fitted = json.loads(out.read_text())
    assert set(fitted) == {"1", "2"}
    for stats in fitted.values():
        assert stats["alpha"] > 0
        assert 0 < stats["rho"] < 1


def test_fit_matches_per_trial_fold_on_mixed_lengths(tmp_path):
    """fit pools per-length folds; its JSON bytes equal those of the
    per-trial fold (fit_class_statistics on each label's series)."""
    rng = np.random.default_rng(31)
    lengths = rng.integers(1, 9, size=120)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    batch = TrialBatch(
        label=rng.integers(1, 3, size=lengths.size),
        samples=rng.normal(size=offsets[-1]) * 10.0 ** rng.integers(-3, 4, size=offsets[-1]),
        offsets=offsets,
    )
    csv_path = tmp_path / "mixed.csv"
    write_batch_csv(batch, csv_path)
    out = tmp_path / "fit.json"
    assert run("fit", "--input", csv_path, "--out", out) == 0
    series = np.split(batch.samples, offsets[1:-1])
    want = {}
    for label in (1, 2):
        stats = fit_class_statistics([s for s, lab in zip(series, batch.label) if lab == label])
        want[str(label)] = {"alpha": stats.alpha, "rho": stats.rho}
    assert out.read_bytes() == (json.dumps(want, indent=2) + "\n").encode()


def test_fit_single_class_flag(tmp_path):
    csv_path = batch_csv(tmp_path, n_trials=60, seed=4)
    out = tmp_path / "fit.json"
    assert run("fit", "--input", csv_path, "--label", 1, "--out", out) == 0
    assert set(json.loads(out.read_text())) == {"1"}


def test_fit_missing_label_fails(tmp_path):
    full = simulate_batch(Scenario.default(), 40, 13)
    ones = full.label == 1
    kept = full.samples.reshape(full.label.size, -1)[ones]
    offsets = np.arange(kept.shape[0] + 1) * kept.shape[1]
    only1 = TrialBatch(full.label[ones], kept.ravel(), offsets)
    csv_path = tmp_path / "one_class.csv"
    write_batch_csv(only1, csv_path)
    assert run("fit", "--input", csv_path, "--label", 2) == 2


def test_fit_refusal_names_the_label(tmp_path, capsys):
    csv_path = tmp_path / "short2.csv"
    csv_path.write_text(
        "trial,label,k,y\n0,1,0,0.5\n0,1,1,0.25\n0,1,2,-0.5\n1,2,0,1.5\n",
        encoding="utf-8",
    )
    assert run("fit", "--input", csv_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: label 2: need at least two samples"), err
    assert run("fit", "--input", csv_path, "--label", 1) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"1"}


@pytest.mark.parametrize("command", [("detect",), ("fit",), ("detect-stream", "--trial", 0)])
@pytest.mark.parametrize("source", ["missing", "directory", "not_utf8"])
def test_unreadable_input_exits_2(tmp_path, capsys, command, source):
    path = tmp_path / "input.csv"
    if source == "directory":
        path.mkdir()
    elif source == "not_utf8":
        path.write_bytes(b"trial,label,k,y\n0,1,0,\xff\n")
    assert run(command[0], "--input", path, *command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read trials"), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, target",
    [
        (["detect", "--input", "{csv}", "--out", "{dir}"], "{dir}"),
        (["detect-stream", "--input", "{csv}", "--out", "{dir}"], "{dir}"),
        (["fit", "--input", "{csv}", "--out", "{dir}"], "{dir}"),
        (["error-surface", "--gain-ratios", "1,2", "--mass-ratios", "1", "--out", "{dir}"], "{dir}"),
        (["error-total", "--out", "{file}/x.json"], "{file}"),
        (["--out-dir", "{file}", "simulate", "--trials", "5"], "{file}"),
        (["--out-dir", "{file}", "experiment", "scatter", "--trials", "20"], "{file}"),
    ],
    ids=["detect", "detect-stream", "fit", "error-surface", "error-total", "simulate", "scatter"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv, target):
    """An output path that is a directory, or that lies under a file, is
    refused with exit 2 and one error line naming it."""
    paths = {"csv": batch_csv(tmp_path), "dir": tmp_path / "out", "file": tmp_path / "plain"}
    paths["dir"].mkdir()
    paths["file"].write_text("", encoding="utf-8")
    assert run(*(arg.format(**paths) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert target.format(**paths) in err


def test_error_total_json(tmp_path):
    out = tmp_path / "report.json"
    assert run("error-total", "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["total_error"] == pytest.approx(TOTAL_ERROR, abs=1e-15)
    assert report["miss_given_1"] > 0 and report["miss_given_2"] > 0


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize(
    "payload, overflowing",
    [
        ({"kf": 10000}, ["budget_given_2"]),
        ({"kf": 100000000, "m2": 0.5, "k2": 4.0}, ["budget_given_1", "budget_given_2"]),
    ],
)
def test_error_total_writes_an_overflowing_bound_as_null(tmp_path, capsys, payload, overflowing):
    """A Chernoff bound past the largest double is null, never Infinity."""
    assert run("--config", write_config(tmp_path, payload), "error-total") == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    for budget in ("budget_given_1", "budget_given_2"):
        bound = report[budget]["chernoff_bound"]
        assert (bound is None) == (budget in overflowing), (budget, bound)


def test_error_total_numerical_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"m2": 1.0 + 1e-13, "k2": 1, "prior1": 0.3})
    assert run("--config", cfg, "error-total") == 3


def test_error_surface_custom_ratios(tmp_path):
    assert (
        run(
            "--out-dir",
            tmp_path,
            "error-surface",
            "--gain-ratios",
            "0.5,1,2",
            "--mass-ratios",
            "1",
        )
        == 0
    )
    lines = (tmp_path / "surface.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "mass_ratio\\gain_ratio"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0
    assert float(cells[2]) == math.log10(0.5)  # identical classes at ratio 1


def test_error_vs_horizon_stdout(capsys):
    assert run("error-vs-horizon", "--horizons", "5,10,20") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kf,total_error"
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert [line.split(",")[0] for line in lines[1:]] == ["5", "10", "20"]
    assert errors[0] > errors[1] > errors[2]


def test_error_vs_horizon_short_horizons_print_plain_floats(capsys):
    # kf 1 takes the chi-squared closed form, kf 2 the branch-cut integrals
    assert run("error-vs-horizon", "--horizons", "1,2") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kf,total_error" and len(lines) == 3
    for line in lines[1:]:
        assert 0.0 < float(line.split(",")[1]) < 0.5, line


def test_error_vs_horizon_bad_values(capsys):
    assert run("error-vs-horizon", "--horizons", "5,x") == 2
    assert run("error-vs-horizon", "--horizons", "0,5") == 2
    assert run("error-vs-horizon", "--horizons", "") == 2
    # refused, not truncated to kf 2 or left to crash, before any row is printed
    for value in ("2.5", "nan", "inf", "-inf"):
        capsys.readouterr()
        assert run("error-vs-horizon", "--horizons", f"5,{value}") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and value in err, err


def test_accuracy_checked_on_identical_classes(tmp_path, capsys):
    argv = ("--out-dir", tmp_path, "error-surface", "--gain-ratios", "1", "--mass-ratios", "1")
    assert run("--accuracy", 2, *argv) == 2
    assert "target must lie in (0, 1), got 2.0" in capsys.readouterr().err
    assert run(*argv) == 0


@pytest.mark.parametrize("target", ["1e-310", "1e-300", "1e-50"])
def test_accuracy_below_the_floor_is_refused(capsys, target):
    """An accuracy target no float64 report can certify exits 2 with one
    line naming the floor, not a traceback or an internal series failure."""
    assert run("--accuracy", target, "error-total") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: target {float(target)!r} is below 1e-15, the finest a float64 report can certify\n"
    )


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000, b"{not json"], ids=["not_utf8", "deep", "invalid"]
)
def test_unreadable_config_exits_2_with_one_line(tmp_path, capsys, content):
    """A config that is not UTF-8, nests too deep to parse or is not JSON
    exits 2 with one line naming the file, not a traceback."""
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert run("--config", path, "error-total") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read config {path}: "), captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name", ["scatter", "streaming", "mc-vs-exact"])
def test_experiment_refuses_a_target_below_the_floor_before_any_run(tmp_path, capsys, name):
    """Every experiment refuses the target up front with the same line, and
    writes no output or manifest holding it."""
    argv = ("--accuracy", "1e-310", "--out-dir", tmp_path, "experiment", name, "--trials", 50)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: target 1e-310 is below 1e-15, the finest a float64 report can certify\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_experiment_subcommand(tmp_path):
    assert (
        run("--out-dir", tmp_path, "--seed", 5, "experiment", "scatter", "--trials", 40)
        == 0
    )
    assert (tmp_path / "scatter.csv").exists()
    assert (tmp_path / "scatter_summary.json").exists()
    manifest = json.loads((tmp_path / "scatter_manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["n_trials"] == 40


def test_roc_requires_both_classes(tmp_path, capsys):
    # a single trial cannot hold both classes
    assert run("--out-dir", tmp_path, "experiment", "roc", "--trials", 1) == 2
    assert "both classes" in capsys.readouterr().err
    assert not (tmp_path / "roc.csv").exists()


def test_config_file_applied(tmp_path):
    cfg = write_config(tmp_path, {"kf": 5})
    assert run("--config", cfg, "--out-dir", tmp_path, "simulate", "--trials", 3) == 0
    lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 5  # horizon from config, rest defaulted


@pytest.mark.parametrize(
    "payload",
    [
        '{"kf": 20',  # malformed JSON
        "[1, 2, 3]",  # not an object
        '{"unknown_key": 1}',
        '{"kf": 0}',
        '{"kf": Infinity}',
    ],
)
def test_bad_config_exits_2(tmp_path, payload):
    cfg = write_config(tmp_path, payload)
    assert run("--config", cfg, "error-total") == 2


@pytest.mark.parametrize(
    "period, decay, limit",
    [(1e-17, "1e-17", "rounds to 1"), (1e3, "1000.0", "underflows to 0")],
)
def test_rho_limit_names_the_class_and_the_limit(tmp_path, capsys, period, decay, limit):
    cfg = write_config(tmp_path, {"T": period})
    assert run("--config", cfg, "error-total") == 2
    err = capsys.readouterr().err
    assert f"mass 1.0 and gain 1.0 give T*k/m = {decay}," in err
    assert f"rho = exp(-T*k/m) {limit}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "scale, limit", [(1e-200, "overflows to inf"), (1e200, "underflows to 0")]
)
@pytest.mark.parametrize("command", [["error-total"], ["simulate", "--trials", "5"]])
def test_alpha_limit_names_the_class_and_the_limit(tmp_path, capsys, scale, limit, command):
    cfg = write_config(tmp_path, {"m1": scale, "k1": scale})
    assert run("--out-dir", tmp_path, "--config", cfg, *command) == 2
    err = capsys.readouterr().err
    assert f"mass {scale!r}, gain {scale!r} and q 1.0 give alpha = q/(2*k*m), " in err
    assert f"which {limit}; alpha must be positive and finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "trials.csv").exists()


def test_missing_config_exits_2(tmp_path):
    assert run("--config", tmp_path / "absent.json", "error-total") == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):
        main([])


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_reused_parser_carries_no_global_flag_between_calls(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kf": 5})
    assert run("--config", cfg, "error-total") == 0
    assert json.loads(capsys.readouterr().out)["total_error"] != TOTAL_ERROR
    assert run("error-total") == 0
    assert json.loads(capsys.readouterr().out)["total_error"] == TOTAL_ERROR


def test_reused_parser_carries_no_subcommand_flag_between_calls(tmp_path, capsys):
    assert run("simulate", "--trials", 3, "--out", tmp_path / "x.csv") == 0
    assert run("--out-dir", tmp_path / "d", "simulate", "--trials", 3) == 0
    assert (tmp_path / "d" / "trials.csv").exists()

    csv_path = batch_csv(tmp_path, n_trials=60, seed=4)
    assert run("fit", "--input", csv_path, "--label", 1) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"1"}
    assert run("fit", "--input", csv_path) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"1", "2"}


def test_reused_parser_recovers_after_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--trials", "x")
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run("--out-dir", tmp_path, "simulate", "--trials", 4) == 0
    lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 20
