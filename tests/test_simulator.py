import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import skysift as sk
from oracles import sample_matrix, write_batch_csv_by_rows
from skysift.errors import ConfigError
from skysift.simulator import (
    CSV_HEADER,
    MeasurementSeries,
    TrialBatch,
    _CSV_BLOCK,
    _SAMPLE_WORDS,
    _raw_streams,
    _sample_words,
    read_batch_csv,
    simulate_batch,
    simulate_trajectory,
    write_batch_csv,
)


def test_trajectory_determinism():
    st = sk.ClassStatistics(alpha=0.5, rho=0.6)
    a = simulate_trajectory(st, 50, 123)
    b = simulate_trajectory(st, 50, 123)
    c = simulate_trajectory(st, 50, 124)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_trajectory_matches_manual_recursion():
    """Re-derive the generation pipeline from its documented pieces."""
    st = sk.ClassStatistics(alpha=0.5, rho=0.6)
    horizon, seed = 12, 987
    got = simulate_trajectory(st, horizon, seed).samples

    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**53, size=horizon).astype(float)
    normals = ndtri((bits + 0.5) * 2.0**-53)
    expected = np.empty(horizon)
    expected[0] = math.sqrt(st.alpha) * normals[0]
    innovation = math.sqrt(st.alpha * (1.0 - st.rho**2))
    for k in range(1, horizon):
        expected[k] = st.rho * expected[k - 1] + innovation * normals[k]
    np.testing.assert_array_equal(got, expected)


def test_trajectory_rejects_bad_horizon():
    with pytest.raises(ConfigError):
        simulate_trajectory(sk.ClassStatistics(alpha=0.5, rho=0.6), 0, 1)


def test_negative_seed_refused():
    with pytest.raises(ConfigError):
        simulate_trajectory(sk.ClassStatistics(alpha=0.5, rho=0.6), 5, -1)
    with pytest.raises(ConfigError):
        simulate_batch(sk.Scenario.default(), 5, -1)


KERNEL_SEEDS = (0, 1, 7, 123, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**100 + 12345)


def numpy_streams(seed, n, horizon):
    """Per-trial oracle: numpy's own SeedSequence, PCG64 and Generator."""
    children = np.random.SeedSequence(seed).spawn(n + 1)[1:]
    raw = np.array([np.random.PCG64(c).random_raw(horizon) for c in children])
    draws = np.array(
        [np.random.default_rng(c).integers(0, 2**53, size=horizon) for c in children]
    )
    return raw.reshape(n, horizon), draws.reshape(n, horizon)


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_raw_streams_match_numpy(seed):
    """Every row is its child's raw PCG64 output, and its top 53 bits are
    the child's ``integers(0, 2**53)`` draws; trial streams do not depend on
    the batch size, so each (n, horizon) is a corner of the largest."""
    raw, draws = numpy_streams(seed, 1000, 200)
    np.testing.assert_array_equal(raw >> 11, draws)
    for n in (1, 2, 1000):
        for horizon in (1, 20, 200):
            got = _raw_streams(seed, n, horizon)
            assert got.dtype == np.uint64 and got.shape == (n, horizon)
            np.testing.assert_array_equal(got, raw[:n, :horizon])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**160),
    n=st.integers(1, 40),
    horizon=st.integers(1, 40),
)
def test_raw_streams_match_numpy_property(seed, n, horizon):
    raw, draws = numpy_streams(seed, n, horizon)
    got = _raw_streams(seed, n, horizon)
    np.testing.assert_array_equal(got, raw)
    np.testing.assert_array_equal(got >> 11, draws)


def test_batch_matches_per_trial_streams():
    """Vectorized batch generation is bitwise equal to one-at-a-time draws."""
    scenario = sk.Scenario.default()
    stats = {1: scenario.stats1(), 2: scenario.stats2()}
    for seed in (2024, 2**40 + 5):
        batch = simulate_batch(scenario, 300, seed)
        children = np.random.SeedSequence(seed).spawn(301)
        class1 = np.random.default_rng(children[0]).random(300) < scenario.sampling.prior1
        assert batch.labels().tolist() == np.where(class1, 1, 2).tolist()
        for i, (label, series) in enumerate(batch.trials):
            solo = simulate_trajectory(
                stats[label], scenario.sampling.horizon, children[i + 1]
            )
            np.testing.assert_array_equal(series.samples, solo.samples)


def test_batch_determinism_and_label_distribution():
    scenario = sk.Scenario.default()
    a = simulate_batch(scenario, 500, 7)
    b = simulate_batch(scenario, 500, 7)
    for (la, sa), (lb, sb) in zip(a.trials, b.trials):
        assert la == lb
        np.testing.assert_array_equal(sa.samples, sb.samples)
    count1 = int(np.sum(a.labels() == 1))
    # Binomial(500, 1/2) 99.9% interval
    assert abs(count1 - 250) <= 3.29 * math.sqrt(500 * 0.25)


def test_batch_rejects_bad_trial_count():
    with pytest.raises(ConfigError):
        simulate_batch(sk.Scenario.default(), 0, 1)
    # spawn keys past 2**32 - 2 would take two words; refused before any work
    with pytest.raises(ConfigError):
        simulate_batch(sk.Scenario.default(), 2**32 - 1, 1)


def test_oversized_simulation_is_refused_before_any_allocation(monkeypatch):
    """Past 2**23 samples (trials x horizon) both simulators refuse the call
    with the count and the limit, before they draw or allocate anything."""

    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(np, "empty", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    scenario = sk.Scenario.from_dict({"kf": 2**12})
    with pytest.raises(ConfigError, match=r"^8392704 samples exceed the simulation limit 2\*\*23$"):
        simulate_batch(scenario, 2**11 + 1, 1)
    with pytest.raises(ConfigError, match=r"^8388609 samples .* 2\*\*23$"):
        simulate_trajectory(scenario.stats1(), 2**23 + 1, 1)
    monkeypatch.undo()
    assert simulate_trajectory(scenario.stats1(), 2**12, 1).samples.size == 2**12


def test_sampled_law_moments():
    """Empirical variance and lag-1 covariance match alpha and alpha*rho."""
    st = sk.ClassStatistics(alpha=0.5, rho=math.exp(-0.5))
    n = 200_000
    samples = sample_matrix(st, 2, n, np.random.default_rng(11))
    var0 = float(np.mean(samples[:, 0] ** 2))
    var1 = float(np.mean(samples[:, 1] ** 2))
    lag = float(np.mean(samples[:, 0] * samples[:, 1]))
    se_var = st.alpha * math.sqrt(2.0 / n)
    se_lag = st.alpha * math.sqrt((1.0 + st.rho**2) / n)
    assert abs(var0 - st.alpha) <= 4 * se_var
    assert abs(var1 - st.alpha) <= 4 * se_var
    assert abs(lag - st.alpha * st.rho) <= 4 * se_lag


def test_stationary_initialization():
    # no transient: variance is flat across sample index
    st = sk.ClassStatistics(alpha=1.0, rho=0.9)
    samples = sample_matrix(st, 6, 100_000, np.random.default_rng(5))
    variances = np.mean(samples**2, axis=0)
    se = st.alpha * math.sqrt(2.0 / samples.shape[0])
    np.testing.assert_allclose(variances, st.alpha, atol=5 * se)


def test_near_zero_rho_decorrelates():
    st = sk.ClassStatistics(alpha=1.0, rho=1e-8)
    samples = sample_matrix(st, 2, 50_000, np.random.default_rng(3))
    corr = float(np.mean(samples[:, 0] * samples[:, 1]))
    assert abs(corr) <= 4.0 / math.sqrt(samples.shape[0])


def test_csv_roundtrip_exact(tmp_path):
    scenario = sk.Scenario.from_dict({"kf": 7})
    batch = simulate_batch(scenario, 9, 42)
    path = tmp_path / "trials.csv"
    write_batch_csv(batch, path)

    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(CSV_HEADER)

    back = read_batch_csv(path)
    assert len(back.trials) == 9
    for (la, sa), (lb, sb) in zip(batch.trials, back.trials):
        assert la == lb
        np.testing.assert_array_equal(sa.samples, sb.samples)


def test_csv_read_validation(tmp_path):
    header = "trial,label,k,y\n"
    good = header + "0,1,0,0.5\n0,1,1,0.25\n"

    refused = {
        "header": "trial,label,t,y\n",
        "empty": header,
        "label": good + "0,2,2,0.1\n",  # two labels in one trial
        "label3": header + "0,3,0,0.5\n",
        "gap": header + "0,1,0,0.5\n0,1,2,0.25\n",
        "duplicate_k": header + "0,1,0,0.5\n0,1,1,0.25\n0,1,1,0.75\n",
        "mangled": header + "0,1,zero,0.5\n",
        "three_fields": good + "0,1,2\n",
        "int_half": header + "0,1,0,0.5\n0,1,1.5,0.25\n",
        "int_float": header + "0,1,0,0.5\n0,1,1.0,0.25\n",
        "nan": good + "0,1,2,nan\n",
        "inf": good + "0,1,2,inf\n",
    }
    for name, text in refused.items():
        p = tmp_path / f"{name}.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            read_batch_csv(p)

    # blank lines are skipped and extra trailing fields ignored
    p = tmp_path / "loose.csv"
    p.write_text(header + "\n0,1,0,0.5,note\n\n0,1,1,0.25\n\n", encoding="utf-8")
    batch = read_batch_csv(p)
    assert batch.labels().tolist() == [1]
    np.testing.assert_array_equal(batch.trials[0][1].samples, [0.5, 0.25])

    # rows in any order come back in trial, then k order; trial ids {3, 7}
    # are renumbered 0, 1
    p = tmp_path / "shuffled.csv"
    p.write_text(
        header + "7,2,1,-1.5\n3,1,2,0.3\n7,2,0,2.5\n3,1,0,0.1\n3,1,1,0.2\n",
        encoding="utf-8",
    )
    batch = read_batch_csv(p)
    assert batch.labels().tolist() == [1, 2]
    np.testing.assert_array_equal(batch.trials[0][1].samples, [0.1, 0.2, 0.3])
    np.testing.assert_array_equal(batch.trials[1][1].samples, [2.5, -1.5])


def test_measurement_series_validation():
    with pytest.raises(ConfigError):
        MeasurementSeries(samples=np.array([]))
    with pytest.raises(ConfigError):
        MeasurementSeries(samples=np.array([1.0, math.nan]))

    series = MeasurementSeries(samples=np.array([1.0, 2.0]))
    assert len(series) == 2
    with pytest.raises(ValueError):
        series.samples[0] = 5.0  # read-only buffer


def test_trial_batch_validation():
    with pytest.raises(ConfigError):
        TrialBatch([], [], [0])
    with pytest.raises(ConfigError):
        TrialBatch([3], [1.0], [0, 1])


def _batch_arrays(**changes):
    arrays = dict(label=[1, 2], samples=[0.5, 0.25, -1.0], offsets=[0, 2, 3])
    return dict(arrays, **changes)


@pytest.mark.parametrize(
    "changes",
    [
        {"label": [0, 2]},
        {"label": [1, 3]},
        {"label": [1, 1.5]},
        {"offsets": [1, 2, 3]},  # does not start at 0
        {"offsets": [0, 2, 4]},  # does not end at samples.size
        {"offsets": [0, 3]},  # one short
        {"offsets": [0.0, 2.0, 3.0]},  # not integers
        {"offsets": [0, 3, 2]},  # falls
        {"offsets": [0, 0, 3]},  # an empty trial
        {"samples": [0.5, math.nan, -1.0]},
        {"samples": [0.5, 0.25, -math.inf]},
        {"samples": [[0.5, 0.25, -1.0]]},  # not flat
        {"label": [], "samples": [], "offsets": [0]},  # no trials
    ],
)
def test_trial_batch_refuses_bad_arrays(changes):
    TrialBatch(**_batch_arrays())
    with pytest.raises(ConfigError):
        TrialBatch(**_batch_arrays(**changes))


def test_trial_batch_arrays_are_read_only_copies():
    arrays = {name: np.array(value) for name, value in _batch_arrays().items()}
    batch = TrialBatch(**arrays)
    for name in arrays:
        with pytest.raises(ValueError):
            getattr(batch, name)[0] = 1
        arrays[name][-1] = 7  # the caller's arrays stay theirs
    np.testing.assert_array_equal(batch.samples, [0.5, 0.25, -1.0])
    assert batch.labels().tolist() == [1, 2]
    for _, series in batch.trials:
        with pytest.raises(ValueError):
            series.samples[0] = 1.0


def test_trials_accessor_agrees_with_arrays_and_round_trips():
    batch = simulate_batch(sk.Scenario.from_dict({"kf": 5}), 30, 17)
    assert batch.trials is batch.trials  # built once
    assert len(batch.trials) == batch.label.size == batch.offsets.size - 1
    for i, (label, series) in enumerate(batch.trials):
        assert label == batch.label[i] and type(label) is int
        np.testing.assert_array_equal(
            series.samples, batch.samples[batch.offsets[i] : batch.offsets[i + 1]]
        )

    rows = np.concatenate([series.samples for _, series in batch.trials])
    back = TrialBatch([label for label, _ in batch.trials], rows, batch.offsets)
    for name in ("label", "samples", "offsets"):
        np.testing.assert_array_equal(getattr(back, name), getattr(batch, name))

    rng = np.random.default_rng(2)
    ragged = [rng.normal(size=n) for n in (3, 1, 4)]
    batch = TrialBatch([1, 2, 1], np.concatenate(ragged), [0, 3, 4, 8])
    for la, sa, (lb, sb) in zip([1, 2, 1], ragged, batch.trials):
        assert la == lb
        np.testing.assert_array_equal(sa, sb.samples)


def test_csv_roundtrip_ragged_shuffled_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    lengths = (4, 1, 7, 2, 7)
    samples = rng.normal(size=sum(lengths)) * 10.0 ** rng.integers(-300, 300, size=sum(lengths))
    samples[:3] = [-0.0, 5e-324, 1e300]
    batch = TrialBatch(
        label=[2, 1, 1, 2, 1], samples=samples, offsets=np.cumsum((0,) + lengths)
    )
    path = tmp_path / "trials.csv"
    write_batch_csv(batch, path)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[-1] == b"" and len(lines) == 2 + samples.size
    rows = lines[1:-1]
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_bytes(b"\r\n".join([lines[0]] + [rows[i] for i in rng.permutation(len(rows))]))

    # the shuffled file is sorted on reading; the written one, already in
    # (trial, k) order, is read as it stands: both give the batch written
    for back in (read_batch_csv(shuffled), read_batch_csv(path)):
        for name in ("label", "offsets"):
            np.testing.assert_array_equal(getattr(back, name), getattr(batch, name))
        np.testing.assert_array_equal(back.samples.view(np.uint64), samples.view(np.uint64))


def _assert_writes_as_by_rows(batch, directory):
    """write_batch_csv's bytes equal the row-by-row repr oracle's; on a
    difference, name the first line that differs."""
    written, expected = directory / "kernel.csv", directory / "by_rows.csv"
    write_batch_csv(batch, written)
    write_batch_csv_by_rows(batch, expected)
    got, want = written.read_bytes(), expected.read_bytes()
    if got != want:
        pairs = zip(got.split(b"\r\n"), want.split(b"\r\n"))
        line, (a, b) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"line {line}: wrote {a!r}, repr gives {b!r}")


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS),
        min_size=1,
        max_size=40,
    ),
    data=st.data(),
)
def test_csv_writer_matches_repr_rows(csv_dir, values, data):
    """Any finite doubles, ±0.0, subnormals and the extremes included, in
    any split into trials of either label."""
    n = len(values)
    cuts = data.draw(st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set()))
    offsets = [0, *sorted(cuts), n]
    n_trials = len(offsets) - 1
    labels = data.draw(st.lists(st.sampled_from([1, 2]), min_size=n_trials, max_size=n_trials))
    _assert_writes_as_by_rows(TrialBatch(labels, values, offsets), csv_dir)


def test_csv_writer_digits_equal_repr_in_bulk():
    """Seeded: the kernel's text for 10**6 random finite bit patterns, every
    subnormal with a mantissa below 2**18, the powers of 2 and of 10 over
    the whole range, the smallest normal, the largest double, and both sides
    of repr's switches to exponent notation at 1e16 and 1e-4, each of
    either sign, is ``,`` then the repr, then CRLF."""
    rng = np.random.default_rng(2028)
    draws = rng.integers(0, 2**64, size=1_001_000, dtype=np.uint64).view(float)
    random = draws[np.isfinite(draws)][:1_000_000]
    assert random.size == 1_000_000
    switches = [1e16, 1e15, 1e-4, 1e-5, 9999999999999998.0, 1e16 + 2, 1.5e-5, 9.5e-5]
    switches += [np.nextafter(x, d) for x in (1e16, 1e15, 1e-4, 1e-5) for d in (0.0, math.inf)]
    edges = np.concatenate(
        [
            np.arange(1 << 18, dtype=np.uint64).view(float),
            np.ldexp(1.0, np.arange(-1074, 1024)),
            [float(f"1e{e}") for e in range(-323, 309)],
            [np.finfo(float).tiny, np.finfo(float).max],
            switches,
        ]
    )
    samples = np.concatenate([random, edges, -edges])
    pieces = []
    for lo in range(0, samples.size, _CSV_BLOCK):
        block = samples[lo : lo + _CSV_BLOCK]
        words = np.empty((_SAMPLE_WORDS, block.size), dtype=np.uint32)
        _sample_words(block, words)
        pieces.append(words.T.tobytes().translate(None, b"\0"))
    texts = b"".join(pieces)
    if texts != ("," + "\r\n,".join(map(repr, samples.tolist())) + "\r\n").encode():
        got = texts.decode().split("\r\n")
        i = next(i for i, (text, y) in enumerate(zip(got, samples.tolist())) if text != f",{y!r}")
        bits = samples[i : i + 1].view(np.uint64)[0]
        pytest.fail(f"{samples[i]!r} (bits {bits:#x}) written as {got[i]!r}")


def test_csv_roundtrip_across_blocks_bit_exact(tmp_path):
    """A ragged batch of both labels over several writer blocks, with trials
    longer than a block and trials cut by block ends, is written as the
    oracle writes it and reads back bit for bit."""
    rng = np.random.default_rng(11)
    lengths = [1, 3 * _CSV_BLOCK + 5, 2, _CSV_BLOCK - 1, 7, _CSV_BLOCK, 1, 300]
    samples = rng.standard_cauchy(sum(lengths)) * 10.0 ** rng.integers(-30, 30, sum(lengths))
    labels = rng.integers(1, 3, len(lengths))
    labels[:2] = [1, 2]
    batch = TrialBatch(labels, samples, np.cumsum([0] + lengths))
    _assert_writes_as_by_rows(batch, tmp_path)
    back = read_batch_csv(tmp_path / "kernel.csv")
    for name in ("label", "offsets"):
        np.testing.assert_array_equal(getattr(back, name), getattr(batch, name))
    np.testing.assert_array_equal(back.samples.view(np.uint64), samples.view(np.uint64))
