"""Workload definitions, one measured cycle, and the output checks.

Every workload runs the same kind of cycle, a closed loop with one caller.
A cycle holds:

1. classify passes of the operator's path through ``skysift.cli.main``
   in-process: ``simulate`` (generate and write the CSV), ``detect`` on that
   file (read, fold, decide, write JSON lines), ``experiment mc-vs-exact``
   and ``experiment roc``;
2. one long series fed through ``stream_update`` + ``detect_simplified``
   one sample at a time, in chunks, each sample timed;
3. one pass of ``total_error`` reports over the workload's scenario list,
   in an order shuffled by the seed, each report timed.

The three kinds of step are interleaved evenly through the cycle.  This
machine's speed drifts by tens of percent over a few seconds, so every
metric has to sample the whole run, not one stretch of it.

The workloads differ in sizes and scenario lists, so each stresses other
layers while every end-to-end metric stays defined on all of them: on the
``certify-*`` workloads the classify part is a small companion, and on
``classify`` the certify part is the operator's report on the scenario in
use.  The inputs depend only on the seed; every cycle of a run repeats the
same inputs, so every output must repeat bit for bit.

Checks run after the cycle's timed steps, never inside them.  An output's
first occurrence gets the full check against a reference built outside the
timed region; later cycles must reproduce its sha256.
"""

import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from skysift import cli, detector, error_analysis, simulator
from skysift.model import Scenario

TARGET = 1e-6  # accuracy target of every certify report
STAT_RTOL = 1e-9  # detect statistic vs detect_full, relative to max(|stat|, |z|, 1)
SPECTRUM_RTOL = 1e-9  # certify report's spectrum fields vs the frozen ones

_RATIOS = [float(r) for r in np.geomspace(0.25, 4.0, 5)]  # the default surface grid


def _surface(kf: int) -> list:
    return [{"kf": kf, "m2": m, "k2": g} for m in _RATIOS for g in _RATIOS]


# total_error on short horizons: the inversion series and _powersum do the
# work; the spectrum is cheap.  kf <= 2 reaches the power-sum tail, and
# prior1 = 0.634 / 0.633 at kf = 1 put the threshold near zero, the only
# inputs here that reach the Euler-Maclaurin branch and the
# direct-then-summation-by-parts branch.
CERTIFY_SHORT = (
    _surface(20)
    + [{"kf": kf} for kf in (1, 2, 3, 5, 10, 20, 40)]
    + [
        {"kf": kf, "m2": m, "k2": g}
        for kf in (1, 2)
        for m, g in ((1.0, 2.0), (1.0, 5.0), (2.0, 3.0), (0.5, 3.0), (4.0, 1.0))
    ]
    + [{"kf": 20, "k2": 1.05}, {"kf": 1, "prior1": 0.634}, {"kf": 1, "prior1": 0.633}]
)

# total_error on long horizons, on the default pair and the surface cell
# (mass ratio 1, gain ratio 4): the dense spectrum path takes most of each
# report and the power-sum tail never runs.  Cells whose inversion series is
# long at these horizons are left out, because there the series, not the
# spectrum, does the work.  kf = 1000 on the default pair clamps to 0.0; the
# check is absolute, so that report counts as correct.
CERTIFY_LONG = [
    {"kf": kf, **cell} for kf in (200, 400, 600, 800, 1000) for cell in ({}, {"m2": 1.0, "k2": 4.0})
]


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int  # trials per classify pass (simulate, detect, mc-vs-exact, roc)
    passes: int  # classify passes per cycle
    stream_samples: int  # a multiple of STREAM_CHUNK
    certify: tuple  # scenario overrides, one report each per cycle


STREAM_CHUNK = 1000  # stream samples per timed chunk
CLI_OPS = ("simulate", "detect", "mc-vs-exact", "roc")

# Sizes keep every operation short, so each run holds many timed samples
# and the reported medians stay steady on a noisy two-core machine.
WORKLOADS = {
    "classify": Workload("classify", 1000, 2, 100_000, ({},) * 10),
    "certify-short": Workload("certify-short", 200, 5, 40_000, tuple(CERTIFY_SHORT)),
    "certify-long": Workload("certify-long", 200, 6, 40_000, tuple(CERTIFY_LONG)),
}

# Tiny sizes for the benchmark's own self-check: they prove the harness
# works, not that a number is steady.
SMOKE = {
    "classify": Workload("classify", 40, 1, 2_000, ({},) * 12),
    "certify-short": Workload(
        "certify-short", 20, 1, 1_000, ({"kf": 20}, {"kf": 5}, {"kf": 2}, {"kf": 20, "m2": 0.5, "k2": 2.0})
    ),
    "certify-long": Workload("certify-long", 20, 1, 1_000, ({"kf": 200}, CERTIFY_LONG[1])),
}


def scenario_key(overrides: dict) -> str:
    """Canonical key of a scenario: its full config as sorted JSON."""
    return json.dumps(Scenario.from_dict(overrides).to_dict(), sort_keys=True)


def load_references(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spectrum_fields(report) -> dict:
    """Spectrum-derived fields of a certify report: the decision threshold
    and, per hypothesis, the largest and smallest kept |eigenvalue| and the
    kept order (one None entry for a degenerate pair's missing budget)."""
    fields = {"threshold": float(report.threshold)}
    for h in (1, 2):
        budget = getattr(report, f"budget_given_{h}")
        if budget is None:
            fields[f"given_{h}"] = None
            continue
        fields[f"given_{h}.lambda_abs_max"] = float(budget.lambda_abs_max)
        fields[f"given_{h}.lambda_abs_min"] = float(budget.lambda_abs_min)
        fields[f"given_{h}.kept_order"] = int(budget.kept_order)
    return fields


def _same_spectrum(got: dict, want: dict) -> bool:
    """Same fields; floats agree to SPECTRUM_RTOL relative, the rest exactly."""
    if got.keys() != want.keys():
        return False
    return all(
        abs(got[k] - v) <= SPECTRUM_RTOL * abs(v) if isinstance(v, float) else got[k] == v
        for k, v in want.items()
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Every step is preceded, and the cycle ended, by this fixed pure-Python
# loop, which touches nothing of the program.  This machine's cores slow by
# up to half for seconds to minutes as other tenants load them; a step's time
# multiplied by PROBE_REF_S over the median time of the three loops nearest
# to it (before the step ahead of it, before it and after it) is its time at
# the reference speed, which repeats from run to run where raw times do not.
PROBE_REF_S = 1.5e-4  # the loop's typical time on an unloaded core of a 2-vCPU Xeon


def probe() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc = acc * 0.999 + i
    return time.perf_counter() - start


@dataclass
class CycleRecord:
    """Timings of one cycle plus the outputs its checks need."""

    outputs: list  # per classify pass: CLI operation -> output digest, None if it failed
    steps: list = field(default_factory=list)  # (kind, seconds); kind is a CLI op, "stream" or "report"
    probes: list = field(default_factory=list)  # the loop's time before each step, and after the last
    stream_latency_ns: list = field(default_factory=list)  # one array per stream step
    stream_state: object = None
    stream_decision: object = None
    stream_ok: bool = True
    reports: list = field(default_factory=list)  # (list position, ErrorReport or None)

    def scales(self) -> list:
        """Per step, the factor that takes its time to the reference speed."""
        probes = self.probes
        return [
            PROBE_REF_S / statistics.median(probes[max(k - 1, 0) : k + 2])
            for k in range(len(self.steps))
        ]

    def stream_p99_ns(self) -> float:
        """99th percentile of the stream's per-sample latency at the reference speed."""
        scales = [f for (kind, _), f in zip(self.steps, self.scales()) if kind == "stream"]
        latency = np.concatenate(
            [np.frombuffer(lat, np.int64) * f for lat, f in zip(self.stream_latency_ns, scales)]
        )
        return float(np.percentile(latency, 99))

    @property
    def ops_s(self) -> float:
        """Sum of every timed step."""
        return sum(seconds for _, seconds in self.steps)


class Runner:
    """Runs cycles of one workload on inputs made from one seed."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, references: dict):
        self.workload = workload
        self.seed = seed
        work_dir.mkdir()
        self.scenario = Scenario.default()
        self.spec = detector.detector_from_scenario(self.scenario)
        self.rng = np.random.default_rng(seed)
        stats = (self.scenario.stats1(), self.scenario.stats2())[int(self.rng.integers(2))]
        self.stream_values = simulator.simulate_trajectory(
            stats, workload.stream_samples, seed
        ).samples.tolist()
        self.certify = [Scenario.from_dict(d) for d in workload.certify]
        keys = [scenario_key(d) for d in workload.certify]
        self.certify_refs = [references["total_error"][k] for k in keys]
        self.spectrum_refs = [references["spectrum"][k] for k in keys]
        self.default_ref = references["total_error"][scenario_key({})]
        self.csv_path = work_dir / "trials.csv"
        self.detect_path = work_dir / "detect.jsonl"
        self.exp_dir = work_dir / "experiments"
        n, seed_arg = str(workload.trials), str(seed)
        self.argv = {
            "simulate": ["--seed", seed_arg, "simulate", "--trials", n, "--out", str(self.csv_path)],
            "detect": ["detect", "--input", str(self.csv_path), "--out", str(self.detect_path)],
        }
        for name in ("mc-vs-exact", "roc"):
            self.argv[name] = [
                "--seed", seed_arg, "--out-dir", str(self.exp_dir), "experiment", name, "--trials", n
            ]
        self.full_checks = {
            "simulate": self._check_csv,
            "detect": self._check_detect,
            "mc-vs-exact": self._check_mc,
            "roc": self._check_roc,
        }
        self.attempted = 0
        self.failed = 0
        self.notes = {"clamped_zero": 0, "above_min_prior": 0, "below_target": 0}
        self._first = {}
        self._reference = None
        self._stream_reference = None

    # ---- timed part -------------------------------------------------------

    def cycle(self) -> CycleRecord:
        """One cycle's timed steps; call :meth:`check` on the result."""
        passes = self.workload.passes
        ops = [op for _ in range(passes) for op in CLI_OPS]
        chunks = range(0, len(self.stream_values), STREAM_CHUNK)
        order = self.rng.permutation(len(self.certify))
        # each kind of step spread evenly over the cycle, in its own order
        schedule = sorted(
            [((k + 0.5) / len(ops), 0, k) for k in range(len(ops))]
            + [((k + 0.5) / len(chunks), 1, lo) for k, lo in enumerate(chunks)]
            + [((k + 0.5) / len(order), 2, int(i)) for k, i in enumerate(order)]
        )
        record = CycleRecord(outputs=[{} for _ in range(passes)])
        for _, kind, arg in schedule:
            record.probes.append(probe())
            if kind == 0:
                self._cli_step(record, ops[arg], arg // len(CLI_OPS))
            elif kind == 1:
                self._stream_step(record, arg)
            else:
                self._report_step(record, arg)
        record.probes.append(probe())
        return record

    def _cli_step(self, record: CycleRecord, op: str, pass_index: int) -> None:
        start = time.perf_counter()
        try:
            code = cli.main(self.argv[op])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = None
        record.steps.append((op, time.perf_counter() - start))
        record.outputs[pass_index][op] = self._digest(op) if code == 0 else None

    def _stream_step(self, record: CycleRecord, lo: int) -> None:
        update, decide = detector.stream_update, detector.detect_simplified
        spec, clock = self.spec, time.perf_counter_ns
        chunk = self.stream_values[lo : lo + STREAM_CHUNK]
        latency = array("q")
        append = latency.append
        state, decision = record.stream_state, record.stream_decision
        start = time.perf_counter()
        try:
            for y in chunk:
                t0 = clock()
                state = update(state, y)
                decision = decide(spec, state).decision
                append(clock() - t0)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            record.stream_ok = False
        record.steps.append(("stream", time.perf_counter() - start))
        record.stream_latency_ns.append(latency)
        record.stream_state, record.stream_decision = state, decision

    def _report_step(self, record: CycleRecord, i: int) -> None:
        start = time.perf_counter()
        try:
            report = error_analysis.total_error(self.certify[i], TARGET)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            report = None
        record.steps.append(("report", time.perf_counter() - start))
        record.reports.append((i, report))

    def _digest(self, op: str):
        """sha256 of a CLI operation's output; for an experiment, its
        manifest's checksums, once they are verified against the file."""
        if op == "simulate":
            return _sha256(self.csv_path)
        if op == "detect":
            return _sha256(self.detect_path)
        manifest = json.loads((self.exp_dir / f"{op}_manifest.json").read_text(encoding="utf-8"))
        outputs = manifest["outputs"]
        if any(_sha256(self.exp_dir / name) != digest for name, digest in outputs.items()):
            return None
        if manifest["seed"] != self.seed or manifest["config"]["n_trials"] != self.workload.trials:
            return None
        return json.dumps(outputs, sort_keys=True)

    # ---- checks -----------------------------------------------------------

    def check(self, record: CycleRecord) -> None:
        """Count every operation of the cycle and every one that failed."""
        outcomes = [
            digest is not None and self._repeats(op, digest)
            for digests in record.outputs
            for op, digest in digests.items()
        ]
        outcomes.append(self._check_stream(record))
        outcomes += [self._check_report(i, report) for i, report in record.reports]
        self.attempted += len(outcomes)
        self.failed += outcomes.count(False)

    def _repeats(self, op: str, digest: str) -> bool:
        """Full check on an output's first occurrence; later ones must match
        it, since every cycle repeats the same inputs."""
        if op not in self._first:
            try:
                ok = self._digest(op) == digest and bool(self.full_checks[op]())
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            self._first[op] = (digest, ok)
        first_digest, ok = self._first[op]
        return ok and digest == first_digest

    def _classify_reference(self):
        """Labels, samples and detect_full reports for the classify batch."""
        if self._reference is None:
            batch = simulator.simulate_batch(self.scenario, self.workload.trials, self.seed)
            samples = np.stack([series.samples for _, series in batch.trials])
            full = [detector.detect_full(self.spec, row) for row in samples]
            self._reference = (
                batch.labels(),
                samples,
                np.array([r.statistic for r in full]),
                np.array([r.decision for r in full]),
            )
        return self._reference

    def _check_csv(self) -> bool:
        labels, samples, _, _ = self._classify_reference()
        lines = self.csv_path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "trial,label,k,y" or len(lines) - 1 != samples.size:
            return False
        rows = [line.split(",") for line in lines[1:]]
        n, kf = samples.shape
        columns = np.array([[int(r[0]), int(r[1]), int(r[2])] for r in rows])
        expected = np.column_stack(
            [np.repeat(np.arange(n), kf), np.repeat(labels, kf), np.tile(np.arange(kf), n)]
        )
        y = np.array([float(r[3]) for r in rows])
        # bit-exact round trip, so compare the bit patterns
        return np.array_equal(columns, expected) and np.array_equal(
            y.view(np.uint64), samples.ravel().view(np.uint64)
        )

    def _check_detect(self) -> bool:
        _, samples, reference, decisions = self._classify_reference()
        lines = self.detect_path.read_text(encoding="utf-8").splitlines()
        if len(lines) != samples.shape[0]:
            return False
        z = detector.threshold(self.spec, samples.shape[1])
        for i, line in enumerate(lines):
            row = json.loads(line)
            ref = float(reference[i])
            if row["trial"] != i or row["decision"] != decisions[i]:
                return False
            if abs(row["statistic"] - ref) > STAT_RTOL * max(abs(ref), abs(z), 1.0):
                return False
        return True

    def _csv_rows(self, name: str) -> list:
        lines = (self.exp_dir / name).read_text(encoding="utf-8").splitlines()
        return [line.split(",") for line in lines[1:]]

    def _check_mc(self) -> bool:
        labels, _, _, decisions = self._classify_reference()
        last = self._csv_rows("mc_vs_exact.csv")[-1]
        wrong = int(np.sum(decisions != labels))
        return (
            int(last[0]) == labels.size
            and float(last[1]) == wrong / labels.size
            and abs(float(last[2]) - self.default_ref) <= 2.0 * TARGET
        )

    def _check_roc(self) -> bool:
        labels, samples, reference, _ = self._classify_reference()
        rows = self._csv_rows("roc.csv")
        z = detector.threshold(self.spec, samples.shape[1])
        is2 = labels == 2
        for thr, fpr, tpr in rows:
            called2 = reference > float(thr)
            if float(fpr) != float(called2[~is2].mean()) or float(tpr) != float(
                called2[is2].mean()
            ):
                return False
        return any(float(row[0]) == z for row in rows)

    def _check_stream(self, record: CycleRecord) -> bool:
        if self._stream_reference is None:
            values = np.array(self.stream_values)
            self._stream_reference = (
                detector.SufficientStatistics.from_series(values),
                detector.detect_full(self.spec, values).decision,
            )
        state, decision = self._stream_reference
        return (
            record.stream_ok
            and record.stream_state == state
            and record.stream_decision == decision
        )

    def _check_report(self, i: int, report) -> bool:
        """Finite, inside [0, min prior] up to the target, within 2x target of
        the frozen reference, and with the frozen spectrum fields: most
        long-horizon references are far below the target, so only the
        spectrum fields catch a wrong spectrum there."""
        if report is None:
            return False
        value = float(report.total_error)
        bound = min(report.prior1, report.prior2)
        self.notes["clamped_zero"] += value == 0.0
        self.notes["above_min_prior"] += value > bound
        self.notes["below_target"] += value < TARGET
        return (
            math.isfinite(value)
            and 0.0 <= value <= bound + TARGET
            and abs(value - self.certify_refs[i]) <= 2.0 * TARGET
            and _same_spectrum(spectrum_fields(report), self.spectrum_refs[i])
        )
