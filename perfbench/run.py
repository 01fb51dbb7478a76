"""Seeded end-to-end and per-layer benchmark of skysift.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 32 --trace 0

The package is run from ``src/`` in this process (it is not installed), with
BLAS threads capped at the number of usable cores.  ``--trace 0`` prints
every end-to-end metric of BENCHMARK.json; ``--trace 1`` runs cycles
alternately untraced and traced and prints every per-layer metric.  The
last line of standard output is the result object; the line before it holds
provenance and details.  ``--smoke`` uses tiny sizes, for the self-check.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CPUS = sorted(os.sched_getaffinity(0))
BLAS_ENV = {name: str(len(CPUS)) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)  # before numpy is first imported

import numpy as np  # noqa: E402

SETUP_CODE = "import skysift.cli as cli; cli._build_parser()"
IMPORT_REPEATS = 3
IMPORT_METRICS = {
    "skysift": "import.skysift.s",
    "scipy.special": "import.scipy_special.s",
    "mpmath": "import.mpmath.s",
    "numpy": "import.numpy.s",
}
TAIL_BEYOND = 10  # reports that must lie beyond the tail percentile


def _count_simulate(counts, args, kwargs, result):
    counts["simulator.simulate_batch.trials"] += len(result.trials)


def _rows(batch) -> int:
    return sum(len(series) for _, series in batch.trials)


def _count_write(counts, args, kwargs, result):
    counts["simulator.write_batch_csv.rows"] += _rows(args[0])
    counts["simulator.write_batch_csv.bytes"] += os.path.getsize(args[1])


def _count_read(counts, args, kwargs, result):
    counts["simulator.read_batch_csv.rows"] += _rows(result)
    counts["simulator.read_batch_csv.bytes"] += os.path.getsize(args[0])


def _count_fold(counts, args, kwargs, result):
    counts["detector.from_series.samples"] += result.count


def _count_spectrum(counts, args, kwargs, result):
    # Computed from n, not measured: a dense n x n matmul (2n^3), symmetric
    # tridiagonal reduction (4n^3/3) and O(n^2) set-up.
    n = result.horizon
    counts["error_analysis.q_sigma_eigenvalues.flops_computed"] += (10 * n**3) // 3 + 12 * n * n


def _count_budget(counts, args, kwargs, result):
    counts["error_analysis.accuracy_budget.n_terms"] += result.n_terms


def _count_below(counts, args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs.get("target", 1e-6)
    counts["error_analysis.total_error.below_target"] += int(result.total_error < target)


# (module, attribute, span name, work counter) for every traced function
LAYERS = (
    ("skysift.cli", "main", "cli.main", None),
    ("skysift.simulator", "simulate_batch", "simulator.simulate_batch", _count_simulate),
    ("skysift.simulator", "write_batch_csv", "simulator.write_batch_csv", _count_write),
    ("skysift.simulator", "read_batch_csv", "simulator.read_batch_csv", _count_read),
    ("skysift.detector", "SufficientStatistics.from_series", "detector.from_series", _count_fold),
    ("skysift.detector", "detect_simplified", "detector.detect_simplified", None),
    ("skysift.detector", "stream_update", "detector.stream_update", None),
    ("skysift.detector", "detect_full", "detector.detect_full", None),
    ("skysift.experiments", "run_mc_vs_exact", "experiments.run_mc_vs_exact", None),
    ("skysift.experiments", "run_roc", "experiments.run_roc", None),
    ("skysift.error_analysis", "total_error", "error_analysis.total_error", _count_below),
    ("skysift.error_analysis", "q_sigma_eigenvalues", "error_analysis.q_sigma_eigenvalues", _count_spectrum),
    ("skysift.kms", "kms_cholesky_factor", "kms.kms_cholesky_factor", None),
    ("skysift.kms", "kms_inverse_apply", "kms.kms_inverse_apply", None),
    ("skysift.error_analysis", "accuracy_budget", "error_analysis.accuracy_budget", _count_budget),
    ("skysift.error_analysis", "cdf_quadratic_form_raw", "error_analysis.cdf_quadratic_form_raw", None),
    ("skysift._powersum", "pinned_power_sum", "powersum.pinned_power_sum", None),
)


def _child_env() -> dict:
    return dict(os.environ, **BLAS_ENV, PYTHONPATH=str(SRC))


def time_setup() -> float:
    """Wall time of one fresh interpreter importing skysift and building the
    CLI parser, at the reference speed (see workloads.PROBE_REF_S): the
    child runs on this process's core, timed between three reference loops
    on each side."""
    from workloads import PROBE_REF_S, probe

    cmd = [sys.executable, "-c", SETUP_CODE]
    probes = [probe() for _ in range(3)]
    start = time.perf_counter()
    subprocess.run(cmd, env=_child_env(), check=True, capture_output=True)
    elapsed = time.perf_counter() - start
    probes += [probe() for _ in range(3)]
    return elapsed * PROBE_REF_S / statistics.median(probes)


def measure_imports(repeats: int) -> dict:
    """Median cumulative import time per module, from ``python -X importtime``."""
    samples = {name: [] for name in IMPORT_METRICS}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import skysift"],
            env=_child_env(),
            check=True,
            capture_output=True,
            text=True,
        )
        seen = set()
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                name = fields[2].strip()
                if name not in seen:
                    seen.add(name)
                    samples[name].append(int(fields[1]) * 1e-6)
    return {IMPORT_METRICS[name]: statistics.median(v) for name, v in samples.items()}


def provenance(seed: int) -> dict:
    import mpmath
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "skysift").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(CPUS),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "cpu": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _tail(values: list) -> tuple:
    """The highest percentile with at least TAIL_BEYOND values beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(values, reverse=True)
    k = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[k], 100.0 * (1.0 - k / len(ordered)), len(ordered)


def end_to_end(records: list, stream_p99_ns: list, setup_times: list, workload, runner) -> tuple:
    """Every step time is taken at the reference speed (see workloads.PROBE_REF_S).

    A rate is the work of one step over the median of that kind of step's
    times: a sum takes in every stretch a step ran on a loaded core, which
    the reference loops only partly correct for.  A certify report's cost
    depends on its scenario, so the report rate is over the summed times.
    """
    from workloads import STREAM_CHUNK

    times = defaultdict(list)
    for r in records:
        for (kind, seconds), scale in zip(r.steps, r.scales()):
            times[kind].append(seconds * scale)
    median = {kind: statistics.median(t) for kind, t in times.items()}
    n = workload.trials
    reports = times["report"]
    tail_s, tail_p, tail_n = _tail(reports)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "record_trials_per_s": n / median["simulate"],
        "classify_trials_per_s": n / median["detect"],
        "experiment_trials_per_s": 2 * n / (median["mc-vs-exact"] + median["roc"]),
        "stream_samples_per_s": STREAM_CHUNK / median["stream"],
        "stream_p99_us": statistics.median(stream_p99_ns) / 1e3,
        "certify_reports_per_s": len(reports) / sum(reports),
        "certify_p50_ms": statistics.median(reports) * 1e3,
        "certify_tail_ms": tail_s * 1e3,
    }
    details = {
        "classify_passes": len(times["simulate"]),
        "certify_reports": len(reports),
        "certify_tail_percentile": tail_p,
        "certify_tail_samples": tail_n,
        "stream_samples_timed": len(records) * workload.stream_samples,
        "setup_runs": len(setup_times),
        "probe_scale_median": statistics.median(f for r in records for f in r.scales()),
    }
    return metrics, details


def per_layer(names: list, traced: list, untraced_ops: list, imports: dict) -> tuple:
    """Per traced cycle: mean busy/self time, exact counts, trace overhead."""
    def value(name: str, snap: dict):
        span, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls"):
            return snap[field].get(span, 0 if field == "calls" else 0.0)
        return snap["counts"].get(name, 0)

    metrics = dict(imports)
    exact = {}
    for name in names:
        if name.startswith(("import.", "trace.")):
            continue
        values = [value(name, snap) for snap in traced]
        if isinstance(values[0], float):
            metrics[name] = statistics.fmean(values)
        else:
            metrics[name] = values[0]
            exact[name] = len(set(values)) == 1
    traced_ops = [snap["ops_s"] for snap in traced]
    metrics["trace.overhead_frac"] = statistics.median(traced_ops) / statistics.median(untraced_ops) - 1.0
    metrics["trace.unattributed_s"] = statistics.fmean(
        snap["ops_s"] - snap["top_level"] for snap in traced
    )
    return metrics, exact


def run(args, benchmark: dict) -> tuple:
    import workloads
    from layertrace import Tracer

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    workload = table[args.workload]
    references = workloads.load_references(HERE / "reference.json")
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        if not args.smoke:
            # let lazy set-up and caches settle before anything is timed
            warm = workloads.Runner(workloads.SMOKE[args.workload], args.seed, work_root / "warm", references)
            warm.check(warm.cycle())
        runner = workloads.Runner(workload, args.seed, work_root / "run", references)
        tracer = Tracer() if args.trace else None
        if tracer is None:
            time_setup()  # untimed: writes the bytecode cache
        records, traced, stream_p99_ns, setup_times = [], [], [], []
        start = time.perf_counter()
        while True:
            # Move between the cores every two cycles, so that each step's
            # reference loops run on the step's core and both cores are
            # sampled; in a traced run each core then holds untraced and
            # traced cycles.  Only this thread is pinned: the BLAS worker
            # threads keep the full CPU mask.
            core = CPUS[len(records) // 2 % len(CPUS)]
            os.sched_setaffinity(0, {core})
            tracing = tracer is not None and len(records) % 2 == 1
            if tracing:
                tracer.reset_totals()
                tracer.install(LAYERS)
            try:
                record = runner.cycle()
            finally:
                if tracing:
                    tracer.uninstall()
            if tracing:
                traced.append(dict(tracer.snapshot(), ops_s=record.ops_s))
            records.append(record)
            runner.check(record)
            # keep each cycle's stream p99, not its samples, so the harness's
            # own memory does not grow with the length of the run
            stream_p99_ns.append(record.stream_p99_ns())
            record.stream_latency_ns.clear()
            if tracer is None:
                setup_times.append(time_setup())
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
                break
    finally:
        os.sched_setaffinity(0, CPUS)
        shutil.rmtree(work_root, ignore_errors=True)

    details = {
        "workload": args.workload,
        "smoke": args.smoke,
        "cycles": len(records),
        "notes": runner.notes,
        "failed_frac": runner.failed / runner.attempted,
    }
    if tracer is None:
        metrics, more = end_to_end(records, stream_p99_ns, setup_times, workload, runner)
    else:
        untraced = [r.ops_s for i, r in enumerate(records) if i % 2 == 0]
        imports = measure_imports(1 if args.smoke else IMPORT_REPEATS)
        names = [m["name"] for m in benchmark["per_layer"]]
        metrics, exact = per_layer(names, traced, untraced, imports)
        spans_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed})
        more = {
            "traced_cycles": len(traced),
            "counts_repeat": exact,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
            "relative_units": "s-rel: timed by per-sample or per-trial wrappers whose own "
            "cost inflates the number; compare only between traced runs",
        }
        if not all(exact.values()):
            runner.failed += 1  # identical cycles must give identical counts
    details.update(more)
    units = {m["name"]: m["unit"] for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-check")
    args = parser.parse_args(argv)

    if not (SRC / "skysift" / "__init__.py").is_file():
        print(f"error: no skysift sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    details, result = run(args, benchmark)
    print(json.dumps({"provenance": provenance(args.seed), "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
