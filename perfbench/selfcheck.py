"""Self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload it checks that an untraced and a traced ``--smoke`` run
print every metric of BENCHMARK.json with its unit and no failed operation,
that two traced runs with one seed give identical work counts, and that the
benchmark refuses to run, printing no result, in a directory that holds only
BENCHMARK.json and the benchmark's files.  The smoke sizes prove that the
harness works, not that a number is steady.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
# per-layer metrics that count work; they must repeat exactly for one seed
EXACT_UNITS = {"count", "bytes", "flop"}


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload: str, trace: int, expected: list) -> tuple:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or details["failed_frac"] != 0:
        problems.append(f"failed {result['failed']} of {result['attempted']}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    if printed != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(printed) ^ set(wanted))}")
    if problems:
        raise SystemExit(f"{workload} trace={trace}: " + "; ".join(problems))
    return details, result


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    exact = [m["name"] for m in benchmark["per_layer"] if m["unit"] in EXACT_UNITS]
    for workload in (w["name"] for w in benchmark["workloads"]):
        _, untraced = _result(workload, 0, benchmark["end_to_end"])
        if untraced["metrics"]["ok_frac"]["value"] != 1.0:
            raise SystemExit(f"{workload}: ok_frac below 1")
        first_details, first = _result(workload, 1, benchmark["per_layer"])
        _, second = _result(workload, 1, benchmark["per_layer"])
        if not all(first_details["counts_repeat"].values()):
            raise SystemExit(f"{workload}: work counts differ between cycles of one run")
        differ = [n for n in exact if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        if differ:
            raise SystemExit(f"{workload}: work counts differ between runs with one seed: {differ}")
        print(f"{workload}: ok ({untraced['attempted']} + {first['attempted']} operations checked)")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, benchmark["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit("benchmark ran without the program's sources")
    print("without sources: refused as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
