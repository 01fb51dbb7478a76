"""Shared fixtures plus a terminal summary for the acceptance suite."""

import numpy as np
import pytest

import skysift as sk


@pytest.fixture(scope="session")
def default_scenario() -> sk.Scenario:
    return sk.Scenario.default()


def make_scenario(rng: np.random.Generator, kf: int | None = None) -> sk.Scenario:
    """One random valid two-class problem, for equivalence and budget sweeps."""
    m1, m2 = rng.uniform(0.5, 2.0, 2)
    g1, g2 = rng.uniform(0.5, 4.0, 2)
    return sk.Scenario(
        intruder1=sk.IntruderParams(mass=float(m1), gain=float(g1)),
        intruder2=sk.IntruderParams(mass=float(m2), gain=float(g2)),
        noise=sk.NoiseSpec(intensity=float(rng.uniform(0.5, 2.0))),
        sampling=sk.SamplingSpec(
            period=float(rng.uniform(0.2, 1.0)),
            horizon=int(rng.integers(5, 41)) if kf is None else kf,
            prior1=float(rng.uniform(0.2, 0.8)),
        ),
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    verdicts: dict[str, str] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            marker = "test_criterion_"
            pos = nodeid.find(marker)
            if pos < 0:
                continue
            tag = nodeid[pos + len(marker):].split("[")[0]
            number = tag.split("_")[0]
            if outcome != "passed":
                verdicts[number] = "FAIL"
            else:
                verdicts.setdefault(number, "PASS")
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(verdicts):
        terminalreporter.write_line(f"criterion {number}: {verdicts[number]}")
