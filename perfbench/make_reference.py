"""Regenerate ``reference.json``: certify references for every benchmark scenario.

Each ``total_error`` reference is the total error computed with the
accuracy budget refined four times (grid step a quarter, term count four
times larger) instead of the budget ``total_error`` picks, so it is an
independent evaluation of the same probability.  Each ``spectrum`` entry
freezes the spectrum-derived fields of the report ``total_error`` gives
(see workloads.spectrum_fields).  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from skysift.detector import build_detector, threshold  # noqa: E402
from skysift.error_analysis import (  # noqa: E402
    accuracy_budget,
    cdf_quadratic_form_raw,
    q_sigma_eigenvalues,
    total_error,
)
from skysift.model import Scenario  # noqa: E402

from workloads import SMOKE, TARGET, WORKLOADS, scenario_key, spectrum_fields  # noqa: E402

REFINE = 4


def refined_total_error(scenario: Scenario, target: float) -> float:
    stats1, stats2 = scenario.stats1(), scenario.stats2()
    p1, p2 = scenario.sampling.prior1, scenario.sampling.prior2
    kf = scenario.sampling.horizon
    spectra = [q_sigma_eigenvalues(stats1, stats2, kf, hypothesis=h) for h in (1, 2)]
    if any(s.kept().size == 0 for s in spectra):
        return min(p1, p2)
    z = threshold(build_detector(stats1, stats2, p1, kf), kf)
    cdf = [
        min(max(cdf_quadratic_form_raw(s, z, accuracy_budget(s, z, target).refined(REFINE)), 0.0), 1.0)
        for s in spectra
    ]
    return p2 * cdf[1] + p1 * (1.0 - cdf[0])


def main() -> None:
    overrides = [{}]
    for table in (WORKLOADS, SMOKE):
        for workload in table.values():
            overrides.extend(workload.certify)
    references, spectra = {}, {}
    for d in overrides:
        key = scenario_key(d)
        if key not in references:
            scenario = Scenario.from_dict(d)
            references[key] = refined_total_error(scenario, TARGET)
            spectra[key] = spectrum_fields(total_error(scenario, TARGET))
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"target": TARGET, "refine": REFINE, "total_error": references, "spectrum": spectra},
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")


if __name__ == "__main__":
    main()
