"""Write tests/certify_short_cdfs_30_digits.json: both hypotheses' CDFs at
the threshold of every certify-short scenario from kf 2 on, from the
oracle oracles.quad_form_cdf_mp to 1e-9, a thousandth of the reports' 1e-6
target.  Run from the repository root (the file was written at 30 digits
alone, in about ten minutes on two cores):

    PYTHONPATH=src:tests python tests/make_oracle_cdfs.py
"""

import json
from pathlib import Path

import skysift as sk
from oracles import quad_form_cdf_mp
from skysift.detector import detector_from_scenario, threshold
from skysift.error_analysis import q_sigma_eigenvalues
from test_error_analysis import CERTIFY_SHORT

OUT = Path(__file__).parent / "certify_short_cdfs_30_digits.json"


def main():
    cases = []
    for overrides in CERTIFY_SHORT:
        s = sk.Scenario.from_dict(overrides)
        kf = s.sampling.horizon
        if kf < 2 or s.stats1() == s.stats2():
            continue
        z = threshold(detector_from_scenario(s))
        for h in (1, 2):
            sp = q_sigma_eigenvalues(s.stats1(), s.stats2(), kf, h)
            cdf = quad_form_cdf_mp(sp.kept(), z, 1e-9)
            cases.append({"scenario": overrides, "hypothesis": h, "cdf": cdf})
            print(cases[-1], flush=True)
    source = "oracles.quad_form_cdf_mp(kept eigenvalues, threshold, 1e-9); see make_oracle_cdfs.py"
    text = ",\n".join("    " + json.dumps(case) for case in cases)
    OUT.write_text(f'{{\n  "source": {json.dumps(source)},\n  "cases": [\n{text}\n  ]\n}}\n')


if __name__ == "__main__":
    main()
