"""Acceptance suite: every pinned verification criterion at its stated
tolerance, one pass/fail line printed per criterion.

One test is made for each entry of `verify.CRITERIA`, so a criterion added
to the registry is tested too.  Expensive solver runs are shared through a
session-scoped cache, so the mean-field comparison reuses the conservation
run and the barrier checks reuse the large-coupling run.  Run with
`pytest -s tests/test_acceptance.py` to watch the per-criterion lines.
"""

import pytest

from kslab import verify

# the suffix of each criterion's test name; criteria missing here get "criterion"
NAMES = {1: "conservation", 2: "identical_concentration", 3: "antipodal_decay_rate",
         4: "phase_drift_bound", 5: "rate_formula_consistency",
         6: "potential_dissipation", 7: "particle_gradient_identity",
         8: "mean_field_consistency", 9: "diameter_amplitude_bound",
         10: "antipodal_cardinality", 11: "equilibrium_self_consistency",
         12: "asymptotic_amplitude_floor", 13: "arc_mass_and_growth",
         14: "barrier_comparison", 15: "comparison_flow"}
# the 20,000-oscillator run and the two on the large-coupling run
SLOW = {8, 12, 14}


@pytest.fixture(scope="session")
def cache():
    return verify.RunCache()


def _criterion_test(cid):
    def test(cache):
        result = verify.CRITERIA[cid](cache)
        mark = "PASS" if result["passed"] else "FAIL"
        print(f"[{mark}] criterion {result['criterion']:>2}: {result['name']} "
              f"({result['elapsed_s']:.1f}s)")
        for f in result["failures"]:
            print(f"       - {f}")
        assert result["passed"], f"criterion {cid} failed: {result['failures']}"

    return pytest.mark.slow(test) if cid in SLOW else test


# in registry order, so the session cache builds run1, run2, run12 and run13 in turn
for _cid in sorted(verify.CRITERIA):
    globals()[f"test_criterion_{_cid:02d}_{NAMES.get(_cid, 'criterion')}"] = \
        _criterion_test(_cid)
