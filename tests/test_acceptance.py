"""Acceptance suite: every pinned verification criterion at its stated
tolerance, one pass/fail line printed per criterion.

Expensive solver runs are shared through a session-scoped cache, so the
mean-field comparison reuses the conservation run and the barrier checks
reuse the large-coupling run.  Run with `pytest -s tests/test_acceptance.py`
to watch the per-criterion lines.
"""

import pytest

from kslab import verify


@pytest.fixture(scope="session")
def cache():
    return verify.RunCache()


def _run(cid, cache):
    result = verify.CRITERIA[cid](cache)
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] criterion {result.cid:>2}: {result.name} "
          f"({result.elapsed:.1f}s)")
    for f in result.failures:
        print(f"       - {f}")
    assert result.passed, f"criterion {cid} failed: {result.failures}"
    return result


def test_criterion_01_conservation(cache):
    _run(1, cache)


def test_criterion_02_identical_concentration(cache):
    _run(2, cache)


def test_criterion_03_antipodal_decay_rate(cache):
    _run(3, cache)


def test_criterion_04_phase_drift_bound(cache):
    _run(4, cache)


def test_criterion_05_rate_formula_consistency(cache):
    _run(5, cache)


def test_criterion_06_potential_dissipation(cache):
    _run(6, cache)


def test_criterion_07_particle_gradient_identity(cache):
    _run(7, cache)


@pytest.mark.slow
def test_criterion_08_mean_field_consistency(cache):
    _run(8, cache)


def test_criterion_09_diameter_amplitude_bound(cache):
    _run(9, cache)


def test_criterion_10_antipodal_cardinality(cache):
    _run(10, cache)


def test_criterion_11_equilibrium_self_consistency(cache):
    _run(11, cache)


@pytest.mark.slow
def test_criterion_12_asymptotic_amplitude_floor(cache):
    _run(12, cache)


def test_criterion_13_arc_mass_and_growth(cache):
    _run(13, cache)


@pytest.mark.slow
def test_criterion_14_barrier_comparison(cache):
    _run(14, cache)


def test_criterion_15_comparison_flow(cache):
    _run(15, cache)
