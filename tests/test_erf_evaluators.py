"""The error-function evaluators of the affine-alpha forcing response,
against mpmath at 40 digits."""

import numpy as np
import pytest

from randstep.problems import _DAWSN_SWITCH, _ERF_SWITCH, _dawsn, _erf, _erfcx

mpmath = pytest.importorskip("mpmath")

TOL = 1e-14


def _asymptotic(x, sign):
    """sum_k sign^k (2k-1)!! / (2 x^2)^k to 8 terms: exact to 40 digits for x >= 1e6."""
    term = total = mpmath.mpf(1)
    for k in range(1, 8):
        term *= sign * (2 * k - 1) / (2 * x * x)
        total += term
    return total


def _mp_erfcx(x):
    # mpmath's erfc fails for x beyond about 1e154
    if x >= 1e6:
        return _asymptotic(x, -1) / (x * mpmath.sqrt(mpmath.pi))
    return mpmath.exp(x * x) * mpmath.erfc(x)


def _mp_dawsn(x):
    if abs(x) >= 1e6:
        return _asymptotic(x, 1) / (2 * x)
    return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)


def _neighbours(*points):
    return [y for p in points for y in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


SWEEPS = {
    "log": np.geomspace(1e-300, 1e300, 601),
    "dense": np.linspace(0.0, 10.0, 1001),
    "switches": np.array(_neighbours(_ERF_SWITCH, _DAWSN_SWITCH, 27.0)),
    "edges": np.array([0.0, -0.0, 5e-324]),
}
EVALUATORS = {"erf": (_erf, mpmath.erf), "erfcx": (_erfcx, _mp_erfcx), "dawsn": (_dawsn, _mp_dawsn)}


def _max_rel_err(ours, reference, x):
    got = ours(x)
    with mpmath.workdps(40):
        want = np.array([float(reference(mpmath.mpf(float(v)))) for v in x])
    exact = got == want  # covers want == 0
    rel = np.abs(got - want) / np.where(exact, 1.0, np.abs(want))
    return float(np.where(exact, 0.0, rel).max())


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluator_matches_mpmath_on_non_negative_arguments(name, sweep):
    assert _max_rel_err(*EVALUATORS[name], SWEEPS[sweep]) <= TOL


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluator_matches_mpmath_one_argument_at_a_time(name):
    # each call sets its term counts and depth from its own arguments
    ours, reference = EVALUATORS[name]
    one_by_one = lambda x: np.array([ours(v) for v in x])  # noqa: E731
    assert _max_rel_err(one_by_one, reference, SWEEPS["dense"][::4]) <= TOL


@pytest.mark.parametrize("sweep", SWEEPS)
def test_dawsn_matches_mpmath_on_negative_arguments(sweep):
    assert _max_rel_err(_dawsn, _mp_dawsn, -SWEEPS[sweep]) <= TOL


def test_dawsn_is_odd_down_to_the_sign_of_zero():
    x = np.concatenate([s for s in SWEEPS.values()])
    assert np.array_equal(_dawsn(-x), -_dawsn(x))
    assert np.array_equal(np.signbit(_dawsn(np.array([0.0, -0.0]))), [False, True])


def test_erf_and_erfcx_keep_the_sign_of_zero():
    x = np.array([0.0, -0.0])
    assert np.array_equal(np.signbit(_erf(x)), [False, True])
    assert np.array_equal(_erfcx(x), [1.0, 1.0])


def test_evaluators_overflow_nowhere():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for ours, _ in EVALUATORS.values():
            ours(np.array([1e300, 27.0, 1.0, 5e-324]))
        _dawsn(np.array([-1e300]))
