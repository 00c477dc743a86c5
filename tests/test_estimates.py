import random
from math import log, log10, log1p, nextafter, sqrt, ulp

import numpy as np
import pytest

from carefulsync import PhiRoot, f_bounds, f_closed, f_leading_estimate, phi, sequences
from carefulsync.pawnrace import SequenceCache


def test_phi_1_is_golden_ratio():
    assert abs(phi(1).value - (1 + sqrt(5)) / 2) < 1e-12


def test_phi_2_is_plastic_number():
    # independent oracle: eigenvalues of the companion polynomial x^3 - x - 1
    roots = np.roots([1, 0, -1, -1])
    real = max(r.real for r in roots if abs(r.imag) < 1e-9)
    assert abs(phi(2).value - real) < 1e-10


def test_phi_residuals_and_monotonicity():
    previous = None
    for c in range(1, 51):
        root = phi(c)
        assert root.residual <= 1e-12
        assert 1.0 < root.value <= 2.0
        if previous is not None:
            assert root.value < previous
        previous = root.value
    with pytest.raises(ValueError):
        phi(0)


def test_phi_for_large_c():
    # the bisection works in logs: x^(c+1) overflows a float from c = 1750 on
    for c in (1750, 2000, 5000):
        root = phi(c)
        assert root.residual <= 1e-12
        assert (c + 1) * log(root.value) == pytest.approx(log1p(root.value), abs=1e-11)
    assert phi(1749).value > phi(1750).value > phi(2000).value > phi(5000).value > 1.0
    # the residual grows with the slope 2(c+1) at the root; at c = 10^4 it
    # is 1.7e-12, and the root is still within one float step
    c = 10**4
    x = phi(c).value
    assert phi(5000).value > x > 1.0
    assert (c + 1) * log(x) == pytest.approx(log1p(x), abs=1e-11)
    # two float steps off the root, either way, is refused
    for off in (nextafter(nextafter(x, 2.0), 2.0), nextafter(nextafter(x, 1.0), 1.0)):
        with pytest.raises(ValueError, match="residual too large"):
            PhiRoot(c=c, value=off, residual=abs(off ** (c + 1) - off - 1.0))


def test_phi_from_10_14_to_the_float_limit():
    # the Newton steps started from the bisection, 1e-13 wide, and did not
    # converge from about c = 1.1*10**14 on
    rng = random.Random(31)
    cs = sorted({int(10 ** rng.uniform(14, log10(7.5e15))) for _ in range(400)})
    roots = [phi(c) for c in (*cs, 2 * 10**14, 10**15, 7 * 10**15)]
    for root in roots:
        assert PhiRoot(root.c, root.value, root.residual) == root
        # the root lies in (1 + ln2/(c+1), 1 + ln2/c)
        assert 1 + log(2) / (root.c + 1) - ulp(1.0) <= root.value <= 1 + log(2) / root.c + ulp(1.0)
    values = [root.value for root in roots[:len(cs)]]
    assert all(a >= b for a, b in zip(values, values[1:]))  # ties: one float step
    assert values[0] < phi(10**4).value and values[-1] > 1.0
    for c in (8 * 10**15, 10**16):
        with pytest.raises(ValueError, match=r"for c up to about 7\.5\*10\*\*15, not c="):
            phi(c)


def test_phi_root_validates():
    with pytest.raises(ValueError):
        PhiRoot(c=1, value=2.5, residual=0.0)
    with pytest.raises(ValueError):
        PhiRoot(c=1, value=1.5, residual=1e-3)
    # far from the root at a large c: x^c would overflow a float
    with pytest.raises(ValueError, match="residual too large"):
        PhiRoot(c=10**4, value=1.5, residual=1.0)


def test_bounds_bracket_small():
    lo, hi, slo, shi = f_bounds(7, 1)
    assert lo < 29 < hi
    assert slo <= 29 <= shi
    assert f_bounds(1, 3)[2] == 0.0  # log2(1) = 0


def test_bounds_bracket_grid():
    for c in range(1, 31):
        for n in range(1, 2001):
            f = f_closed(n, c)
            lo, hi, slo, shi = f_bounds(n, c)
            assert lo < f < hi, (n, c)
            assert slo <= f <= shi, (n, c)


def test_power_sandwich():
    # phi^(m(n)-2c-1) <= n < phi^(m(n)-c)
    for c in range(1, 11):
        runs = SequenceCache(c).at(c, 5000)
        x = phi(c).value
        for n in range(1, 5001):
            m = runs.twinverse(n)
            assert x ** (m - 2 * c - 1) <= n * (1 + 1e-12), (n, c)
            assert n < x ** (m - c) * (1 + 1e-12), (n, c)


def test_cumulative_at_twinverse_is_linear_in_n():
    # c*n < q_c(m_c(n)) < 4*c*n
    for c in range(1, 11):
        runs = SequenceCache(c).at(c, 2000)
        for n in range(1, 2001):
            q = runs.q(runs.twinverse(n))
            assert c * n < q < 4 * c * n, (n, c)


def _k_for_value(c, minimum):
    k = 1
    while sequences(c, k)[0] < minimum:
        k += 1
    return k


def test_leading_estimate_fibonacci_point():
    k = _k_for_value(1, 6765)
    n = sequences(1, k)[0]
    assert n == 6765
    exact = f_closed(n, 1)
    assert abs(f_leading_estimate(k, 1) - exact) / exact <= 0.01


def test_leading_estimate_cost_two():
    k = _k_for_value(2, 10**4)
    n = sequences(2, k)[0]
    exact = f_closed(n, 2)
    assert abs(f_leading_estimate(k, 2) - exact) / exact <= 0.02


def test_leading_estimate_monotone_in_k():
    start = _k_for_value(3, 10)
    values = [f_leading_estimate(k, 3) for k in range(start, start + 15)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        f_leading_estimate(1, 3)  # p_3(1) = 1 is far below the valid range
