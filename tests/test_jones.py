"""Jones values, the volume constant, h/psi readings, telescoping, and M_k."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sudlerlab import jones
from sudlerlab.errors import EnumerationCapError, PrecondError
from sudlerlab.jones import (
    _logJ_rows,
    h_eval,
    jones_J,
    m_k,
    psi_heuristic,
    telescoping_logJ,
    vol_41,
)
from sudlerlab.cfrac import CFExpansion, cf_expand
from sudlerlab.trig import _logsumexp, _prefix_logs, sudler_prefix_logmags


def brute_J(p, q):
    """Direct summation: sum_{N<q} prod_{n<=N} (2 sin(pi n p/q))^2."""
    total = 0.0
    prod = 1.0
    for N in range(q):
        if N:
            prod *= (2.0 * math.sin(math.pi * N * p / q)) ** 2
        total += prod
    return total


def shifted_logJ(p, q, shift):
    """log sum_{N<q} P_N(p/q, shift)^2 along the exact walk."""
    return _logsumexp(2.0 * _prefix_logs(Fraction(p, q), shift, q - 1))


def brute_shifted_J(p, q, shift):
    total = 0.0
    prod = 1.0
    for N in range(q):
        if N:
            prod *= (2.0 * math.sin(math.pi * (N * p / q + shift))) ** 2
        total += prod
    return total


# -- J values ------------------------------------------------------------------


def test_kashaev_values_exact():
    # independent direct-summation oracle and the known closed values
    for q, val in [(2, 5), (3, 13), (4, 27)]:
        got = jones_J(Fraction(1, q))
        assert abs(got - math.log(val)) <= 1e-12
        assert abs(got - math.log(brute_J(1, q))) <= 1e-12


def test_J_at_integers_is_one():
    for n in [0, 1, 7, -3]:
        assert jones_J(Fraction(n)) == 0.0


@given(st.integers(2, 120), st.integers(1, 119))
@settings(max_examples=60, deadline=None)
def test_J_periodic_and_even(q, p):
    p %= q
    if p == 0 or math.gcd(p, q) != 1:
        return
    r = Fraction(p, q)
    base = jones_J(r)
    assert abs(jones_J(r + 1) - base) <= 1e-12 * (1 + abs(base))
    assert abs(jones_J(-r) - base) <= 1e-12 * (1 + abs(base))


@given(st.integers(2, 60), st.integers(1, 59))
@settings(max_examples=40, deadline=None)
def test_J_matches_direct_summation(q, p):
    p %= q
    if p == 0 or math.gcd(p, q) != 1:
        return
    got = jones_J(Fraction(p, q))
    want = math.log(brute_J(p, q))
    assert abs(got - want) <= 1e-10 * (1 + abs(want))


@st.composite
def coprime_pq(draw, qmax=600):
    q = draw(st.integers(2, qmax))
    p = draw(st.integers(1, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    return p, q


@given(coprime_pq())
@settings(max_examples=150, deadline=None)
def test_logJ_row_equals_prefix_logsumexp(pq):
    # the per-fraction sine pass of trig is the reference: same terms, same bits
    p, q = pq
    want = _logsumexp(2.0 * sudler_prefix_logmags(Fraction(p, q), q - 1))
    assert _logJ_rows(q, [p])[0] == want


@given(st.integers(2, 600), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_logJ_rows_batch_equals_single_rows_and_mirrors(q, rows_per_block):
    ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
    # small blocks make the batch span several of them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jones, "_BLOCK_TERMS", rows_per_block * q)
        batch = _logJ_rows(q, ps)
    assert batch == [_logJ_rows(q, [p])[0] for p in ps]
    assert batch == batch[::-1]  # the row of q - p is the row of p


@given(coprime_pq())
@settings(max_examples=60, deadline=None)
def test_jones_J_reads_one_row_per_plus_minus_class(pq):
    p, q = pq
    r = Fraction(p, q)
    # the row of (q - p)/q itself, not folded to p
    want = _logJ_rows(q, [q - p])[0]
    for s in (r, 1 - r, -r, r + 3):
        assert jones_J(s) == want, s
    jones._logJ_mag.cache_clear()
    jones_J(r)
    jones_J(1 - r)
    assert jones._logJ_mag.cache_info().misses == 1


# -- volume constant and Psi -----------------------------------------------------


def test_vol_value():
    assert abs(vol_41() - 2.029883) <= 1e-6


def test_vol_equals_clausen_oracle():
    # Vol(4_1) = 2 Cl_2(pi/3), Clausen via its sine series
    with mpmath.workdps(30):
        want = float(2 * mpmath.clsin(2, mpmath.pi / 3))
    assert abs(vol_41() - want) <= 1e-12


def test_vol_against_high_precision_quadrature():
    with mpmath.workdps(30):
        integral = mpmath.quad(lambda x: mpmath.log(2 * mpmath.sin(mpmath.pi * x)),
                               [0, mpmath.mpf(5) / 6])
        want = float(4 * mpmath.pi * integral)
    assert abs(vol_41() - want) <= 1e-12


def test_vol_is_scaled_psi_max():
    assert vol_41() == 2.0 * math.pi * psi_heuristic(Fraction(5, 6))


def test_clausen_series_against_mpmath():
    with mpmath.workdps(30):
        for k in range(1, 121):
            theta = math.pi * k / 120  # (0, pi], the series' working range
            want = float(mpmath.clsin(2, theta))
            assert abs(jones._clausen2(theta) - want) <= 1e-15, theta
        # 2 Cl_2(pi/3) is the correctly rounded volume
        assert vol_41() == float(2 * mpmath.clsin(2, mpmath.pi / 3))


def test_psi_heuristic_is_scaled_clausen():
    # Psi(y) = -Cl_2(2 pi y)/pi; theta = 2 pi y runs over (0, 2 pi)
    with mpmath.workdps(30):
        for k in range(1, 240):
            want = float(-mpmath.clsin(2, 2 * mpmath.pi * k / 240) / mpmath.pi)
            assert abs(psi_heuristic(Fraction(k, 240)) - want) <= 1e-15, k


def test_psi_heuristic_above_half_against_quadrature():
    with mpmath.workdps(30):
        for y in [Fraction(k, 24) for k in range(13, 24)] + [Fraction(999, 1000)]:
            integral = mpmath.quad(
                lambda x: mpmath.log(2 * mpmath.sin(mpmath.pi * x)),
                [0, mpmath.mpf(y.numerator) / y.denominator],
            )
            assert abs(psi_heuristic(y) - float(2 * integral)) <= 1e-15, y


def test_psi_heuristic_endpoints():
    assert psi_heuristic(0) == 0.0
    # full-period integral of log|2 sin| vanishes
    assert abs(psi_heuristic(1)) <= 1e-12
    assert abs(psi_heuristic(Fraction(5, 6)) - 0.32306) <= 1e-5


def test_psi_heuristic_argmax_on_grid():
    grid = [Fraction(k, 10**4) for k in range(0, 10**4 + 1, 4)]
    best = max(grid, key=psi_heuristic)
    assert abs(best - Fraction(5, 6)) <= Fraction(1, 2000)


def test_psi_heuristic_domain():
    with pytest.raises(PrecondError):
        psi_heuristic(1.5)


# -- h, psi, psi* ----------------------------------------------------------------


def test_h_at_half():
    hv = h_eval(Fraction(1, 2))
    assert abs(hv.h - math.log(5)) <= 1e-12
    # J(1/(1/2)) = J(2) = 1
    assert hv.logJ_inv == 0.0


@given(st.integers(2, 90), st.integers(1, 89))
@settings(max_examples=50, deadline=None)
def test_h_antisymmetry_and_evenness(q, p):
    p %= q
    if p == 0 or math.gcd(p, q) != 1:
        return
    r = Fraction(p, q)
    hv = h_eval(r)
    assert abs(hv.h + h_eval(1 / r).h) <= 1e-10 * (1 + abs(hv.h))
    assert h_eval(-r).h == hv.h


def _unfolded_jones_J(r):
    """jones_J without the folded key: the row of r mod 1 itself."""
    r = Fraction(r) % 1
    return 0.0 if r.denominator == 1 else _logJ_rows(r.denominator, [r.numerator])[0]


def _fraction_path_h_eval(r):
    """The fields of h_eval read through Fractions t and 1/t, as a tuple."""
    t = abs(Fraction(r))
    logJ_x = _unfolded_jones_J(t)
    logJ_inv = _unfolded_jones_J(1 / t)
    h = logJ_x - logJ_inv
    x = float(t)
    vol = vol_41()
    psi = h - vol / (2 * math.pi * x) + 1.5 * math.log(x)
    psi_star = h + vol / (2 * math.pi) * (x - 1 / x)
    return (t, logJ_x, logJ_inv, h, psi, psi_star)


@given(st.integers(-600, 600).filter(bool), st.integers(1, 600))
@example(1, 1).via("integer")
@example(2, 1).via("integer")
@example(-3, 1).via("integer")
@example(7, 3).via("p/q > 1")
@example(1000, 7).via("p/q > 1")
@example(-5, 12).via("negative")
@example(-1, 9).via("negative")
@example(1, 17).via("p = 1")
@example(1, 600).via("p = 1")
@example(3, 2).via("q = 2")
@example(-5, 2).via("q = 2")
@settings(max_examples=80, deadline=None)
def test_h_eval_integer_keys_equal_fraction_path(a, b):
    r = Fraction(a, b)
    hv = h_eval(r)
    assert type(hv.x) is Fraction
    assert dataclasses.astuple(hv) == _fraction_path_h_eval(r)


def test_h_eval_above_cap_raises():
    for r in (Fraction(7, 10**7), Fraction(10**7, 7)):
        with pytest.raises(EnumerationCapError):
            h_eval(r)


def test_hvalue_correction_identities():
    hv = h_eval(Fraction(3, 8))
    x = float(hv.x)
    vol = vol_41()
    assert abs(hv.psi - (hv.h - vol / (2 * math.pi * x) + 1.5 * math.log(x))) <= 1e-12
    assert abs(hv.psi_star - (hv.h + vol / (2 * math.pi) * (x - 1 / x))) <= 1e-12


def test_h_rejects_zero():
    with pytest.raises(PrecondError):
        h_eval(0)


def test_psi_limit_along_reciprocals():
    # psi(1/n) settles near -log(3)/4 for moderate n
    target = -math.log(3) / 4
    for n in range(60, 101, 10):
        assert abs(h_eval(Fraction(1, n)).psi - target) <= 0.05


def test_volume_trend_along_reciprocals():
    vol = vol_41()
    devs = []
    for N in range(50, 201, 10):
        lj = jones_J(Fraction(1, N))
        devs.append(abs(2 * math.pi / N * lj - vol))
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 0.25


# -- telescoping -----------------------------------------------------------------


def test_telescoping_at_half():
    lhs, rhs = telescoping_logJ(Fraction(1, 2))
    assert abs(lhs - math.log(5)) <= 1e-12
    assert abs(rhs - math.log(5)) <= 1e-12


def test_telescoping_single_digit_cf():
    # r = 1/q has CF [0; q]: the sum collapses to h(1/q) = log J(1/q)
    lhs, rhs = telescoping_logJ(Fraction(1, 17))
    assert abs(lhs - jones_J(Fraction(1, 17))) <= 1e-12
    assert abs(lhs - rhs) <= 1e-10


def test_telescoping_exhaustive_small():
    for q in range(2, 26):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            lhs, rhs = telescoping_logJ(Fraction(p, q))
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs)), (p, q)


# -- M_k -------------------------------------------------------------------------


def test_m1_reduction():
    # denominator sum at k=1 has a single N=0 term, so M_1 is the numerator alone
    cf = CFExpansion.from_partial_quotients(0, [3, 2, 5])
    got = m_k(cf, 1)
    want = shifted_logJ(1, 3, Fraction(-5, 18))
    assert got == want
    brute = math.log(brute_shifted_J(1, 3, -5.0 / 18.0))
    assert abs(got - brute) <= 1e-10


def test_mk_shifted_sum_against_brute_force():
    from sudlerlab.cfrac import convergents

    cf = cf_expand(Fraction(13, 30))
    for k in range(1, 4):
        assert math.isfinite(m_k(cf, k))
    # spot-check the k=2 numerator via brute-force floats
    t = convergents(cf, 2)
    num = shifted_logJ(t.p(2), t.q(2), Fraction(5, 6 * t.q(2)))
    brute = math.log(brute_shifted_J(t.p(2), t.q(2), 5.0 / (6.0 * t.q(2))))
    assert abs(num - brute) <= 1e-9


def test_mk_denominator_is_the_tail_convergent():
    # oracle: the denominator sum at level k - 1 of the tail's own table
    from sudlerlab.cfrac import convergents

    cfs = [CFExpansion.preset(n) for n in ("golden", "sqrt2inv", "e-2")]
    cfs.append(CFExpansion.from_partial_quotients(0, [3, 1, 4, 1, 5, 9, 2, 6]))
    for cf in cfs:
        for k in range(1, 9):
            t, tt = convergents(cf, k), convergents(cf.tail(), k - 1)
            num = shifted_logJ(t.p(k), t.q(k), Fraction((-1) ** k * 5, 6 * t.q(k)))
            qp = tt.q(k - 1)
            den = shifted_logJ(tt.p(k - 1), qp, Fraction((-1) ** (k - 1) * 5, 6 * qp))
            assert m_k(cf, k) == num - den


def test_mk_depends_only_on_leading_quotients():
    a = CFExpansion.from_partial_quotients(0, [2, 3, 4, 5, 3, 2])
    b = CFExpansion.from_partial_quotients(0, [2, 3, 4, 5, 3, 6, 4])
    for k in range(1, 6):
        assert m_k(a, k) == m_k(b, k)
    assert abs(m_k(a, 6) - m_k(b, 6)) > 1e-6
