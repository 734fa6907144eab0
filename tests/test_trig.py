"""Sudler products, product form, cotangent sums: identities vs oracles."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sudlerlab.cfrac import (
    CFExpansion,
    cf_expand,
    cf_tail,
    convergents,
    ostrowski_encode,
    ostrowski_enumerate,
)
from sudlerlab import trig
from sudlerlab.errors import (
    EnumerationCapError,
    PoleError,
    PrecondError,
    ZeroFactorError,
)
from sudlerlab.trig import (
    LogNumber,
    cotangent_V,
    cotangent_sum,
    epsilon_vector,
    epsilon_vector_primed,
    explicit_formula_eval,
    kubert_rhs,
    log_f,
    product_form_eval,
    product_form_logs,
    ql_diff_check,
    shifted_sudler,
    sudler_prefix_logmags,
    sudler_prefix_logs,
)


# -- LogNumber ----------------------------------------------------------------


def test_lognumber_arithmetic():
    a = LogNumber.from_value(3.0)
    b = LogNumber.from_value(0.5)
    assert (a * b).value == pytest.approx(1.5, rel=1e-15)
    assert (a / b).value == pytest.approx(6.0, rel=1e-15)
    assert (a**3).value == pytest.approx(27.0, rel=1e-14)
    z = LogNumber.from_value(0.0)
    assert z.is_zero and (a * z).is_zero and z.value == 0.0
    with pytest.raises(ZeroDivisionError):
        a / z
    with pytest.raises(PrecondError):
        LogNumber.from_value(-1.0)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_lognumber_sum_permutation_invariant(mags):
    terms = [LogNumber(m) for m in mags]
    s1 = LogNumber.sum(terms)
    rng = random.Random(17)
    for _ in range(3):
        rng.shuffle(terms)
        s2 = LogNumber.sum(terms)
        assert s2.log_mag == s1.log_mag  # bitwise, thanks to sorting
    want = math.log(math.fsum(math.exp(m) for m in sorted(mags)))
    assert s1.log_mag == pytest.approx(want, rel=1e-12)


def test_lognumber_sum_empty_and_zero():
    assert LogNumber.sum([]).is_zero
    assert LogNumber.sum([LogNumber.from_value(0.0)]).is_zero
    one = LogNumber.sum([LogNumber(0.0), LogNumber.from_value(0.0)])
    assert one.log_mag == 0.0


# -- log_f --------------------------------------------------------------------


def test_log_f_special_values():
    assert log_f(Fraction(1, 2)).log_mag == math.log(2)
    assert log_f(Fraction(5, 6)).log_mag == 0.0
    assert log_f(Fraction(1, 6)).log_mag == 0.0
    assert log_f(0).is_zero
    assert log_f(7).is_zero
    assert log_f(Fraction(3, 3)).is_zero


def test_log_f_symmetry_and_float_guard():
    assert log_f(Fraction(1, 5)).log_mag == log_f(Fraction(4, 5)).log_mag
    assert log_f(Fraction(1, 5)).log_mag == log_f(Fraction(6, 5)).log_mag
    assert log_f(1e-14).is_zero
    assert log_f(0.3).log_mag == pytest.approx(
        math.log(2 * math.sin(math.pi * 0.3)), rel=1e-15
    )


# -- prefix products ----------------------------------------------------------


def test_sudler_prefix_examples():
    logs = sudler_prefix_logs(Fraction(1, 2), 1)
    assert logs[0].log_mag == 0.0
    assert logs[1].value == pytest.approx(2.0, rel=1e-15)
    logs = sudler_prefix_logs(Fraction(1, 3), 2)
    assert [t.value for t in logs] == pytest.approx([1.0, math.sqrt(3), 3.0], rel=1e-14)
    with pytest.raises(PrecondError):
        sudler_prefix_logs(Fraction(1, 3), 3)


def test_sudler_prefix_matches_bruteforce():
    r = Fraction(5, 13)
    logs = sudler_prefix_logmags(r, 12)
    acc = 0.0
    for n in range(1, 13):
        acc += math.log(abs(2 * math.sin(math.pi * n * 5 / 13)))
        assert logs[n] == pytest.approx(acc, abs=1e-12)


# -- shifted products and the multiplication law ------------------------------


def test_shifted_sudler_basics():
    assert shifted_sudler(Fraction(2, 7), Fraction(1, 3), 0).log_mag == 0.0
    r = Fraction(3, 11)
    direct = sudler_prefix_logmags(r, 10)
    for N in (1, 4, 10):
        assert shifted_sudler(r, 0, N).log_mag == pytest.approx(direct[N], abs=1e-12)


def test_shifted_sudler_zero_factor_reported():
    with pytest.raises(ZeroFactorError) as exc:
        shifted_sudler(Fraction(1, 4), Fraction(1, 4), 3)
    assert exc.value.n == 3


def test_shifted_sudler_float_path_agrees():
    r = Fraction(89, 233)
    x = Fraction(1, 97)
    a = shifted_sudler(r, x, 150)
    b = shifted_sudler(float(r), float(x), 150)
    assert b.log_mag == pytest.approx(a.log_mag, abs=1e-8)


def test_kubert_example():
    # |2 sin(pi/15)| * P_4(2/5, 1/15) = |2 sin(pi/3)|
    x = Fraction(1, 3)
    lhs = log_f(x / 5) * shifted_sudler(Fraction(2, 5), x / 5, 4)
    rhs = kubert_rhs(Fraction(2, 5), x)
    assert lhs.log_mag == pytest.approx(rhs.log_mag, abs=1e-12)
    assert kubert_rhs(Fraction(3, 1), Fraction(1, 3)).log_mag == log_f(Fraction(1, 3)).log_mag
    with pytest.raises(PrecondError):
        kubert_rhs(Fraction(2, 5), 10)


@given(
    st.integers(min_value=2, max_value=200),
    st.integers(min_value=1, max_value=199),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=39),
)
@settings(max_examples=80, deadline=None)
def test_kubert_identity_property(q, p, d, j):
    p, j = p % q, j % d
    if math.gcd(p, q) != 1 or p == 0 or j == 0:
        return
    x = Fraction(j, d)
    lhs = log_f(x / q) * shifted_sudler(Fraction(p, q), x / q, q - 1)
    rhs = kubert_rhs(Fraction(p, q), x)
    assert abs(lhs.log_mag - rhs.log_mag) <= 1e-12 * (1 + abs(rhs.log_mag))


# -- epsilon corrections ------------------------------------------------------


def test_epsilon_zero_digits():
    t = convergents(CFExpansion.from_partial_quotients(0, [2, 3, 4]), 3)
    rep = ostrowski_encode(0, t)
    assert all(e == 0 for e in epsilon_vector(rep, t).eps)


def test_epsilon_single_digit_formula():
    t = convergents(CFExpansion.from_partial_quotients(0, [2, 3, 4, 2]), 4)
    from sudlerlab.cfrac import OstrowskiRep

    m, b_m = 2, 3
    digits = [0] * 4
    digits[m] = b_m
    rep = OstrowskiRep(tuple(digits), t)
    ev = epsilon_vector(rep, t)
    for ell in range(4):
        if ell < m:
            assert ev[ell] == (-1) ** (ell + m) * t.q(ell) * b_m * t.dist(m)
        else:
            assert ev[ell] == 0


def test_epsilon_lemma_bounds_exhaustive():
    # bounds and their refined variants, for every N over a few tables
    for digits in [[3, 2, 4, 2], [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], [2, 5, 1, 3, 2]]:
        t = convergents(CFExpansion.from_partial_quotients(0, digits), len(digits))
        K = len(digits)
        assert t.q(K) <= 10**3
        for rep in ostrowski_enumerate(t, K):
            ev = epsilon_vector(rep, t)
            for ell in range(K):
                if rep.digit(ell) < 1:
                    continue
                qd_l = t.q(ell) * t.dist(ell)
                qd_next = t.q(ell) * t.dist(ell + 1)
                assert -qd_l + qd_next <= ev[ell] <= qd_next
                # refined: a slack digit one (resp. two) levels up sharpens
                # the lower (resp. upper) bound by a third of the slack
                a2 = t.partial(ell + 2) if ell + 2 <= K else None
                if a2 is not None:
                    delta = 1 - Fraction(rep.digit(ell + 1), a2)
                    if delta > 0:
                        assert ev[ell] >= -(1 - delta / 3) * qd_l
                a3 = t.partial(ell + 3) if ell + 3 <= K else None
                if a3 is not None:
                    delta = 1 - Fraction(rep.digit(ell + 2), a3)
                    if delta > 0:
                        assert ev[ell] <= (1 - delta / 3) * qd_next


def test_epsilon_primed_sign_and_zero():
    cf = CFExpansion.from_partial_quotients(0, [2, 3, 4])
    t = convergents(cf, 3)
    tt = convergents(cf_tail(cf), 2)
    rep = ostrowski_encode(t.q(3) - 1, t)
    ev = epsilon_vector_primed(rep, tt)
    assert ev[0] == 0
    # direct evaluation of the defining sum
    for ell in range(1, 3):
        want = tt.q(ell - 1) * sum(
            (-1) ** (ell + m - 1) * rep.digit(m) * tt.dist(m - 1)
            for m in range(ell + 1, 3)
        )
        assert ev[ell] == want


# -- product form -------------------------------------------------------------


def test_product_form_empty():
    t = convergents(cf_expand(Fraction(3, 8)), 3)
    rep = ostrowski_encode(0, t)
    assert product_form_eval(rep, t).log_mag == 0.0


def test_product_form_matches_direct_rationals():
    for r in [Fraction(3, 8), Fraction(89, 233), Fraction(57, 200), Fraction(113, 355)]:
        cf = cf_expand(r)
        t = convergents(cf, cf.L)
        direct = sudler_prefix_logmags(r, r.denominator - 1)
        for N in range(r.denominator):
            got = product_form_eval(ostrowski_encode(N, t), t)
            assert abs(got.log_mag - direct[N]) <= 1e-9 * (1 + abs(direct[N]))


def test_product_form_golden_prefix():
    # irrational spec: compare against the direct product on the exact
    # truncation the table itself uses
    t = convergents(CFExpansion.preset("golden"), 10)
    direct = sudler_prefix_logmags(t.alpha_exact, 55)
    for N in range(51):
        got = product_form_eval(ostrowski_encode(N, t), t)
        assert abs(got.log_mag - direct[N]) <= 1e-9 * (1 + abs(direct[N]))


def test_product_form_logs_batched_matches_direct():
    for r in [Fraction(3, 8), Fraction(113, 355), Fraction(57, 200)]:
        cf = cf_expand(r)
        t = convergents(cf, cf.L)
        direct = sudler_prefix_logmags(r, r.denominator - 1)
        batched = product_form_logs(t, cf.L)
        assert np.max(np.abs(batched - direct)) <= 1e-9


def test_product_form_logs_float_fallback():
    # deep e-2 table: reference denominator exceeds int64 batching range
    t = convergents(CFExpansion.preset("e-2"), 30)
    assert t.alpha_exact.denominator >= 1 << 31
    q8 = t.q(8)
    direct = sudler_prefix_logmags(t.alpha_exact, q8 - 1)
    batched = product_form_logs(t, 8)
    assert np.max(np.abs(batched - direct[:q8])) <= 1e-9


def test_product_form_logs_cap():
    t = convergents(CFExpansion.preset("golden"), 20)
    with pytest.raises(EnumerationCapError):
        product_form_logs(t, 20, cap=100)


def _pf_rel_err(batch, direct):
    """Gate 02's disagreement measure: worst |batch - direct| / (1 + |direct|)."""
    return float(np.max(np.abs(batch - direct) / (1.0 + np.abs(direct))))


def _coprime_fractions(max_q=600):
    return st.builds(
        Fraction,
        st.integers(min_value=1, max_value=max_q - 1),
        st.integers(min_value=2, max_value=max_q),
    ).filter(lambda r: 0 < r < 1)


@given(_coprime_fractions())
@settings(max_examples=200, deadline=None)
def test_product_form_logs_matches_direct_prefix(r):
    cf = cf_expand(r)
    t = convergents(cf, cf.L)
    batch = product_form_logs(t, cf.L)
    assert batch.shape == (r.denominator,)
    assert _pf_rel_err(batch, sudler_prefix_logmags(r, r.denominator - 1)) <= 1e-9


@given(_coprime_fractions(), st.data())
@settings(max_examples=60, deadline=None)
def test_product_form_logs_matches_per_N_product_form(r, data):
    cf = cf_expand(r)
    t = convergents(cf, cf.L)
    batch = product_form_logs(t, cf.L)
    Ns = data.draw(st.lists(st.integers(0, r.denominator - 1), min_size=1, max_size=4))
    for N in Ns:
        want = product_form_eval(ostrowski_encode(N, t), t).log_mag
        assert abs(batch[N] - want) <= 1e-9 * (1 + abs(want))


@pytest.mark.parametrize("digits", [[57, 2, 1, 3, 2, 1, 1, 2], [2, 1, 60, 1, 2, 3, 1, 1]])
def test_product_form_logs_wide_level(digits):
    # a partial quotient >= 50 below several digits: one level holds dozens
    # of free nodes, each with a digit range of 50 or more
    cf = CFExpansion.from_partial_quotients(0, digits)
    t = convergents(cf, cf.L)
    r = t.alpha_exact
    q = r.denominator
    batch = product_form_logs(t, cf.L)
    assert _pf_rel_err(batch, sudler_prefix_logmags(r, q - 1)) <= 1e-9
    rng = random.Random(q)
    for N in [q - 1, t.q(cf.L - 1) - 1] + rng.sample(range(q), 4):
        want = product_form_eval(ostrowski_encode(N, t), t).log_mag
        assert abs(batch[N] - want) <= 1e-9 * (1 + abs(want))


@given(st.integers(8, 12), st.data())
@settings(max_examples=10, deadline=None)
def test_product_form_logs_float_fallback_depths(K, data):
    t = convergents(CFExpansion.preset("e-2"), 30)
    assert t.alpha_exact.denominator >= 1 << 31  # the float path runs
    qK = t.q(K)
    # n alpha mod 1 comes from float(alpha): an argument is off by up to
    # about q_K 2^-52, and a factor near ||q_{K-1} alpha|| ~ 1/q_K turns that
    # into a log error of about q_K^2 2^-52 (measured: 0.04 to 0.22 of it)
    tol = max(1e-9, qK**2 * 2.0**-52)
    batch = product_form_logs(t, K)
    assert _pf_rel_err(batch, sudler_prefix_logmags(t.alpha_exact, qK - 1)) <= tol
    N = data.draw(st.integers(0, qK - 1))
    want = product_form_eval(ostrowski_encode(N, t), t).log_mag
    assert abs(batch[N] - want) <= tol * (1 + abs(want))


def test_product_form_logs_float_pole_guard_carries_n(monkeypatch):
    # every reflected argument is below a guard of 1/2, so the first segment
    # of the top level trips it, at its smallest argument
    t = convergents(CFExpansion.preset("e-2"), 30)
    monkeypatch.setattr(trig, "POLE_GUARD", 0.5)
    with pytest.raises(ZeroFactorError) as exc:
        product_form_logs(t, 8)
    u = np.arange(1, t.partial(8) * t.q(7) + 1) * float(t.alpha_exact) % 1.0
    assert exc.value.n == int(np.argmin(np.minimum(u, 1.0 - u))) + 1


# -- cotangent sums -----------------------------------------------------------


def mp_cot_sum(alpha: Fraction, x: Fraction, N: int):
    """High-precision oracle, exact rational residues into mpmath."""
    with mpmath.workdps(40):
        terms = []
        for n in range(1, N + 1):
            t = (n * alpha + x) % 1
            terms.append(mpmath.cot(mpmath.pi * mpmath.mpf(t.numerator) / t.denominator))
        total = mpmath.fsum(terms)
        scale = mpmath.fsum([abs(u) for u in terms])
        return float(total), float(scale)


def test_cotangent_sum_basics():
    assert cotangent_sum(Fraction(2, 7), Fraction(1, 3), 0) == 0.0
    # full nonzero-residue set cancels by symmetry
    assert abs(cotangent_sum(Fraction(2, 5), 0, 4)) < 1e-12
    with pytest.raises(PoleError) as exc:
        cotangent_sum(Fraction(1, 4), 0, 4)
    assert exc.value.n == 4


def test_cotangent_sum_matches_mpmath():
    alpha, x = Fraction(89, 233), Fraction(1, 97)
    got = cotangent_sum(alpha, x, 150)
    want, scale = mp_cot_sum(alpha, x, 150)
    assert abs(got - want) <= 1e-11 * (1 + scale)
    gotf = cotangent_sum(float(alpha), float(x), 150)
    assert abs(gotf - want) <= 1e-6 * (1 + scale)


def test_cotangent_V_basics():
    t = convergents(CFExpansion.preset("e-2"), 8)
    assert cotangent_V(0, 0.3, t) == 0.0  # q_0 = 1
    grid = np.linspace(-0.9, 0.9, 13)
    vals = [cotangent_V(4, x, t) for x in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(PrecondError):
        cotangent_V(4, 1.0, t)


def test_cotangent_V_matches_mpmath():
    t = convergents(cf_expand(Fraction(57, 200)), 4)
    ell = 3
    q, p, d = t.q(ell), t.p(ell), t.dist(ell)
    for x in (Fraction(-1, 2), Fraction(0), Fraction(3, 7)):
        with mpmath.workdps(40):
            terms = []
            for n in range(1, q):
                w = mpmath.sin(mpmath.pi * n * mpmath.mpf(d.numerator) / (d.denominator * q))
                r = (n * (-1) ** ell * p) % q
                c = mpmath.cot(mpmath.pi * (r + mpmath.mpf(x.numerator) / x.denominator) / q)
                terms.append(w * c)
            want = float(mpmath.fsum(terms))
            scale = float(mpmath.fsum([abs(u) for u in terms]))
        got = cotangent_V(ell, float(x), t)
        assert abs(got - want) <= 1e-9 * (1 + scale)


# -- explicit formula ---------------------------------------------------------


def test_explicit_formula_q1_reduces():
    t = convergents(cf_expand(Fraction(5, 7)), 2)
    x = Fraction(1, 5)
    got = explicit_formula_eval(0, x, t)
    assert got.log_mag == pytest.approx(log_f(t.dist(0) + x).log_mag, abs=1e-12)


def test_explicit_formula_matches_shifted_product():
    rng = random.Random(7)
    for _ in range(25):
        q = rng.randrange(5, 200)
        p = rng.randrange(1, q)
        if math.gcd(p, q) != 1:
            continue
        r = Fraction(p, q)
        cf = cf_expand(r)
        t = convergents(cf, cf.L)
        ell = rng.randrange(1, cf.L + 1)
        x = Fraction(rng.randrange(-40, 90), 100)
        try:
            got = explicit_formula_eval(ell, x, t)
            want = shifted_sudler(r, (-1) ** ell * x / t.q(ell), t.q(ell))
        except (PoleError, ZeroFactorError):
            continue
        assert abs(got.log_mag - want.log_mag) <= 1e-10 * (1 + abs(want.log_mag))


def test_explicit_formula_z_zero_convention():
    t = convergents(cf_expand(Fraction(57, 200)), 4)
    ell = 2
    x = -t.q(ell) * t.dist(ell) / 2  # forces z = 0
    got = explicit_formula_eval(ell, x, t)
    want = shifted_sudler(Fraction(57, 200), (-1) ** ell * x / t.q(ell), t.q(ell))
    assert got.log_mag == pytest.approx(want.log_mag, abs=1e-10)


# -- first-quotient-drop coupling ----------------------------------------------


def test_ql_diff_exhaustive_random_rationals():
    rng = random.Random(123)
    checked = 0
    while checked < 200:
        q = rng.randrange(3, 10**4)
        p = rng.randrange(1, q)
        if math.gcd(p, q) != 1:
            continue
        cf = cf_expand(Fraction(p, q))
        L = cf.L
        if L < 2:
            continue
        t = convergents(cf, L)
        tt = convergents(cf_tail(cf), L - 1)
        for m in range(1, L):
            if m == 1 and cf.partial(2) == 1:
                continue
            for ell in range(1, m + 1):
                lhs, bound = ql_diff_check(ell, m, t, tt)
                assert lhs <= bound
        checked += 1


def test_ql_diff_diagonal_identity():
    # at ell = m the difference is exactly 1/((r q_l + q_{l-1})(r q'_l + q'_{l-1}))
    cf = cf_expand(Fraction(57, 200))
    L = cf.L
    t = convergents(cf, L)
    tt = convergents(cf_tail(cf), L - 1)
    for m in range(2, L):
        lhs, _ = ql_diff_check(m, m, t, tt)
        rest = CFExpansion.from_partial_quotients(cf.partial(m + 1), list(cf.partials(L))[m + 1 :])
        r = rest.value()
        want = 1 / ((r * t.q(m) + t.q(m - 1)) * (r * tt.q(m - 1) + tt.q(m - 2)))
        assert lhs == want


def test_ql_diff_hypothesis_rejected():
    cf = CFExpansion.from_partial_quotients(0, [1, 1, 1, 1, 1, 1])
    t = convergents(cf, 6)
    tt = convergents(cf_tail(cf), 5)
    with pytest.raises(PrecondError):
        ql_diff_check(1, 1, t, tt)
    with pytest.raises(PrecondError):
        ql_diff_check(2, 1, t, tt)
