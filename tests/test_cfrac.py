"""Continued-fraction and Ostrowski machinery against independent oracles."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from sudlerlab.cfrac import (
    GUARD_DEPTH,
    CFExpansion,
    ConvergentTable,
    cf_expand,
    convergents,
    interval_Ik,
    ostrowski_digits,
    ostrowski_encode,
    parse_alpha,
    rationals_in_interval,
)
from sudlerlab.errors import PrecondError
from sudlerlab.trig import epsilon_vector


def reduced_fractions(max_q=3000):
    return st.builds(
        Fraction,
        st.integers(min_value=1, max_value=max_q - 1),
        st.integers(min_value=2, max_value=max_q),
    ).filter(lambda r: 0 < r < 1)


# -- expansion ----------------------------------------------------------------


def test_cf_expand_examples():
    assert repr(cf_expand(Fraction(2, 5))) == "[0;2,2]"
    assert repr(cf_expand(7)) == "[7]"
    assert repr(cf_expand(Fraction(3, 8))) == "[0;2,1,2]"
    assert cf_expand(Fraction(2, 5)).partials(2) == [2, 2]


def test_cf_expand_matches_sympy_oracle():
    from sympy.ntheory.continued_fraction import continued_fraction_iterator
    from sympy import Rational as SymRational

    for p, q in [(2, 5), (3, 8), (355, 113), (113, 355), (17, 60), (89, 144)]:
        got = cf_expand(Fraction(p, q))
        want = list(continued_fraction_iterator(SymRational(p, q)))
        assert [got.a0] + got.partials(got.L) == want


@given(reduced_fractions())
@settings(max_examples=150, deadline=None)
def test_cf_expand_canonical_and_roundtrip(r):
    cf = cf_expand(r)
    assert cf.value() == r
    if cf.L >= 1:
        assert cf.partial(cf.L) >= 2 or cf.L == 1
        assert all(cf.partial(l) >= 1 for l in range(1, cf.L + 1))
    # canonical: never ends in 1 when L >= 2, and [0;1] never occurs
    if cf.L >= 2:
        assert cf.partial(cf.L) >= 2


def test_from_partial_quotients_canonicalize():
    assert repr(CFExpansion.from_partial_quotients(0, [1, 1], canonical=True)) == "[0;2]"
    assert repr(CFExpansion.from_partial_quotients(0, [2, 1], canonical=True)) == "[0;3]"
    assert repr(CFExpansion.from_partial_quotients(0, [1], canonical=True)) == "[1]"
    # non-canonical digits are kept verbatim when not asked to canonicalize
    raw = CFExpansion.from_partial_quotients(0, [1, 1, 1, 1, 1])
    assert raw.partials(5) == [1, 1, 1, 1, 1]


def test_presets_digits():
    golden = CFExpansion.preset("golden")
    assert golden.partials(10) == [1] * 10
    sqrt2inv = CFExpansion.preset("sqrt2inv")
    assert sqrt2inv.partials(6) == [1, 2, 2, 2, 2, 2]
    e2 = CFExpansion.preset("e-2")
    assert e2.partials(11) == [1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8]
    with pytest.raises(PrecondError):
        CFExpansion.preset("nope")


def test_preset_digits_match_mpmath_oracle():
    # recompute e-2 and 1/sqrt(2) digits from 60-digit floats
    with mpmath.workdps(60):
        for name, x in [("e-2", mpmath.e - 2), ("sqrt2inv", 1 / mpmath.sqrt(2))]:
            want = []
            y = x
            for _ in range(15):
                a = int(mpmath.floor(1 / y))
                want.append(a)
                y = 1 / y - a
            assert CFExpansion.preset(name).partials(15) == want


def test_parse_alpha():
    assert parse_alpha("2/5").value() == Fraction(2, 5)
    assert parse_alpha("cf:2,2").value() == Fraction(2, 5)
    assert parse_alpha("0.125").value() == Fraction(1, 8)
    assert parse_alpha("cf:1~period:2").partials(5) == [1, 2, 2, 2, 2]
    assert parse_alpha("golden").partials(3) == [1, 1, 1]
    golden = CFExpansion.preset("golden")
    for text in ["cf:~period:1", "cf:,~period:1"]:
        cf = parse_alpha(text)
        assert cf.partials(40) == golden.partials(40)
        assert convergents(cf, 20).alpha_exact == convergents(golden, 20).alpha_exact
    for bad in ["", "x", "1/0", "cf:", "cf:~period:", "cf:0,2", "cf:1~period:,"]:
        with pytest.raises(PrecondError):
            parse_alpha(bad)


def _stored_digit(pre, period, ell):
    """a_ell of [0; pre, period, period, ...] by preperiod/period indexing."""
    i = ell - 1
    if i < len(pre):
        return pre[i]
    return period[(i - len(pre)) % len(period)]


def _stored_tail(pre, period):
    """The tail as a new preperiod and period: drop pre's head, else rotate."""
    if pre:
        return pre[1:], period
    return (), period[1:] + period[:1]


@given(
    st.lists(st.integers(1, 9), max_size=5).map(tuple),
    st.lists(st.integers(1, 9), min_size=1, max_size=5).map(tuple),
)
@settings(max_examples=100, deadline=None)
def test_periodic_literal_matches_preperiod_period_oracle(pre, period):
    text = f"cf:{','.join(map(str, pre))}~period:{','.join(map(str, period))}"
    cf = parse_alpha(text)
    assert not cf.is_finite

    # the convergent table is the exact table of the truncation at depth
    # 20 + GUARD_DEPTH; rows l = -1 .. 28 are stored at offset +1
    want = [_stored_digit(pre, period, ell) for ell in range(1, 21 + GUARD_DEPTH)]
    p, q = [1, 0], [0, 1]
    for a in want:
        p.append(a * p[-1] + p[-2])
        q.append(a * q[-1] + q[-2])
    alpha = Fraction(p[-1], q[-1])
    t = convergents(cf, 20)
    assert t.alpha_exact == alpha
    for ell in range(-1, 21):
        assert (t.p(ell), t.q(ell)) == (p[ell + 1], q[ell + 1])
        assert t.theta(ell) == q[ell + 1] * alpha - p[ell + 1]
        if ell >= 1:
            assert t.partial(ell) == want[ell - 1]

    # digits and truncations of cf and its tails, through two turns of the period
    n = 40
    for _ in range(len(pre) + 2 * len(period)):
        want = [_stored_digit(pre, period, ell) for ell in range(1, n + 1)]
        assert cf.partials(n) == want
        x = Fraction(0)
        for a in reversed(want):
            x = 1 / (a + x)
        assert cf.truncation(n) == x
        cf, (pre, period) = cf.tail(), _stored_tail(pre, period)


# -- convergents --------------------------------------------------------------


def test_convergents_examples():
    t = convergents(cf_expand(Fraction(2, 5)), 2)
    assert [t.q(l) for l in range(3)] == [1, 2, 5]
    assert [t.p(l) for l in range(3)] == [0, 1, 2]
    fib = convergents(CFExpansion.from_partial_quotients(0, [1] * 5), 5)
    assert [fib.q(l) for l in range(6)] == [1, 1, 2, 3, 5, 8]


def test_convergents_depth_cap():
    with pytest.raises(PrecondError):
        convergents(cf_expand(Fraction(2, 5)), 3)


@given(reduced_fractions())
@settings(max_examples=150, deadline=None)
def test_convergent_identities_exact(r):
    cf = cf_expand(r)
    t = convergents(cf, cf.L)
    L = cf.L
    for l in range(L + 1):
        # determinant, lowest terms, recursion
        assert t.q(l) * t.p(l - 1) - t.p(l) * t.q(l - 1) == (-1) ** l
        assert math.gcd(t.p(l), t.q(l)) == 1
        if l >= 1:
            assert t.q(l) == t.partial(l) * t.q(l - 1) + t.q(l - 2)
        # theta: sign alternates, recursion exact
        th = t.theta(l)
        if th != 0:
            assert (th > 0) == (l % 2 == 0)
        if l >= 1:
            assert t.theta(l) == t.partial(l) * t.theta(l - 1) + t.theta(l - 2)
    for l in range(L):
        # q_l ||q_{l-1} a|| + q_{l-1} ||q_l a|| = 1, exactly
        assert t.q(l) * t.dist(l - 1) + t.q(l - 1) * t.dist(l) == 1
        # 1/(a_{l+1} + 2) <= q_l ||q_l a|| <= 1/a_{l+1}
        a_next = t.partial(l + 1)
        prod = t.q(l) * t.dist(l)
        assert Fraction(1, a_next + 2) <= prod <= Fraction(1, a_next)
    # ||q_l a|| equals true distance-to-nearest-integer for l >= 1
    for l in range(1, L):
        frac = (t.q(l) * r) % 1
        assert t.dist(l) == min(frac, 1 - frac)
    assert t.dist(L) == 0


def precision_bits(t: ConvergentTable) -> int:
    """A precision budget for the table: twice the reference denominator's bits."""
    return max(128, 2 * t.alpha_exact.denominator.bit_length())


def theta_mpf(t: ConvergentTable, ell: int) -> mpmath.mpf:
    """theta_ell rounded to the table's precision budget."""
    th = t.theta(ell)
    with mpmath.workprec(precision_bits(t)):
        return mpmath.mpf(th.numerator) / mpmath.mpf(th.denominator)


def test_norm_recursion_within_precision_budget():
    # ||q_{l+1} a|| = -a_{l+1} ||q_l a|| + ||q_{l-1} a|| as mpf residual
    for cf in [CFExpansion.preset("golden"), CFExpansion.preset("e-2")]:
        t = convergents(cf, 20)
        bits = precision_bits(t)
        with mpmath.workprec(bits):
            for l in range(0, 20):
                res = abs(
                    theta_mpf(t, l + 1)
                    - t.partial(l + 1) * theta_mpf(t, l)
                    - theta_mpf(t, l - 1)
                )
                assert res < mpmath.mpf(2) ** -(bits - 10)


def test_truncation_table_is_exact_for_presets():
    # the table equals the exact table of the truncation at depth + GUARD_DEPTH
    cf = CFExpansion.preset("golden")
    t = convergents(cf, 10)
    trunc = t.alpha_exact
    assert trunc == cf.truncation(18)
    for l in range(11):
        assert t.theta(l) == t.q(l) * trunc - t.p(l)


# -- Ostrowski ----------------------------------------------------------------


def brute_force_reps(table, K):
    """Every digit vector satisfying the digit rules, by direct search.

    Fills from the most significant digit down so the adjacency rule
    (a maxed digit forces the one below to zero) is easy to apply.
    """
    amax = [table.partial(l + 1) for l in range(K)]
    out = []

    def build(l, digits):
        if l < 0:
            out.append(tuple(digits))
            return
        top = amax[l] - 1 if l == 0 else amax[l]
        if l + 1 < K and digits[l + 1] == amax[l + 1]:
            top = 0
        for b in range(top + 1):
            digits[l] = b
            build(l - 1, digits)
        digits[l] = 0

    build(K - 1, [0] * K)
    return out


def test_ostrowski_encode_examples():
    golden = convergents(CFExpansion.from_partial_quotients(0, [1] * 6), 4)
    rep = ostrowski_encode(4, golden)
    assert rep.digits == (0, 1, 0, 1)
    t = convergents(CFExpansion.from_partial_quotients(0, [2, 3, 4]), 3)
    rep = ostrowski_encode(5, t)
    assert rep.digits == (1, 2, 0)


def test_ostrowski_greedy_matches_search_oracle():
    t = convergents(CFExpansion.from_partial_quotients(0, [2, 3, 4]), 3)
    reps = brute_force_reps(t, 3)
    byval = {}
    for digits in reps:
        v = sum(b * t.q(l) for l, b in enumerate(digits))
        assert v not in byval  # uniqueness
        byval[v] = digits
    assert sorted(byval) == list(range(t.q(3)))
    for N, digits in byval.items():
        assert ostrowski_encode(N, t).digits == digits


def test_ostrowski_rules_rejected():
    t = convergents(CFExpansion.from_partial_quotients(0, [2, 3]), 2)
    with pytest.raises(PrecondError):
        ostrowski_encode(t.q(2), t)
    from sudlerlab.cfrac import OstrowskiRep

    with pytest.raises(PrecondError):
        OstrowskiRep((2, 0), t)  # b_0 must be < a_1 = 2
    with pytest.raises(PrecondError):
        OstrowskiRep((1, 3), t)  # b_1 = a_2 forces b_0 = 0
    assert OstrowskiRep((0, 3), t).value() == 3 * t.q(1)


def test_ostrowski_roundtrip_exhaustive():
    for digits in [[2, 3, 4], [1, 1, 1, 1, 1, 1, 1, 1], [5, 1, 7, 2], [9, 9, 9, 2]]:
        cf = CFExpansion.from_partial_quotients(0, digits)
        t = convergents(cf, len(digits))
        qL = t.q(len(digits))
        assert qL <= 10**4
        for N in range(qL):
            assert ostrowski_encode(N, t).value() == N


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=10**4),
)
def test_ostrowski_digits_match_scalar_encode(digits, depth_cut, n):
    # the all-N divmod passes against per-N ostrowski_encode, the scalar oracle
    t = convergents(CFExpansion.from_partial_quotients(0, digits),
                    max(1, len(digits) - depth_cut))
    n = min(n, t.q(t.depth))
    got = ostrowski_digits(t, n)
    assert got.shape == (t.depth, n)
    for N in range(n):
        assert tuple(got[:, N].tolist()) == ostrowski_encode(N, t).digits
    with pytest.raises(PrecondError):
        ostrowski_digits(t, t.q(t.depth) + 1)


def test_ostrowski_encode_order_and_count():
    # N = 0 .. q_K - 1 meet every admissible digit vector exactly once, in the
    # order of the direct search (top digit first, ascending)
    for digits, K in [([2, 3], 2), ([2, 3, 4], 3), ([1] * 9, 9), ([3, 1, 4, 1], 4)]:
        t = convergents(CFExpansion.from_partial_quotients(0, digits), len(digits))
        reps = [ostrowski_encode(N, t) for N in range(t.q(K))]
        assert [rep.value() for rep in reps] == list(range(t.q(K)))
        assert [rep.digits for rep in reps] == brute_force_reps(t, K)


def test_ostrowski_encode_rule_example():
    t = convergents(CFExpansion.from_partial_quotients(0, [2, 3]), 2)
    reps = [ostrowski_encode(N, t) for N in range(t.q(2))]
    assert len(reps) == 7 == t.q(2)
    assert not any(r.digit(0) >= 1 and r.digit(1) == 3 for r in reps)


# -- tail and digit-drop map --------------------------------------------------


def test_cf_tail_examples():
    assert repr(cf_expand(Fraction(1, 3)).tail()) == "[0]"
    t = CFExpansion.from_partial_quotients(0, [1, 2, 3]).tail()
    assert t.partials(2) == [2, 3]
    assert CFExpansion.preset("golden").tail().partials(5) == [1] * 5
    assert CFExpansion.preset("sqrt2inv").tail().partials(4) == [2, 2, 2, 2]
    assert CFExpansion.preset("e-2").tail().partials(10) == [2, 1, 1, 4, 1, 1, 6, 1, 1, 8]


def _epsilon_primed_recurrence(rep, tail_table):
    """eps'_l by suffix sums over the tail table, whose row l-1 is level l of
    [0; a2, a3, ...]: eps'_l = q'_l sum_{m>l} (-1)^(l+m-1) b_m dist'_m."""
    acc = Fraction(0)
    eps = [Fraction(0)] * len(rep.digits)
    for ell in range(len(rep.digits) - 1, 0, -1):
        eps[ell] = (-1) ** ell * tail_table.q(ell - 1) * acc
        acc += rep.digit(ell) * tail_table.theta(ell - 1)
    return eps


def _check_tail_rows(cf, d, Ns):
    # level l of the tail 1/alpha - a_1 is row l - 1 of its own table; from
    # alpha's table it is q'_l = p_l, p'_l = q_l - a_1 p_l, theta'_l = -theta_l/alpha
    t = convergents(cf, d)
    tt = convergents(cf.tail(), d - 1)
    alpha, a1 = t.alpha_exact, t.partial(1)
    assert tt.alpha_exact == 1 / alpha - a1
    for l in range(d + 1):
        assert tt.q(l - 1) == t.p(l)
        assert tt.p(l - 1) == t.q(l) - a1 * t.p(l)
        assert tt.theta(l - 1) == -t.theta(l) / alpha
    for N in Ns:
        rep = ostrowski_encode(N % t.q(d), t)
        eps = epsilon_vector(rep)
        want = _epsilon_primed_recurrence(rep, tt)
        assert [-e * t.p(l) / (t.q(l) * alpha) for l, e in enumerate(eps)] == want


def test_tail_table_relation():
    for digits in [[1, 2, 3], [2, 3, 4, 5], [4, 1, 1, 2]]:
        cf = CFExpansion.from_partial_quotients(0, digits)
        _check_tail_rows(cf, len(digits), range(cf.value().denominator))
    for name in ["golden", "sqrt2inv", "e-2"]:
        for d in range(2, 16):
            _check_tail_rows(CFExpansion.preset(name), d, range(0, 10**6, 97_331))


@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=15),
    st.lists(st.integers(0, 10**12), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_tail_table_relation_random_finite(digits, Ns):
    cf = CFExpansion.from_partial_quotients(0, digits)
    _check_tail_rows(cf, len(digits), Ns)


def test_drop_first_digit_map_multiset():
    # with b_1 < a_2 the map onto [0, q'_L) is exactly a_1 to one
    for digits in [[2, 3, 2], [3, 2, 4], [2, 2, 2, 2]]:
        cf = CFExpansion.from_partial_quotients(0, digits)
        L = len(digits)
        t = convergents(cf, L)
        tt = convergents(cf.tail(), L - 1)
        a1, a2 = t.partial(1), t.partial(2)
        images = []
        for N in range(t.q(L)):
            rep = ostrowski_encode(N, t)
            if rep.digit(1) >= a2:
                continue
            # N = sum b_l q_l maps to sum b_l q'_l, with q'_l = p_l (p_0 = 0)
            images.append(sum(b * t.p(l) for l, b in enumerate(rep.digits)))
            assert images[-1] == sum(rep.digit(l) * tt.q(l - 1) for l in range(1, L))
        qLp = t.p(L)
        assert sorted(set(images)) == list(range(qLp))
        assert all(images.count(v) == a1 for v in range(qLp))


# -- intervals ----------------------------------------------------------------


def test_interval_Ik_examples():
    lo, hi = interval_Ik(CFExpansion.preset("golden"), 0)
    assert (lo, hi) == (Fraction(1, 2), Fraction(1, 1))
    cf = CFExpansion.from_partial_quotients(0, [2, 3, 4])
    t = convergents(cf, 3)
    for k in range(0, 3):
        lo, hi = interval_Ik(cf, k)
        width = hi - lo
        assert width == Fraction(1, t.q(k + 1) * (t.q(k + 1) + t.q(k)))


def test_interval_nesting():
    # closed nesting; an endpoint is shared whenever the next quotient is 1
    cf = CFExpansion.preset("e-2")
    for k in range(1, 8):
        lo0, hi0 = interval_Ik(cf, k - 1)
        lo1, hi1 = interval_Ik(cf, k)
        assert lo0 <= lo1 and hi1 <= hi0
        assert hi1 - lo1 < hi0 - lo0


def test_interval_members_share_prefix():
    cf = CFExpansion.from_partial_quotients(0, [2, 3, 4])
    k = 1
    lo, hi = interval_Ik(cf, k)
    inner = [r for r in rationals_in_interval(lo, hi, 400) if r not in (lo, hi)]
    assert inner
    for r in inner[:50]:
        got = cf_expand(r)
        assert got.partials(k + 1) == cf.partials(k + 1)


def test_rationals_in_interval_matches_brute_force():
    lo, hi = Fraction(1, 3), Fraction(5, 8)
    qmax = 40
    want = sorted(
        Fraction(p, q)
        for q in range(1, qmax + 1)
        for p in range(0, q + 1)
        if math.gcd(p, q) == 1 and lo <= Fraction(p, q) <= hi
    )
    got = list(rationals_in_interval(lo, hi, qmax))
    assert got == want
    # closed interval: both endpoints fit under qmax, so both appear
    assert got[0] == lo and got[-1] == hi


def test_rationals_in_interval_endpoints_and_bounds():
    got = list(rationals_in_interval(Fraction(0), Fraction(1), 3))
    assert got == [
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(1),
    ]
    with pytest.raises(PrecondError):
        list(rationals_in_interval(Fraction(1, 2), Fraction(1, 3), 10))
