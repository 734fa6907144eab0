"""Sudler products, product form, cotangent sums: identities vs oracles."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sudlerlab.cfrac import (
    CFExpansion,
    cf_expand,
    convergents,
    ostrowski_encode,
)
from sudlerlab import trig
from sudlerlab.errors import (
    EnumerationCapError,
    PoleError,
    PrecondError,
    ZeroFactorError,
)
from sudlerlab.trig import (
    cotangent_V,
    cotangent_sum,
    epsilon_vector,
    explicit_formula_eval,
    log_f,
    product_form_eval,
    product_form_logs,
    ql_diff_check,
    shifted_sudler,
    sudler_prefix_logmags,
)


# -- log-sum-exp --------------------------------------------------------------


def _sorted_fsum_rows(m):
    """The log-sum-exp that _logsumexp_rows replaced, kept as its oracle.

    Each row is sorted in descending order, shifted by its maximum and summed
    with math.fsum; a row with no finite entry gives -inf.
    """
    out = []
    for row in np.asarray(m, dtype=np.float64):
        row = np.sort(row)[::-1]
        if row.size == 0 or row[0] == -math.inf:
            out.append(-math.inf)
            continue
        top = row[0]
        out.append(float(top) + math.log(math.fsum(np.exp(row - top).tolist())))
    return out


@st.composite
def _logsumexp_blocks(draw):
    """2-d blocks of raw log magnitudes: ragged magnitudes within and across
    rows, -inf entries and all -inf rows, repeated values, arguments far
    below -745, single-term rows and rows of up to 2^18 terms."""
    cols = draw(st.integers(1, 40) | st.sampled_from([64, 1000, 5330, 1 << 15, 1 << 18]))
    rows = draw(st.integers(1, max(1, min(6, (1 << 19) // cols))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** rng.uniform(-3.0, draw(st.sampled_from([0.0, 2.0, 4.0])), (rows, cols))
    m = rng.normal(0.0, 1.0, (rows, cols)) * spread + rng.uniform(-1e3, 1e3, (rows, 1))
    if draw(st.booleans()):
        m = np.round(m, 1)  # many equal terms, and sums that land on ties
    m[rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.2, 0.95]))] = -math.inf
    m[rng.random(rows) < 0.2] = -math.inf
    return m


@given(_logsumexp_blocks())
@settings(max_examples=60, deadline=None)
def test_logsumexp_rows_bitwise_equals_sorted_fsum(m):
    got = trig._logsumexp_rows(m)
    assert got == _sorted_fsum_rows(m)
    assert got == [trig._logsumexp(row) for row in m]


def _exact_logs(target, stop=0.0):
    """Logs y_j whose np.exp values sum exactly to target - rest, and rest.

    Each step takes the largest np.exp value not above what is left, so the
    rest shrinks by a factor near 2^-45 a step, until it drops below stop or
    np.exp hits it exactly in the subnormal range.
    """
    logs, rest = [], target
    while rest > stop:
        y = math.log(rest)
        while np.exp(y) > rest:
            y = math.nextafter(y, -math.inf)
        logs.append(y)
        rest -= float(np.exp(y))  # exact: np.exp(y) lies in [rest/2, rest]
        assert len(logs) < 100
    return logs, rest


def test_logsumexp_rows_near_ties_fall_back_to_fsum(monkeypatch):
    """Rows whose exact sum S of terms sits on or next to a rounding midpoint.

    The top term is 1; the others come from _exact_logs, so S is known
    exactly.  Every row must take the fsum fallback and give fsum's double.
    """
    ties, _ = _exact_logs(2.0**-53)
    big, rest = _exact_logs(3 * 2.0**-53, stop=2.0**-110)
    assert rest > 0.0
    small, _ = _exact_logs(math.nextafter(rest, 0.0))
    below_two, _ = _exact_logs(1.0 - 2.0**-53)
    rows = {
        # S = 1 + 2^-53, a midpoint: ties to even, 1
        "tie": ([0.0] + ties, 1.0),
        # the same plus 2^-200: rounds up
        "tie_plus": ([0.0] + ties + [math.log(2.0**-200)], 1.0 + 2.0**-52),
        # S = 1 + 3 2^-53 - ulp(rest): the terms below 2^-110 of the top decide
        # against the tie, which would round up to the even 1 + 2^-51
        "deep": ([0.0] + big + small, 1.0 + 2.0**-52),
        # S = 2 - 2^-53, the midpoint below 2 where the ulp doubles: ties to 2
        "below_two": ([0.0] + below_two, 2.0),
    }
    width = max(len(r) for r, _ in rows.values())
    m = np.full((len(rows), width), -math.inf)
    for i, (r, _) in enumerate(rows.values()):
        m[i, : len(r)] = r
    want = _sorted_fsum_rows(m)
    assert want == [math.log(s) for _, s in rows.values()]

    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda terms: calls.append(1) or fsum(terms))
    assert trig._logsumexp_rows(m) == want
    assert len(calls) == len(rows)
    for i, (r, _) in enumerate(rows.values()):
        calls.clear()
        assert trig._logsumexp(r) == want[i]
        assert len(calls) == 1


def test_logsumexp_rows_fallback_is_rare_off_ties(monkeypatch):
    """Rows far from a tie never fall back: short and 2^18-term random rows,
    and a sum that rounds down to 1, a power of two, from 1 + 0.75 2^-53."""
    rng = np.random.default_rng(5)
    blocks = [
        rng.normal(0.0, 3.0, (200, 1000)),
        rng.normal(0.0, 3.0, (2, 1 << 18)),
        np.array([[0.0, math.log(1.5 * 2.0**-54)]]),
    ]
    wants = [_sorted_fsum_rows(m) for m in blocks]
    assert wants[2] == [0.0]
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda terms: calls.append(1) or fsum(terms))
    assert [trig._logsumexp_rows(m) for m in blocks] == wants
    assert calls == []


def test_logsumexp_rows_residuals_decide_rounding():
    """A 64-term row whose high parts sit 2^-93 below the midpoint 1 + 2^-53
    and whose residuals below 2^-94 carry it 2^-95 above it: rounds up.

    At 64 terms the second split takes multiples of 2^-93, so the term near
    2^-53 - 2^-93 is a high part and the five terms near 2^-95 are residuals.
    """
    row = [0.0, math.log(2.0**-53 - 2.0**-93)] + [math.log(2.0**-95)] * 5
    m = np.array([row + [-math.inf] * (64 - len(row))])
    want = _sorted_fsum_rows(m)
    assert want == [math.log(1.0 + 2.0**-52)]
    assert trig._logsumexp_rows(m) == want


@pytest.mark.filterwarnings("error")
def test_logsumexp_all_minus_inf_is_minus_inf():
    assert trig._logsumexp([-math.inf]) == -math.inf
    assert trig._logsumexp([-math.inf] * 5) == -math.inf
    m = np.array([[-math.inf, -math.inf], [0.0, 0.0], [-math.inf, -math.inf], [-math.inf, 1.5]])
    assert trig._logsumexp_rows(m) == [-math.inf, math.log(2.0), -math.inf, 1.5]


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_logsumexp_permutation_invariant(mags):
    s1 = trig._logsumexp(mags)
    rng = random.Random(17)
    terms = list(mags)
    for _ in range(3):
        rng.shuffle(terms)
        assert trig._logsumexp(terms) == s1  # bitwise, because the sum is correctly rounded
    want = math.log(math.fsum(math.exp(m) for m in sorted(mags)))
    assert s1 == pytest.approx(want, rel=1e-12)


def test_logsumexp_empty_and_zero():
    assert trig._logsumexp([]) == -math.inf
    # a -inf term is the log of a zero summand
    assert trig._logsumexp([0.0, -math.inf]) == 0.0
    assert trig._logsumexp([-math.inf, 1.5, -math.inf]) == 1.5


# -- log_f --------------------------------------------------------------------


def test_log_f_special_values():
    assert log_f(Fraction(1, 2)) == math.log(2)
    assert log_f(Fraction(5, 6)) == 0.0
    assert log_f(Fraction(1, 6)) == 0.0
    assert log_f(0) == -math.inf
    assert log_f(7) == -math.inf
    assert log_f(Fraction(3, 3)) == -math.inf


def test_log_f_symmetry_and_float_guard():
    assert log_f(Fraction(1, 5)) == log_f(Fraction(4, 5))
    assert log_f(Fraction(1, 5)) == log_f(Fraction(6, 5))
    assert log_f(0.3) == pytest.approx(
        math.log(2 * math.sin(math.pi * 0.3)), rel=1e-15
    )


# -- prefix products ----------------------------------------------------------


def test_sudler_prefix_examples():
    logs = sudler_prefix_logmags(Fraction(1, 2), 1)
    assert logs[0] == 0.0
    assert math.exp(logs[1]) == pytest.approx(2.0, rel=1e-15)
    logs = sudler_prefix_logmags(Fraction(1, 3), 2)
    assert np.exp(logs) == pytest.approx([1.0, math.sqrt(3), 3.0], rel=1e-14)
    with pytest.raises(PrecondError):
        sudler_prefix_logmags(Fraction(1, 3), 3)


def test_sudler_prefix_cap():
    # N_max + 1 = ENUM_CAP + 1 entries: refused before any array is made
    q = trig.ENUM_CAP + 1
    with pytest.raises(EnumerationCapError):
        sudler_prefix_logmags(Fraction(1, q), q - 1)


def _cap_peak_bytes(fn):
    """Peak traced allocation of fn(), which must raise EnumerationCapError."""
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [
    lambda: shifted_sudler(Fraction(1, 3), Fraction(1, 7), trig.ENUM_CAP + 1),
    lambda: cotangent_sum(Fraction(1, 3), Fraction(1, 7), trig.ENUM_CAP + 1),
], ids=["shifted_sudler", "cotangent_sum"])
def test_residue_walks_refuse_past_cap(call):
    # refused before the residues are made: ENUM_CAP int64 residues take 16 MiB
    assert _cap_peak_bytes(call) < 1 << 20


def test_sudler_prefix_matches_bruteforce():
    r = Fraction(5, 13)
    logs = sudler_prefix_logmags(r, 12)
    acc = 0.0
    for n in range(1, 13):
        acc += math.log(abs(2 * math.sin(math.pi * n * 5 / 13)))
        assert logs[n] == pytest.approx(acc, abs=1e-12)


# -- shifted products and the multiplication law ------------------------------


def test_shifted_sudler_basics():
    assert shifted_sudler(Fraction(2, 7), Fraction(1, 3), 0) == 0.0
    r = Fraction(3, 11)
    direct = sudler_prefix_logmags(r, 10)
    for N in (1, 4, 10):
        assert shifted_sudler(r, 0, N) == pytest.approx(direct[N], abs=1e-12)


def test_shifted_sudler_zero_factor_reported():
    with pytest.raises(ZeroFactorError) as exc:
        shifted_sudler(Fraction(1, 4), Fraction(1, 4), 3)
    assert exc.value.n == 3


def test_shifted_sudler_float_path_agrees():
    r = Fraction(89, 233)
    x = Fraction(1, 97)
    a = shifted_sudler(r, x, 150)
    # floats are read at their exact binary values
    b = shifted_sudler(float(r), float(x), 150)
    assert b == pytest.approx(a, abs=1e-8)


def test_kubert_example():
    # |2 sin(pi/15)| * P_4(2/5, 1/15) = |2 sin(pi/3)|
    x = Fraction(1, 3)
    lhs = log_f(x / 5) + shifted_sudler(Fraction(2, 5), x / 5, 4)
    assert lhs == pytest.approx(log_f(x), abs=1e-12)
    # at q = 1 the product is empty and the law reads f(x) = f(x)
    assert log_f(x) + shifted_sudler(Fraction(3, 1), x, 0) == log_f(Fraction(1, 3))


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
    lhs = log_f(x / q) + shifted_sudler(Fraction(p, q), x / q, q - 1)
    rhs = log_f(x)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


# -- epsilon corrections ------------------------------------------------------


def test_epsilon_zero_digits():
    t = convergents(CFExpansion.from_partial_quotients(0, [2, 3, 4]), 3)
    rep = ostrowski_encode(0, t)
    assert all(e == 0 for e in epsilon_vector(rep))


def test_epsilon_single_digit_formula():
    t = convergents(CFExpansion.from_partial_quotients(0, [2, 3, 4, 2]), 4)
    from sudlerlab.cfrac import OstrowskiRep

    m, b_m = 2, 3
    digits = [0] * 4
    digits[m] = b_m
    rep = OstrowskiRep(tuple(digits), t)
    ev = epsilon_vector(rep)
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
        for rep in (ostrowski_encode(N, t) for N in range(t.q(K))):
            ev = epsilon_vector(rep)
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
    tt = convergents(cf.tail(), 2)
    rep = ostrowski_encode(t.q(3) - 1, t)
    # eps' read from alpha's own table: eps'_l = -eps_l p_l/(q_l alpha)
    ev = [-e * t.p(l) / (t.q(l) * t.alpha_exact) for l, e in enumerate(epsilon_vector(rep))]
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
    assert product_form_eval(rep) == 0.0


def test_product_form_matches_direct_rationals():
    for r in [Fraction(3, 8), Fraction(89, 233), Fraction(57, 200), Fraction(113, 355)]:
        cf = cf_expand(r)
        t = convergents(cf, cf.L)
        direct = sudler_prefix_logmags(r, r.denominator - 1)
        for N in range(r.denominator):
            got = product_form_eval(ostrowski_encode(N, t))
            assert abs(got - direct[N]) <= 1e-9 * (1 + abs(direct[N]))


def test_product_form_golden_prefix():
    # irrational spec: compare against the direct product on the exact
    # truncation the table itself uses
    t = convergents(CFExpansion.preset("golden"), 10)
    direct = sudler_prefix_logmags(t.alpha_exact, 55)
    for N in range(51):
        got = product_form_eval(ostrowski_encode(N, t))
        assert abs(got - direct[N]) <= 1e-9 * (1 + abs(direct[N]))


def test_product_form_logs_batched_matches_direct():
    for r in [Fraction(3, 8), Fraction(113, 355), Fraction(57, 200)]:
        cf = cf_expand(r)
        t = convergents(cf, cf.L)
        direct = sudler_prefix_logmags(r, r.denominator - 1)
        batched = product_form_logs(t, cf.L)
        assert np.max(np.abs(batched - direct)) <= 1e-9


def test_product_form_logs_float_fallback():
    # deep e-2 table: the reference denominator is far past 2^31, and the
    # walk's residues are still exact
    t = convergents(CFExpansion.preset("e-2"), 30)
    assert t.alpha_exact.denominator >= 1 << 31
    q8 = t.q(8)
    direct = sudler_prefix_logmags(t.alpha_exact, q8 - 1)
    batched = product_form_logs(t, 8)
    assert np.max(np.abs(batched - direct[:q8])) <= 1e-9


def test_product_form_logs_cap():
    # q_31 = F_32 = 2178309 is the first golden denominator past 2^21
    t = convergents(CFExpansion.preset("golden"), 31)
    assert t.q(30) <= trig.ENUM_CAP < t.q(31)
    with pytest.raises(EnumerationCapError):
        product_form_logs(t, 31)


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
        want = product_form_eval(ostrowski_encode(N, t))
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
        want = product_form_eval(ostrowski_encode(N, t))
        assert abs(batch[N] - want) <= 1e-9 * (1 + abs(want))


def test_product_form_logs_deep_tables():
    # depth-30 tables: Q has 60 (e-2) and 48 (sqrt2inv) bits, so q_K P leaves
    # int64 on e-2 and the walk runs on Python-int residues there
    for name in ("e-2", "sqrt2inv"):
        t = convergents(CFExpansion.preset(name), 30)
        assert t.alpha_exact.denominator >= 1 << 47
        for K in range(8, 13):
            qK = t.q(K)
            batch = product_form_logs(t, K)
            assert _pf_rel_err(batch, sudler_prefix_logmags(t.alpha_exact, qK - 1)) <= 1e-9
            rng = random.Random(qK)
            for N in [qK - 1, t.q(K - 1) - 1] + rng.sample(range(qK), 2):
                want = product_form_eval(ostrowski_encode(N, t))
                assert abs(batch[N] - want) <= 1e-9 * (1 + abs(want))


def test_exact_zero_residue_carries_first_n():
    # x = -n0 alpha makes factor n0 vanish, and again at n0 + den(alpha);
    # the deep e-2 truncation takes the Python-int residue path
    deep = convergents(CFExpansion.preset("e-2"), 30).alpha_exact
    for alpha, n0, N in [(Fraction(89, 233), 7, 500), (deep, 37, 60)]:
        x = -n0 * alpha
        with pytest.raises(ZeroFactorError) as exc:
            shifted_sudler(alpha, x, N)
        assert exc.value.n == n0
        with pytest.raises(PoleError) as exc:
            cotangent_sum(alpha, x, N)
        assert exc.value.n == n0
        with pytest.raises(ZeroFactorError) as exc:
            trig._prefix_logs(alpha, x, N)
        assert exc.value.n == n0
        # one factor short of the zero, both sums are finite
        assert math.isfinite(shifted_sudler(alpha, x, n0 - 1))
        assert math.isfinite(cotangent_sum(alpha, x, n0 - 1))
    # a shifted Jones sum stops at the same first zero
    with pytest.raises(ZeroFactorError) as exc:
        trig._logsumexp(2.0 * trig._prefix_logs(Fraction(89, 233), Fraction(-5 * 89, 233), 232))
    assert exc.value.n == 5
    for walk in (shifted_sudler, cotangent_sum, trig._prefix_logs):
        with pytest.raises(PrecondError):
            walk(Fraction(89, 233), 0, -1)


# -- exact residues ------------------------------------------------------------


_MODULI = st.one_of(
    st.integers(1, (1 << 62) - 1),
    st.integers(1 << 62, 1 << 66),
    st.sampled_from([(1 << 62) - 1, 1 << 62, (1 << 62) + 1]),
)


@given(_MODULI, st.integers(1, 40), st.data())
@settings(max_examples=300, deadline=None)
def test_residues_match_python_ints(Q, m, data):
    # P near 2^63 / m puts m P on either side of 2^63
    P = data.draw(st.one_of(st.integers(-(1 << 66), 1 << 66),
                            st.integers((1 << 63) // m - 4, (1 << 63) // m + 4)))
    off = data.draw(st.integers(-(1 << 64), 1 << 64))
    res = trig._residues(P, Q, m, off)
    want = [(n * P + off) % Q for n in range(1, m + 1)]
    assert [int(r) for r in res] == want
    small = Q < 1 << 62 and m * (P % Q) + off % Q < 1 << 63
    assert res.dtype == (np.int64 if small else object)
    # the sum of two residues stays exact in the returned dtype
    assert [int(r) for r in (res + res[::-1]) % Q] == [
        (a + b) % Q for a, b in zip(want, reversed(want))
    ]


def loop_shifted_sudler(alpha: Fraction, x: Fraction, N: int) -> float:
    """Per-factor Fraction loop: the oracle for the exact shifted_sudler path."""
    logs = []
    for n in range(1, N + 1):
        t = (n * alpha + x) % 1
        if t == 0:
            raise ZeroFactorError(f"factor n={n} vanishes exactly", n=n)
        logs.append(math.log(2.0 * math.sin(math.pi * float(min(t, 1 - t)))))
    return math.fsum(logs)


def loop_cotangent_sum(alpha: Fraction, x: Fraction, N: int) -> float:
    """Per-factor Fraction loop: the oracle for the exact cotangent_sum path."""
    terms = []
    for n in range(1, N + 1):
        t = (n * alpha + x) % 1
        if t == 0:
            raise PoleError(f"cot pole at n={n}", n=n)
        terms.append(1.0 / math.tan(math.pi * float(t)))
    return math.fsum(terms)


def _outcome(fn, *args):
    """('value', v) or ('zero', n) for a call that may hit a vanishing factor."""
    try:
        return "value", fn(*args)
    except (ZeroFactorError, PoleError) as exc:
        return "zero", exc.n


@given(
    st.integers(-(1 << 70), 1 << 70),
    st.one_of(st.integers(2, 2000), st.integers(1 << 62, 1 << 70)),
    st.integers(-3000, 3000),
    st.integers(1, 3000),
    st.integers(0, 300),
    st.integers(0, 8),
)
@settings(max_examples=300, deadline=None)
# modulus 9.6e15 > 2^53: an int64 residue over it, both made doubles, rounds twice
@example(70593138271510593536, 19636086911250399232, 1, 32, 47, 0)
def test_exact_paths_match_fraction_loops(a, b, c, d, N, hit):
    alpha, x = Fraction(a, b), Fraction(c, d)
    if hit:  # aim x at a vanishing factor n = hit (and its period copies)
        x = -hit * alpha
    for fast, slow in [
        (shifted_sudler, loop_shifted_sudler),
        (cotangent_sum, loop_cotangent_sum),
    ]:
        kind, got = _outcome(fast, alpha, x, N)
        want_kind, want = _outcome(slow, alpha, x, N)
        assert kind == want_kind
        if kind == "zero":
            assert got == want
        else:
            assert abs(got - want) <= 1e-13 * (1 + abs(want))


@given(_coprime_fractions(), st.integers(-3000, 3000), st.integers(1, 3000), st.data())
@settings(max_examples=200, deadline=None)
def test_prefix_logs_is_the_walk_behind_both_products(r, c, d, data):
    N = data.draw(st.integers(0, r.denominator - 1))
    # unshifted, the walk is sudler_prefix_logmags bit for bit
    assert trig._prefix_logs(r, 0, N).tobytes() == sudler_prefix_logmags(r, N).tobytes()
    # shifted, its last entry is the shifted product, or both stop at one zero
    x = Fraction(c, d)
    kind, got = _outcome(lambda: trig._prefix_logs(r, x, N)[-1])
    want_kind, want = _outcome(shifted_sudler, r, x, N)
    assert kind == want_kind
    if kind == "zero":
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


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
    assert got == pytest.approx(log_f(t.dist(0) + x), abs=1e-12)


def test_explicit_formula_matches_shifted_product():
    rng = random.Random(7)
    for _ in range(2000):
        q = rng.randrange(5, 401)
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
        except ZeroFactorError:
            continue
        assert abs(got - want) <= 1e-13 * (1 + abs(want))


def _explicit_and_direct(ell, x, t):
    """explicit_formula_eval and shifted_sudler at one shift; None where one raises ZeroFactorError."""
    out = []
    for fn, args in ((explicit_formula_eval, (ell, x, t)),
                     (shifted_sudler, (t.alpha_exact, (-1) ** ell * x / t.q(ell), t.q(ell)))):
        try:
            out.append(fn(*args))
        except ZeroFactorError:
            out.append(None)
    return out


def test_explicit_formula_exhaustive_small_denominators():
    # every reduced p/q with q <= 30, l = 1..L-1, x = k/12 with 0 < |k| <= 11
    cases = 0
    for q in range(2, 31):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            cf = cf_expand(Fraction(p, q))
            t = convergents(cf, cf.L)
            for ell in range(1, cf.L):
                for k in (*range(-11, 0), *range(1, 12)):
                    got, want = _explicit_and_direct(ell, Fraction(k, 12), t)
                    cases += 1
                    # both raise ZeroFactorError, or neither does and they agree
                    assert (got is None) == (want is None), (p, q, ell, k, got, want)
                    if want is not None:
                        assert abs(got - want) <= 1e-13 * (1 + abs(want)), (p, q, ell, k)
    assert cases == 11792


@pytest.mark.parametrize("x", [Fraction(9, 10) - Fraction(1, 10**15), Fraction(4, 5)])
def test_explicit_formula_near_and_at_integer_z(x):
    # at 9/40, l = 1, x = 4/5 makes z an integer; 10^-15 below 9/10 no factor vanishes
    cf = cf_expand(Fraction(9, 40))
    got, want = _explicit_and_direct(1, x, convergents(cf, cf.L))
    assert want is not None
    assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


def _mp_shifted_sudler(alpha: Fraction, x: Fraction, N: int) -> float:
    """log P_N(alpha, x) at 40 digits, exact rational residues into mpmath."""
    with mpmath.workdps(40):
        terms = []
        for n in range(1, N + 1):
            t = (n * alpha + x) % 1
            terms.append(mpmath.log(abs(2 * mpmath.sinpi(mpmath.mpf(t.numerator) / t.denominator))))
        return float(mpmath.fsum(terms))


def test_explicit_formula_matches_mpmath():
    # both explicit_formula_eval and shifted_sudler read _logf_residues, so the
    # oracle shares no code with them
    rng = random.Random(31)
    worst = 0.0
    done = 0
    while done < 300:
        q = rng.randrange(3, 400)
        p = rng.randrange(1, q)
        if math.gcd(p, q) != 1:
            continue
        cf = cf_expand(Fraction(p, q))
        if cf.L < 2:
            continue
        t = convergents(cf, cf.L)
        ell = rng.randrange(1, cf.L)
        x = Fraction(rng.randrange(-119, 120), 120)
        try:
            got = explicit_formula_eval(ell, x, t)
        except ZeroFactorError:
            continue
        want = _mp_shifted_sudler(t.alpha_exact, (-1) ** ell * x / t.q(ell), t.q(ell))
        worst = max(worst, abs(got - want) / (1 + abs(want)))
        done += 1
    assert worst <= 1e-14


def test_explicit_formula_z_zero_convention():
    t = convergents(cf_expand(Fraction(57, 200)), 4)
    ell = 2
    x = -t.q(ell) * t.dist(ell) / 2  # forces z = 0
    got = explicit_formula_eval(ell, x, t)
    want = shifted_sudler(Fraction(57, 200), (-1) ** ell * x / t.q(ell), t.q(ell))
    assert got == pytest.approx(want, abs=1e-10)


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
        tt = convergents(cf.tail(), L - 1)
        for m in range(1, L):
            if m == 1 and cf.partial(2) == 1:
                continue
            for ell in range(1, m + 1):
                lhs, bound = ql_diff_check(ell, m, t)
                assert lhs <= bound
                # the tail's own table: level l is its row l - 1
                assert lhs == abs(t.q(ell) * t.dist(m) - tt.q(ell - 1) * tt.dist(m - 1))
                assert bound == Fraction(2, t.q(ell + 1) * tt.q(m))
        checked += 1


def test_ql_diff_diagonal_identity():
    # at ell = m the difference is exactly 1/((r q_l + q_{l-1})(r q'_l + q'_{l-1}))
    cf = cf_expand(Fraction(57, 200))
    L = cf.L
    t = convergents(cf, L)
    tt = convergents(cf.tail(), L - 1)
    for m in range(2, L):
        lhs, _ = ql_diff_check(m, m, t)
        rest = CFExpansion.from_partial_quotients(cf.partial(m + 1), list(cf.partials(L))[m + 1 :])
        r = rest.value()
        want = 1 / ((r * t.q(m) + t.q(m - 1)) * (r * tt.q(m - 1) + tt.q(m - 2)))
        assert lhs == want


def test_ql_diff_hypothesis_rejected():
    cf = CFExpansion.from_partial_quotients(0, [1, 1, 1, 1, 1, 1])
    t = convergents(cf, 6)
    with pytest.raises(PrecondError):
        ql_diff_check(1, 1, t)
    with pytest.raises(PrecondError):
        ql_diff_check(2, 1, t)


@pytest.mark.parametrize("call", [
    lambda cf, t: ql_diff_check(1, 2, t),
], ids=["ql_diff_check"])
def test_first_quotient_drop_requires_a0_zero(call):
    # the q'_l = p_l identities hold only when a0 = 0
    cf = CFExpansion(1, [2, 3, 4])
    with pytest.raises(PrecondError):
        call(cf, convergents(cf, 3))
