"""Checks of the verification harness on constructed instances.

Each inequality check is exercised at instances whose outcome is known in
advance: neutral digits give exact zeros, saturated digits route to the
surgery case, dominant quotients give empty concentration tails, and the
hypothesis gates and enumeration caps raise their distinct errors.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from sudlerlab import frozen, verify
from sudlerlab.cfrac import (
    CFExpansion,
    OstrowskiRep,
    cf_expand,
    convergents,
    interval_Ik,
    ostrowski_encode,
    rationals_in_interval,
)
from sudlerlab.dist import farey_enumerate
from sudlerlab.errors import EnumerationCapError, PrecondError
from sudlerlab.jones import h_eval, vol_41
from sudlerlab.trig import ENUM_CAP, epsilon_vector, shifted_sudler


def _make(digits):
    cf = CFExpansion.from_partial_quotients(0, digits)
    return cf, convergents(cf, cf.L)


def _instance(table, overrides):
    rng = np.random.default_rng(7)
    digits = verify._random_digits(table, rng, overrides=overrides)
    return OstrowskiRep(digits, table).value()


# -- digit-surgery lower bounds -----------------------------------------------------


def test_local56_i_passes_across_deviation_sweep():
    cf, table = _make([1, 1, 200, 1, 2])
    for b in (0, 40, 100, 166, 199):
        N = _instance(table, {2: b, 3: 0})
        check_id, lhs, main, err = verify._local56_parts(table, N, 2)
        assert check_id == "local56_i" and err > 0
        assert lhs - (main - frozen.LOCAL56_C * err) >= 0
        assert max(0.0, (main - lhs) / err) <= frozen.LOCAL56_C


def test_local56_neutral_digit_gives_exact_zeros():
    # at b_k = b* the surgery is the identity: both sides vanish
    cf, table = _make([1, 1, 200, 1, 2])
    N = _instance(table, {2: 166, 3: 0})
    check_id, lhs, main, err = verify._local56_parts(table, N, 2)
    assert check_id == "local56_i"
    assert lhs == 0.0 and main == 0.0 and err > 0


def test_local56_case_ii_exactly_when_next_digit_saturated():
    # the suite's constructed instances at k = 2, over every N < q_L
    k = 2
    for a_big in (200, 300):
        cf, table = _make([1, 1, a_big, 1, 2])
        a_k2 = table.partial(k + 2)
        seen = set()
        for N in range(table.q(cf.L)):
            check_id = verify._local56_parts(table, N, k)[0]
            saturated = ostrowski_encode(N, table).digit(k + 1) == a_k2
            assert check_id == ("local56_ii" if saturated else "local56_i")
            seen.add(check_id)
        assert seen == {"local56_i", "local56_ii"}


def test_local56_ii_surgery_digits():
    cf, table = _make([1, 1, 200, 1, 2])
    k, a_k2 = 2, table.partial(4)
    N = _instance(table, {k + 1: a_k2, k + 2: 0})
    rep = ostrowski_encode(N, table)
    assert rep.digit(k) == 0 and rep.digit(k + 1) == a_k2
    bstar = (5 * table.partial(k + 1)) // 6
    Nstar = N + bstar * table.q(k) - table.q(k + 1)
    srep = ostrowski_encode(Nstar, table)
    assert srep.digit(k) == bstar and srep.digit(k + 1) == a_k2 - 1
    check_id, lhs, main, err = verify._local56_parts(table, N, k)
    assert check_id == "local56_ii"
    assert lhs - (main - frozen.LOCAL56_C * err) >= 0


def test_local56_margin_monotone_in_constant():
    # margin = lhs - main + C err grows with C exactly when err > 0
    cf, table = _make([1, 1, 200, 1, 2])
    N = _instance(table, {2: 30, 3: 0})
    _, _, _, err = verify._local56_parts(table, N, 2)
    assert err > 0


def test_local56_requires_minimum_quotient():
    cf, table = _make([1, 1, 3, 1, 2])
    with pytest.raises(PrecondError):
        verify._local56_parts(table, 0, 2)


# -- squared-mass concentration -----------------------------------------------------


def _tail_ratios(table, K, k):
    parts = verify._concentration_parts(table, K, k, frozen.CONCENTRATION_A)
    return tuple(math.exp(log_tail - log_total) for _, log_tail, log_total in parts)


def test_concentration_empty_tail_is_exact_zero():
    # a_(k+1) = 300: the tail threshold 10 sqrt(a log a) > 250 covers every digit
    cf, table = _make([1, 300, 1, 2])
    assert _tail_ratios(table, cf.L, 1) == (0.0, 0.0)


def test_concentration_nonempty_tail_still_negligible():
    cf, table = _make([1, 2000, 2])
    r_all, r_head = _tail_ratios(table, cf.L, 1)
    # with a_1 = 1 the head digit is forced to zero, both sums agree
    assert r_all == r_head and 0 < r_all < 1e-150
    rows = [c for c in verify.concentration_cases() if c.case_id.startswith("a2000_tail_")]
    assert len(rows) == 2 and all(c.passed for c in rows)
    assert min(c.margin for c in rows) > 0


def test_concentration_hypothesis_gate():
    cf, table = _make([1, 2, 3])
    assert verify.concentration_hypothesis_ratio(table, 1) > frozen.CONCENTRATION_A
    with pytest.raises(PrecondError):
        verify._concentration_parts(table, cf.L, 1, frozen.CONCENTRATION_A)


def test_concentration_enumeration_cap():
    cf, table = _make([1, 10**7, 2])
    with pytest.raises(EnumerationCapError):
        verify._concentration_parts(table, cf.L, 1, frozen.CONCENTRATION_A)


# -- two-block Sudler factorization -------------------------------------------------


def test_sudler_factor_zero_head_is_exact():
    cf, table = _make([2, 1, 300, 2, 3])
    N = _instance(table, {0: 0, 1: 0, 2: 250, 3: 1})
    err, unit = verify._sudler_factor_parts(table, N, 2)
    assert err == 0.0 and unit > 0


def test_sudler_factor_report_within_envelope():
    cf, table = _make([2, 1, 300, 2, 3])
    N = _instance(table, {0: 1, 1: 1, 2: 250, 3: 1})
    err, unit = verify._sudler_factor_parts(table, N, 2)
    assert frozen.SUDLER_FACTOR_C * unit - abs(err) >= 0
    assert 0 < abs(err) / unit <= frozen.SUDLER_FACTOR_C


def test_sudler_factor_hypothesis_gates():
    cf, table = _make([2, 1, 100, 2, 3])
    with pytest.raises(PrecondError):
        verify._sudler_factor_parts(table, _instance(table, {2: 80, 3: 1}), 2)
    cf, table = _make([2, 1, 300, 2, 3])
    with pytest.raises(PrecondError):
        # deviation 150 from b* = 250 exceeds a_(k+1)/10
        verify._sudler_factor_parts(table, _instance(table, {2: 100, 3: 1}), 2)


# -- Jones-sum factorization --------------------------------------------------------


def test_kashaev_error_shrinks_with_dominant_quotient():
    err_small, xi_small = verify._kashaev_parts(
        CFExpansion.from_partial_quotients(0, [2, 400, 2, 3]), 1, 4, math.inf
    )
    err_big, xi_big = verify._kashaev_parts(
        CFExpansion.from_partial_quotients(0, [2, 1600, 2, 3]), 1, 4, math.inf
    )
    assert err_big < err_small and xi_big < xi_small


def test_kashaev_report_within_envelope():
    cf = CFExpansion.from_partial_quotients(0, [2, 400, 2, 3])
    err, xi = verify._kashaev_parts(cf, 1, 4, frozen.KASHAEV_FACTOR_A)
    assert frozen.KASHAEV_FACTOR_C * xi - err >= 0
    assert err / xi <= frozen.KASHAEV_FACTOR_C


def test_kashaev_requires_finite_expansion():
    with pytest.raises(PrecondError):
        verify._kashaev_parts(CFExpansion.preset("golden"), 1, 4, frozen.KASHAEV_FACTOR_A)


def test_kashaev_hypothesis_gate():
    cf = CFExpansion.from_partial_quotients(0, [2, 400, 2, 3])
    with pytest.raises(PrecondError):
        verify._kashaev_parts(cf, 1, 4, 1e-6)


def test_kashaev_enumeration_cap():
    # q_4 = 5613 is within the cap but the prefix logs run to q_5 - 1 > 2^21
    cf, table = _make([2, 400, 2, 3, 374])
    assert table.q(4) <= ENUM_CAP < table.q(5)
    with pytest.raises(EnumerationCapError):
        verify._kashaev_parts(cf, 1, 4, frozen.KASHAEV_FACTOR_A)


# -- renormalized tail blocks -------------------------------------------------------


def test_tail_empty_block_is_exact_zero():
    cf, table = _make([3, 2, 4, 3, 2])
    N = _instance(table, {2: 0})
    rep = ostrowski_encode(N, table)
    lhs, unit = verify._tail_parts(table, rep, 2)
    assert lhs == 0.0 and unit > 0


def test_tail_level_one_with_unit_quotient_degenerates():
    cf, table = _make([3, 1, 2, 2])
    rep = ostrowski_encode(_instance(table, {1: 1}), table)
    with pytest.raises(PrecondError):
        verify._tail_parts(table, rep, 1)
    rep0 = ostrowski_encode(_instance(table, {1: 0}), table)
    lhs, _ = verify._tail_parts(table, rep0, 1)
    assert lhs == 0.0


def test_tail_log_term_carries_large_first_quotient():
    # at level 1 the power term vanishes (empty quotient sum); the block
    # ratio is genuinely nonzero, so only the log(a_1 + 1) term can hold it
    cf, table = _make([40, 2, 3, 2, 2])
    rep = OstrowskiRep((30, 1, 0, 1, 1), table)
    tail_table = convergents(cf.tail(), cf.L - 1)
    lhs, unit = verify._tail_parts(table, rep, 1)
    logterm = math.log(table.partial(1) + 1) / tail_table.q(0)
    assert unit == logterm and logterm > 0
    assert abs(lhs) > 0
    assert frozen.TAIL_C * unit - abs(lhs) >= 0


def loop_tail_blocks(table, tail_table, rep, ell):
    """2 b_ell single-period products, one per block: the oracle of _tail_parts.

    The alpha' side reads the tail's own table, whose row l - 1 is level l,
    and takes eps'_l = q'_l sum_{m>l} (-1)^(l+m-1) b_m dist'_m as a direct sum.
    """
    sgn = (-1) ** ell
    q_ell, qp_ell = table.q(ell), tail_table.q(ell - 1)
    d, dp = table.dist(ell), tail_table.dist(ell - 1)
    eps = epsilon_vector(rep, table)[ell]
    eps_p = qp_ell * sum((-1) ** (ell + m - 1) * rep.digit(m) * tail_table.dist(m - 1)
                         for m in range(ell + 1, len(rep.digits)))
    lhs = 0.0
    for b in range(rep.digit(ell)):
        sh = Fraction(sgn * (b * q_ell * d + eps), q_ell)
        sh_p = Fraction(-sgn * (b * qp_ell * dp + eps_p), qp_ell)
        lhs += shifted_sudler(table.alpha_exact, sh, q_ell)
        lhs -= shifted_sudler(tail_table.alpha_exact, sh_p, qp_ell)
    return lhs


def test_tail_parts_equals_per_block_sum():
    # random reduced p/q (their own stream, not the suite's) at every admissible level
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(150):
        q = int(rng.integers(20, 3000))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        cf = cf_expand(Fraction(p, q))
        if cf.L < 3:
            continue
        table = convergents(cf, cf.L)
        tail_table = convergents(cf.tail(), cf.L - 1)
        rep = ostrowski_encode(int(rng.integers(0, q)), table)
        for ell in range(1, cf.L):
            try:
                lhs, _ = verify._tail_parts(table, rep, ell)
            except PrecondError:
                continue
            want = loop_tail_blocks(table, tail_table, rep, ell)
            assert abs(lhs - want) <= 1e-12 * (1 + abs(lhs))
            checked += rep.digit(ell) > 0
    assert checked > 100


def test_tail_rejects_bad_level():
    cf, table = _make([3, 2, 4, 3, 2])
    rep = ostrowski_encode(5, table)
    for ell in (0, cf.L):
        with pytest.raises(PrecondError):
            verify._tail_parts(table, rep, ell)
    # alpha' = 1/alpha - a_1 is read from alpha's table only when a0 = 0
    table = convergents(CFExpansion(1, [3, 2, 4, 3, 2]), 5)
    with pytest.raises(PrecondError):
        verify._tail_parts(table, ostrowski_encode(5, table), 2)


# -- oscillation over renormalization intervals -------------------------------------


def test_oscillation_empty_interval_raises():
    with pytest.raises(PrecondError):
        verify.oscillation(CFExpansion.preset("e-2"), 4, qcap=10)


def test_oscillation_single_point_is_zero():
    osc, bound = verify.oscillation(CFExpansion.preset("e-2"), 4, qcap=40)
    assert osc == 0.0 and bound > 0


def test_oscillation_decreases_with_level():
    cf = CFExpansion.preset("e-2")
    osc4, _ = verify.oscillation(cf, 4, qcap=2000)
    osc7, _ = verify.oscillation(cf, 7, qcap=2000)
    assert osc4 > osc7 > 0


def test_oscillation_measures_I_k_plus_2():
    # interval_Ik(cf, k + 1) is I_(k+2): the endpoint denominators are
    # q_(k+2) and q_(k+2) + q_(k+1), so the k = 10 row's 7 rationals below
    # 6 * 10^4 all have q >= q_12 = 9545
    cf = CFExpansion.preset("e-2")
    ends = {
        4: (Fraction(28, 39), Fraction(51, 71)),
        7: (Fraction(719, 1001), Fraction(385, 536)),
        10: (Fraction(6856, 9545), Fraction(12993, 18089)),
    }
    for k, (lo, hi) in ends.items():
        assert interval_Ik(cf, k + 1) == (lo, hi)
    rs = list(rationals_in_interval(*ends[10], 6 * 10**4))
    assert len(rs) == 7 and min(r.denominator for r in rs) == 9545
    hs = [h_eval(r).h for r in rs]
    assert verify.oscillation(cf, 10, 6 * 10**4)[0] == max(hs) - min(hs)


def test_oscillation_cap():
    with pytest.raises(EnumerationCapError):
        verify.oscillation(CFExpansion.preset("e-2"), 4, qcap=ENUM_CAP + 1)


# -- value-model scan ---------------------------------------------------------------


def test_th3_cases_within_frozen_bound():
    # F_60 is a subset of the F_100 calibration corpus, so its sup is covered
    sup, finite = verify.th3_cases(60)
    assert sup.case_id == "F60_sup" and sup.passed and finite.passed
    assert (sup.check_id, finite.check_id) == ("th3", "th3_psi_finite")
    assert sup.lhs <= frozen.TH3_C
    sup_ratio, _, count = verify._th3_sweep(60)
    assert count > 100 and sup.lhs == sup_ratio


def loop_th3_sweep(Ncap: int):
    """One h_eval per Farey fraction: the oracle for the batched th3 sweep."""
    vol = vol_41()
    sup_ratio = 0.0
    sup_psi = 0.0
    count = 0
    for r in farey_enumerate(Ncap):
        hv = h_eval(r)
        x = float(r)
        ratio = abs(hv.h - vol / (2 * math.pi * x)) / (1.0 + abs(math.log(x)))
        sup_ratio = max(sup_ratio, ratio)
        sup_psi = max(sup_psi, abs(hv.psi))
        count += 1
    return sup_ratio, sup_psi, count


@pytest.mark.parametrize("Ncap", [2, 3, 60, 200])
def test_th3_sweep_equals_h_eval_loop(Ncap):
    assert verify._th3_sweep(Ncap) == loop_th3_sweep(Ncap)


# -- suite plumbing -----------------------------------------------------------------


def test_coprime_tables_keep_the_callers_draws_in_place():
    # the hand-rolled walk the suites used to spell out, with a draw of N after
    # each table: the lazy generator must give the same rationals and N
    rng = np.random.default_rng(3)
    want = []
    for _ in range(80):
        q = int(rng.integers(20, 500))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        cf = cf_expand(Fraction(p, q))
        if cf.L < 3:
            continue
        want.append((Fraction(p, q), int(rng.integers(0, q))))
    rng = np.random.default_rng(3)
    got = []
    for table in verify._coprime_tables(rng, 80, 20, 500, 3):
        assert table.depth == table.cf.L >= 3
        r = table.alpha_exact
        got.append((r, int(rng.integers(0, r.denominator))))
    assert got == want and len(got) > 30


def test_run_suite_rejects_unknown_name():
    with pytest.raises(PrecondError):
        verify.run_suite("nonsense")


def test_suite_registry_is_complete():
    assert set(verify.SUITES) == {
        "identities", "epsilon", "cotangent", "local56", "concentration",
        "factor", "tail", "continuity", "th3",
    }


def test_epsilon_suite_rows_all_pass():
    rows = verify.run_suite("epsilon")
    assert len(rows) == 4 and all(r.passed for r in rows)


def test_cot_V_worst_margin_is_the_envelope_row():
    # the +-1 monotonicity flag has its own check_id, so it never stands in
    # for the envelope's worst margin
    cases = verify.cotangent_cases(0)
    envelope = next(c for c in cases if c.case_id == "envelope")
    reports = {r.check_id: r for r in verify.merge_cases(cases)}
    assert reports["cot_V"].cases_run == 1
    assert reports["cot_V"].worst_margin == envelope.margin
    assert reports["cot_V_monotone"].worst_margin == 1.0


def test_merge_cases_takes_worst_margin():
    rows = [
        verify._case("x", "a", 2.0, 1.0),
        verify._case("y", "c", 3.0, 1.0),
        verify._case("x", "b", 1.0, 1.5),
    ]
    x, y = verify.merge_cases(rows)
    assert x.check_id == "x" and x.cases_run == 2 and x.worst_margin == -0.5
    assert not x.passed
    assert y.check_id == "y" and y.cases_run == 1 and y.worst_margin == 2.0
    assert y.passed


def test_case_rows_carry_csv_fields_in_order():
    names = [f.name for f in dataclasses.fields(verify.CheckCase)]
    assert names == ["check_id", "case_id", "lhs", "rhs", "margin", "passed"]
