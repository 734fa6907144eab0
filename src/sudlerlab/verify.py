"""Verification harness for the inequality and factorization claims.

Every check evaluates its left-hand side by the direct oracle path (plain
prefix products of |2 sin|, exact rational shifts), never through the
approximation being tested, and compares against the stated envelope with a
frozen empirical constant from sudlerlab.frozen.  Each check is one `_parts`
function (its sides and hypothesis gates); a suite driver sweeps a fixed
corpus through it and writes the envelope into per-case CSV report rows
(check_id, case_id, lhs, rhs, margin, passed).

The random rationals of the identities, epsilon, cotangent and tail suites
come from one corpus walk, `_coprime_tables`: seeded draws of reduced p/q,
each yielded as its full-depth convergent table.

The th3 suite reads h over F_Ncap from the rows of sudlerlab.dist.sweep:
the floats h_eval gives, one batched Jones call per denominator.

Margins are oriented so that margin >= 0 means the case passes; merged
reports take the worst (minimum) margin of each check_id.  A pass/fail flag
row (margin +1 or -1) has a check_id of its own, so it never stands in for
a check's worst margin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from sudlerlab import frozen
from sudlerlab.cfrac import (
    CFExpansion,
    ConvergentTable,
    OstrowskiRep,
    cf_expand,
    convergents,
    interval_Ik,
    ostrowski_digits,
    ostrowski_encode,
    rationals_in_interval,
)
from sudlerlab.dist import _h_rows, _psi_rows, sweep
from sudlerlab.errors import EnumerationCapError, PrecondError
from sudlerlab.jones import h_eval, telescoping_logJ, vol_41
from sudlerlab.trig import (
    ENUM_CAP,
    _logsumexp,
    _prefix_logs,
    cotangent_sum,
    cotangent_V,
    epsilon_vector,
    explicit_formula_eval,
    log_f,
    product_form_eval,
    product_form_logs,
    ql_diff_check,
    shifted_sudler,
    sudler_prefix_logmags,
)

__all__ = [
    "CheckReport",
    "CheckCase",
    "merge_cases",
    "concentration_hypothesis_ratio",
    "xi_k",
    "oscillation",
    "run_suite",
    "SUITES",
    "CONCENTRATION_INSTANCES",
    "KASHAEV_INSTANCES",
]

# default qcap of the continuity suite and Ncap of th3, and of `dist --ncap`
QCAP = 10**4
NCAP = 200


@dataclass(frozen=True)
class CheckReport:
    """Merged outcome of one named check over one or more cases."""

    check_id: str
    cases_run: int
    worst_margin: float
    passed: bool


@dataclass(frozen=True)
class CheckCase:
    """One CSV report row; margin >= 0 iff the case passed."""

    check_id: str
    case_id: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


def merge_cases(cases: Iterable[CheckCase]) -> list[CheckReport]:
    """One report per check_id, in order of first appearance."""
    groups: dict[str, list[CheckCase]] = {}
    for c in cases:
        groups.setdefault(c.check_id, []).append(c)
    return [
        CheckReport(
            check_id=check_id,
            cases_run=len(rows),
            worst_margin=min(c.margin for c in rows),
            passed=all(c.passed for c in rows),
        )
        for check_id, rows in groups.items()
    ]


# -- shared plumbing -------------------------------------------------------------


def _prefix_mags(table: ConvergentTable) -> np.ndarray:
    """log P_N(alpha) for N = 0 .. q-1 at the table's exact rational alpha.

    Raises EnumerationCapError when q exceeds trig.ENUM_CAP.
    """
    a = table.alpha_exact
    if not table.cf.is_finite or table.depth != table.cf.L:
        raise PrecondError("need the full-depth table of a rational alpha")
    return sudler_prefix_logmags(a, a.denominator - 1)


def _log_max_partial(table: ConvergentTable, k: int) -> float:
    # convention: log max_{1<=m<=k} a_m = 0 when k = 0
    if k == 0:
        return 0.0
    return math.log(max(table.partial(m) for m in range(1, k + 1)))


def _b_star(a_next: int) -> int:
    return (5 * a_next) // 6


def _case(check_id, case_id, lhs, rhs, ge=True) -> CheckCase:
    margin = (lhs - rhs) if ge else (rhs - lhs)
    return CheckCase(check_id, case_id, float(lhs), float(rhs), float(margin), margin >= 0)


# -- local 5/6-principle ----------------------------------------------------------


def _local56_parts(table: ConvergentTable, N: int, k: int):
    """Digit-surgery lower bound lhs >= main - C err at level k.

    Moving digit k to b* = floor((5/6)a_(k+1)) raises log P_N by at least the
    Gaussian main term minus C err.  Returns (check_id, lhs, main, err):
    "local56_ii" is the saturated case b_(k+1)(N) = a_(k+2), where b_k = 0 is
    forced and digit k+1 drops by one, "local56_i" every other case.
    """
    L = table.depth
    if not 0 <= k < L:
        raise PrecondError(f"need 0 <= k < L={L}, got k={k}")
    a_next = table.partial(k + 1)
    if a_next < 7:
        raise PrecondError(f"hypothesis a_(k+1) >= 7 fails: {a_next}")
    rep = ostrowski_encode(N, table)
    a_k2 = table.partial(k + 2) if k + 2 <= L else None
    bstar = _b_star(a_next)
    mags = _prefix_mags(table)
    if a_k2 is not None and rep.digit(k + 1) == a_k2:
        Nstar = N + bstar * table.q(k) - table.q(k + 1)
        srep = ostrowski_encode(Nstar, table)
        assert srep.digit(k + 1) == a_k2 - 1 and srep.digit(k) == bstar
        lhs = float(mags[Nstar] - mags[N])
        main = 0.1615 * a_next
        err = 1.0 + _log_max_partial(table, k) + math.log(a_k2)
        a_k3 = table.partial(k + 3) if k + 3 <= L else None
        if a_k2 == 1 and a_k3 is not None and rep.digit(k + 2) > 0.99 * a_k3:
            err += a_k3
        return "local56_ii", lhs, main, err
    b_k = rep.digit(k)
    Nstar = N + (bstar - b_k) * table.q(k)
    lhs = float(mags[Nstar] - mags[N])
    main = 0.2326 * (bstar - b_k) ** 2 / a_next
    err = abs(bstar - b_k) / a_next * (1.0 + _log_max_partial(table, k))
    if b_k <= 1 and a_k2 is not None and rep.digit(k + 1) > 0.99 * a_k2:
        err += math.log(a_k2)
    err += 1.0 / table.q(k) ** 2
    return "local56_i", lhs, main, err


# -- concentration of the squared mass --------------------------------------------


def concentration_hypothesis_ratio(table: ConvergentTable, k: int) -> float:
    """(1 + log max a_m) / sqrt(a_(k+1) log(1 + a_(k+1))), the admissibility ratio."""
    a_next = table.partial(k + 1)
    return (1.0 + _log_max_partial(table, k)) / math.sqrt(
        a_next * math.log(1 + a_next)
    )


def _concentration_parts(table: ConvergentTable, K: int, k: int, A: float):
    """Squared-mass tail: digits far from b* carry a negligible share.

    Enumerates N < q_K in log space and returns (label, log_tail, log_total)
    for the unrestricted sum ("all") and for the sum restricted to
    b_0 = ... = b_(k-1) = 0 ("head_zero"), the tail being the N whose k-th
    digit lies at least 10 sqrt(a_(k+1) log a_(k+1)) from b*.
    """
    L = table.depth
    if not 0 <= k < K <= L:
        raise PrecondError(f"need 0 <= k < K <= L={L}")
    hyp = concentration_hypothesis_ratio(table, k)
    if hyp > A:
        raise PrecondError(f"admissibility ratio {hyp:.4g} exceeds A={A}")
    a_next = table.partial(k + 1)
    qK = table.q(K)
    mags = _prefix_mags(table)[:qK]
    bstar = _b_star(a_next)
    thresh = 10.0 * math.sqrt(a_next * math.log(a_next))
    digits = ostrowski_digits(table, qK)
    head_zero = ~digits[:k].any(axis=0)
    tail_sel = np.abs(digits[k] - bstar) >= thresh
    out = []
    for label, base in [("all", np.ones(qK, dtype=bool)), ("head_zero", head_zero)]:
        log_total = _logsumexp(2.0 * mags[base])
        log_tail = _logsumexp(2.0 * mags[base & tail_sel])
        out.append((label, log_tail, log_total))
    return out


# -- two-block factorization of the Sudler product ---------------------------------


def _sudler_factor_parts(table: ConvergentTable, N: int, k: int):
    """Split P_N into a 5/6-shifted head block and an unshifted tail block.

    The head depends on the Ostrowski digits below k only, the tail on the
    digits from k up.  Returns (err, unit): the log of the multiplicative
    error and the envelope unit (dev+1)/a_(k+1) (1 + log max a_m).
    """
    L = table.depth
    if not 1 <= k < L:
        raise PrecondError(f"need 1 <= k < L={L}")
    a_next = table.partial(k + 1)
    if a_next < 150:
        raise PrecondError(f"hypothesis a_(k+1) >= 150 fails: {a_next}")
    rep = ostrowski_encode(N, table)
    bstar = _b_star(a_next)
    dev = abs(rep.digit(k) - bstar)
    if dev > a_next / 10:
        raise PrecondError("hypothesis |b_k - b*| <= a_(k+1)/10 fails")
    N1 = sum(rep.digit(m) * table.q(m) for m in range(k))
    N2 = N - N1
    mags = _prefix_mags(table)
    shift = Fraction((-1) ** k * 5, 6 * table.q(k))
    head = shifted_sudler(table.alpha_exact, shift, N1)
    err = float(mags[N]) - head - float(mags[N2])
    unit = (dev + 1) / a_next * (1.0 + _log_max_partial(table, k))
    return err, unit


# -- factorization of the Jones sum ------------------------------------------------


def xi_k(table: ConvergentTable, k: int) -> float:
    """The admissibility parameter sqrt(log(1+a_(k+1))/a_(k+1)) (1+log max a_m)."""
    a_next = table.partial(k + 1)
    return math.sqrt(math.log(1 + a_next) / a_next) * (1.0 + _log_max_partial(table, k))


def _kashaev_parts(cf: CFExpansion, k: int, K: int, A: float):
    """Jones-sum factorization into the level-k 5/6-shifted block and the rest.

    Returns (err, xi): the absolute log error of the factorization and the
    admissibility parameter xi_k, which must not exceed A.
    """
    if not cf.is_finite:
        raise PrecondError("need a rational alpha (finite expansion)")
    L = cf.L
    if not 1 <= k < K <= L:
        raise PrecondError(f"need 1 <= k < K <= L={L}")
    table = convergents(cf, L)
    xi = xi_k(table, k)
    if xi > A:
        raise PrecondError(f"hypothesis xi_k = {xi:.4g} <= A = {A} fails")
    qK = table.q(K)
    mags = _prefix_mags(table)[:qK]
    lhs = _logsumexp(2.0 * mags)
    q_k = table.q(k)
    shift = Fraction((-1) ** k * 5, 6 * q_k)
    head = _logsumexp(2.0 * _prefix_logs(Fraction(table.p(k), q_k), shift, q_k - 1))
    keep = ~ostrowski_digits(table, qK)[:k].any(axis=0)
    tail = _logsumexp(2.0 * mags[keep])
    err = abs(lhs - head - tail)
    return err, xi


# -- tail estimate for renormalized blocks -----------------------------------------


def _tail_parts(table: ConvergentTable, rep: OstrowskiRep, ell: int):
    """Level-ell block of P_N against its first-quotient-dropped counterpart.

    Returns (lhs, unit): lhs is the log of the product over b < b_ell(N) of
    shifted single-period factors at alpha over the same product at
    alpha' = 1/alpha - a_1, each side one shifted product of b_ell periods,
    exactly 0 for an empty block (b_ell = 0), and unit
    = s^(3/4)/q'_ell^(3/4) + log(a_1 + 1)/q'_ell.  alpha' is read from
    alpha's own table (a0 = 0): q'_l = p_l, theta'_l = -theta_l/alpha.
    """
    if table.cf.a0 != 0:
        raise PrecondError("_tail_parts requires a0 = 0")
    L = table.depth
    if not 1 <= ell < L:
        raise PrecondError(f"need 1 <= ell < L={L}")
    a1 = table.partial(1)
    b_ell = rep.digit(ell)
    if ell == 1 and table.partial(2) == 1 and b_ell > 0:
        raise PrecondError("level 1 with a_2 = 1 admits only the empty block")
    qp_ell = table.p(ell)
    a_next = table.partial(ell + 1)
    if not (a_next <= qp_ell ** (1 / 100) or b_ell <= 0.99 * a_next):
        raise PrecondError("tail hypothesis (i) fails")
    if ell + 2 <= L:
        a_next2 = table.partial(ell + 2)
        qp_next = table.p(ell + 1)
        if not (a_next2 <= qp_next ** (1 / 100) or rep.digit(ell + 1) <= 0.99 * a_next2):
            raise PrecondError("tail hypothesis (ii) fails")
    # block b sits at shift sh + b theta_l = sh + b q_l alpha (mod 1): it is
    # factors b q_l + 1 .. (b + 1) q_l of one product at the b = 0 shift, and
    # likewise at alpha' with q'_l and theta'_l, where the shift
    # -(-1)^l eps'_l/q'_l is sh/alpha (eps'_l = -eps_l p_l/(q_l alpha))
    lhs = 0.0  # both products of an empty block are empty
    if b_ell > 0:
        alpha = table.alpha_exact
        q_ell = table.q(ell)
        sh = Fraction((-1) ** ell * epsilon_vector(rep)[ell], q_ell)
        lhs = (shifted_sudler(alpha, sh, b_ell * q_ell)
               - shifted_sudler(1 / alpha - a1, sh / alpha, b_ell * qp_ell))
    s = sum(table.partial(m) for m in range(2, ell + 1))
    unit = s**0.75 / qp_ell**0.75 + math.log(a1 + 1) / qp_ell
    return lhs, unit


# -- oscillation of h over renormalization intervals -------------------------------


def oscillation(cf: CFExpansion, k: int, qcap: int = QCAP) -> tuple[float, float]:
    """Oscillation of h over I_(k+2) and the theorem-shaped envelope.

    osc is max - min of h over the rationals, denominator at most qcap, in
    the closed interval I_(k+2) = interval_Ik(cf, k + 1): the reals whose
    first k + 2 partial quotients are alpha's.  The envelope combines xi_k
    with the tail terms at scale q_k/a_1.  Raises when the interval holds no
    such rational, and EnumerationCapError when qcap exceeds trig.ENUM_CAP.
    """
    if qcap > ENUM_CAP:
        raise EnumerationCapError(f"qcap {qcap} exceeds cap {ENUM_CAP}")
    lo, hi = interval_Ik(cf, k + 1)
    hs = [h_eval(r).h for r in rationals_in_interval(lo, hi, qcap)]
    if not hs:
        raise PrecondError(f"no rationals with denominator <= {qcap} in I_(k+2)")
    osc = max(hs) - min(hs)
    table = convergents(cf, k + 1)
    a1 = table.partial(1)
    s = sum(table.partial(m) for m in range(2, k + 1))
    scale = table.q(k) / a1
    bound = xi_k(table, k) + s**0.75 / scale**0.75 + math.log(a1 + 1) / scale
    return osc, bound


# -- global h model sweep -----------------------------------------------------------


def _th3_sweep(Ncap: int):
    """(sup of the th3 ratio, sup |psi|, count) over F_Ncap, h from the sweep rows."""
    x, h = _h_rows(sweep(Ncap))
    log_x, psi = _psi_rows(x, h)
    ratio = np.abs(h - vol_41() / (2 * math.pi * x)) / (1.0 + np.abs(log_x))
    return float(ratio.max()), float(np.abs(psi).max()), x.size


# -- deterministic corpora ----------------------------------------------------------


def _random_cf(rng, L: int, big_at: int, big: int, small_hi: int) -> ConvergentTable:
    """Full-depth table of a random expansion: quotients in 1..small_hi, a_big_at = big."""
    digits = [int(rng.integers(1, small_hi + 1)) for _ in range(L)]
    digits[big_at - 1] = big
    if digits[-1] == 1:
        digits[-1] = 2
    return convergents(CFExpansion.from_partial_quotients(0, digits), L)


def _coprime_tables(rng, tries: int | None, lo: int, hi: int,
                    min_L: int) -> Iterator[ConvergentTable]:
    """Full-depth tables of random reduced p/q, q in [lo, hi), p in [1, q).

    Each of `tries` draws (no limit when None) takes q, then p, from rng and
    skips a pair that is not coprime or whose expansion has fewer than min_L
    quotients.  The generator is lazy, so the draws a suite makes between
    two tables keep their place in the rng stream.
    """
    for _ in range(tries) if tries is not None else itertools.count():
        q = int(rng.integers(lo, hi))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        cf = cf_expand(Fraction(p, q))
        if cf.L >= min_L:
            yield convergents(cf, cf.L)


def _random_digits(table: ConvergentTable, rng, overrides: dict | None = None) -> list[int]:
    """Random valid Ostrowski digit vector, top digit down, with fixed entries."""
    L = table.depth
    overrides = overrides or {}
    digits = [0] * L
    force_zero = False
    for ell in range(L - 1, -1, -1):
        hi = table.partial(ell + 1)
        if ell == 0:
            hi -= 1
        if force_zero:
            b = 0
        elif ell in overrides:
            b = overrides[ell]
        else:
            b = int(rng.integers(0, hi + 1))
        digits[ell] = b
        force_zero = ell > 0 and b == table.partial(ell + 1)
    return digits


def local56_cases(seed: int = 0, fits: list | None = None) -> list[CheckCase]:
    """Constructed a_(k+1) = 200/300 sweeps plus 500 random instances, q_L <= 5000.

    When `fits` is a list it collects the per-case constant that would make
    the inequality exactly tight, which is what the calibration tool reads.
    """
    rng = np.random.default_rng(seed)
    cases = []

    def add(table, N, k, label):
        check_id, lhs, main, err = _local56_parts(table, N, k)
        if fits is not None and err > 0:
            fits.append(max(0.0, (main - lhs) / err))
        cases.append(_case(check_id, label, lhs, main - frozen.LOCAL56_C * err))

    # constructed instances: one dominant quotient, full deviation sweep
    for a_big in (200, 300):
        cf = CFExpansion.from_partial_quotients(0, [1, 1, a_big, 1, 2])
        table = convergents(cf, cf.L)
        k = 2
        step = max(1, a_big // 40)
        for b in range(0, a_big, step):
            digits = _random_digits(table, rng, overrides={k: b, k + 1: 0})
            add(table, OstrowskiRep(digits, table).value(), k,
                f"constructed_a{a_big}_b{b}")
        # saturated case: b_(k+1) = a_(k+2) forces b_k = 0; pin b_(k+2) below
        # its own maximum so the forced zero cannot cascade onto b_(k+1)
        digits = _random_digits(
            table, rng, overrides={k + 1: table.partial(k + 2), k + 2: 0}
        )
        add(table, OstrowskiRep(digits, table).value(), k,
            f"constructed_a{a_big}_saturated")

    made = 0
    while made < 500:
        L = int(rng.integers(3, 6))
        k = int(rng.integers(0, L - 1))
        hi = min(400, max(8, 5000 // 4 ** (L - 1)))
        a_big = int(rng.integers(7, hi + 1))
        table = _random_cf(rng, L, big_at=k + 1, big=a_big, small_hi=3)
        if table.q(L) > 5000:
            continue
        digits = _random_digits(table, rng)
        add(table, OstrowskiRep(digits, table).value(), k, f"random_{made}")
        made += 1
    return cases


# fixed corpora shared by the suites and the calibration tool
CONCENTRATION_INSTANCES = [
    ("a300_empty_tail", [1, 300, 1, 2], 1),
    ("a2000_tail", [1, 2000, 2], 1),
    ("a1500_mixed", [2, 1500, 1, 3], 1),
]
KASHAEV_INSTANCES = [
    ("a400_full", [2, 400, 2, 3], 1, 4),
    ("a400_window", [2, 400, 2, 3], 1, 2),
    ("a1600_full", [2, 1600, 2, 3], 1, 4),
    ("deep_k2", [2, 3, 900, 2, 2], 2, 5),
]


def concentration_cases() -> list[CheckCase]:
    """Constructed concentration instances, including the empty-tail one."""
    cases = []
    for label, digits, k in CONCENTRATION_INSTANCES:
        cf = CFExpansion.from_partial_quotients(0, digits)
        table = convergents(cf, cf.L)
        log_share = 20.0 * math.log(table.partial(k + 1))
        for lab2, log_tail, log_total in _concentration_parts(
            table, cf.L, k, frozen.CONCENTRATION_A
        ):
            cases.append(_case("concentration", f"{label}_{lab2}",
                               log_total - log_share, log_tail))
    return cases


def factor_cases(seed: int = 0) -> list[CheckCase]:
    """Two-block factorization on 200 random instances plus the Jones-sum instances."""
    rng = np.random.default_rng(seed)
    cases = []
    made = 0
    while made < 200:
        L = int(rng.integers(3, 5))
        k = int(rng.integers(1, L))
        hi = min(600, 3 * 10**4 // 5 ** (L - 1))
        a_big = int(rng.integers(150, hi + 1))
        table = _random_cf(rng, L, big_at=k + 1, big=a_big, small_hi=4)
        if table.q(L) > 3 * 10**4:
            continue
        bstar = _b_star(a_big)
        dev = int(rng.integers(0, a_big // 10 + 1)) * (1 if rng.random() < 0.5 else -1)
        b_k = min(max(bstar + dev, 0), a_big - 1)
        overrides = {k: b_k}
        if k + 1 < L:
            # keep b_(k+1) off its maximum so the forced-zero rule cannot clear b_k
            overrides[k + 1] = int(rng.integers(0, table.partial(k + 2)))
        digits = _random_digits(table, rng, overrides=overrides)
        err, unit = _sudler_factor_parts(table, OstrowskiRep(digits, table).value(), k)
        cases.append(_case("sudler_factor", f"random_{made}",
                           frozen.SUDLER_FACTOR_C * unit, abs(err)))
        made += 1
    # a_1 = 2 keeps the head convergent q_1 > 1; with q_1 = 1 the head block
    # is the empty product and the factorization error vanishes identically
    for label, digits, k, K in KASHAEV_INSTANCES:
        cf = CFExpansion.from_partial_quotients(0, digits)
        err, xi = _kashaev_parts(cf, k, K, frozen.KASHAEV_FACTOR_A)
        cases.append(_case("kashaev_factor", label, frozen.KASHAEV_FACTOR_C * xi, err))
    return cases


def tail_cases(seed: int = 0) -> list[CheckCase]:
    """150 random rationals, q < 5000, at all admissible levels, plus a large-a_1 one."""
    rng = np.random.default_rng(seed)
    cases = []
    made = 0
    for table in _coprime_tables(rng, None, 20, 5000, 3):
        L = table.depth
        rep = ostrowski_encode(int(rng.integers(0, table.q(L))), table)
        used = False
        for ell in range(1, L):
            try:
                lhs, unit = _tail_parts(table, rep, ell)
            except PrecondError:
                continue
            cases.append(_case("tail", f"random_{made}_l{ell}",
                               frozen.TAIL_C * unit, abs(lhs)))
            used = True
        made += used
        if made == 150:
            break
    # large a_1: the log(a_1+1)/q'_ell term carries the envelope at ell = 1;
    # pin b_2 below 0.99 a_3 so the level-2 hypothesis holds
    cf = CFExpansion.from_partial_quotients(0, [40, 2, 3, 2, 2])
    table = convergents(cf, cf.L)
    digits = _random_digits(
        table, np.random.default_rng(seed + 1), overrides={1: 1, 2: 0}
    )
    lhs, unit = _tail_parts(table, OstrowskiRep(digits, table), 1)
    cases.append(_case("tail", "large_a1", frozen.TAIL_C * unit, abs(lhs)))
    return cases


# -- identity / estimate suites -----------------------------------------------------


def identity_cases(seed: int = 0) -> list[CheckCase]:
    """Exact identities: Kubert, product form, explicit formula, telescoping."""
    rng = np.random.default_rng(seed)
    cases = []
    # Kubert functional equation on random (p/q, x)
    worst = 0.0
    for table in _coprime_tables(rng, 300, 2, 200, 1):
        r = table.alpha_exact
        q = r.denominator
        x = Fraction(int(rng.integers(1, 6 * q)), 6 * q)
        if (x / q) % 1 == 0 or x % 1 == 0:
            continue
        try:
            lhs = shifted_sudler(r, x / q, q - 1) + log_f(x / q)
            rhs = log_f(x)
        except ArithmeticError:
            continue
        worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
    cases.append(_case("kubert", "random_sweep", worst, 1e-12, ge=False))
    # product form vs direct prefix logs
    worst = 0.0
    for table in _coprime_tables(rng, 40, 5, 300, 1):
        mags = _prefix_mags(table)
        batch = product_form_logs(table, table.depth)
        err = float(np.max(np.abs(batch - mags) / (1.0 + np.abs(mags))))
        worst = max(worst, err)
        N = int(rng.integers(0, table.q(table.depth)))
        rep = ostrowski_encode(N, table)
        got = product_form_eval(rep)
        worst = max(worst, abs(got - float(mags[N])) / (1 + abs(float(mags[N]))))
    cases.append(_case("product_form", "random_sweep", worst, 1e-9, ge=False))
    # explicit single-period formula vs direct shifted product
    worst = 0.0
    for table in _coprime_tables(rng, 200, 3, 200, 2):
        ell = int(rng.integers(1, table.depth))
        x = Fraction(int(rng.integers(-100, 101)), 120)
        try:
            got = explicit_formula_eval(ell, x, table)
            sh = Fraction((-1) ** ell * x, table.q(ell))
            want = shifted_sudler(table.alpha_exact, sh, table.q(ell))
        except (ArithmeticError, PrecondError):
            continue
        worst = max(worst, abs(got - want) / (1 + abs(want)))
    cases.append(_case("explicit_formula", "random_sweep", worst, 1e-10, ge=False))
    # telescoping identity, exhaustive small denominators
    worst = 0.0
    for q in range(2, 41):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            lhs, rhs = telescoping_logJ(Fraction(p, q))
            worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    cases.append(_case("telescoping", "exhaustive_q40", worst, 1e-8, ge=False))
    return cases


def epsilon_cases(seed: int = 0) -> list[CheckCase]:
    """Exact-rational bounds on the epsilon vectors and the q_l difference."""
    rng = np.random.default_rng(seed)
    cases = []
    worst = math.inf
    worst_ref_lo = math.inf
    worst_ref_hi = math.inf
    for table in _coprime_tables(rng, 200, 10, 3000, 1):
        L = table.depth
        rep = ostrowski_encode(int(rng.integers(0, table.q(L))), table)
        eps = epsilon_vector(rep)
        for ell in range(L):
            if rep.digit(ell) < 1:
                continue
            e = eps[ell]
            lo = -table.q(ell) * table.dist(ell) + table.q(ell) * table.dist(ell + 1)
            hi = table.q(ell) * table.dist(ell + 1)
            worst = min(worst, float(e - lo), float(hi - e))
            # refined one-sided variants under digit restrictions, exact arithmetic
            if ell + 2 <= L:
                a2 = table.partial(ell + 2)
                delta = 1 - Fraction(rep.digit(ell + 1), a2)
                if delta > 0:
                    ref_lo = -(1 - delta / 3) * table.q(ell) * table.dist(ell)
                    worst_ref_lo = min(worst_ref_lo, float(e - ref_lo))
            if ell + 3 <= L:
                a3 = table.partial(ell + 3)
                delta = 1 - Fraction(rep.digit(ell + 2), a3)
                if delta > 0:
                    ref_hi = (1 - delta / 3) * table.q(ell) * table.dist(ell + 1)
                    worst_ref_hi = min(worst_ref_hi, float(ref_hi - e))
    cases.append(_case("epsilon_bounds", "two_sided", worst, 0.0))
    cases.append(_case("epsilon_bounds", "refined_lower", worst_ref_lo, 0.0))
    cases.append(_case("epsilon_bounds", "refined_upper", worst_ref_hi, 0.0))
    # renormalized convergent-distance difference bound
    worst = math.inf
    for table in _coprime_tables(rng, 200, 30, 5000, 3):
        L = table.depth
        for ell in range(1, L):
            for m in range(ell, L):
                if m == 1 and table.partial(2) == 1:
                    continue
                lhs, bound = ql_diff_check(ell, m, table)
                worst = min(worst, float(bound - lhs))
    cases.append(_case("ql_diff", "random_sweep", worst, 0.0))
    return cases


def cotangent_cases(seed: int = 0) -> list[CheckCase]:
    """Shifted cotangent sums and the V_l kernel against their envelopes."""
    rng = np.random.default_rng(seed)
    cases = []
    worst_irr = 0.0
    worst_rat = 0.0
    for table in _coprime_tables(rng, 200, 10, 2000, 1):
        ell = int(rng.integers(1, table.depth + 1))
        N = int(rng.integers(0, table.q(ell)))
        # first form: shift below the true distance ||q_(ell-1) alpha||
        dp = table.dist(ell - 1)
        if ell == 1:
            dp = min(dp, 1 - dp)
        dist_prev = float(dp)
        u = 0.9 * rng.random()
        x = Fraction(u * dist_prev).limit_denominator(10**9)
        if x == 0:
            continue
        try:
            s = cotangent_sum(table.alpha_exact, x, N)
        except ArithmeticError:
            continue
        env = table.q(ell) * (1.0 / (1.0 - float(x) / dist_prev)
                              + _log_max_partial(table, ell))
        worst_irr = max(worst_irr, abs(s) / env)
        # second form: pure rational nodes np_l/q_l with |x| < 1/q_l
        xr = Fraction(int(rng.integers(-90, 91)), 100 * table.q(ell))
        if xr == 0:
            continue
        try:
            s2 = cotangent_sum(Fraction(table.p(ell), table.q(ell)), xr, N)
        except ArithmeticError:
            continue
        env2 = table.q(ell) * (1.0 / (1.0 - table.q(ell) * abs(float(xr)))
                               + _log_max_partial(table, ell))
        worst_rat = max(worst_rat, abs(s2) / env2)
    cases.append(_case("cot_sum", "shifted_form", worst_irr, frozen.COT_SUM_C, ge=False))
    cases.append(_case("cot_sum", "rational_form", worst_rat, frozen.COT_SUM_C, ge=False))
    worst_v = 0.0
    decreasing_ok = True
    for table in _coprime_tables(rng, 100, 10, 1500, 2):
        # full depth is degenerate for rationals: ||q_L alpha|| = 0
        ell = int(rng.integers(1, table.depth))
        xs = np.linspace(-0.95, 0.95, 21)
        vals = [cotangent_V(ell, float(x), table) for x in xs]
        decreasing_ok &= all(a >= b for a, b in zip(vals, vals[1:]))
        qd = float(table.q(ell) * table.dist(ell))
        for x, v in zip(xs, vals):
            env = qd * (1.0 / (1.0 - abs(float(x))) + _log_max_partial(table, ell))
            worst_v = max(worst_v, abs(v) / env)
    cases.append(_case("cot_V", "envelope", worst_v, frozen.VLX_C, ge=False))
    cases.append(_case("cot_V_monotone", "decreasing", 1.0 if decreasing_ok else -1.0, 0.0))
    return cases


def continuity_cases(qcap: int = QCAP) -> list[CheckCase]:
    """Oscillation of h over I_(k+2) for the e-2 preset at its large quotients."""
    cf = CFExpansion.preset("e-2")
    cases = []
    oscs = []
    for k, cap in [(4, qcap), (7, qcap), (10, max(qcap, 6 * 10**4))]:
        osc, bound = oscillation(cf, k, cap)
        oscs.append(osc)
        cases.append(_case("continuity", f"e-2_k{k}", osc, frozen.OSC_C * bound, ge=False))
    for i, (osc, nxt) in enumerate(zip(oscs, oscs[1:])):
        cases.append(_case("continuity", f"e-2_drop_{i}", nxt, 0.7 * osc, ge=False))
    return cases


def th3_cases(Ncap: int = NCAP) -> list[CheckCase]:
    """Sup of |h - Vol/(2 pi x)| / (1 + |log x|) over the Farey set F_Ncap.

    The sup must stay below the frozen constant; the finiteness of sup |psi|
    over the same set is recorded, as a flag row, as boundedness evidence.
    """
    sup_ratio, sup_psi, _ = _th3_sweep(Ncap)
    return [
        _case("th3", f"F{Ncap}_sup", sup_ratio, frozen.TH3_C, ge=False),
        _case("th3_psi_finite", f"F{Ncap}_sup_psi_finite",
              1.0 if math.isfinite(sup_psi) else -1.0, 0.0),
    ]


SUITES = {
    "identities": identity_cases,
    "epsilon": epsilon_cases,
    "cotangent": cotangent_cases,
    "local56": local56_cases,
    "concentration": concentration_cases,
    "factor": factor_cases,
    "tail": tail_cases,
    "continuity": continuity_cases,
    "th3": th3_cases,
}


def run_suite(name: str, **kwargs) -> list[CheckCase]:
    """Run one named check suite and return its CSV-ready case rows."""
    if name not in SUITES:
        raise PrecondError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
