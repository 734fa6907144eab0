"""Log-space Sudler products and their renormalization machinery.

Everything here works with f(x) = |2 sin(pi x)| at exact rationals (Fraction
or int; a float is read at its exact binary value).  Products of f-values are
kept in log space throughout (they overflow linear floats almost
immediately) as plain floats, with -inf the log of a product that has a
vanishing factor.  The module provides:

  * direct prefix products P_N(alpha) and shifted products P_N(alpha, x),
    all read from one exact walk (_walk) and its prefix logs (_prefix_logs),
  * the digit-wise product form of P_N over an Ostrowski representation,
    together with the shift corrections eps_l,
  * shifted cotangent sums and the weighted cotangent sum V_l,
  * an exact closed form for P_{q_l}(alpha, x/q_l) as a ratio product over
    the integer grid n/q_l,
  * the coupling bound between q_l ||q_m alpha|| and its counterpart at the
    first-digit-dropped alpha' = 1/alpha - a_1, read from alpha's own table:
    for a0 = 0, level l of alpha' has q'_l = p_l and theta'_l = -theta_l/alpha.

Sign conventions follow the convergent tables of `cfrac`: theta_l =
q_l alpha - p_l alternates sign, theta_l = (-1)^l dist_l with
dist_l = |theta_l|.  All identities below are stated with dist_l, which makes
them valid verbatim at l = 0 even when a_1 = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from sudlerlab.cfrac import ConvergentTable, OstrowskiRep
from sudlerlab.errors import (
    EnumerationCapError,
    PoleError,
    PrecondError,
    ZeroFactorError,
)

__all__ = [
    "log_f",
    "sudler_prefix_logmags",
    "shifted_sudler",
    "kubert_rhs",
    "epsilon_vector",
    "product_form_eval",
    "product_form_logs",
    "cotangent_sum",
    "cotangent_V",
    "explicit_formula_eval",
    "ql_diff_check",
]

LOG2 = math.log(2.0)

# explicit_formula_eval decides the zero factors and poles of its float grid at this distance
POLE_GUARD = 1e-13

# the one resource cap: _residues (so every exact residue walk), the prefix
# logs, the Jones sums, verify's oscillation and dist.sweep refuse, before
# allocating, to materialize more values
ENUM_CAP = 1 << 21

# exact values of log f on the small torus rationals that tests pin down
_EXACT_LOGF = {
    Fraction(1, 2): LOG2,
    Fraction(1, 6): 0.0,
    Fraction(5, 6): 0.0,
}


# _logsumexp_rows: the unit roundoff, and the floor on exp arguments (NumPy's exp
# leaves its fast path between -707 and -708) with a bound on what it moves a term by
_UNIT = 2.0**-53
_EXP_FLOOR = -700.0
_FLOOR_SHIFT = 2.0**-1009  # > exp(-700)


def _logsumexp_rows(m: np.ndarray) -> list[float]:
    """log sum_j exp(m[i, j]) for each row of a 2-d array, correctly rounded.

    Row i is shifted by its maximum a_i, so its n terms x_j = exp(m[i, j] - a_i)
    lie in [0, 1] and one of them is 1.  The result is a_i + log(RN(S)), where
    S = sum_j x_j exactly and RN rounds to nearest, ties to even: the double
    math.fsum returns, so the value does not depend on the order of the row.
    A row with no finite entry (and an empty row) gives -inf, the log of an
    all-zero sum.  Rows may hold up to 2^26 terms.

    The whole block is summed at once by error-free extraction against powers
    of two sized from n (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I: faithful rounding", SIAM J. Sci. Comput. 31 (2008),
    ExtractVector).  With u = 2^-53, sigma1 = 2^M >= n and sigma2 = u sigma1^2:

      * q = fl(fl(sigma1 + x) - sigma1) is exact, a multiple of 2u sigma1 in
        [0, 1], and r = x - q is the exact rounding error of sigma1 + x, so
        |r| <= u sigma1.  Every partial sum of the q's is a multiple of
        2u sigma1 of size at most n <= sigma1, so hi1 = sum q is exact in any
        summation order.
      * The same split of the r's against sigma2 >= n u sigma1 gives an exact
        hi2, |hi2| <= sigma2 <= 1, and residuals |r'| <= u sigma2.
      * lo = fl(sum r'), in any order, is within
        gamma_{n-1} n u sigma2 <= 2 n^2 u^2 sigma2 of sum r' (Higham, "Accuracy
        and Stability of Numerical Algorithms", 2nd ed., section 4.2).

    So S = hi1 + hi2 + sum r'.  FastTwoSum gives s + e = hi1 + hi2 exactly
    (hi1 >= 1 >= |hi2|); t = fl(e + lo) adds at most u(u(n + 1) + n u sigma2)
    plus u times lo's error; a second FastTwoSum gives v + f = s + t exactly.
    Arguments below -700 are raised to -700 first, where NumPy's exp stays
    fast; each clamped term moves by less than 2^-1009, n of them by less
    than n 2^-1009.  Adding these up, |S - (v + f)| <= B for the B below,
    and v = RN(S) unless a rounding midpoint next to v lies within B of
    v + f.  The guard takes h, half the gap from v to the next double on the
    side of f, and accepts v when |f| < h - 2B; the midpoint on the other
    side is at least h/2 > B away, and the factor 2 absorbs the rounding of
    the guard itself, as B >= u h.  For rows up to 2^21 terms 2B < 2^-18 h,
    so only a near-tie fails the guard (every exact tie does, as when two
    terms dominate a row); such a row alone is summed again with math.fsum
    on its unclamped terms.
    """
    rows, n = m.shape
    if n == 0:
        return [-math.inf] * rows
    top = m.max(axis=1)
    empty = top == -math.inf
    top[empty] = 0.0  # keeps exp(m - top) free of -inf - (-inf)
    x = np.subtract(m, top[:, None])
    np.maximum(x, _EXP_FLOOR, out=x)
    np.exp(x, out=x)
    sigma1 = float(1 << (n - 1).bit_length())
    sigma2 = _UNIT * sigma1 * sigma1
    q = np.add(x, sigma1)
    q -= sigma1
    x -= q
    hi1 = q.sum(axis=1)
    np.add(x, sigma2, out=q)
    q -= sigma2
    x -= q
    hi2 = q.sum(axis=1)
    lo = x.sum(axis=1)
    lo_err = 2.0 * (n - 1) * n * _UNIT * _UNIT * sigma2
    bound = lo_err + n * _FLOOR_SHIFT + _UNIT * (_UNIT * (n + 1) + n * _UNIT * sigma2 + lo_err)
    out = []
    sums = zip(top.tolist(), empty.tolist(), hi1.tolist(), hi2.tolist(), lo.tolist())
    for i, (a, no_terms, h1, h2, low) in enumerate(sums):
        if no_terms:
            out.append(-math.inf)
            continue
        s = h1 + h2
        t = (h2 - (s - h1)) + low
        v = s + t
        f = t - (v - s)
        gap = abs(math.nextafter(v, math.inf if f > 0 else 0.0) - v)
        if abs(f) >= 0.5 * gap - 2.0 * bound:
            v = math.fsum(np.exp(m[i] - a).tolist())
        out.append(a + math.log(v))
    return out


def _logsumexp(mags) -> float:
    """log sum exp of a 1-d array of raw log magnitudes; -inf when empty or all -inf."""
    return _logsumexp_rows(np.asarray(mags, dtype=np.float64)[None, :])[0]


def log_f(x) -> float:
    """log f(x) = log|2 sin(pi x)| at an exact rational x; -inf where f vanishes.

    Integrality (the zero of f) is decided exactly, and the classical special
    values f(1/2) = 2, f(1/6) = f(5/6) = 1 are pinned.
    """
    t = Fraction(x) % 1
    if t == 0:
        return -math.inf
    exact = _EXACT_LOGF.get(t)
    if exact is not None:
        return exact
    tm = min(t, 1 - t)
    return math.log(2.0 * math.sin(math.pi * float(tm)))


def sudler_prefix_logmags(r: Fraction, N_max: int) -> np.ndarray:
    """Raw float array of log P_N(r) for N = 0..N_max, rational r = p/q.

    Entry 0 is the empty product.  Requires N_max < q so that no factor
    vanishes.  Raises EnumerationCapError, before anything is allocated,
    when the N_max + 1 entries exceed ENUM_CAP.
    """
    q = Fraction(r).denominator
    if not 0 <= N_max < q:
        raise PrecondError(
            f"need 0 <= N_max < den(r); got N_max={N_max}, den={q}"
            " (the factor at n = den vanishes)"
        )
    return _prefix_logs(r, 0, N_max)


def _residues(P: int, Q: int, m: int, off: int = 0) -> np.ndarray:
    """(n P + off) mod Q for n = 1..m, exact for every modulus Q >= 1.

    The array is int64 while m P + off (P and off reduced mod Q) and the sum
    of two residues stay below 2^63, and holds Python ints otherwise; either
    way the integers are the same.  Callers may add two residues and reduce
    again in the returned dtype.  Raises EnumerationCapError, before anything
    is allocated, when m exceeds ENUM_CAP.
    """
    if m > ENUM_CAP:
        raise EnumerationCapError(f"{m} residues exceed cap {ENUM_CAP}")
    P, off = P % Q, off % Q
    small = Q < 1 << 62 and m * P + off < 1 << 63
    n = np.arange(1, m + 1, dtype=np.int64 if small else object)
    return (n * P + off) % Q


def _ratios(r: np.ndarray, Q: int) -> np.ndarray:
    """r/Q as float64, each rounded once, for exact residues 0 <= r < Q."""
    if Q > 1 << 53:  # an int64 r would round on its way to a double
        r = r.astype(object)
    return np.asarray(r / Q, dtype=np.float64)


def _logf_residues(r: np.ndarray, Q: int) -> np.ndarray:
    """log f(r/Q) for exact nonzero residues r mod Q, reflected into (0, 1/2]."""
    return np.log(2.0 * np.sin(np.pi * _ratios(np.minimum(r, Q - r), Q)))


def _walk(alpha, x, N: int, vanish: type) -> tuple[np.ndarray, int]:
    """(r, den) with n alpha + x = r[n - 1]/den mod 1 exactly, n = 1..N.

    Raises PrecondError for N < 0, and vanish (ZeroFactorError or PoleError)
    carrying n at the first zero residue; _residues enforces ENUM_CAP.
    """
    if N < 0:
        raise PrecondError(f"N must be >= 0, got {N}")
    af, xf = Fraction(alpha), Fraction(x)
    den = math.lcm(af.denominator, xf.denominator)
    step = af.numerator * (den // af.denominator)
    res = _residues(step, den, N, xf.numerator * (den // xf.denominator))
    if not res.all():
        n = int(np.flatnonzero(res == 0)[0]) + 1
        raise vanish(f"n alpha + x is an integer at n={n}", n=n)
    return res, den


def _prefix_logs(alpha, x, N: int) -> np.ndarray:
    """log P_n(alpha, x) for n = 0..N along _walk; entry 0 is the empty product.

    More than ENUM_CAP entries are refused before anything is allocated.
    """
    if N + 1 > ENUM_CAP:
        raise EnumerationCapError(f"N + 1 = {N + 1} exceeds cap {ENUM_CAP}")
    res, den = _walk(alpha, x, N, ZeroFactorError)
    out = np.zeros(N + 1)
    np.cumsum(_logf_residues(res, den), out=out[1:])
    return out


def shifted_sudler(alpha, x, N: int) -> float:
    """log P_N(alpha, x) = sum_{n=1..N} log|2 sin(pi (n alpha + x))|.

    alpha and x are exact rationals; the factors run over the exact residues
    of _walk, which raises ZeroFactorError at a vanishing factor.
    """
    return math.fsum(_logf_residues(*_walk(alpha, x, N, ZeroFactorError)))


def kubert_rhs(r, x) -> float:
    """Right side of the sine multiplication law at level q = den(r).

    For reduced p/q the law reads f(x/q) * P_{q-1}(p/q, x/q) = f(x); the
    numerator p only permutes the factors.  This returns log f(x), the exact
    oracle that shifted products at denominator-q arguments must match.
    """
    q = Fraction(r).denominator
    if (Fraction(x) / q) % 1 == 0:
        raise PrecondError(f"x/q = {Fraction(x) / q} is an integer; both sides vanish")
    return log_f(x)


def epsilon_vector(rep: OstrowskiRep, table: ConvergentTable) -> tuple[Fraction, ...]:
    """Shift corrections eps_l of rep, one exact Fraction per digit position.

    eps_l = q_l * sum_{m>l} (-1)^(l+m) b_m dist_m, via suffix sums of theta.
    Only positions with b_l >= 1 enter the product form, but all are returned.
    For a0 = 0 the same digits at alpha' = 1/alpha - a_1 (q'_l = p_l,
    theta'_l = -theta_l/alpha) give eps'_l = -eps_l p_l/(q_l alpha).
    """
    digits = rep.digits
    K = len(digits)
    tail = Fraction(0)
    eps = [Fraction(0)] * K
    # T_l = sum_{m>l} b_m theta_m; eps_l = (-1)^l q_l T_l
    for ell in range(K - 1, -1, -1):
        eps[ell] = (-1) ** ell * table.q(ell) * tail
        tail += digits[ell] * table.theta(ell)
    return tuple(eps)


def product_form_eval(rep: OstrowskiRep) -> float:
    """log P_N(alpha) assembled from the digit-wise product form over rep.table.

    P_N = prod_l prod_{b < b_l} P_{q_l}(alpha, (-1)^l (b q_l dist_l + eps_l)/q_l),
    every shift an exact rational.  Must agree with the direct product; the
    all-zero digit string gives the empty product, log 1 = 0.
    """
    table = rep.table
    eps = epsilon_vector(rep, table)
    alpha = table.alpha_exact
    acc = []
    for ell, b_l in enumerate(rep.digits):
        if b_l == 0:
            continue
        q_l = table.q(ell)
        d_l = table.dist(ell)
        sgn = (-1) ** ell
        for b in range(b_l):
            shift = sgn * (b * q_l * d_l + eps[ell]) / q_l
            acc.append(shifted_sudler(alpha, shift, q_l))
    return math.fsum(acc)


def product_form_logs(table: ConvergentTable, K: int) -> np.ndarray:
    """log P_N for every N < q_K at once, one array pass per digit level.

    Walks the Ostrowski digit tree from position K - 1 down to 0, a whole
    level at a time.  The frontier holds, per node, the tail shift t, the
    index M built so far and the running log; its first nfree nodes are free,
    the rest had a maximal parent digit, which forces digit 0.  At level l
    every free node reads the same width * q_l residues, offset by its own t:
    one 2-d array of log 2 sin values (free nodes x width * q_l) is
    cumsummed along its rows and gathered at multiples of q_l, and the
    children b = 1..width follow by broadcasting over b (digit 0 keeps the
    node as it is).  That is O(K) Python-level steps and O(q_K * K) sine
    evaluations, with a working set of a few times q_K floats per level.
    Every float addition happens in the order of a node-by-node walk.

    Every argument is an exact integer residue mod the table's reference
    denominator Q, for any Q (see _residues); there is no floating fallback,
    so the result does not degrade on deep tables.  Raises
    EnumerationCapError, before anything is allocated, when q_K exceeds
    ENUM_CAP.
    """
    qK = table.q(K)
    Q = table.alpha_exact.denominator
    P = table.alpha_exact.numerator
    # every level reads a prefix of these: width * q_l < q_K
    base = _residues(P, Q, qK)
    out = np.zeros(qK)
    if K == 0:
        return out
    t = np.zeros(1, dtype=base.dtype)
    M = np.zeros(1, dtype=np.int64)
    acc = np.zeros(1)
    nfree = 1

    for ell in range(K - 1, -1, -1):
        q_l = table.q(ell)
        # digit range of a free node: b <= a_{l+1}, and b < a_1 at l = 0
        width = table.partial(ell + 1) - (ell == 0)
        if width == 0:
            continue
        logs = _logf_residues((base[: width * q_l] + t[:nfree, None]) % Q, Q)
        # row i, column b - 1: the log of the first b segments of node i
        g = np.cumsum(logs, axis=1)[:, q_l - 1 :: q_l]
        b = np.arange(1, width + 1)[:, None]
        # child shifts b theta_l Q mod Q = b q_l P mod Q, b = 1..width
        tb = (t[:nfree] + _residues(q_l * P, Q, width)[:, None]) % Q
        # children in digit-major order, so the maxed ones (b = a_{l+1}) come last
        t = np.concatenate([t, tb.ravel()])
        M = np.concatenate([M, (M[:nfree] + b * q_l).ravel()])
        acc = np.concatenate([acc, (acc[:nfree] + g.T).ravel()])
        nfree = t.size - nfree
    out[M] = acc
    return out


def cotangent_sum(alpha, x, N: int) -> float:
    """sum_{n=1..N} cot(pi (n alpha + x)) with compensated summation.

    alpha and x are exact rationals, so _walk detects poles exactly and
    raises PoleError carrying the offending index.
    """
    return math.fsum(1.0 / np.tan(np.pi * _ratios(*_walk(alpha, x, N, PoleError))))


def cotangent_V(ell: int, x: float, table: ConvergentTable) -> float:
    """The distance-weighted cotangent sum V_l(x), decreasing on (-1, 1).

    V_l(x) = sum_{n=1}^{q_l - 1} sin(pi n dist_l / q_l)
             * cot(pi (n (-1)^l p_l + x) / q_l).

    The cotangent arguments reduce to (r_n + x)/q_l with r_n the nonzero
    residues of n (-1)^l p_l mod q_l, so for |x| < 1 the sum is pole free.
    """
    if not -1 < x < 1:
        raise PrecondError(f"need |x| < 1, got x={x}")
    q = table.q(ell)
    if q == 1:
        return 0.0
    d = float(table.dist(ell))
    r = _residues((-1) ** ell * table.p(ell), q, q - 1)
    n = np.arange(1, q, dtype=np.int64)
    weights = np.sin(np.pi * (n * (d / q)))
    cots = 1.0 / np.tan(np.pi * ((r + x) / q))
    return math.fsum(weights * cots)


def explicit_formula_eval(ell: int, x, table: ConvergentTable) -> float:
    """Closed form of log P_{q_l}(alpha, (-1)^l x / q_l) over the integer grid.

    P = f(dist_l + x/q_l) * (f(z)/f(z/q_l)) *
        prod_{n=1}^{q_l-1} f((n - y_n - z)/q_l) / f((n - z)/q_l),

    with z = x + q_l dist_l / 2 and y_n = ({n q_{l-1}/q_l} - 1/2) q_l dist_l.
    When z/q_l is an integer both f(z) and f(z/q_l) vanish and the ratio is
    replaced by its limit q_l.  x is an exact rational; the grid product runs
    in floats, with POLE_GUARD deciding its vanishing factors.  Must match
    shifted_sudler at the same shift.
    """
    q = table.q(ell)
    d = table.dist(ell)
    x = Fraction(x)
    z = x + q * d / 2
    first = log_f(d + x / q)
    if (z / q) % 1 == 0:
        mid = math.log(q)
    else:
        # z/q is not an integer, so f(z/q) does not vanish
        mid = log_f(z) - log_f(z / q)
    if q == 1:
        return first + mid
    qd = float(q * d)
    zf = float(z)
    res = _residues(table.q(ell - 1), q, q - 1)
    n = np.arange(1, q, dtype=np.int64)
    y = (res / q - 0.5) * qd
    num = ((n - y - zf) / q) % 1.0
    den = ((n - zf) / q) % 1.0
    num_m = np.minimum(num, 1.0 - num)
    den_m = np.minimum(den, 1.0 - den)
    if np.any(num_m < POLE_GUARD):
        raise ZeroFactorError(f"grid numerator n={int(np.argmin(num_m)) + 1} vanishes", n=int(np.argmin(num_m)) + 1)
    if np.any(den_m < POLE_GUARD):
        raise PoleError(f"grid denominator n={int(np.argmin(den_m)) + 1} vanishes", n=int(np.argmin(den_m)) + 1)
    ratio = math.fsum(np.log(np.sin(np.pi * num_m)) - np.log(np.sin(np.pi * den_m)))
    return first + mid + ratio


def ql_diff_check(ell: int, m: int, table: ConvergentTable):
    """Coupling of q_l dist_m across dropping the first partial quotient.

    Returns (lhs, bound) as exact Fractions, where lhs = |q_l dist_m - q'_l
    dist'_m| = |q_l - p_l/alpha| dist_m (q'_l = p_l, dist'_m = dist_m/alpha)
    and bound = 2/(q_{l+1} p_{m+1}); the contract is lhs <= bound.  Valid for
    a0 = 0 and 1 <= l <= m, provided m >= 2, or m = 1 with a_2 > 1 (otherwise
    rejected: q'_1 degenerates).
    """
    if table.cf.a0 != 0:
        raise PrecondError("ql_diff_check requires a0 = 0")
    if not 1 <= ell <= m:
        raise PrecondError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    if not (m >= 2 or table.partial(2) > 1):
        raise PrecondError("m = 1 requires a_2 > 1")
    lhs = abs(table.q(ell) - table.p(ell) / table.alpha_exact) * table.dist(m)
    bound = Fraction(2, table.q(ell + 1) * table.p(m + 1))
    return lhs, bound
