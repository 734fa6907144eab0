"""Figure-eight colored Jones values and Zagier's modularity defect.

J(p/q) = sum_{N<q} P_N(p/q)^2 is the colored Jones value of the figure-eight
knot at the root of unity exp(2 pi i p/q); it is 1-periodic and even.  The
central object is

    h(x) = log J(x) - log J(1/x),

together with two corrected forms that isolate its bounded part:

    psi(x)  = h(x) - Vol/(2 pi x) + (3/2) log x,
    psi*(x) = h(x) + (Vol/2 pi) (x - 1/x),

where Vol = 2.0298832... is the hyperbolic volume of the knot complement,
computed here as 4 pi times the log-sine integral over (0, 5/6), that is
2 Cl_2(pi/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from sudlerlab.cfrac import CFExpansion, cf_expand, convergents
from sudlerlab.errors import EnumerationCapError, PrecondError
from sudlerlab.trig import ENUM_CAP, _logsumexp, _logsumexp_rows, _prefix_logs

__all__ = [
    "HValue",
    "vol_41",
    "psi_heuristic",
    "jones_J",
    "h_eval",
    "telescoping_logJ",
    "m_k",
]


# |B_2k| / (2k (2k+1)!) for k = 1..30, the Taylor coefficients of
# Cl_2(theta) - theta + theta log theta; the terms shrink about fourfold per k
# at theta = pi, where term 30 is 1.5e-21
_CL2_COEFFS = (
    0.013888888888888888, 6.944444444444444e-05, 7.873519778281683e-07,
    1.1482216343327455e-08, 1.8978869988971e-10, 3.387301370953521e-12,
    6.372636443183181e-14, 1.2462059912950672e-15, 2.5105444608999545e-17,
    5.178258806090623e-19, 1.0887357368300849e-20, 2.325744114302087e-22,
    5.03519521314739e-24, 1.1026499294381215e-25, 2.4386585509007344e-27,
    5.440142678856253e-29, 1.2228340131217352e-30, 2.767263468967951e-32,
    6.3000905918320136e-34, 1.4420868388418476e-35, 3.3170939991595428e-37,
    7.663913557920658e-39, 1.7778714733830659e-40, 4.1396058982341375e-42,
    9.671557036081102e-44, 2.2667187016766123e-45, 5.327956311328254e-47,
    1.2557248389564336e-48, 2.967000542247094e-50, 7.026787317600742e-52,
)


def _clausen2(theta: float) -> float:
    """Cl_2(theta) = sum_n sin(n theta)/n^2 for 0 < theta <= pi.

    Cl_2(theta) = theta - theta log theta + sum_k |B_2k| theta^(2k+1) / (2k (2k+1)!),
    convergent for |theta| < 2 pi.  The terms are summed with fsum: a
    left-to-right float sum gives 2 Cl_2(pi/3) two ulp low.
    """
    terms = [theta, -theta * math.log(theta)]
    terms += [c * theta ** (2 * k + 1) for k, c in enumerate(_CL2_COEFFS, 1)]
    return math.fsum(terms)


def _logsine_integral(t: Fraction) -> float:
    """int_0^t log(2 sin(pi x)) dx = -Cl_2(2 pi t)/(2 pi) for 0 <= t <= 1/2."""
    tf = float(t)
    if tf == 0.0:
        return 0.0
    return -_clausen2(2 * math.pi * tf) / (2 * math.pi)


def psi_heuristic(y) -> float:
    """Psi(y) = 2 int_0^y log|2 sin(pi x)| dx on [0, 1]; maximal at y = 5/6.

    For y > 1/2 the reflection x -> 1-x gives Psi(y) = -Psi(1-y), because the
    integral over the whole period vanishes.
    """
    y = Fraction(y)
    if not 0 <= y <= 1:
        raise PrecondError(f"need 0 <= y <= 1, got {y}")
    if y <= Fraction(1, 2):
        return 2.0 * _logsine_integral(y)
    return -2.0 * _logsine_integral(1 - y)


@lru_cache(maxsize=1)
def vol_41() -> float:
    """Hyperbolic volume of the figure-eight complement, 4 pi int_0^{5/6} log f.

    Cached; equals 2 pi * psi_heuristic(5/6) by construction, and is
    cross-checked against the Clausen-function closed form in the tests.
    """
    return 2.0 * math.pi * psi_heuristic(Fraction(5, 6))


# rows per kernel block: about this many terms, which bounds the block's arrays
_BLOCK_TERMS = 1 << 18


def _logJ_rows(q: int, ps) -> list[float]:
    """log J(p/q) for each p in ps; every p coprime to q, 0 < p < q.

    All P_N(p/q) of one denominator read the same table log(2 sin(pi k/q)),
    k <= q/2: row p gathers it at min(r, q - r), r = n p mod q, and takes the
    cumulative sum.  Rows go a block at a time through trig._logsumexp_rows,
    which sums each row correctly rounded in a few passes over the block, so
    a value does not depend on how rows are batched; _BLOCK_TERMS bounds its
    temporaries.  Callers keep q within trig.ENUM_CAP (2^21), so n p < 2^42
    and the residues are exact in int64.
    """
    ps = np.asarray(ps, dtype=np.int64)
    table = np.zeros(q // 2 + 1)  # entry 0 (a vanishing factor) is never read
    np.log(2.0 * np.sin(np.pi * (np.arange(1, q // 2 + 1) / q)), out=table[1:])
    n = np.arange(1, q, dtype=np.int64)
    rows = max(1, _BLOCK_TERMS // q)
    out: list[float] = []
    for i in range(0, ps.size, rows):
        r = ps[i : i + rows, None] * n % q
        np.minimum(r, q - r, out=r)
        mags = np.zeros((r.shape[0], q))  # column 0 is the empty product P_0
        np.cumsum(table[r], axis=1, out=mags[:, 1:])
        mags *= 2.0
        out += _logsumexp_rows(mags)
    return out


@lru_cache(maxsize=1 << 20)
def _logJ_mag(p: int, q: int) -> float:
    """log J(p/q) for 0 <= p <= q/2, cached under that folded key.

    J is 1-periodic and even, so every p' = +-p mod q names the same value;
    jones_J and h_eval fold such a p' to min(p' mod q, q - p' mod q) before
    the lookup, and the rows of p and q - p are equal bit for bit (see
    _logJ_rows), so x and 1 - x share one entry.  Raises
    EnumerationCapError, before anything is allocated, when q exceeds
    trig.ENUM_CAP (2^21).
    """
    if q > ENUM_CAP:
        raise EnumerationCapError(f"denominator q = {q} exceeds cap {ENUM_CAP}")
    if q == 1:
        return 0.0
    return _logJ_rows(q, [p])[0]


def jones_J(r) -> float:
    """log J(r), J(r) = sum_{N < den(r)} P_N(r)^2; 1-periodic, even, J(int) = 1.

    r = p/q in lowest terms is looked up under the key (min(p mod q,
    q - p mod q), q), so r, -r, r + n and 1 - r share one cached row.
    """
    r = Fraction(r)
    q = r.denominator
    p = r.numerator % q
    return _logJ_mag(min(p, q - p), q)


@dataclass(frozen=True)
class HValue:
    """log J at x and 1/x with the derived h, psi, psi* readings."""

    x: Fraction
    logJ_x: float
    logJ_inv: float
    h: float
    psi: float
    psi_star: float


def h_eval(r) -> HValue:
    """h(r) = log J(r) - log J(1/r) plus corrected forms; r != 0.

    Negative arguments fold to |r| = p/q (J is even, hence so is h).  The
    two Jones keys come from p and q by integer remainders, (p mod q, q)
    and (q mod p, p), each folded as in jones_J, never through a float.
    """
    r = Fraction(r)
    if r == 0:
        raise PrecondError("h is undefined at 0")
    t = abs(r)
    p, q = t.numerator, t.denominator
    a, b = p % q, q % p
    logJ_x = _logJ_mag(min(a, q - a), q)
    logJ_inv = _logJ_mag(min(b, p - b), p)
    h = logJ_x - logJ_inv
    x = p / q
    vol = vol_41()
    psi = h - vol / (2 * math.pi * x) + 1.5 * math.log(x)
    psi_star = h + vol / (2 * math.pi) * (x - 1 / x)
    return HValue(x=t, logJ_x=logJ_x, logJ_inv=logJ_inv, h=h, psi=psi, psi_star=psi_star)


def telescoping_logJ(r) -> tuple[float, float]:
    """Both sides of the telescoping identity for log J at a reduced p/q.

    lhs = log J(pbar/q) with pbar the inverse of p mod q; rhs accumulates
    h(q_{l-1}/q_l) over the convergent denominators of p/q.  The chain
    telescopes because {q_l / q_{l-1}} = q_{l-2}/q_{l-1} exactly.
    """
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    if not 0 < p < q:
        raise PrecondError(f"need 0 < p < q, got {r}")
    pbar = pow(p, -1, q)
    lhs = jones_J(Fraction(pbar, q))
    cf = cf_expand(r)
    t = convergents(cf, cf.L)
    rhs = math.fsum(
        h_eval(Fraction(t.q(ell - 1), t.q(ell))).h for ell in range(1, cf.L + 1)
    )
    return lhs, rhs


def m_k(cf: CFExpansion, k: int) -> float:
    """M_k: log ratio of 5/6-shifted Jones-type sums at level k.

    Numerator runs over the convergent p_k/q_k with shift (-1)^k (5/6)/q_k,
    denominator over the level-k convergent (q_k - a_1 p_k)/p_k of the
    first-digit-dropped 1/alpha - a_1 with the opposite sign.  Requires
    a0 = 0; depends only on the first k partial quotients.  Raises
    EnumerationCapError, before allocating, when a sum has more than
    trig.ENUM_CAP terms.
    """
    if k < 1:
        raise PrecondError(f"need k >= 1, got {k}")
    if cf.a0 != 0:
        raise PrecondError("m_k requires a0 = 0")
    t = convergents(cf, k)
    p, q = t.p(k), t.q(k)
    shift = Fraction((-1) ** k * 5, 6)
    num = _logsumexp(2.0 * _prefix_logs(Fraction(p, q), shift / q, q - 1))
    den = _logsumexp(2.0 * _prefix_logs(Fraction(q - t.partial(1) * p, p), -shift / p, p - 1))
    return num - den
