"""Figure-eight colored Jones values and Zagier's modularity defect.

J(p/q) = sum_{N<q} P_N(p/q)^2 is the colored Jones value of the figure-eight
knot at the root of unity exp(2 pi i p/q); it is 1-periodic and even.  The
central object is

    h(x) = log J(x) - log J(1/x),

together with two corrected forms that isolate its bounded part:

    psi(x)  = h(x) - Vol/(2 pi x) + (3/2) log x,
    psi*(x) = h(x) + (Vol/2 pi) (x - 1/x),

where Vol = 2 Cl_2(pi/3) = 2.0298832... is the hyperbolic volume of the
knot complement, 4 pi times the log-sine integral over (0, 5/6), kept as a
literal double.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sudlerlab.cfrac import cf_expand, convergents
from sudlerlab.errors import EnumerationCapError, PrecondError
from sudlerlab.trig import _BLOCK, ENUM_CAP, _logsumexp_rows

__all__ = [
    "HValue",
    "vol_41",
    "jones_J",
    "h_eval",
    "telescoping_logJ",
]


def vol_41() -> float:
    """Hyperbolic volume of the figure-eight knot complement, 2 Cl_2(pi/3).

    The correctly rounded double of 4 pi int_0^{5/6} log(2 sin(pi x)) dx;
    the tests check it against mpmath's Clausen function and quadrature.
    """
    return 2.0298832128193074


def _logJ_rows(q: int, ps) -> list[float]:
    """log J(p/q) for each p in ps; every p coprime to q, 0 < p < q.

    All P_N(p/q) of one denominator read the same table log(2 sin(pi k/q)),
    k <= q/2: row p gathers it at min(r, q - r), r = n p mod q, and takes the
    cumulative sum.  Rows go a block at a time through trig._logsumexp_rows,
    which sums each row correctly rounded in a few passes over the block, so
    a value does not depend on how rows are batched.  A block holds about
    trig._BLOCK = 2^14 terms (one row when q is larger), so its residue,
    gather, cumsum and summation arrays, 128 KB each, fit in L2 together;
    2^18-term blocks were slower and set dist's peak memory.  Callers keep q within trig.ENUM_CAP (2^21), so n p < 2^42
    and the residues are exact in int64.
    """
    ps = np.asarray(ps, dtype=np.int64)
    table = np.zeros(q // 2 + 1)  # entry 0 (a vanishing factor) is never read
    np.log(2.0 * np.sin(np.pi * (np.arange(1, q // 2 + 1) / q)), out=table[1:])
    n = np.arange(1, q, dtype=np.int64)
    rows = max(1, _BLOCK // q)
    out: list[float] = []
    for i in range(0, ps.size, rows):
        r = ps[i : i + rows, None] * n % q
        np.minimum(r, q - r, out=r)
        mags = np.zeros((r.shape[0], q))  # column 0 is the empty product P_0
        np.cumsum(table[r], axis=1, out=mags[:, 1:])
        mags *= 2.0
        out += _logsumexp_rows(mags)
    return out


_LOGJ_MAXSIZE = 1 << 20  # entries of the _logJ_mag store
_logJ_store: dict[int, float] = {}
_logJ_hits = 0
_logJ_misses = 0
_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


def _logJ_mag(p: int, q: int) -> float:
    """log J(p/q) for 0 <= p <= q/2, stored under that folded key.

    J is 1-periodic and even, so every p' = +-p mod q names the same value;
    jones_J and h_eval fold such a p' to min(p' mod q, q - p' mod q) before
    the lookup, and the rows of p and q - p are equal bit for bit (see
    _logJ_rows), so x and 1 - x share one entry.  Raises
    EnumerationCapError, before anything is allocated or looked up, when q
    exceeds trig.ENUM_CAP (2^21).

    The store is one dict from the int q << 21 | p to the float; p <= q/2
    <= 2^20 keeps the key one-to-one.  An entry costs about 90 bytes, where
    an lru_cache entry (key tuple, LRU link) costs 160-210, so a full store
    of _LOGJ_MAXSIZE = 2^20 entries holds 96 MB instead of about 200 MB.  A
    full store is cleared before the next insert.  cache_info() and
    cache_clear() read and reset it as lru_cache's do.
    """
    global _logJ_hits, _logJ_misses
    if q > ENUM_CAP:
        raise EnumerationCapError(f"denominator q = {q} exceeds cap {ENUM_CAP}")
    key = q << 21 | p
    value = _logJ_store.get(key)
    if value is not None:
        _logJ_hits += 1
        return value
    _logJ_misses += 1
    value = 0.0 if q == 1 else _logJ_rows(q, [p])[0]
    if len(_logJ_store) >= _LOGJ_MAXSIZE:
        _logJ_store.clear()
    _logJ_store[key] = value
    return value


def _logJ_cache_info() -> _CacheInfo:
    return _CacheInfo(_logJ_hits, _logJ_misses, _LOGJ_MAXSIZE, len(_logJ_store))


def _logJ_cache_clear() -> None:
    global _logJ_hits, _logJ_misses
    _logJ_store.clear()
    _logJ_hits = _logJ_misses = 0


_logJ_mag.cache_info = _logJ_cache_info
_logJ_mag.cache_clear = _logJ_cache_clear


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
