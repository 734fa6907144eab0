"""Farey-sweep value distribution of log J against the skewed stable law.

Over the Farey set F_N (reduced rationals in (0,1) with denominator at most
N), two normalized statistics are tracked:

  stat_logJ(x) = log J(x) / ((3 Vol / pi^2) log N) - (2/pi) log log N - D,
  stat_pq(x)   = pi (a_1+...+a_L) / (6 log N)
                 - (2 log log N - 2 gamma + 2 log(6/pi)) / pi,

where gamma = 0.5772... is Euler's constant (EULER_GAMMA).  Their common
limit law is the standard stable distribution with stability 1 and
skewness 1, E exp(itY) = exp(-|t| (1 + (2i/pi) sgn(t) log|t|)), whose heavy
(power-law) tail sits on the right.  Its CDF and density come from Nolan's
alpha = 1 integral form (J. P. Nolan, "Numerical calculation of stable
densities and distribution functions", Stoch. Models 13, 1997), written in
u = theta + pi/2 with c = exp(-pi y/2) and

  V(u) = (2/pi) (u / sin u) exp(-u cot u),   0 < u < pi,
  F(y) = (1/pi) int_0^pi exp(-c V(u)) du,
  g(y) = (c/2) int_0^pi V(u) exp(-c V(u)) du.

The integrands are positive and do not oscillate.  V increases from 2/(pi e)
to infinity, so c V(u) crosses 1 at a single point u*; Gauss-Legendre panels
graded geometrically toward u* from both sides carry the quadrature, and a
coarser rule on the same panels guards its convergence.  The transition at
u* is about pi/t^2 wide for t = pi y/2, so the panels go about log2 t levels
deep: 8 at the grid's top y = 80, 21 at y = 1e6.  Each value is summed on
its own and depends on y alone, not on the other points of the call.  The
CDF grid is fixed (StableLaw.grid_lo, grid_hi, grid_step), and the right
tail beyond it uses 1 - F(y) ~ (2/pi)/y.  `ks_compare` takes a sample in any
order, as a plain array, sorts it and measures its Kolmogorov-Smirnov
distance from the law with `_ks_sorted`, which reads the CDF a slice of the
sorted sample at a time.

`_sweep_blocks` streams the rows of q = 2..N in q order, a block of whole
denominators at a time, so F_N comes out in (q, p) order with no sort;
`dist` in sudlerlab.cli writes each block as it comes and keeps only its
statistic column.  `sweep` concatenates the blocks into one table, from
which `_h_rows` reads h for `estimate_D`, for the th3 suite of
sudlerlab.verify and for `scan` in sudlerlab.cli.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from typing import Iterator

import numpy as np

from sudlerlab.errors import EnumerationCapError, PrecondError, QuadratureError
from sudlerlab.jones import _logJ_rows, vol_41
from sudlerlab.trig import _BLOCK, ENUM_CAP

__all__ = [
    "StableLaw",
    "stable_cdf",
    "estimate_D",
    "ks_compare",
    "sweep",
]

EULER_GAMMA = float(np.euler_gamma)

# right-tail mass constant of the stable(1, 1) law: 1 - F(y) ~ (2/pi)/y
TAIL_C = 2.0 / math.pi


# -- statistics ----------------------------------------------------------------


def _stat_logJ_from_mag(logJ_mag, N: int, D: float):
    scale = (3.0 * vol_41() / math.pi**2) * math.log(N)
    return logJ_mag / scale - (2.0 / math.pi) * math.log(math.log(N)) - D


def _stat_pq_from_sum(sum_a, N: int):
    loglogN = math.log(math.log(N))
    center = (2.0 * loglogN - 2.0 * EULER_GAMMA + 2.0 * math.log(6.0 / math.pi)) / math.pi
    return math.pi * sum_a / (6.0 * math.log(N)) - center


# -- stable(1, 1) reference law --------------------------------------------------

# where c V(u) >= 40 both integrands are below 2e-16, so the u-range stops there
_Z_CUT = math.log(40.0)
# panels per side of u*, each a quarter as wide as the one before, go at most
# this deep: the panel next to u* is then 4^-20 of the side, about as narrow
# as the transition at u* at y = 1e6; `_depth` picks fewer levels below that
_LEVELS = 21
# pi 2^-40 = 3e-12 puts u* inside the transition even at y = 1e6, where it is
# pi/t^2 = 1.3e-12 wide
_BISECTIONS = 40
_TOL = 1e-9


def _log_V(u: np.ndarray) -> np.ndarray:
    """log V(u), V(u) = (2/pi)(u/sin u) exp(-u cot u); V increases from 2/(pi e)."""
    ratio = np.divide(u, np.sin(u), out=np.ones_like(u), where=u > 0.0)
    return math.log(2.0 / math.pi) + np.log(ratio) - ratio * np.cos(u)


def _depth(target: np.ndarray) -> np.ndarray:
    """Panel levels per side of u* for each t = pi y/2.

    Near u = pi, log V(u) ~ pi/(pi - u), so (log V)'(u*) ~ t^2/pi: the
    transition at u* is about pi/t^2 wide, and the panel next to it, 4^-(L-1)
    of the side, resolves it once L ~ log2 t.  One level more than that keeps
    F and g within 1e-15 of the 21-level values from y = -12 to y = 1e6.
    """
    levels = np.ceil(np.log2(np.fmax(target, 1.0))) + 1.0
    return np.clip(levels, 2, _LEVELS).astype(np.int64)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes, ascending, and weights on [-1, 1].

    Newton's method on P_n, evaluated by the three-term recurrence
    (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1), from the guesses
    cos(pi (k - 1/4)/(n + 1/2)); the weights are 2/((1 - x)(1 + x) P_n'(x)^2).
    Newton stops when its largest step no longer shrinks, which is at
    rounding level: "until no node moves" can cycle between neighbouring
    doubles.  NumPy alone, so no run starts LAPACK for a rule.
    """
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    size = math.inf
    while True:
        p0, p = np.ones_like(x), x
        for k in range(1, n):
            p0, p = p, ((2 * k + 1) * x * p - k * p0) / (k + 1)
        dp = n * (p0 - x * p) / ((1.0 - x) * (1.0 + x))  # P_n'(x)
        step = p / dp
        last, size = size, np.max(np.abs(step))
        if not size < last:
            break
        x = x - step
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _graded_rule(n: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on `levels` panels of [0, 1] graded toward 1.

    Panel k spans [1 - 4^-k, 1 - 4^-(k+1)] for k < levels - 1 and the last
    ends at 1; each carries the `_gauss_legendre(n)` rule mapped onto it.
    """
    x, w = _gauss_legendre(n)
    edges = np.append(1.0 - 0.25 ** np.arange(levels), 1.0)
    half = np.diff(edges)[:, None] / 2.0
    rule = (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()
    for a in rule:
        a.flags.writeable = False
    return rule


def _crossing(target: np.ndarray) -> np.ndarray:
    """u in [0, pi) with log V(u) = target by bisection; 0 where target <= log V(0)."""
    lo = np.zeros_like(target)
    hi = np.full_like(target, math.pi)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = _log_V(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo


def _panel_sums(rule, target, u_star, u_cut):
    """F and g on one block by one rule over [0, u*] and [u*, u_cut].

    Each row is summed on its own, so a value does not depend on its block; a
    matrix product would go through BLAS, which sums in an order set by the
    block's shape.
    """
    t, w = rule
    F = np.zeros_like(target)
    g = np.zeros_like(target)
    for width, u in (
        (u_star, u_star[:, None] * t),
        (u_cut - u_star, u_cut[:, None] - (u_cut - u_star)[:, None] * t),
    ):
        cV = np.exp(np.minimum(_log_V(u) - target[:, None], _Z_CUT))
        f = np.exp(-cV)
        F += width * (f * w).sum(axis=1)
        g += width * (cV * f * w).sum(axis=1)
    return F / math.pi, g / 2.0


def _nolan(y) -> tuple[np.ndarray, np.ndarray]:
    """F(y) and g(y) at each y (flattened) by Nolan's integrals."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64)).ravel()
    # c V(u*) = 1 at the crossing u*: the g integrand peaks there and the
    # F integrand falls from 1 to 0 around it
    target = (math.pi / 2.0) * y
    depth = _depth(target)
    u_star, u_cut = _crossing(np.stack([target, target + _Z_CUT]))
    F = np.empty_like(y)
    g = np.empty_like(y)
    for levels in np.unique(depth).tolist():
        fine, coarse = _graded_rule(24, levels), _graded_rule(20, levels)
        group = np.flatnonzero(depth == levels)
        # one side's nodes of the fine rule, 24 per panel, fill about
        # trig._BLOCK doubles, so the few node arrays alive at once fit in
        # L2: 85 y values per block on the CDF grid (at most 8 levels), 32
        # at full depth
        per = max(1, _BLOCK // (24 * levels))
        for i in range(0, group.size, per):
            block = group[i : i + per]
            tb, us, uc = target[block], u_star[block], u_cut[block]
            # the values come from the fine rule; the coarse one is the guard
            Ff, gf = _panel_sums(fine, tb, us, uc)
            Fc, gc = _panel_sums(coarse, tb, us, uc)
            err = max(np.max(np.abs(Ff - Fc)), np.max(np.abs(gf - gc)))
            if not err <= _TOL:
                raise QuadratureError(
                    f"stable-law quadrature rules differ by {err:.3g} > {_TOL}"
                )
            F[block] = Ff
            g[block] = gf
    return F, g


class StableLaw:
    """The standard stable law with stability 1 and skewness 1.

    `cdf` and `quantile` interpolate F on the fixed grid grid_lo, grid_lo +
    grid_step, ..., grid_hi, built on first use; `density` and `cdf_exact`
    evaluate the integrals directly.
    """

    grid_lo = -12.0
    grid_hi = 80.0
    grid_step = 0.02

    def density(self, y):
        """g(y); an array for array y."""
        g = _nolan(y)[1].reshape(np.shape(y))
        return g if g.ndim else float(g)

    def cdf_exact(self, y) -> np.ndarray:
        """F(y) by direct quadrature, as a 1-d array."""
        return np.clip(_nolan(y)[0], 0.0, 1.0)

    @functools.cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray]:
        ys = np.arange(self.grid_lo, self.grid_hi + self.grid_step, self.grid_step)
        return ys, np.maximum.accumulate(self.cdf_exact(ys))

    def cdf(self, y) -> np.ndarray:
        """F(y) by dense-grid interpolation with the analytic right tail."""
        ys, Fs = self._grid
        y = np.asarray(y, dtype=np.float64)
        out = np.interp(y, ys, Fs, left=0.0, right=1.0)
        right = y > ys[-1]
        if np.any(right):
            out = np.where(right, 1.0 - TAIL_C / np.maximum(y, 1.0), out)
        return out if out.ndim else float(out)

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF; beyond the grid the power tail 1-F = (2/pi)/y inverts."""
        ys, Fs = self._grid
        u = np.asarray(u, dtype=np.float64)
        if np.any((u <= 0.0) | (u >= 1.0)):
            raise PrecondError("quantile needs u in (0, 1)")
        keep = Fs < 1.0 - 1e-12
        Fk, yk = Fs[keep], ys[keep]
        Fk, idx = np.unique(Fk, return_index=True)
        out = np.interp(u, Fk, yk[idx])
        top = u > Fk[-1]
        if np.any(top):
            out = np.where(top, TAIL_C / (1.0 - u), out)
        return out if out.ndim else float(out)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n inverse-CDF draws from a seeded generator."""
        rng = np.random.default_rng(seed)
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=n)
        return np.sort(self.quantile(u))


@functools.lru_cache(maxsize=1)
def _default_law() -> StableLaw:
    return StableLaw()


def stable_cdf(y):
    """CDF F(y) of the stable(1, 1) law under the shared default config."""
    return _default_law().cdf(y)


# -- empirical side --------------------------------------------------------------


def ks_compare(samples, law: StableLaw) -> float:
    """Kolmogorov-Smirnov sup distance between a sample, in any order, and the law."""
    return _ks_sorted(np.sort(np.asarray(samples, dtype=np.float64)), law)


def _ks_sorted(x: np.ndarray, law: StableLaw) -> float:
    """ks_compare of a sample already sorted ascending.

    The law's CDF is read trig._BLOCK values at a time, so nothing the length
    of the sample is built; each value and each maximum is the one the whole
    array would give.
    """
    n = x.size
    if n < 100:
        raise PrecondError(f"need n >= 100 samples, got {n}")
    above = below = -np.inf
    for lo in range(0, n, _BLOCK):
        F = np.asarray(law.cdf(x[lo : lo + _BLOCK]))
        i = np.arange(lo + 1, lo + F.size + 1)
        # np.maximum, like one np.max over the whole array, carries a NaN through
        above = np.maximum(above, np.max(i / n - F))
        below = np.maximum(below, np.max(F - (i - 1) / n))
    return float(max(above, below))


# -- sweeps ----------------------------------------------------------------------


_SWEEP_DTYPE = [
    ("p", np.int64), ("q", np.int64), ("sum_a", np.int64), ("logJ", np.float64)
]
_SWEEP_CHUNK = 8  # denominators per task when sweep runs in worker processes


def _partial_quotient_sums(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """a_1 + ... + a_L of each p/q, by Euclid's algorithm on all rows at once."""
    total = np.zeros_like(ps)
    todo, x, y = np.arange(ps.size), qs, ps
    while todo.size:  # the rows whose expansion is unfinished, and their x and y
        quo, rem = np.divmod(x, y)
        total[todo] += quo
        live = rem > 0
        todo, x, y = todo[live], y[live], rem[live]
    return total


def _farey_row(q: int) -> np.ndarray:
    """Sweep rows of the reduced p/q in (0, 1) with denominator q, ascending in p.

    The Jones kernel runs on p <= q/2 only: n (q - p) = -n p mod q, so the
    row of q - p gathers the same factors as the row of p; _sweep_blocks
    fills sum_a.
    """
    lo = np.arange(1, q // 2 + 1, dtype=np.int64)
    lo = lo[np.gcd(lo, q) == 1]
    logJ = np.array(_logJ_rows(q, lo))
    k = np.count_nonzero(2 * lo < q)  # every p but p = 1 at q = 2
    rows = np.empty(lo.size + k, dtype=_SWEEP_DTYPE)
    rows["p"] = np.concatenate([lo, q - lo[:k][::-1]])
    rows["q"] = q
    rows["logJ"] = np.concatenate([logJ, logJ[:k][::-1]])
    return rows


def _block(parts: list[np.ndarray]) -> np.ndarray:
    """The rows of consecutive denominators as one block, with sum_a filled."""
    rows = np.concatenate(parts)
    rows["sum_a"] = _partial_quotient_sums(rows["p"], rows["q"])
    return rows


def _sweep_blocks(N: int, threads: int = 1) -> Iterator[np.ndarray]:
    """The rows of sweep(N) as consecutive blocks of whole denominators.

    Each block holds the rows of the next few q, at least trig._BLOCK of them
    (the last block may hold fewer), with sum_a filled by one Euclid on the
    block.  The rows are an ordered map of _farey_row over q = 2..N, a few q
    per worker task when threads > 1, so the blocks and their bytes do not
    depend on the worker count.  Each pool.map takes one window of 4 tasks
    per worker and the next starts when the consumer has read it, so the
    finished rows that wait in memory do not grow with N.  N is checked
    before the first row.
    """
    if N < 2:
        raise PrecondError(f"need N >= 2, got {N}")
    if N > ENUM_CAP:
        raise EnumerationCapError(f"N {N} exceeds cap {ENUM_CAP}")
    qs = range(2, N + 1)
    with contextlib.ExitStack() as stack:
        if threads <= 1:
            rows = map(_farey_row, qs)
        else:
            # imported here, so a single-process run loads no multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # fork starts every worker at the first submit, so ask for no more
            # workers than there are tasks
            workers = min(threads, math.ceil(len(qs) / _SWEEP_CHUNK))
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            window = 4 * workers * _SWEEP_CHUNK
            rows = itertools.chain.from_iterable(
                pool.map(_farey_row, qs[i : i + window], chunksize=_SWEEP_CHUNK)
                for i in range(0, len(qs), window)
            )
        parts, size = [], 0
        for row in rows:
            parts.append(row)
            size += row.size
            if size >= _BLOCK:
                yield _block(parts)
                parts, size = [], 0
        if parts:
            yield _block(parts)


def sweep(N: int, threads: int = 1) -> np.ndarray:
    """Per-fraction sweep over F_N: (p, q, sum of partial quotients, log J).

    The concatenation of the _sweep_blocks(N, threads) blocks: the rows are
    in (q, p) order, with no sort, whatever the worker count.  Each
    denominator q costs one table of about q/2 sines and a gather of q - 1
    residues per fraction with p < q/2: about N^2/4 sines and (1/pi^2) N^3
    gathers in total.  The table takes 32 bytes per fraction; `dist` in
    sudlerlab.cli reads the blocks instead and never holds it.  Raises
    EnumerationCapError, before any row is computed, when N exceeds
    trig.ENUM_CAP.
    """
    return np.concatenate(list(_sweep_blocks(N, threads)))


def _h_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = p/q and h(x), the floats of h_eval, on the (q, p)-ordered rows of F_N.

    J is 1-periodic, so J(q/p) = J((q mod p)/p): another row of F_N, found
    by its (q, p) key, except J(1) = 1 at p = 1.
    """
    p, q, logJ = rows["p"], rows["q"], rows["logJ"]
    base = q[-1] + 1  # N + 1 exceeds every p
    key = q * base + p
    logJ_inv = logJ[np.searchsorted(key, p * base + q % p)]
    logJ_inv[p == 1] = 0.0
    return p / q, logJ - logJ_inv


def _psi_rows(x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log x and psi = h - Vol/(2 pi x) + (3/2) log x with the operations of h_eval.

    log x is math.log per element: np.log differs from it in the last bit at some x.
    """
    log_x = np.array([math.log(v) for v in x.tolist()])
    return log_x, h - vol_41() / (2 * math.pi * x) + 1.5 * log_x


def estimate_D(Ncap: int) -> float:
    """The centering constant D via psi* sampled over the Farey points F_Ncap.

    D = (2 gamma - 2 log(6/pi))/pi + (4/Vol) int_0^1 psi*(x)/(1+x) dx,
    with gamma Euler's constant and the integral taken midpoint-weighted
    over the sorted sample (endpoints 0 and 1 bound the first and last
    cells), with h read from the rows of sweep(Ncap).  Densifying the sample
    is the caller's sensitivity knob.
    """
    return _D_from_rows(sweep(Ncap), Ncap)


def _D_from_rows(rows: np.ndarray, Ncap: int) -> float:
    """estimate_D(Ncap) from the (q, p)-ordered sweep rows of F_Ncap.

    `sweep(N)[sweep(N)["q"] <= Ncap]` holds the same rows for any N >= Ncap.
    """
    if Ncap < 50:
        raise PrecondError(f"need Ncap >= 50, got {Ncap}")
    x, h = _h_rows(rows)
    # h(x) + (Vol/2 pi)(x - 1/x) with the operations of h_eval
    psi_star = h + vol_41() / (2 * math.pi) * (x - 1 / x)
    order = np.argsort(x)
    xs = x[order]
    vals = psi_star[order] / (1.0 + xs)
    edges = np.concatenate([[0.0], xs, [1.0]])
    w = (edges[2:] - edges[:-2]) / 2.0
    integral = float(w @ vals)
    return (2.0 * EULER_GAMMA - 2.0 * math.log(6.0 / math.pi)) / math.pi + (
        4.0 / vol_41()
    ) * integral
