"""Distribution machinery: the stable(1,1) law, sweeps, and the centering D.

Density and CDF oracles are frozen from two other implementations.  The
scipy.stats.levy_stable table (default parameterization) comes from scipy's
"piecewise" method, which is Nolan's integral like the code under test; the
second table comes from inverting the characteristic function, a different
algorithm, and reaches far into the right tail.
"""

import concurrent.futures
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudlerlab import dist
from sudlerlab.cfrac import cf_expand
from sudlerlab.dist import (
    EULER_GAMMA,
    StableLaw,
    _D_from_rows,
    _partial_quotient_sums,
    _default_law,
    _stat_logJ_from_mag,
    _stat_pq_from_sum,
    _sweep_blocks,
    estimate_D,
    ks_compare,
    stable_cdf,
    sweep,
)
from sudlerlab.errors import EnumerationCapError, PrecondError, QuadratureError
from sudlerlab.jones import jones_J, vol_41
from sudlerlab.trig import ENUM_CAP

from farey import farey_enumerate

# (y, pdf, cdf) from scipy.stats.levy_stable(alpha=1, beta=1)
STABLE_ORACLE = [
    (-2.0, 0.00650763682207515, 0.000707114056489182),
    (+0.0, 0.262240126375352, 0.365238701512375),
    (+1.0, 0.163531240868023, 0.577866759641952),
    (+3.0, 0.0586394883380362, 0.779296673358868),
    (+8.0, 0.0112656323880288, 0.910953085258825),
]

# (y, pdf, cdf) from inverting the characteristic function: panelled
# Gauss-Legendre on g(y) = (1/pi) int_0^inf exp(-t) cos(t y + (2/pi) t log t) dt
# and the matching sine integral for F, panels doubled until two levels
# agreed to 1e-9
CF_INVERSION_ORACLE = [
    (-3.0, 1.323800985833562e-11, 2.2792878695554464e-13),
    (+15.0, 0.003236473799153382, 0.953453203889934),
    (+30.0, 0.000782977743278508, 0.9774091450893552),
    (+50.0, 0.00027451418383124255, 0.986689636681181),
    (+80.0, 0.00010507549782982053, 0.9917869520040503),
]


# -- stable law against the frozen oracle -------------------------------------------


@pytest.fixture(scope="module")
def law():
    return _default_law()


def test_density_matches_independent_oracle(law):
    for y, pdf, _ in STABLE_ORACLE:
        assert law.density(y) == pytest.approx(pdf, abs=1e-9)


def test_cdf_matches_independent_oracle():
    for y, _, cdf in STABLE_ORACLE:
        assert float(stable_cdf(y)) == pytest.approx(cdf, abs=1e-7)


def test_density_and_cdf_match_characteristic_function_inversion(law):
    for y, pdf, cdf in CF_INVERSION_ORACLE:
        assert law.density(y) == pytest.approx(pdf, abs=1e-9)
        assert float(law.cdf_exact(y)[0]) == pytest.approx(cdf, abs=1e-9)


def test_density_is_central_difference_of_cdf(law):
    ys = np.linspace(-10.0, 80.0, 901)
    h = 1e-4
    slope = (law.cdf_exact(ys + h) - law.cdf_exact(ys - h)) / (2.0 * h)
    assert np.max(np.abs(slope - law.density(ys))) <= 1e-8


def test_density_is_right_skewed_and_nonnegative(law):
    ys = np.linspace(-10.0, 20.0, 301)
    dens = np.array([law.density(y) for y in ys])
    assert np.all(dens >= 0.0)
    assert law.density(8.0) > law.density(-8.0)


def test_density_normalizes_to_one(law):
    # Simpson over the grid body plus analytic wings from the CDF; the wing
    # values come from the sine integrand, the body from the cosine one
    ys = np.linspace(-12.0, 80.0, 4601)
    dens = law.density(ys)
    from scipy.integrate import simpson

    body = simpson(dens, x=ys)
    wings = float(law.cdf_exact(np.array([-12.0]))[0]) + (
        1.0 - float(law.cdf_exact(np.array([80.0]))[0])
    )
    assert body + wings == pytest.approx(1.0, abs=1e-6)


def test_cdf_monotone_with_honest_tails(law):
    ys = np.linspace(-12.0, 80.0, 2001)
    F = np.asarray(law.cdf(ys))
    assert np.all(np.diff(F) >= -1e-15)
    assert float(law.cdf(-50.0)) <= 1e-4
    # the right tail decays like 2/(pi y): at y = 50 about 1.3% of the mass
    # is still outstanding, so the CDF is NOT within 1e-4 of 1 there
    assert 1.0 - float(law.cdf(50.0)) == pytest.approx(2.0 / (math.pi * 50.0), rel=0.12)


def test_quantile_roundtrip(law):
    us = np.linspace(0.01, 0.99, 49)
    ys = law.quantile(us)
    assert np.all(np.diff(ys) > 0)
    back = np.asarray(law.cdf(ys))
    assert np.max(np.abs(back - us)) < 2e-3


def test_quantile_rejects_endpoints(law):
    for u in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(PrecondError):
            law.quantile(u)


def test_sample_self_consistency(law):
    assert ks_compare(law.sample(10**4, seed=5), law) <= 0.02


# -- stable-law quadrature depth ------------------------------------------------------


def test_grid_values_equal_one_point_values(law):
    # a value depends on its y alone, not on the block it was evaluated in
    ys = np.arange(law.grid_lo, law.grid_hi + law.grid_step, law.grid_step)
    F, g = law.cdf_exact(ys), law.density(ys)
    for i in range(0, ys.size, 37):
        assert law.cdf_exact(ys[i])[0] == F[i]
        assert law.density(ys[i]) == g[i]


_STABLE_Y = st.one_of(
    st.floats(-12.0, 80.0),
    st.floats(math.log(80.0), math.log(1e6)).map(math.exp),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_STABLE_Y, min_size=1, max_size=40))
def test_depth_rule_matches_full_depth(ys):
    F, g = dist._nolan(ys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_depth", lambda t: np.full(t.shape, dist._LEVELS))
        F_full, g_full = dist._nolan(ys)
    assert np.max(np.abs(F - F_full)) <= 2e-15
    assert np.max(np.abs(g - g_full)) <= 2e-15


@settings(max_examples=40, deadline=None)
@given(st.lists(_STABLE_Y, min_size=1, max_size=60), st.integers(1, 3))
def test_quadrature_values_do_not_depend_on_block_size(ys, per):
    # a block of 48 per values holds per y values at 2 levels and fewer,
    # down to one, deeper; the default puts all of them in one block
    F, g = dist._nolan(ys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_BLOCK", 48 * per)
        F_small, g_small = dist._nolan(ys)
    assert F_small.tobytes() == F.tobytes()
    assert g_small.tobytes() == g.tobytes()


def _peak_bytes(fn) -> int:
    """Peak traced allocation while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_grid_build_stays_in_small_blocks(law):
    # with the rules cached, a grid build peaks at 1.2 MB; 256 y values per
    # block made it 2.8 MB
    law._grid  # builds and caches the quadrature rules
    assert _peak_bytes(lambda: StableLaw()._grid) < 1.8 * 2**20


@pytest.mark.parametrize("y", [8.0, 20.0, 40.0, 80.0])
def test_guard_rejects_depth_three_levels_short(monkeypatch, y):
    depth = dist._depth
    monkeypatch.setattr(dist, "_depth", lambda t: np.maximum(depth(t) - 3, 1))
    with pytest.raises(QuadratureError):
        dist._nolan(y)


def test_import_builds_no_quadrature_rule():
    code = (
        "import sudlerlab.cli; from sudlerlab import dist; "
        "print(dist._graded_rule.cache_info().currsize, "
        "dist._gauss_legendre.cache_info().currsize)"
    )
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0 0"


def test_single_process_dist_loads_no_multiprocessing(tmp_path):
    # the pool is imported only for --threads > 1, so neither the import nor
    # a --threads 1 run with the stable-law report loads multiprocessing
    code = (
        "import sys; import sudlerlab.cli as cli; "
        "pool = ('multiprocessing', 'concurrent.futures.process'); "
        "print(sorted(m for m in pool if m in sys.modules)); "
        f"cli.main(['dist', '--N', '60', '--threads', '1', '--stat', 'logJ', "
        f"'--out', {str(tmp_path / 'd.csv')!r}, "
        f"'--report', {str(tmp_path / 'r.csv')!r}]); "
        "print(sorted(m for m in pool if m in sys.modules))"
    )
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert (tmp_path / "r.csv").stat().st_size > 0


def test_grid_builds_without_lapack(monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK was called")

    grid = _default_law()._grid
    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_lapack)
    dist._gauss_legendre.cache_clear()
    dist._graded_rule.cache_clear()
    ys, Fs = StableLaw()._grid
    assert ys.tobytes() == grid[0].tobytes() and Fs.tobytes() == grid[1].tobytes()


def _gauss_legendre_50_digits(n):
    """Nodes and weights polished by 50-digit Newton steps from leggauss's nodes."""
    with mpmath.workdps(50):
        xs, ws = [], []
        for x0 in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.mpf(float(x0))
            for _ in range(8):
                p0, p = mpmath.mpf(1), x
                for k in range(1, n):
                    p0, p = p, ((2 * k + 1) * x * p - k * p0) / (k + 1)
                dp = n * (p0 - x * p) / (1 - x * x)
                x -= p / dp
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert abs(mpmath.fsum(ws) - 2) < mpmath.mpf(10) ** -40
        return xs, ws


@pytest.mark.parametrize("n", [2, 5, 20, 24, 40])
def test_gauss_legendre_matches_50_digit_rule_and_leggauss(n):
    x, w = dist._gauss_legendre(n)
    rx, rw = _gauss_legendre_50_digits(n)
    eps = np.finfo(float).eps
    # nodes within 1 ulp of the reference (the zero node of odd n within
    # eps); weights within 128 ulp: a node rounded by half an ulp moves its
    # weight by |x| ulp(1)/(1 - x^2) relative, up to 70 ulp at n = 24
    for xi, wi, r, rwi in zip(x.tolist(), w.tolist(), rx, rw):
        assert abs(mpmath.mpf(xi) - r) <= max(np.spacing(abs(float(r))), eps)
        assert abs(mpmath.mpf(wi) - rwi) <= 128 * np.spacing(float(rwi))
    lx, lw = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - lx)) <= eps and np.max(np.abs(w - lw)) <= 20 * eps
    # exact on polynomials of degree 2n - 1: the weights sum to 2 and
    # x^(2n-2) integrates to 2/(2n - 1), each to within 2 eps
    assert abs(w.sum() - 2.0) <= 2 * eps
    assert abs((w * x ** (2 * n - 2)).sum() - 2.0 / (2 * n - 1)) <= 2 * eps


# -- empirical side -----------------------------------------------------------------


def test_empirical_dist_sorts_and_counts(law):
    # ks_compare sorts its sample: any order gives the same KS, bit for bit
    ys = law.sample(500, seed=3)
    shuffled = np.random.default_rng(4).permutation(ys)
    assert not np.array_equal(shuffled, ys)
    assert ks_compare(shuffled, law) == ks_compare(ys, law)
    assert ks_compare(list(shuffled), law) == ks_compare(ys, law)


def _ks_full_arrays(samples, law):
    """KS by one full-length sort, CDF and rank array: the form ks_compare replaced."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    F = np.asarray(law.cdf(x))
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


_C = dist._BLOCK


@given(n=st.sampled_from([100, _C - 1, _C, _C + 1, 2 * _C - 1, 2 * _C, 2 * _C + 1, 3 * _C + 7]),
       seed=st.integers(0, 2**32 - 1), ties=st.booleans())
@settings(max_examples=25, deadline=None)
def test_ks_compare_chunks_equal_full_arrays(law, n, seed, ties):
    # stable draws reach past the grid's top at 80 and below its bottom at
    # -12; rounding some of them makes ties
    rng = np.random.default_rng(seed)
    ys = np.concatenate([law.quantile(rng.uniform(1e-6, 1 - 1e-6, n - 2)), [-20.0, 1e4]])
    if ties:
        ys[: n // 2] = np.round(ys[: n // 2], 1)
    shuffled = rng.permutation(ys)
    assert ks_compare(shuffled, law) == _ks_full_arrays(shuffled, law)


def test_ks_compare_constant_sample(law):
    F0 = float(law.cdf(0.0))
    assert ks_compare(np.zeros(200), law) == pytest.approx(max(F0, 1.0 - F0), abs=1e-2)


def test_ks_compare_needs_enough_samples():
    with pytest.raises(PrecondError):
        ks_compare(np.zeros(50), _default_law())


# -- Farey enumeration ---------------------------------------------------------------


def test_farey_small_sets():
    assert list(farey_enumerate(3)) == [
        Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
    ]
    f5 = list(farey_enumerate(5))
    assert len(f5) == 9 and len(set(f5)) == 9
    assert all(0 < r < 1 and r.denominator <= 5 for r in f5)


def test_farey_cardinality_matches_totient_sum():
    phi = list(range(301))
    for i in range(2, 301):
        if phi[i] == i:  # i prime: sieve its multiples
            for j in range(i, 301, i):
                phi[j] -= phi[j] // i
    expect = sum(phi[q] for q in range(2, 301))
    got = sum(1 for _ in farey_enumerate(300))
    assert got == expect
    assert got == pytest.approx(3 * 300**2 / math.pi**2, rel=0.05)


def test_farey_rejects_tiny_cap():
    # the sweep is the package's one enumeration of F_N
    for N in (1, 0, -5):
        with pytest.raises(PrecondError):
            sweep(N)


# -- normalized statistics ------------------------------------------------------------


def test_statistic_partial_quotients_closed_form():
    # r = 1/2 has quotient sum 2
    N = 1000
    center = (2 * math.log(math.log(N)) - 2 * EULER_GAMMA
              + 2 * math.log(6 / math.pi)) / math.pi
    want = math.pi * 2 / (6 * math.log(N)) - center
    cf = cf_expand(Fraction(1, 2))
    assert sum(cf.partials(cf.L)) == 2
    assert _stat_pq_from_sum(2, N) == pytest.approx(want, abs=1e-12)


def test_statistic_logJ_closed_form():
    r, N, D = Fraction(2, 5), 500, 2.3
    scale = (3 * vol_41() / math.pi**2) * math.log(N)
    want = jones_J(r) / scale - (2 / math.pi) * math.log(math.log(N)) - D
    assert _stat_logJ_from_mag(jones_J(r), N, D) == pytest.approx(want, abs=1e-12)


# -- sweeps and the centering constant -----------------------------------------------


def test_sweep_structure_and_determinism():
    s1 = sweep(40)
    s2 = sweep(40)
    assert s1.dtype.names == ("p", "q", "sum_a", "logJ")
    assert np.array_equal(s1, s2)
    order = list(zip(s1["q"], s1["p"]))
    assert order == sorted(order)
    phi = sum(1 for _ in farey_enumerate(40))
    assert len(s1) == phi


def test_sweep_rows_match_direct_evaluation():
    s = sweep(30)
    for row in s[:: max(1, len(s) // 20)]:
        r = Fraction(int(row["p"]), int(row["q"]))
        assert row["logJ"] == pytest.approx(jones_J(r), abs=1e-10)


@given(st.integers(2, 600))
@settings(max_examples=60, deadline=None)
def test_partial_quotient_sums_match_cf_expand(q):
    ps = np.array([p for p in range(1, q) if math.gcd(p, q) == 1])
    want = []
    for p in ps.tolist():
        cf = cf_expand(Fraction(p, q))
        want.append(sum(cf.partials(cf.L)))
    assert _partial_quotient_sums(ps, np.full_like(ps, q)).tolist() == want


def test_sweep_threads_agree():
    # 119 denominators: each of the two workers maps several chunks of them
    assert np.array_equal(sweep(120, threads=2), sweep(120))


def test_farey_row_stays_in_small_blocks():
    # 2^14-term Jones blocks: q = 1500 peaks at 0.49 MB, where 2^18-term
    # blocks made it 8.0 MB
    assert _peak_bytes(lambda: dist._farey_row(1500)) < 2**20


def _pool_in_process(monkeypatch, cpus):
    """The max_workers each pool is asked for, with `cpus` usable CPUs; the
    pool maps in this process, so no worker is started."""
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return asked


def test_sweep_forks_no_more_workers_than_tasks(monkeypatch):
    # fork starts all max_workers processes at once: 119 denominators in
    # chunks of 8 are 15 tasks, so 15 workers even when 1000 are allowed
    asked = _pool_in_process(monkeypatch, cpus=64)
    rows = sweep(120, threads=1000)
    assert asked == [15]
    assert np.array_equal(rows, sweep(120))


def test_sweep_forks_no_more_workers_than_usable_cpus(monkeypatch):
    # 299 denominators are 38 tasks; with 3 usable CPUs, 8 threads get 3 workers
    asked = _pool_in_process(monkeypatch, cpus=3)
    rows = sweep(300, threads=8)
    assert asked == [3]
    assert np.array_equal(rows, sweep(300))
    if hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, not the machine's count
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        sweep(120, threads=8)
        assert asked == [3, 3]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("N", [2, 3, 60, 301])
def test_sweep_is_its_blocks_concatenated(N, threads):
    # the blocks hold whole denominators, at least trig._BLOCK rows each but
    # the last, and together they are sweep(N) bit for bit at any worker count
    blocks = list(_sweep_blocks(N, threads))
    assert np.concatenate(blocks).tobytes() == sweep(N).tobytes()
    assert all(len(b) >= dist._BLOCK for b in blocks[:-1])
    for before, after in zip(blocks, blocks[1:]):
        assert before["q"][-1] < after["q"][0]


def test_sweep_workers_run_at_most_one_window_ahead(monkeypatch):
    # a pool that finishes every task of a window at once is the fastest
    # possible: rows it made and _sweep_blocks has not yet handed over are
    # the rows waiting in memory
    windows, made = [], []

    class EagerPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            windows.append(len(items))
            return [fn(q) for q in items]

    row = dist._farey_row

    def counted_row(q):
        made.append(q)
        return row(q)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", EagerPool)
    monkeypatch.setattr(dist, "_farey_row", counted_row)
    window = 4 * 2 * dist._SWEEP_CHUNK
    blocks = []
    for block in _sweep_blocks(400, threads=2):
        blocks.append(block)
        assert len(made) - (block["q"][-1] - 1) <= window
    assert len(blocks) > 2
    assert max(windows) == window and sum(windows) == 399
    assert np.concatenate(blocks).tobytes() == sweep(400).tobytes()


def test_sweep_blocks_check_N_before_any_row(monkeypatch):
    def no_row(q):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(dist, "_farey_row", no_row)
    with pytest.raises(PrecondError):
        next(_sweep_blocks(1))
    with pytest.raises(EnumerationCapError):
        next(_sweep_blocks(ENUM_CAP + 1))


def test_estimate_D_regression_and_stability():
    d100 = estimate_D(100)
    assert d100 == pytest.approx(2.3177579440519125, abs=1e-9)
    d200 = estimate_D(200)
    assert d200 == 2.360586905679711
    assert abs(d200 - d100) < 0.05


def test_estimate_D_equals_h_eval_loop():
    # one h_eval per sorted Farey point is the reference for the batched rows
    from sudlerlab.jones import h_eval

    pts = sorted(farey_enumerate(100))
    xs = np.array([float(r) for r in pts])
    vals = np.array([h_eval(r).psi_star for r in pts]) / (1.0 + xs)
    edges = np.concatenate([[0.0], xs, [1.0]])
    integral = float(((edges[2:] - edges[:-2]) / 2.0) @ vals)
    base = (2.0 * EULER_GAMMA - 2.0 * math.log(6.0 / math.pi)) / math.pi
    assert estimate_D(100) == base + (4.0 / vol_41()) * integral


def test_estimate_D_needs_dense_sample():
    with pytest.raises(PrecondError):
        estimate_D(49)
    with pytest.raises(PrecondError):
        _D_from_rows(sweep(60), 49)


def test_D_from_larger_sweep_rows_equals_estimate_D():
    # dist reuses its sweep: the rows of F_N with q <= Ncap give the same D
    table = sweep(130)
    assert _D_from_rows(table[table["q"] <= 100], 100) == estimate_D(100)
    assert _D_from_rows(table, 130) == estimate_D(130)


def test_estimate_D_agrees_with_trapezoid_weighting():
    # same Farey-100 sample, different quadrature weights: the integrand is
    # rough, so agreement is only to the mesh scale, but the two schemes must
    # land in the same ballpark
    from sudlerlab.jones import h_eval

    pts = sorted(farey_enumerate(100))
    xs = np.array([float(r) for r in pts])
    vals = np.array([h_eval(r).psi_star for r in pts]) / (1.0 + xs)
    xs_ext = np.concatenate([[0.0], xs, [1.0]])
    vals_ext = np.concatenate([[vals[0]], vals, [vals[-1]]])
    base = (2 * EULER_GAMMA - 2 * math.log(6 / math.pi)) / math.pi
    d_trap = base + 4.0 / vol_41() * np.trapezoid(vals_ext, xs_ext)
    assert abs(estimate_D(100) - d_trap) < 0.15
