"""Acceptance gate: ten end-to-end checks, one test (and one verdict line) each.

Two gates check limits that the mathematics reaches only slowly, so they
assert the known rate of approach rather than the limit itself:

* gate 04: (2pi/N) log J(1/N) tends to the volume Vol = 2 Cl_2(pi/3), but
  only like (3/2)(2pi) log N / N (dev(50) = 0.704, dev(200) = 0.241).  The
  gate asserts the Kashaev asymptotic J(1/N) ~ 3^(-1/4) N^(3/2) e^(N Vol/2pi)
  (Andersen-Hansen): with r(N) = log J(1/N) - (Vol/2pi) N - (3/2) log N
  + (1/4) log 3, it checks |dev(N) - (2pi/N)((3/2) log N - (1/4) log 3)|
  <= 2pi 0.6/N^2 and kappa_1 < N r(N) <= kappa_1 + 1/N on N = 50..200,
  where kappa_1 = 11 pi/(36 sqrt 3) = 0.554216 is the first coefficient of
  the figure-eight perturbative series (Garoufalidis-Zagier).  N r(N) is
  0.5700 at N = 50 and 0.5579 at N = 200; the second coefficient
  kappa_2 = 0.731082 is pinned the same way.
* gate 10: the partial-quotient statistic over F_N tends to stable(1, 1)
  (Bettin-Drappeau) only slowly in log N: the KS distance of the full
  sweep is 0.319 at N = 200 and 0.301 at N = 1000.  Uniform exact-rational
  samples of F_N (20,000 draws, seed 0) carry it on: KS is 0.300 at
  N = 10^3, 0.083 at 10^40 and 0.017 at 10^640.  The gate asserts that the
  sample agrees with the sweep at N = 10^3, that KS decreases strictly
  along 10^3, 10^40, 10^640, that the 0.15 target is met at 10^40, and
  that KS(10^640) <= 0.03; a centring off by +-gamma/pi gives 0.05-0.06.

See README.md ("Acceptance status") for the same numbers in context.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson

from sudlerlab import dist, verify
from sudlerlab.cfrac import CFExpansion, cf_expand, convergents
from sudlerlab.errors import PrecondError
from sudlerlab.jones import h_eval, jones_J, telescoping_logJ
from sudlerlab.trig import (
    explicit_formula_eval,
    log_f,
    product_form_logs,
    shifted_sudler,
    sudler_prefix_logmags,
)
from sudlerlab import frozen

# hyperbolic volume of the figure-eight complement, Vol = 2 Cl_2(pi/3),
# from an oracle independent of jones.vol_41
with mpmath.workdps(30):
    VOL = float(2 * mpmath.clsin(2, mpmath.pi / 3))
    # J(1/N) = 3^(-1/4) N^(3/2) e^(N Vol/2pi) (1 + c_1 h + c_2 h^2 + ...)
    # with h = 2pi/N, c_1 = 11/(72 sqrt 3), c_2 = 697/(2 (72 sqrt 3)^2)
    # (figure-eight perturbative series, Garoufalidis-Zagier).  KAPPA_k is
    # the 1/N^k coefficient of the logarithm of the series.
    _C1 = 2 * mpmath.pi * 11 / (72 * mpmath.sqrt(3))
    _C2 = (2 * mpmath.pi) ** 2 * 697 / (2 * (72 * mpmath.sqrt(3)) ** 2)
    KAPPA_1 = float(_C1)  # 0.554216...
    KAPPA_2 = float(_C2 - _C1**2 / 2)  # 0.731082...


def test_gate_01_kubert_identity_thousand_random_cases():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 1000:
        q = int(rng.integers(2, 201))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        x = Fraction(int(rng.integers(1, 6 * q)), 6 * q)
        if (x / q) % 1 == 0 or x % 1 == 0:
            continue
        try:
            lhs = shifted_sudler(Fraction(p, q), x / q, q - 1) + log_f(x / q)
            rhs = log_f(x)
        except ArithmeticError:
            continue  # shift landed on a sine zero; draw again
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        done += 1
    dt = time.perf_counter() - t0
    print(f"[gate 01] kubert identity: worst rel err {worst:.3e} "
          f"over 1000 cases in {dt:.2f}s")
    assert worst <= 1e-12
    assert dt < 10.0


def test_gate_02_product_form_exhaustive_to_q300():
    t0 = time.perf_counter()
    worst = 0.0
    n_fractions = 0
    for q in range(2, 301):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            cf = cf_expand(r)
            table = convergents(cf, cf.L)
            direct = sudler_prefix_logmags(r, q - 1)
            batch = product_form_logs(table, cf.L)
            err = float(np.max(np.abs(batch - direct) / (1.0 + np.abs(direct))))
            worst = max(worst, err)
            n_fractions += 1
    dt = time.perf_counter() - t0
    print(f"[gate 02] product form vs direct: {n_fractions} fractions, "
          f"worst rel log-diff {worst:.3e} in {dt:.1f}s")
    assert n_fractions == 27397  # sum of phi(q) for 2 <= q <= 300
    assert worst <= 1e-9
    assert dt < 120.0


def test_gate_03_single_period_formula_thousand_random_cases():
    rng = np.random.default_rng(23)
    worst = 0.0
    done = 0
    while done < 1000:
        q = int(rng.integers(3, 201))  # keeps every q_ell <= 200
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1:
            continue
        cf = cf_expand(Fraction(p, q))
        if cf.L < 2:
            continue
        table = convergents(cf, cf.L)
        ell = int(rng.integers(1, cf.L))
        x = Fraction(int(rng.integers(-100, 101)), 120)
        try:
            got = explicit_formula_eval(ell, x, table)
            sh = Fraction((-1) ** ell * x, table.q(ell))
            want = shifted_sudler(table.alpha_exact, sh, table.q(ell))
        except (ArithmeticError, PrecondError):
            continue
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
        done += 1
    print(f"[gate 03] single-period formula: worst rel err {worst:.3e} "
          f"over 1000 cases")
    assert worst <= 1e-10


def _direct_logJ_at_reciprocal(N: int) -> float:
    """log J(1/N) by direct double-precision summation (independent oracle)."""
    logs = np.cumsum(np.log(np.abs(2.0 * np.sin(np.pi * np.arange(1, N) / N))))
    mags = np.concatenate(([0.0], 2.0 * logs))
    m = float(mags.max())
    return m + math.log(float(np.exp(mags - m).sum()))


def test_gate_04_kashaev_values_and_volume_trend():
    for N, val in ((2, 5), (3, 13), (4, 27)):
        got = jones_J(Fraction(1, N))
        assert abs(got - math.log(val)) <= 1e-12
        assert abs(_direct_logJ_at_reciprocal(N) - math.log(val)) <= 1e-12

    Ns = range(50, 201)
    logJ = [jones_J(Fraction(1, N)) for N in Ns]
    devs = [abs(2.0 * math.pi / N * L - VOL) for N, L in zip(Ns, logJ)]
    drops = [b - a for a, b in zip(devs, devs[1:])]
    assert max(drops) < 0.0, "volume deviation should decrease in N"

    # Andersen-Hansen: log J(1/N) = (Vol/2pi) N + (3/2) log N - (1/4) log 3
    # + r(N), and r(N) = KAPPA_1/N + KAPPA_2/N^2 + O(1/N^3) with the
    # perturbative coefficients of Garoufalidis-Zagier.
    lead = [2.0 * math.pi / N * (1.5 * math.log(N) - 0.25 * math.log(3))
            for N in Ns]
    resid = [L - VOL / (2.0 * math.pi) * N - 1.5 * math.log(N)
             + 0.25 * math.log(3) for N, L in zip(Ns, logJ)]
    env = [abs(d - a) * N**2 / (2.0 * math.pi)
           for N, d, a in zip(Ns, devs, lead)]
    Nr = [N * r for N, r in zip(Ns, resid)]
    N2r = [N**2 * (r - KAPPA_1 / N) for N, r in zip(Ns, resid)]
    print(f"[gate 04] kashaev values exact; dev(50)={devs[0]:.4f} "
          f"dev(200)={devs[-1]:.4f}, monotone decrease; "
          f"N*r(N): {Nr[0]:.4f} at 50, {Nr[-1]:.4f} at 200 "
          f"(kappa_1={KAPPA_1:.6f}); N^2*(r - kappa_1/N): {N2r[0]:.4f} at 50, "
          f"{N2r[-1]:.4f} at 200 (kappa_2={KAPPA_2:.6f})")
    # |dev(N) - (2pi/N)((3/2) log N - (1/4) log 3)| <= 2pi * 0.6 / N^2
    assert max(env) <= 0.6, (
        f"volume deviation leaves the Kashaev envelope: "
        f"max N^2 |dev - lead| / 2pi = {max(env):.4f} > 0.6")
    bad = [N for N, x in zip(Ns, Nr) if not KAPPA_1 < x <= KAPPA_1 + 1.0 / N]
    assert not bad, f"N*r(N) outside (kappa_1, kappa_1 + 1/N] at N={bad[:5]}"
    bad = [N for N, x in zip(Ns, N2r) if not KAPPA_2 < x <= KAPPA_2 + 4.0 / N]
    assert not bad, (
        f"N^2*(r - kappa_1/N) outside (kappa_2, kappa_2 + 4/N] at N={bad[:5]}")


def test_gate_05_telescoping_identity_exhaustive_to_q60():
    worst = 0.0
    for q in range(2, 61):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            lhs, rhs = telescoping_logJ(Fraction(p, q))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    print(f"[gate 05] telescoping identity: worst rel err {worst:.3e} "
          f"over all q <= 60")
    assert worst <= 1e-8


def test_gate_06_psi_at_reciprocals_near_arithmeticity_limit():
    target = -math.log(3) / 4
    devs = [abs(h_eval(Fraction(1, n)).psi - target) for n in range(60, 101)]
    print(f"[gate 06] psi(1/n) vs -log(3)/4: max dev {max(devs):.4f} "
          f"for n in 60..100")
    assert max(devs) <= 0.05


def test_gate_07_smooth_model_sup_over_farey_200():
    sup_ratio, sup_psi, _ = verify._th3_sweep(200)
    print(f"[gate 07] sup |h - Vol/(2 pi x)| / (1 + |log x|) over F_200 = "
          f"{sup_ratio:.4f} (frozen bound {frozen.TH3_C:.4f}); "
          f"sup |psi| = {sup_psi:.4f}")
    assert sup_ratio <= frozen.TH3_C
    assert math.isfinite(sup_psi)


def test_gate_08_oscillation_shrinks_at_growing_quotients():
    # k = 4, 7, 10 sit right before the quotients 4, 6, 8 of the e-2
    # expansion.  The third window I_11 is so narrow that it contains no
    # rational with denominator <= 5000 (asserted below), so that window
    # is measured with the smallest round cap that populates it.
    cf = CFExpansion.preset("e-2")
    osc = {}
    for k, cap in ((4, 5000), (7, 5000), (10, 60000)):
        osc[k], bound = verify.oscillation(cf, k, cap)
        assert osc[k] <= frozen.OSC_C * bound
    with pytest.raises(PrecondError):
        verify.oscillation(cf, 10, 5000)
    print(f"[gate 08] oscillation of h: k=4 {osc[4]:.3e}, k=7 {osc[7]:.3e}, "
          f"k=10 {osc[10]:.3e}")
    assert osc[7] <= 0.7 * osc[4]
    assert osc[10] <= 0.7 * osc[7]


def test_gate_09_two_scale_bounds_and_tail_mass():
    rows = verify.local56_cases(seed=0)
    failed = [c.case_id for c in rows if not c.passed]
    n_constructed = sum(1 for c in rows if c.case_id.startswith("constructed"))
    print(f"[gate 09] two-scale bounds: {len(rows)} cases "
          f"({n_constructed} constructed, rest random), {len(failed)} failed")
    assert not failed, failed[:10]

    # tail mass of the Ostrowski layers above the dominant quotient
    label, digits, k = verify.CONCENTRATION_INSTANCES[0]
    cf = CFExpansion.from_partial_quotients(0, digits)
    table = convergents(cf, cf.L)
    ratios = [
        math.exp(log_tail - log_total)
        for _, log_tail, log_total in verify._concentration_parts(
            table, cf.L, k, frozen.CONCENTRATION_A
        )
    ]
    print(f"[gate 09] tail-mass ratios on {label}: {ratios}")
    assert max(ratios) <= 1e-10


def _farey_sample_stat_pq(N: int, n: int, seed: int) -> list[float]:
    """Partial-quotient statistic on n uniform draws from F_N, N of any size.

    (p, q) is drawn uniformly from [1, N]^2 in exact integers, ordered so
    that p < q, and kept only if gcd(p, q) = 1.
    """
    rng = random.Random(seed)
    vals = []
    while len(vals) < n:
        p, q = sorted((rng.randint(1, N), rng.randint(1, N)))
        if p < q and math.gcd(p, q) == 1:
            cf = cf_expand(Fraction(p, q))
            vals.append(dist._stat_pq_from_sum(sum(cf.partials(cf.L)), N))
    return vals


def _farey_sum_a(N: int) -> tuple[np.ndarray, np.ndarray]:
    """q and the sum of partial quotients of every p/q in F_N, in the (q, p)
    order of dist.sweep, by Euclid alone: the gate reads no Jones value."""
    qs, ps = [], []
    for q in range(2, N + 1):
        p = np.arange(1, q, dtype=np.int64)
        p = p[np.gcd(p, q) == 1]
        qs.append(np.full(p.size, q, dtype=np.int64))
        ps.append(p)
    qs = np.concatenate(qs)
    return qs, dist._partial_quotient_sums(np.concatenate(ps), qs)


def test_gate_10_partial_quotient_statistic_vs_stable_law():
    law = dist._default_law()

    # density normalization: quadrature over the body, exact CDF on the wings
    ys = np.linspace(-12.0, 80.0, 4601)
    body = simpson(law.density(ys), x=ys)
    wings = np.asarray(law.cdf_exact(-12.0)).item() + \
        (1.0 - np.asarray(law.cdf_exact(80.0)).item())
    total = float(body) + wings
    assert abs(total - 1.0) <= 1e-6

    # the quantile sampler reproduces its own law
    ks_self = dist.ks_compare(law.sample(10**4, seed=5), law)
    assert ks_self <= 0.02

    t0 = time.perf_counter()
    q_1000, sum_a_1000 = _farey_sum_a(1000)
    dt = time.perf_counter() - t0
    assert dt < 600.0
    rows_200 = dist.sweep(200)
    assert np.array_equal(rows_200["sum_a"], sum_a_1000[q_1000 <= 200])

    stats = {N: [dist._stat_pq_from_sum(int(s), N) for s in sums]
             for N, sums in ((200, rows_200["sum_a"]), (1000, sum_a_1000))}
    ks = {N: dist.ks_compare(vals, law) for N, vals in stats.items()}
    print(f"[gate 10] normalization {total:.8f}, self KS {ks_self:.4f}, "
          f"sum_a(1000) {dt:.1f}s, "
          f"KS(200)={ks[200]:.4f}, KS(1000)={ks[1000]:.4f}")
    assert ks[1000] <= ks[200] + 0.02  # non-increasing within noise

    # Past the sweep's reach: uniform exact-rational samples of F_N.  The
    # approach to the limit is slow in log N, so N runs up to 10^640.
    ks_sampled = {}
    for e in (3, 40, 640):
        vals = _farey_sample_stat_pq(10**e, 20000, seed=0)
        ks_sampled[e] = dist.ks_compare(vals, law)
    trajectory = ", ".join(f"KS(10^{e})={v:.4f}" for e, v in ks_sampled.items())
    print(f"[gate 10] sampled: {trajectory}")

    # shape of the sweep's law at N = 1000 against the limit law
    q25, q50, q75 = np.quantile(stats[1000], [0.25, 0.5, 0.75])
    l25, l50, l75 = law.quantile(np.array([0.25, 0.5, 0.75]))
    report = (
        f"KS over N: sweep KS(200)={ks[200]:.4f}, KS(1000)={ks[1000]:.4f}; "
        f"sampled {trajectory}.  At N=1000 the empirical interquartile range "
        f"is {(q75 - q25) / (l75 - l25):.2f} of the law's and the median is "
        f"offset by {q50 - l50:+.3f}."
    )
    assert abs(ks_sampled[3] - ks[1000]) <= 0.02, report
    assert ks_sampled[3] > ks_sampled[40] > ks_sampled[640], report
    assert ks_sampled[40] <= 0.15, report
    assert ks_sampled[640] <= 0.03, report
