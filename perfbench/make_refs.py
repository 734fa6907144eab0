"""Write the reference outputs in ref/ that every benchmark operation is checked against.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/make_refs.py [--workload NAME ...]

Run it only at a commit whose outputs are trusted: the references pin the
outputs of that commit for all VARIANTS input variants of each workload
(plus the smoke inputs), and later commits must reproduce them within the
tolerances in workloads.TOL.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

import workloads as wl


def farey_refs(out_dir: str) -> dict:
    from sudlerlab import dist, jones

    arrays = {}
    for variant, smoke in [(0, True)] + [(v, False) for v in range(wl.VARIANTS)]:
        inp = wl.prepare("farey_dist", variant, smoke, out_dir, 0)
        N = inp["N"]
        out = wl.run_farey_dist(inp)
        if out["rc"] != 0:
            raise SystemExit(f"dist --N {N} exited {out['rc']}: {out['stdout']}")
        arrays[f"KS_{N}"] = wl.stdout_value(out["stdout"], "KS")
        arrays[f"D_{min(N, 200)}"] = wl.stdout_value(out["stdout"], "D")
        if N == wl.FAREY_NMAX:
            _, rows = wl.read_csv(inp["out_csv"])
            arrays["logJ"] = np.array([float(r[3]) for r in rows])
        wl.cleanup(inp)
        print(f"farey_dist N={N} KS={arrays[f'KS_{N}']}", flush=True)
    law = dist.StableLaw()
    grid_y = np.arange(law.grid_lo, law.grid_hi + law.grid_step, law.grid_step)
    arrays["grid_y"] = grid_y
    arrays["grid_F"] = np.asarray(dist.stable_cdf(grid_y))
    arrays["vol"] = jones.vol_41()
    return arrays


def h_window_refs() -> dict:
    from sudlerlab import jones

    arrays = {"vol": jones.vol_41()}
    for v in range(wl.VARIANTS):
        out = wl.run_h_window(wl.prepare("h_window", v, False, "", 0))
        vals = np.array(out["vals"])
        p = np.array([x.numerator for x in out["xs"]], dtype=np.int16)
        q = np.array([x.denominator for x in out["xs"]], dtype=np.int16)
        # psi and psi* are checked from h by their definitions; confirm that reproduces them
        x = np.array([float(r) for r in out["xs"]])
        vol = arrays["vol"]
        psi = vals[:, 0] - vol / (2 * math.pi * x) + 1.5 * np.log(x)
        psi_star = vals[:, 0] + vol / (2 * math.pi) * (x - 1 / x)
        if not (np.allclose(vals[:, 1], psi, rtol=0, atol=1e-12)
                and np.allclose(vals[:, 2], psi_star, rtol=0, atol=1e-12)):
            raise SystemExit(f"variant {v}: psi or psi* no longer follow from h")
        arrays.update({f"v{v}_p": p, f"v{v}_q": q, f"v{v}_h": vals[:, 0]})
        print(f"h_window variant {v}: {len(out['xs'])} fractions", flush=True)
    return arrays


def identity_refs() -> dict:
    arrays = {}
    for v in range(wl.VARIANTS):
        inp = wl.prepare("identity_checks", v, False, "", 0)
        out = wl.run_identity_checks(inp)
        fr = np.array(inp["fractions"], dtype=np.int16)
        arrays[f"v{v}_p"], arrays[f"v{v}_q"] = fr[:, 0], fr[:, 1]
        arrays[f"v{v}_pf_margin"] = np.array(out["pf_margin"])
        for suite, cases in out["suites"].items():
            arrays[f"v{v}_{suite}_case"] = np.array([c.case_id for c in cases])
            arrays[f"v{v}_{suite}_margin"] = np.array([c.margin for c in cases])
            arrays[f"v{v}_{suite}_passed"] = np.array([bool(c.passed) for c in cases])
        print(f"identity_checks variant {v}: failing verdicts "
              f"{wl.failing_verdicts('identity_checks', out)}", flush=True)
    return arrays


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    args = ap.parse_args()
    out_dir = os.path.join(wl.HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(wl.REF_DIR, exist_ok=True)
    makers = {"farey_dist": lambda: farey_refs(out_dir), "h_window": h_window_refs,
              "identity_checks": identity_refs}
    for name in args.workload or wl.WORKLOADS:
        np.savez_compressed(os.path.join(wl.REF_DIR, f"{name}.npz"), **makers[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
