"""Recompute the frozen envelope constants from the standard check corpora.

Each constant in sudlerlab.frozen is the observed extreme over the
corresponding suite corpus (default seeds) times a 1.5 safety factor.
Run with --write to regenerate src/sudlerlab/frozen.py in place; without
it the tool only prints the table.

The suites read the constants they are being calibrated for, but every
fitted value below is extracted before the constant is applied, so the
result does not depend on the values currently committed.
"""

import argparse
import pathlib
import sys

from sudlerlab import frozen, verify
from sudlerlab.cfrac import CFExpansion, convergents
from sudlerlab.verify import (
    CONCENTRATION_INSTANCES,
    KASHAEV_INSTANCES,
    concentration_hypothesis_ratio,
    xi_k,
)

SAFETY = 1.5

FROZEN_TEMPLATE = '''"""Frozen envelope constants for the verification suites.

Generated by tools/calibrate_frozen.py: each value is the largest constant
observed over the standard check corpus (default seeds), times a 1.5 safety
factor.  Regenerate with `python3 tools/calibrate_frozen.py --write` after
any change to the check implementations or their corpora.
"""

{body}'''


def _row_fit(case, constant):
    """Constant that would make a budget row (C*unit >= value) exactly tight."""
    if case.lhs <= 0:
        return 0.0
    return constant * case.rhs / case.lhs


def calibrate():
    observed = {}

    fits = []
    verify.local56_cases(fits=fits)
    observed["LOCAL56_C"] = max(fits)

    ratios = []
    for _, digits, k in CONCENTRATION_INSTANCES:
        cf = CFExpansion.from_partial_quotients(0, digits)
        ratios.append(concentration_hypothesis_ratio(convergents(cf, cf.L), k))
    observed["CONCENTRATION_A"] = max(ratios)

    factor_rows = verify.factor_cases()
    observed["SUDLER_FACTOR_C"] = max(
        _row_fit(c, frozen.SUDLER_FACTOR_C)
        for c in factor_rows
        if c.check_id == "sudler_factor"
    )
    observed["KASHAEV_FACTOR_A"] = max(
        xi_k(convergents(CFExpansion.from_partial_quotients(0, digits), len(digits)), k)
        for _, digits, k, _ in KASHAEV_INSTANCES
    )
    observed["KASHAEV_FACTOR_C"] = max(
        _row_fit(c, frozen.KASHAEV_FACTOR_C)
        for c in factor_rows
        if c.check_id == "kashaev_factor"
    )

    observed["TAIL_C"] = max(
        _row_fit(c, frozen.TAIL_C) for c in verify.tail_cases()
    )

    cot_rows = verify.cotangent_cases()
    observed["COT_SUM_C"] = max(c.lhs for c in cot_rows if c.check_id == "cot_sum")
    observed["VLX_C"] = max(
        c.lhs for c in cot_rows if c.case_id == "envelope"
    )

    observed["TH3_C"] = next(
        c.lhs for c in verify.th3_cases(100) if c.case_id == "F100_sup"
    )

    osc_rows = [
        c for c in verify.continuity_cases() if c.case_id.startswith("e-2_k")
    ]
    observed["OSC_C"] = max(
        frozen.OSC_C * c.lhs / c.rhs for c in osc_rows if c.rhs > 0
    )

    return observed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite src/sudlerlab/frozen.py with the new values")
    args = ap.parse_args(argv)

    observed = calibrate()
    lines = []
    print(f"{'constant':18s} {'observed':>22s} {'frozen (x1.5)':>22s}")
    for name, val in observed.items():
        frozen_val = SAFETY * val
        print(f"{name:18s} {val:22.17g} {frozen_val:22.17g}")
        lines.append(f"{name} = {frozen_val:.17g}")

    if args.write:
        path = pathlib.Path(__file__).resolve().parents[1] / (
            "src/sudlerlab/frozen.py"
        )
        path.write_text(FROZEN_TEMPLATE.format(body="\n".join(lines) + "\n"))
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
