"""Command-line front end: eval, scan, verify, and dist subcommands.

`scan` without `--near` reads one dist.sweep table of F_N, with h from
dist._h_rows; `scan --near` calls h_eval once per fraction of its window.
`dist` never holds the table: it writes the rows of dist._sweep_blocks a
block at a time and keeps only the statistic column it compares with the
stable law.  Every subcommand opens its output (`--out`, and `--report` for
`dist`) before any evaluation, so a bad path fails at once; `eval` writes
its record there too.  A size past trig.ENUM_CAP is refused before that:
`eval` checks both denominators h reads, and `scan --near` builds its window
first and checks the window's denominators.
Outputs are deterministic: CSV files carry a header row, '.' decimals and
17 significant digits, and rerunning a command with the same config and
inputs reproduces the bytes exactly.  Each CSV output states its header and
line format once (`%d` for integer columns, `%.17g` for floats, `%s` for
verify's names and verdicts), and `_write_rows` streams one `%` format per
row, building nothing the size of the file; array columns become Python
scalars a chunk of rows at a time.  No field needs CSV quoting: the names
verify writes hold no ',', '"', CR or LF.  Exit codes: 0 success, 2 parse or
precondition failure (also a missing, malformed or non-UTF-8 config file, an
unwritable output path, a failed write to it or to stdout, and an evaluation
that hits a zero factor or a pole), 3 failed checks, 4 resource-cap or
convergence abort.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from sudlerlab import cfrac, verify
from sudlerlab.cfrac import cf_expand
from sudlerlab.dist import (
    _D_from_rows,
    _default_law,
    _h_rows,
    _ks_sorted,
    _psi_rows,
    _stat_logJ_from_mag,
    _stat_pq_from_sum,
    _sweep_blocks,
    sweep,
)
from sudlerlab.errors import (
    EnumerationCapError,
    PoleError,
    PrecondError,
    QuadratureError,
    ZeroFactorError,
)
from sudlerlab.jones import h_eval, vol_41
from sudlerlab.trig import _BLOCK, ENUM_CAP

ENV_CONFIG = "SUDLERLAB_CONFIG"


@dataclass(frozen=True)
class Config:
    """Process-wide knobs; flags override the optional key=value file."""

    qcap: int = verify.QCAP
    Ncap: int = verify.NCAP
    threads: int = 1
    output_path: str | None = None

    def validate(self) -> "Config":
        if self.qcap < 2 or self.Ncap < 2:
            raise PrecondError("qcap and Ncap must be >= 2")
        if self.threads < 1:
            raise PrecondError("threads >= 1 required")
        return self


_INT_KEYS = {"qcap", "Ncap", "threads"}


def _config_from_file(path: str) -> dict:
    values: dict = {}
    known = {f.name for f in fields(Config)}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise PrecondError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise PrecondError(f"cannot read config file {path}: not UTF-8 ({exc.reason})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PrecondError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise PrecondError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in _INT_KEYS:
            try:
                val = int(val)
            except ValueError:
                raise PrecondError(
                    f"{path}:{lineno}: {key} must be an integer, got {val!r}"
                ) from None
        values[key] = val
    return values


def load_config(args: argparse.Namespace) -> Config:
    """Defaults, then the SUDLERLAB_CONFIG file, then explicit flags."""
    cfg = Config()
    path = os.environ.get(ENV_CONFIG)
    if path:
        cfg = replace(cfg, **_config_from_file(path))
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(Config)
        if getattr(args, f.name, None) is not None
    }
    return replace(cfg, **overrides).validate()


# -- formatting ---------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _OutFile(io.FileIO):
    """A file whose failed write, also in the flush at close, raises PrecondError."""

    def write(self, b):
        try:
            return super().write(b)
        except OSError as exc:
            raise PrecondError(f"cannot write {self.name}: {exc.strerror}") from exc


class _Stdout:
    """sys.stdout as each call finds it; a failed write or flush raises PrecondError
    once the stream's descriptor points at os.devnull, where the flush at exit cannot fail."""

    def __getattr__(self, name):  # write, writelines and flush
        def call(*args):
            try:
                return getattr(sys.stdout, name)(*args)
            except OSError as exc:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise PrecondError(f"cannot write stdout: {exc.strerror}") from exc
        return call


_STDOUT = _Stdout()


def _open_out(path: str | None):
    """A context manager for the CSV destination: the file at path, or stdout."""
    if not path:
        return contextlib.nullcontext(_STDOUT)
    try:
        raw = _OutFile(path, "w")
    except OSError as exc:
        raise PrecondError(f"cannot write {path}: {exc.strerror}") from exc
    return io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="")


# (header, line format) of each CSV output
DIST_CSV = ("p,q,sum_partial_quotients,logJ,stat_logJ,stat_pq",
            "%d,%d,%d,%.17g,%.17g,%.17g")
REPORT_CSV = ("y,emp_cdf,stable_cdf", "%.17g,%.17g,%.17g")
SCAN_CSV = ("p,q,x,h,psi,h_model", "%d,%d,%.17g,%.17g,%.17g,%.17g")
VERIFY_CSV = ("check_id,case_id,lhs,rhs,margin,passed", "%s,%s,%.17g,%.17g,%.17g,%s")


def _write_rows(out, layout: tuple[str, str], rows) -> None:
    """The header, then `line % row` for each row, each ended by '\n'."""
    header, line = layout
    out.write(header + "\n")
    out.writelines(map((line + "\n").__mod__, rows))


def _array_rows(*columns):
    """Rows of equal-length arrays as Python scalars, converted a chunk at a time.

    Whole-column tolist would hold every row as Python objects at once; chunks
    of 2^12 rows bound that memory whatever the file's length.
    """
    step = 1 << 12
    for i in range(0, len(columns[0]), step):
        yield from zip(*[c[i : i + step].tolist() for c in columns])


# -- argument parsing ----------------------------------------------------------------


def parse_x(text: str) -> Fraction:
    """'p/q', a decimal or 'cf:a1,a2,...', each read by cfrac.parse_alpha."""
    cf = cfrac.parse_alpha(text)
    if not cf.is_finite:
        raise PrecondError(
            f"{text!r} is irrational (an infinite expansion); eval needs a rational"
        )
    r = cf.value()
    if r == 0:
        raise PrecondError("h is undefined at 0")
    return r


# -- subcommands ---------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace, cfg: Config) -> int:
    r = parse_x(args.x)
    # h_eval reads the Jones sums of x and of 1/x, in that order
    for q in (r.denominator, abs(r.numerator)):
        if q > ENUM_CAP:
            raise EnumerationCapError(f"denominator q = {q} exceeds cap {ENUM_CAP}")
    with _open_out(cfg.output_path) as out:
        hv = h_eval(r)
        cf = cf_expand(hv.x)
        digits = ", ".join(str(a) for a in cf.partials(cf.L))
        cf_text = f"[{cf.a0}; {digits}]" if digits else f"[{cf.a0}]"
        out.write(f"x = {hv.x}\nq = {hv.x.denominator}\ncf = {cf_text}\n"
                  f"logJ = {_fmt(hv.logJ_x)}\nh = {_fmt(hv.h)}\n"
                  f"psi = {_fmt(hv.psi)}\npsi_star = {_fmt(hv.psi_star)}\n")
    return 0


def _scan_fractions(qmax: int, near: float, radius: float) -> list[Fraction]:
    """The fractions of F_qmax in a `scan --near` window, ascending by q then p.

    The window keeps r unless abs(float(r) - near) > radius, exactly as a
    filter over all of F_qmax would, but only the rationals of [near - radius
    - pad, near + radius + pad] are walked (Stern-Brocot descent).  For r in
    [0, 1] the float test errs from |r - near| by less than 2^-51 (1 + |near|),
    so the pad 2^-50 (1 + |near|) loses no kept fraction.  near and radius
    are finite: cmd_scan rejects any other.
    """
    c, w = Fraction(near), Fraction(radius)
    pad = (1 + abs(c)) / 2**50
    lo, hi = max(Fraction(0), c - w - pad), min(Fraction(1), c + w + pad)
    if lo >= hi:
        return []
    kept = [
        r for r in cfrac.rationals_in_interval(lo, hi, qmax)
        if 0 < r < 1 and not abs(float(r) - near) > radius
    ]
    return sorted(kept, key=lambda r: (r.denominator, r.numerator))


def cmd_scan(args: argparse.Namespace, cfg: Config) -> int:
    if args.qmax < 2:
        raise PrecondError(f"--qmax must be >= 2, got {args.qmax}")
    if (args.near is None) != (args.radius is None):
        raise PrecondError("--near and --radius go together")
    if args.near is not None and not (math.isfinite(args.near) and math.isfinite(args.radius)):
        raise PrecondError(f"--near and --radius must be finite, got {args.near}, {args.radius}")
    if args.near is None and args.qmax > ENUM_CAP:
        raise EnumerationCapError(f"N {args.qmax} exceeds cap {ENUM_CAP}")
    if args.near is not None:
        window = _scan_fractions(args.qmax, args.near, args.radius)
        # the first q past the cap in the window's order, where h_eval would stop
        over = [r.denominator for r in window if r.denominator > ENUM_CAP]
        if over:
            raise EnumerationCapError(f"denominator q = {over[0]} exceeds cap {ENUM_CAP}")
    with _open_out(cfg.output_path) as out:
        if args.near is None:
            table = sweep(args.qmax, threads=cfg.threads)
            p, q = table["p"], table["q"]
            x, h = _h_rows(table)
        else:
            p = np.array([r.numerator for r in window], dtype=np.int64)
            q = np.array([r.denominator for r in window], dtype=np.int64)
            x = p / q
            h = np.array([h_eval(r).h for r in window], dtype=np.float64)
        log_x, psi = _psi_rows(x, h)
        model = vol_41() / (2.0 * math.pi * x) - 1.5 * log_x
        _write_rows(out, SCAN_CSV, _array_rows(p, q, x, h, psi, model))
    return 0


def cmd_verify(args: argparse.Namespace, cfg: Config) -> int:
    kwargs = {"continuity": {"qcap": cfg.qcap}, "th3": {"Ncap": cfg.Ncap}}.get(args.suite, {})
    for name, size in kwargs.items():
        if size > ENUM_CAP:
            raise EnumerationCapError(f"{name} {size} exceeds cap {ENUM_CAP}")
    with _open_out(cfg.output_path) as out:
        cases = verify.run_suite(args.suite, **kwargs)
        _write_rows(out, VERIFY_CSV, (
            (c.check_id, c.case_id, c.lhs, c.rhs, c.margin, c.passed) for c in cases))
    failed = [c for c in cases if not c.passed]
    if failed:
        print(f"suite {args.suite}: {len(failed)}/{len(cases)} cases failed",
              file=sys.stderr)
    else:
        print(f"suite {args.suite}: {len(cases)} cases passed", file=sys.stderr)
    for rep in verify.merge_cases(cases):
        print(f"  {rep.check_id}: {rep.cases_run} cases, worst margin "
              f"{_fmt(rep.worst_margin)}", file=sys.stderr)
    return 3 if failed else 0


def cmd_dist(args: argparse.Namespace, cfg: Config) -> int:
    Ncap = min(args.N, cfg.Ncap)
    if Ncap < 50:
        raise PrecondError(f"min(--N, --ncap) must be >= 50, got {Ncap}")
    if args.N > ENUM_CAP:
        raise EnumerationCapError(f"N {args.N} exceeds cap {ENUM_CAP}")
    with contextlib.ExitStack() as files:
        # both outputs are opened before the sweep, so a bad path fails at once
        out = files.enter_context(_open_out(cfg.output_path))
        report = files.enter_context(_open_out(args.report)) if args.report else None
        blocks = _sweep_blocks(args.N, threads=cfg.threads)
        # D needs all of F_Ncap: the blocks up to the one that reaches q = Ncap
        head = []
        for rows in blocks:
            head.append(rows)
            if rows["q"][-1] >= Ncap:
                break
        D = _D_from_rows(np.concatenate([b[b["q"] <= Ncap] for b in head]), Ncap)
        kept = []  # the --stat column of each block

        def lines():
            for rows in itertools.chain(head, blocks):
                stat_logJ = _stat_logJ_from_mag(rows["logJ"], args.N, D)
                stat_pq = _stat_pq_from_sum(rows["sum_a"], args.N)
                kept.append(stat_logJ if args.stat == "logJ" else stat_pq)
                yield from _array_rows(rows["p"], rows["q"], rows["sum_a"], rows["logJ"],
                                       stat_logJ, stat_pq)

        _write_rows(out, DIST_CSV, lines())
        values = np.concatenate(kept)
        del kept  # before the stable law's grid is built
        values.sort()
        law = _default_law()
        n = values.size
        ks = _ks_sorted(values, law)
        summary = f"stat = {args.stat}\nn = {n}\nKS = {_fmt(ks)}\n"
        if args.stat == "logJ":
            summary += f"D = {_fmt(D)}  (estimated over F_{Ncap})\n"
        _STDOUT.write(summary)
        if report is not None:
            _write_rows(report, REPORT_CSV, _report_rows(values, law))
    return 0


def _report_rows(ys: np.ndarray, law):
    """(y, i/n, F(y)) of a sorted sample, the law's CDF read a slice at a time."""
    n = ys.size
    for lo in range(0, n, _BLOCK):
        y = ys[lo : lo + _BLOCK]
        yield from _array_rows(y, np.arange(lo + 1, lo + y.size + 1) / n, law.cdf(y))


# -- driver --------------------------------------------------------------------------


def _add_common_flags(ap: argparse.ArgumentParser, subcommand: bool) -> None:
    # registered on the top-level parser and again on every subparser, so
    # they can be given on either side of the subcommand; the subparser
    # copies default to SUPPRESS so they never clobber a prefix value
    kw = {"default": argparse.SUPPRESS} if subcommand else {}
    ap.add_argument("--qcap", type=int, **kw)
    ap.add_argument("--ncap", type=int, dest="Ncap", **kw)
    ap.add_argument("--threads", type=int, **kw)
    ap.add_argument("--out", dest="output_path", metavar="OUT",
                    help="output CSV path (default: stdout)", **kw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sudlerlab",
        description="Sudler products, figure-eight Jones values, and h(x) checks",
    )
    _add_common_flags(ap, subcommand=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print one evaluation record")
    _add_common_flags(p, subcommand=True)
    p.add_argument("x", help="rational 'p/q', decimal, or 'cf:a1,a2,...'; "
                             "a negative fraction goes after '--': eval -- -3/7")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("scan", help="CSV of (p, q, x, h, psi, h_model) over F_qmax")
    _add_common_flags(p, subcommand=True)
    p.add_argument("--qmax", type=int, required=True)
    # argparse reads "-1e-05" as an option, so that form needs the "="
    p.add_argument("--near", type=float,
                   help="window center; write a negative exponent as --near=-1e-05")
    p.add_argument("--radius", type=float,
                   help="window half-width; write a negative exponent as --radius=-1e-05")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run one check suite, write the report CSV")
    _add_common_flags(p, subcommand=True)
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dist", help="Farey sweep with normalized statistics")
    _add_common_flags(p, subcommand=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--stat", choices=("logJ", "pq"), default="pq")
    p.add_argument("--report", help="also write (y, emp_cdf, stable_cdf) CSV here")
    p.set_defaults(func=cmd_dist)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        cfg = load_config(args)
        code = args.func(args, cfg)
        _STDOUT.flush()  # a write still buffered fails here, not at exit
        return code
    except (PrecondError, ZeroFactorError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except QuadratureError as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
