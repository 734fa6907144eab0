"""End-to-end CLI behavior: records, CSV determinism, config, exit codes."""

import csv
import errno
import importlib
import io
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sudlerlab
from sudlerlab import cli, dist, verify
from sudlerlab.errors import PoleError, ZeroFactorError

from farey import farey_enumerate


def run(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def _record(out):
    return dict(line.split(" = ", 1) for line in out.strip().splitlines())


# -- CSV writer ------------------------------------------------------------------


def _oracle_fmt(value):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _oracle_write_rows(out, layout, rows):
    """The csv.writer + per-field formatting the one-format-per-line writer replaced."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(layout[0].split(","))
    for row in rows:
        writer.writerow([_oracle_fmt(v) for v in row])


_INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
)
_FLOATS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-320,
                     2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
)
_NAMES = st.text(st.characters(blacklist_characters=',"\r\n',
                               blacklist_categories=("Cs",)), min_size=1)
_FLAGS = st.one_of(st.booleans(), st.booleans().map(np.bool_))
_LAYOUT_FIELDS = {
    "dist": (cli.DIST_CSV, [_INTS] * 3 + [_FLOATS] * 3),
    "report": (cli.REPORT_CSV, [_FLOATS] * 3),
    "scan": (cli.SCAN_CSV, [_INTS] * 2 + [_FLOATS] * 4),
    "verify": (cli.VERIFY_CSV, [_NAMES] * 2 + [_FLOATS] * 3 + [_FLAGS]),
}


@pytest.mark.parametrize("name", sorted(_LAYOUT_FIELDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_writer_matches_csv_module_oracle(name, data):
    layout, fields = _LAYOUT_FIELDS[name]
    rows = data.draw(st.lists(st.tuples(*fields), max_size=20))
    got, want = io.StringIO(), io.StringIO()
    cli._write_rows(got, layout, iter(rows))
    _oracle_write_rows(want, layout, rows)
    assert got.getvalue() == want.getvalue()


def test_array_rows_cross_chunk_boundaries():
    n = 2 * (1 << 14) + 5
    a = np.arange(n, dtype=np.int64) * 3
    b = np.linspace(-1.0, 1.0, n)
    rows = list(cli._array_rows(a, b))
    assert rows == list(zip(a.tolist(), b.tolist()))
    assert type(rows[-1][0]) is int and type(rows[-1][1]) is float
    assert list(cli._array_rows(a[:0], b[:0])) == []


def test_dist_files_match_csv_module_oracle(tmp_path, capsys, monkeypatch):
    argv = ["dist", "--N", "60", "--stat", "logJ"]
    new = [tmp_path / "d.csv", tmp_path / "r.csv"]
    old = [tmp_path / "d_old.csv", tmp_path / "r_old.csv"]
    rc, out, _ = run(argv + ["--out", str(new[0]), "--report", str(new[1])], capsys)
    monkeypatch.setattr(cli, "_write_rows", _oracle_write_rows)
    rc_old, out_old, _ = run(argv + ["--out", str(old[0]), "--report", str(old[1])],
                             capsys)
    assert rc == rc_old == 0 and out == out_old
    for a, b in zip(new, old):
        assert a.read_bytes() == b.read_bytes()
    # emp_cdf is (i + 1) / n, one division per row
    lines = new[1].read_text().splitlines()[1:]
    n = len(lines)
    assert n == sum(1 for _ in farey_enumerate(60))
    assert [ln.split(",")[1] for ln in lines] == [f"{(i + 1) / n:.17g}" for i in range(n)]


def test_verify_names_need_no_csv_quoting():
    # the writer's `%s` matches csv's QUOTE_MINIMAL only for such names;
    # continuity and th3 at small caps build their ids as at the defaults
    kwargs = {"continuity": {"qcap": 800}, "th3": {"Ncap": 60}}
    for suite in sorted(verify.SUITES):
        for c in verify.run_suite(suite, **kwargs.get(suite, {})):
            for name in (c.check_id, c.case_id):
                assert isinstance(name, str) and name
                assert not set(name) & set(',"\r\n'), (suite, name)


# -- eval ------------------------------------------------------------------------


def test_eval_half_prints_log5(capsys):
    rc, out, _ = run(["eval", "1/2"], capsys)
    assert rc == 0
    rec = _record(out)
    assert rec["q"] == "2" and rec["cf"] == "[0; 2]"
    assert float(rec["h"]) == pytest.approx(math.log(5), abs=1e-12)
    # 17 significant digits round-trip
    assert rec["h"] == f"{math.log(5):.17g}"


def test_eval_matches_readme_record(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.splitlines()
    start = lines.index("$ sudlerlab eval 5/12") + 1
    block = lines[start : lines.index("```", start)]
    assert len(block) == 7
    rc, out, _ = run(["eval", "5/12"], capsys)
    assert rc == 0 and out == "\n".join(block) + "\n"


def test_eval_out_file_holds_the_stdout_record(tmp_path, capsys):
    path = tmp_path / "rec.txt"
    rc, out, _ = run(["eval", "5/12", "--out", str(path)], capsys)
    assert rc == 0 and out == ""
    rc, plain, _ = run(["eval", "5/12"], capsys)
    assert rc == 0 and path.read_text(encoding="utf-8") == plain


def test_eval_cf_form_matches_fraction(capsys):
    rc1, out1, _ = run(["eval", "cf:2,2"], capsys)
    rc2, out2, _ = run(["eval", "2/5"], capsys)
    assert rc1 == rc2 == 0 and out1 == out2


def test_eval_rejects_zero(capsys):
    rc, _, err = run(["eval", "0"], capsys)
    assert rc == 2 and "undefined at 0" in err


def test_eval_rejects_presets(capsys):
    rc, _, err = run(["eval", "golden"], capsys)
    assert rc == 2 and "irrational" in err


def test_eval_rejects_garbage(capsys):
    rc, _, _ = run(["eval", "7/0"], capsys)
    assert rc == 2
    rc, _, _ = run(["eval", "cf:2,x"], capsys)
    assert rc == 2


def test_eval_cf_literal_rules(capsys):
    # the literal goes through cfrac.parse_alpha; a trailing 1 is canonicalized
    rc1, out1, _ = run(["eval", "cf:2,1,1"], capsys)
    rc2, out2, _ = run(["eval", "2/5"], capsys)
    assert rc1 == rc2 == 0 and out1 == out2
    for bad in ["cf:", "cf:2,0", "cf:2,-1"]:
        rc, _, err = run(["eval", bad], capsys)
        assert rc == 2 and err.startswith("error: "), bad


def test_eval_rejects_periodic_cf_literal(capsys):
    rc, _, err = run(["eval", "cf:1~period:2"], capsys)
    assert rc == 2 and "infinite expansion" in err


def test_eval_integer_cf_has_no_semicolon(capsys):
    # an integer's expansion has no partial quotients: [2], as CFExpansion prints it
    rc, out, _ = run(["eval", "2"], capsys)
    assert rc == 0 and _record(out)["cf"] == "[2]"


def test_eval_negative_fraction_after_double_dash(capsys):
    # h is even, so -3/7 gives the record of 3/7; "--" keeps argparse off "-3/7"
    rc, out, _ = run(["eval", "--", "-3/7"], capsys)
    rc2, out2, _ = run(["eval", "3/7"], capsys)
    assert rc == rc2 == 0 and out == out2


def test_eval_folds_beyond_unit_interval(capsys):
    rc, out, _ = run(["eval", "5/3"], capsys)
    assert rc == 0
    rec = _record(out)
    assert rec["cf"] == "[1; 1, 2]"
    rc, out3, _ = run(["eval", "3/5"], capsys)
    assert float(rec["h"]) == pytest.approx(-float(_record(out3)["h"]), abs=1e-12)


# -- scan ------------------------------------------------------------------------


def test_scan_qmax80_row_count(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    rc, _, _ = run(["--out", str(path), "scan", "--qmax", "80"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 1965
    assert list(rows[0]) == ["p", "q", "x", "h", "psi", "h_model"]


def test_scan_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["--out", str(a), "scan", "--qmax", "40"], capsys)
    run(["--out", str(b), "scan", "--qmax", "40"], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_scan_window_filter(tmp_path, capsys):
    path = tmp_path / "w.csv"
    rc, _, _ = run(
        ["--out", str(path), "scan", "--qmax", "200", "--near", "0.1",
         "--radius", "0.01"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(path.open()))
    assert rows and all(abs(float(r["x"]) - 0.1) <= 0.01 for r in rows)


def _oracle_scan_fractions(qmax, near, radius):
    """The filter over all of F_qmax that the Stern-Brocot window replaced."""
    return [r for r in farey_enumerate(qmax)
            if near is None or not abs(float(r) - near) > radius]


@pytest.mark.parametrize("qmax, near, radius", [
    (120, 0.25, 0.05),             # edges 1/5 and 3/10 are Farey fractions
    (120, 0.5, 0.3),               # 1/5 lies past the radius, yet its float passes
    (120, 0.5, 0.09999999999999998),
    (120, 1 / 3, 1 / 3 - 1 / 5),   # edges 1/5 and 7/15 as rounded floats
    (120, 0.5, 0.0),               # radius 0 on a fraction: one row
    (120, 0.3, 0.0),               # radius 0 on 3/10 as the float 0.3
    (120, 0.01, 0.02),             # reaches past 0
    (120, 0.995, 0.01),            # reaches past 1
    (60, 0.5, 0.5),                # touches both 0 and 1
    (120, 0.1, -0.01),             # negative radius: header only
    (120, 0.1, -1e-300),
    (120, 1.5, 0.2),               # window outside (0, 1)
    (30, 0.5, math.inf),           # a non-finite near or radius exits 2
    (30, math.nan, 0.1),
    (30, math.inf, 0.1),
])
def test_scan_window_matches_full_filter(qmax, near, radius, tmp_path, capsys,
                                         monkeypatch):
    # a non-finite window is a precondition error, refused before --out opens
    want = 0 if math.isfinite(near) and math.isfinite(radius) else 2
    argv = ["scan", "--qmax", str(qmax), f"--near={near!r}", f"--radius={radius!r}"]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    rc, _, _ = run(argv + ["--out", str(new)], capsys)
    monkeypatch.setattr(cli, "_scan_fractions", _oracle_scan_fractions)
    monkeypatch.setattr(cli, "_write_rows", _oracle_write_rows)
    rc_old, _, _ = run(argv + ["--out", str(old)], capsys)
    assert rc == rc_old == want
    if want:
        assert not new.exists() and not old.exists()
    else:
        assert new.read_bytes() == old.read_bytes()


_FAREY_FLOATS = st.builds(lambda p, q: p / q, st.integers(0, 90), st.integers(1, 90))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.floats(-0.2, 1.2), _FAREY_FLOATS),
    st.one_of(st.floats(-1e-3, 0.3), st.sampled_from([0.0, 1e-17, 2.0**-52])),
    st.one_of(st.none(), _FAREY_FLOATS),
)
def test_scan_fractions_match_full_filter(near, radius, edge):
    # an edge given as a float fraction puts that fraction on the window's rim
    if edge is not None:
        radius = abs(edge - near)
    assert list(cli._scan_fractions(90, near, radius)) == \
        _oracle_scan_fractions(90, near, radius)


def test_scan_model_column(tmp_path, capsys):
    from sudlerlab.jones import vol_41

    path = tmp_path / "m.csv"
    run(["--out", str(path), "scan", "--qmax", "10"], capsys)
    for r in csv.DictReader(path.open()):
        x = float(r["x"])
        want = vol_41() / (2 * math.pi * x) - 1.5 * math.log(x)
        assert float(r["h_model"]) == pytest.approx(want, abs=1e-12)


def _oracle_scan(qmax):
    """The scan CSV over all of F_qmax from one h_eval per row."""
    from sudlerlab.jones import h_eval, vol_41

    rows = []
    for r in farey_enumerate(qmax):
        x, hv = float(r), h_eval(r)
        model = vol_41() / (2.0 * math.pi * x) - 1.5 * math.log(x)
        rows.append((r.numerator, r.denominator, x, hv.h, hv.psi, model))
    out = io.StringIO()
    _oracle_write_rows(out, cli.SCAN_CSV, rows)
    return out.getvalue()


@pytest.mark.parametrize("qmax", [2, 3, 80])
def test_scan_from_sweep_matches_h_eval_oracle(qmax, tmp_path, capsys):
    path = tmp_path / "scan.csv"
    rc, _, _ = run(["--out", str(path), "scan", "--qmax", str(qmax)], capsys)
    assert rc == 0
    assert path.read_bytes() == _oracle_scan(qmax).encode()


def test_scan_threads_agree(tmp_path, capsys):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    run(["--out", str(one), "scan", "--qmax", "120", "--threads", "1"], capsys)
    run(["--out", str(two), "scan", "--qmax", "120", "--threads", "2"], capsys)
    assert one.read_bytes() == two.read_bytes()


def test_scan_requires_radius_with_near(capsys):
    rc, _, _ = run(["scan", "--qmax", "40", "--near", "0.5"], capsys)
    assert rc == 2


# -- verify ----------------------------------------------------------------------


def test_verify_epsilon_report(tmp_path, capsys):
    path = tmp_path / "eps.csv"
    rc, _, err = run(["--out", str(path), "verify", "--suite", "epsilon"], capsys)
    assert rc == 0 and "4 cases passed" in err
    rows = list(csv.DictReader(path.open()))
    assert [list(rows[0])] == [["check_id", "case_id", "lhs", "rhs", "margin", "passed"]]
    assert all(r["passed"] == "True" for r in rows)


def test_verify_prints_worst_margin_per_check(tmp_path, capsys):
    path = tmp_path / "eps.csv"
    rc, _, err = run(["--out", str(path), "verify", "--suite", "epsilon"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(path.open()))
    want = {}
    for r in rows:
        n, worst = want.get(r["check_id"], (0, math.inf))
        want[r["check_id"]] = (n + 1, min(worst, float(r["margin"])))
    lines = err.splitlines()
    assert lines[0] == "suite epsilon: 4 cases passed"
    assert lines[1:] == [
        f"  {cid}: {n} cases, worst margin {worst:.17g}"
        for cid, (n, worst) in want.items()
    ]
    assert [cid for cid in want] == ["epsilon_bounds", "ql_diff"]


def test_verify_failing_suite_exits_3(tmp_path, capsys, monkeypatch):
    def fake_suite():
        return [verify._case("fake", "always_fails", 0.0, 1.0)]

    monkeypatch.setitem(verify.SUITES, "epsilon", fake_suite)
    rc, _, err = run(["--out", str(tmp_path / "f.csv"), "verify",
                      "--suite", "epsilon"], capsys)
    assert rc == 3 and "1/1 cases failed" in err
    assert "  fake: 1 cases, worst margin -1" in err


def test_verify_unwritable_output_fails_before_suite(tmp_path, capsys, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("the suite ran before the output path was opened")

    monkeypatch.setattr(verify, "run_suite", no_suite)
    path = tmp_path / "no_such_dir" / "x.csv"
    rc, _, err = run(["verify", "--suite", "continuity", "--out", str(path)], capsys)
    assert rc == 2 and err.startswith("error: cannot write")


def test_verify_unknown_suite_is_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- dist ------------------------------------------------------------------------


def test_dist_small_sweep(tmp_path, capsys):
    path = tmp_path / "d.csv"
    rc, out, _ = run(["--out", str(path), "dist", "--N", "60", "--stat", "pq"],
                     capsys)
    assert rc == 0
    assert "KS = " in out and "stat = pq" in out
    rows = list(csv.DictReader(path.open()))
    assert list(rows[0]) == ["p", "q", "sum_partial_quotients", "logJ",
                             "stat_logJ", "stat_pq"]
    assert len(rows) == sum(1 for _ in farey_enumerate(60))


def _dist_reference(N, stat, Ncap=verify.NCAP):
    """(CSV, report CSV, stdout) of `dist` from the whole sweep(N) table."""
    table = dist.sweep(N)
    Ncap = min(N, Ncap)
    D = dist._D_from_rows(table[table["q"] <= Ncap], Ncap)
    stat_logJ = dist._stat_logJ_from_mag(table["logJ"], N, D)
    stat_pq = dist._stat_pq_from_sum(table["sum_a"], N)
    csv_text = "p,q,sum_partial_quotients,logJ,stat_logJ,stat_pq\n" + "".join(
        "%d,%d,%d,%.17g,%.17g,%.17g\n" % row for row in zip(
            table["p"].tolist(), table["q"].tolist(), table["sum_a"].tolist(),
            table["logJ"].tolist(), stat_logJ.tolist(), stat_pq.tolist()))
    ys = np.sort(stat_logJ if stat == "logJ" else stat_pq)
    n = ys.size
    law = dist._default_law()
    F = law.cdf(ys)
    i = np.arange(1, n + 1)
    ks = float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))
    report = "y,emp_cdf,stable_cdf\n" + "".join(
        "%.17g,%.17g,%.17g\n" % row for row in zip(ys.tolist(), (i / n).tolist(), F.tolist()))
    stdout = f"stat = {stat}\nn = {n}\nKS = {ks:.17g}\n"
    if stat == "logJ":
        stdout += f"D = {D:.17g}  (estimated over F_{Ncap})\n"
    return csv_text.encode(), report.encode(), stdout


def _dist_run(N, stat, threads, tmp_path, capsys):
    out, rep = tmp_path / f"d{threads}.csv", tmp_path / f"r{threads}.csv"
    rc, stdout, err = run(["dist", "--N", str(N), "--stat", stat, "--threads", str(threads),
                           "--out", str(out), "--report", str(rep)], capsys)
    assert rc == 0 and err == ""
    return out.read_bytes(), rep.read_bytes(), stdout


@pytest.mark.parametrize("N,stat", [(120, "logJ"), (300, "pq")])
def test_dist_streams_the_sweep_table_bytes(N, stat, tmp_path, capsys):
    # the blocks, in one process or two workers, give the bytes of the table
    want = _dist_reference(N, stat)
    assert _dist_run(N, stat, 1, tmp_path, capsys) == want
    assert _dist_run(N, stat, 2, tmp_path, capsys) == want


def test_dist_never_builds_the_sweep_table(tmp_path, capsys, monkeypatch):
    want = _dist_reference(300, "logJ")

    def no_sweep(*args, **kwargs):
        raise AssertionError("dist built the whole sweep table")

    monkeypatch.setattr(dist, "sweep", no_sweep)
    monkeypatch.setattr(cli, "sweep", no_sweep)
    assert _dist_run(300, "logJ", 1, tmp_path, capsys) == want


def test_dist_logJ_prints_centering(capsys):
    rc, out, _ = run(["dist", "--N", "50", "--stat", "logJ"], capsys)
    assert rc == 0 and "D = " in out


def test_dist_report_csv(tmp_path, capsys):
    rep = tmp_path / "rep.csv"
    rc, _, _ = run(["dist", "--N", "50", "--stat", "pq", "--report", str(rep)],
                   capsys)
    assert rc == 0
    rows = list(csv.DictReader(rep.open()))
    assert list(rows[0]) == ["y", "emp_cdf", "stable_cdf"]
    ecdf = [float(r["emp_cdf"]) for r in rows]
    assert ecdf == sorted(ecdf) and ecdf[-1] == pytest.approx(1.0)


def test_dist_rejects_small_N(capsys):
    rc, _, _ = run(["dist", "--N", "10"], capsys)
    assert rc == 2


def test_dist_rejects_small_ncap_before_sweep(tmp_path, capsys, monkeypatch):
    # D needs F_Ncap with Ncap >= 50: refused before the sweep, and before
    # --out is opened, so an existing file keeps its bytes
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran with an unusable --ncap")

    monkeypatch.setattr(cli, "_sweep_blocks", no_sweep)
    path = tmp_path / "x.csv"
    path.write_bytes(b"kept\n")
    rc, _, err = run(["dist", "--N", "1000", "--ncap", "10", "--stat", "pq",
                      "--out", str(path)], capsys)
    assert rc == 2 and err.startswith("error: ")
    assert path.read_bytes() == b"kept\n"


def test_dist_unconverged_stable_law_exits_4(capsys, monkeypatch):
    # three panel levels short of the depth rule, the fine and guard rules
    # part by more than the tolerance on the grid, so the grid build fails
    depth = dist._depth
    monkeypatch.setattr(dist, "_depth", lambda t: np.maximum(depth(t) - 3, 1))
    monkeypatch.setattr(cli, "_default_law", dist.StableLaw)
    rc, _, err = run(["dist", "--N", "50"], capsys)
    assert rc == 4 and "quadrature did not converge" in err


def test_global_flags_accepted_after_subcommand(tmp_path, capsys):
    # --out and friends work on either side of the subcommand
    post = tmp_path / "post.csv"
    pre = tmp_path / "pre.csv"
    rc, _, _ = run(["scan", "--qmax", "30", "--out", str(post)], capsys)
    assert rc == 0
    rc, _, _ = run(["--out", str(pre), "scan", "--qmax", "30"], capsys)
    assert rc == 0
    assert post.read_bytes() == pre.read_bytes()
    # a prefix value survives the subparser pass
    rc, out, _ = run(["--threads", "2", "eval", "1/2"], capsys)
    assert rc == 0 and _record(out)["q"] == "2"


@pytest.mark.parametrize("argv", [
    ["scan", "--qmax", "30"],
    ["verify", "--suite", "epsilon"],
    ["dist", "--N", "50"],
    ["eval", "5/12"],
], ids=["scan", "verify", "dist", "eval"])
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "no_such_dir" / "out.csv"
    rc, _, err = run(["--out", str(path)] + argv, capsys)
    assert rc == 2 and err.startswith("error: cannot write")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["eval", "1/3", "--out", "/dev/full"],
    ["scan", "--qmax", "60", "--out", "/dev/full"],
    ["dist", "--N", "60", "--out", "/dev/full", "--report", "REST"],
    ["dist", "--N", "60", "--out", "REST", "--report", "/dev/full"],
], ids=["eval", "scan", "dist_out", "dist_report"])
def test_failed_write_exits_2(argv, tmp_path, capsys):
    # every write to /dev/full fails with ENOSPC; the error names that file only
    argv = [str(tmp_path / "rest.csv") if a == "REST" else a for a in argv]
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["eval", "1/3"],
    ["scan", "--qmax", "60"],
    ["verify", "--suite", "epsilon"],
    ["dist", "--N", "60", "--out", "REST"],
], ids=["eval", "scan", "verify", "dist"])
def test_failed_stdout_write_exits_2(argv, tmp_path):
    # one error line: no traceback, and no "Exception ignored" from the flush at exit
    argv = [str(tmp_path / "rest.csv") if a == "REST" else a for a in argv]
    with open("/dev/full", "w") as full:
        res = subprocess.run([sys.executable, "-m", "sudlerlab.cli"] + argv, stdout=full,
                             stderr=subprocess.PIPE, text=True, timeout=120)
    assert res.returncode == 2
    assert res.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_stdout_closed_early_exits_2():
    # F_300 is ~2 MB of CSV, far past a pipe's buffer, so the write meets the closed end
    with subprocess.Popen([sys.executable, "-m", "sudlerlab.cli", "scan", "--qmax", "300"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == cli.SCAN_CSV[0] + "\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert err == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_dist_unwritable_output_fails_before_sweep(flag, tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output paths were opened")

    monkeypatch.setattr(cli, "_sweep_blocks", no_sweep)
    path = tmp_path / "no_such_dir" / "x.csv"
    rc, _, err = run(["dist", "--N", "50", flag, str(path)], capsys)
    assert rc == 2 and err.startswith("error: cannot write")


def test_scan_unwritable_output_fails_before_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output path was opened")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    path = tmp_path / "no_such_dir" / "x.csv"
    rc, _, err = run(["scan", "--qmax", "50", "--out", str(path)], capsys)
    assert rc == 2 and err.startswith("error: cannot write")


@pytest.mark.parametrize("exc", [ZeroFactorError, PoleError])
def test_arithmetic_errors_exit_2(exc, capsys, monkeypatch):
    def hit(r):
        raise exc("landed on it", n=3)

    monkeypatch.setattr(cli, "h_eval", hit)
    rc, _, err = run(["eval", "1/2"], capsys)
    assert rc == 2 and err == "error: landed on it\n"


@pytest.mark.parametrize("x", ["1/2097153", "2097153/5"])
def test_eval_denominator_past_enum_cap_exits_4(x, capsys):
    # q = 2^21 + 1 at x itself, or at the 1/x side of h
    rc, _, err = run(["eval", x], capsys)
    assert rc == 4 and err.startswith("resource cap:")


def test_continuity_qcap_past_enum_cap_exits_4(capsys):
    rc, _, err = run(["verify", "--suite", "continuity", "--qcap", "2097153"], capsys)
    assert rc == 4 and err.startswith("resource cap:")


@pytest.mark.parametrize("argv", [
    ["dist", "--N", "2097153"],
    ["verify", "--suite", "th3", "--ncap", "2097153"],
    ["scan", "--qmax", "2097153"],
], ids=["dist", "th3", "scan"])
def test_sweep_past_enum_cap_exits_4(argv, capsys):
    # N = 2^21 + 1: refused before the first row of the sweep
    rc, _, err = run(argv, capsys)
    assert rc == 4 and err.startswith("resource cap:")


@pytest.mark.parametrize("argv", [
    ["dist", "--N", "3000000"],
    ["scan", "--qmax", "3000000"],
    ["verify", "--suite", "continuity", "--qcap", "2097153"],
    ["verify", "--suite", "th3", "--ncap", "2097153"],
    ["eval", "1/2097153"],
    ["scan", "--qmax", "3000000", "--near", "0.3183098861837907", "--radius", "1e-11"],
], ids=["dist", "scan", "continuity", "th3", "eval", "scan_near"])
def test_refused_cap_keeps_existing_out(argv, tmp_path, capsys):
    # the cap is refused before --out is opened, so the file keeps its bytes;
    # eval checks x and 1/x, and scan --near the window it has built
    path = tmp_path / "kept.csv"
    path.write_bytes(b"kept\n")
    rc, _, err = run(argv + ["--out", str(path)], capsys)
    assert rc == 4 and err.startswith("resource cap:")
    assert path.read_bytes() == b"kept\n"


# -- config ----------------------------------------------------------------------


def test_config_file_is_read_and_flag_overrides(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "cfg.txt"
    bad.write_text("threads = 0\n")
    monkeypatch.setenv(cli.ENV_CONFIG, str(bad))
    rc, _, err = run(["eval", "1/2"], capsys)
    assert rc == 2 and "threads" in err
    # an explicit flag wins over the file
    rc, out, _ = run(["--threads", "2", "eval", "1/2"], capsys)
    assert rc == 0 and "h = " in out


def test_config_rejects_unknown_key(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("qmax = 7\n")
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    rc, _, err = run(["eval", "1/2"], capsys)
    assert rc == 2 and "unknown config key" in err


def test_guard_depth_flag_is_gone(capsys):
    for argv in (["--guard-depth", "3", "eval", "1/2"], ["eval", "--guard-depth", "3", "1/2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert "--guard-depth" in capsys.readouterr().err


def test_config_rejects_guard_depth_key(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("guard_depth = 8\n")
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    rc, _, err = run(["eval", "1/2"], capsys)
    assert rc == 2 and "unknown config key 'guard_depth'" in err


def test_precision_bits_flag_is_gone(capsys):
    for argv in (["--precision-bits", "256", "eval", "1/2"],
                 ["eval", "--precision-bits", "256", "1/2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert "--precision-bits" in capsys.readouterr().err


def test_config_rejects_precision_bits_key(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("precision_bits = 128\n")
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    rc, _, err = run(["eval", "1/2"], capsys)
    assert rc == 2 and "unknown config key 'precision_bits'" in err


def test_config_rejects_non_integer_value(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("qcap = abc\n")
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    rc, _, err = run(["eval", "1/2"], capsys)
    assert rc == 2 and err.startswith("error: ") and "qcap must be an integer" in err


def test_config_non_utf8_file_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"\xff\xfeqcap = 5\n")
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    rc, _, err = run(["eval", "1/3"], capsys)
    assert rc == 2 and err.startswith(f"error: cannot read config file {cfg}: not UTF-8")


def test_config_missing_file_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_CONFIG, str(tmp_path / "absent.cfg"))
    rc, _, err = run(["eval", "1/2"], capsys)
    assert rc == 2 and err.startswith("error: cannot read config file")


def test_config_comments_and_blanks_ok(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# comment\n\nthreads = 1\nqcap = 4000  # inline\n")
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    rc, _, _ = run(["eval", "1/2"], capsys)
    assert rc == 0


# -- entry point -----------------------------------------------------------------


def test_module_entry_point_subprocess():
    res = subprocess.run(
        [sys.executable, "-m", "sudlerlab.cli", "eval", "1/3"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0
    assert "q = 3" in res.stdout


def test_cli_import_loads_no_test_only_dependency():
    code = (
        "import sys, sudlerlab.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} "
        "& {'scipy', 'mpmath', 'sympy'}))"
    )
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def _loaded_after(module):
    """The sudlerlab modules a fresh interpreter holds after `import module`."""
    code = (f"import sys, {module}; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'sudlerlab')))")
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def test_module_import_loads_only_its_dependencies():
    # the package root imports nothing, so a module brings only what it uses
    assert _loaded_after("sudlerlab.cfrac") == {"sudlerlab", "sudlerlab.cfrac", "sudlerlab.errors"}
    unused = {"sudlerlab.dist", "sudlerlab.verify", "sudlerlab.cli", "sudlerlab.frozen"}
    assert _loaded_after("sudlerlab.jones") & unused == set()


_MODULES = [f"sudlerlab.{m.name}" for m in pkgutil.iter_modules(sudlerlab.__path__)]
_EXPORTING = [name for name in _MODULES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", _EXPORTING)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
