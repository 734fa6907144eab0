"""Tests of tools/agree.py: python3 -m pytest tools (Tier-1 collects only tests/).

The comparisons are checked on hand-made outputs.  The runs export HEAD
with git archive, so they need a git checkout; the full case list against
a clean copy of HEAD takes about 30 s on 2 cores.
"""

import io
import json
import os
import shutil

import numpy as np
import pytest

import agree

needs_git = pytest.mark.skipif(
    not os.path.exists(os.path.join(agree.ROOT, ".git")), reason="needs a git checkout"
)


def test_csv_move_is_counted_in_its_column():
    ref = b"p,h\n1,0.5\n2,-3.25\n3,7\n"
    new = b"p,h\n1,0.5\n2,-3.2500000001\n3,7\n"
    assert agree.compare("out.csv", new, ref) == {
        "rows": 3, "columns": {"h": {"moved": 1, "worst_rel": pytest.approx(1e-10 / 3.25)}}
    }
    assert agree.compare("out.csv", ref, ref) == "identical"


def test_csv_of_another_shape_or_header_differs():
    ref = b"p,h\n1,0.5\n"
    assert agree.compare("out.csv", b"p,h\n1,0.5\n2,1\n", ref) == {
        "differs": "shape: 2 rows against 1"
    }
    assert agree.compare("out.csv", b"p,g\n1,0.5\n", ref) == {"differs": "header"}
    assert agree.compare("out.csv", b"p,h\n1,True\n", b"p,h\n1,False\n") == {
        "rows": 1, "columns": {"h": {"moved": 1, "worst_rel": "non-numeric"}}
    }


def test_text_numbers_are_labelled_by_their_line():
    ref = b"stat = logJ\nn = 75915\nKS = 0.25\nD = 2.36  (estimated over F_499)\n"
    new = b"stat = logJ\nn = 75915\nKS = 0.5\nD = 2.36  (estimated over F_499)\n"
    assert agree.compare("stdout", new, ref) == {
        "values": 3, "columns": {"KS =": {"moved": 1, "worst_rel": 0.25}}
    }
    # digits inside names are text, not numbers
    assert agree.compare("stderr", b"  th4: 5 cases\n", b"  th3: 5 cases\n") == {
        "differs": "text"
    }


def test_npy_and_exit_code():
    def npy(a):
        buf = io.BytesIO()
        np.save(buf, np.asarray(a, dtype=np.float64))
        return buf.getvalue()

    assert agree.compare("x.npy", npy([1.0, 4.0, 0.5]), npy([1.0, 2.0, 0.25])) == {
        "values": 3, "columns": {"array": {"moved": 2, "worst_rel": 1.0}}
    }
    assert agree.compare("exit", b"3", b"0") == "0 -> 3"


@pytest.fixture(scope="module")
def head_tree(tmp_path_factory):
    tree = str(tmp_path_factory.mktemp("head") / "tree")
    agree.export("HEAD", tree)
    return tree


def test_main_writes_the_summary_and_exits_by_it(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(agree, "agree", lambda rev: {"against": rev, "identical": rev == "same"})
    out = tmp_path / "summary.json"
    assert agree.main(["--against", "same", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"against": "same", "identical": True}
    assert capsys.readouterr().out == out.read_text()
    assert agree.main(["--against", "other"]) == 1


@needs_git
def test_clean_copy_of_head_agrees_everywhere(head_tree):
    summary = agree.agree("HEAD", head_tree)
    assert summary["identical"] and summary["moved"] == []
    assert list(summary["cases"]) == list(agree.CASES)
    for outputs in summary["cases"].values():
        assert set(outputs.values()) == {"identical"}


@needs_git
def test_patch_that_moves_one_value_is_reported_in_its_column(head_tree, tmp_path):
    tree = str(tmp_path / "patched")
    shutil.copytree(head_tree, tree)
    cli = os.path.join(tree, "src", "sudlerlab", "cli.py")
    with open(cli, encoding="utf-8") as fh:
        text = fh.read()
    write = "        _write_rows(out, SCAN_CSV, _array_rows(p, q, x, h, psi, model))\n"
    assert write in text
    with open(cli, "w", encoding="utf-8") as fh:
        fh.write(text.replace(write, "        model[3] += 1e-9\n" + write))
    summary = agree.agree("HEAD", tree, ["scan --qmax 80"])
    assert not summary["identical"] and summary["moved"] == ["scan --qmax 80"]
    outputs = summary["cases"]["scan --qmax 80"]
    assert outputs["exit"] == outputs["stdout"] == outputs["stderr"] == "identical"
    (column, move), = outputs["out.csv"]["columns"].items()
    assert column == "h_model" and move["moved"] == 1 and 0 < move["worst_rel"] <= 1e-9
