import json
import os
import subprocess
import sys

import pytest

from spcthecke import cli, qsym, verify
from spcthecke.compositions import BoundExceeded
from spcthecke.qsym import QSymElt

BASE = [sys.executable, "-m", "spcthecke.cli"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def test_enumerate_spct():
    res = run_cli("enumerate", "spct", "--shape", "2,1", "--sigma", "2,1")
    assert res.returncode == 0
    assert json.loads(res.stdout) == [[[3, 2], [1]], [[3, 1], [2]]]


def test_enumerate_incompatible_is_empty_but_ok():
    res = run_cli("enumerate", "spct", "--shape", "1,2", "--sigma", "2,1")
    assert res.returncode == 0
    assert json.loads(res.stdout) == []


def test_enumerate_srt():
    res = run_cli("enumerate", "srt", "--shape", "2,2")
    assert res.returncode == 0
    assert len(json.loads(res.stdout)) == 5


def test_char_qs_json():
    res = run_cli("char", "--shape", "2,1", "--sigma", "2,1", "--basis", "QS", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["basis"] == "QS"
    assert sorted(tuple(t["composition"]) for t in payload["terms"]) == [(1, 2), (2, 1)]
    assert all(t["coeff"] == 1 for t in payload["terms"])


def _terms(payload):
    return {tuple(t["composition"]): t["coeff"] for t in payload["terms"]}


def test_char_qs_converts_through_the_inverse():
    # F[2,2] is absorbed by an off-diagonal entry of the transition inverse
    args = ["char", "--shape", "3,1", "--sigma", "2,1", "--json"]
    f = run_cli(*args)
    qs = run_cli(*args, "--basis", "QS")
    assert f.returncode == 0 and qs.returncode == 0
    assert _terms(json.loads(f.stdout)) == {(1, 3): 1, (2, 2): 1, (3, 1): 1}
    assert _terms(json.loads(qs.stdout)) == {(1, 3): 1, (3, 1): 1}


def test_char_qs_mismatch_is_property_failure(monkeypatch, capsys):
    monkeypatch.setattr(qsym, "qschur_expansion", lambda alpha, sigma: QSymElt(4, "QS", {(4,): 1}))
    assert cli.main(["char", "--shape", "3,1", "--sigma", "2,1", "--basis", "QS"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert _terms(report["computed"]) == {(1, 3): 1, (3, 1): 1}
    assert _terms(report["bubble_fiber"]) == {(4,): 1}


def test_char_qs_checks_the_conversion_bound_first(monkeypatch, capsys):
    # the QS conversion is built at the default bound, whatever --bound says
    def no_enumeration(*args):
        raise AssertionError("enumerated before the bound check")

    monkeypatch.setattr(qsym, "ch_spct", no_enumeration)
    argv = ["char", "--shape", "10", "--sigma", "1", "--bound", "10", "--basis", "QS"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "QS conversion" in captured.err


def test_char_f_honours_a_raised_bound():
    res = run_cli("char", "--shape", "10", "--sigma", "1", "--bound", "10", "--json")
    assert res.returncode == 0
    assert _terms(json.loads(res.stdout)) == {(10,): 1}


def test_graph_dot():
    res = run_cli("graph", "--shape", "2,1", "--sigma", "2,1")
    assert res.returncode == 0
    assert res.stdout.startswith("digraph")
    assert 'label="1"' in res.stdout


def test_verify_pass_and_report(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "prop-3.4", "--max-n", "4", "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass" and report["claim"] == "prop-3.4"


def test_verify_with_jobs():
    res = run_cli("verify", "lem-2.7", "--max-n", "4", "--jobs", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["status"] == "pass"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_nonpositive_jobs_is_usage_error(jobs):
    res = run_cli("verify", "lem-2.7", "--max-n", "3", "--jobs", jobs)
    assert res.returncode == 2
    assert res.stdout == "" and "jobs" in res.stderr


@pytest.mark.parametrize("claim", ["rel-2.1", "cor-5.6", "pim-dims"])
def test_algebra_bound_is_checked_before_any_case(claim, monkeypatch, capsys):
    def no_case(case):
        raise AssertionError("a case ran before the bound check")

    desc, default, cases_of, _ = verify.CLAIMS[claim]
    monkeypatch.setitem(verify.CLAIMS, claim, (desc, default, cases_of, no_case))
    assert cli.main(["verify", claim, "--max-n", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "n = 9 exceeds algebra bound 8" in captured.err


def test_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    from spcthecke import modules

    def broken(*args):
        raise RuntimeError("generator 1 is not idempotent")

    monkeypatch.setattr(modules, "_trace_factors", broken)
    # factors computed by an earlier test would be served from the claims' memo
    verify._INVARIANTS.clear()
    assert cli.main(["verify", "factors-vs-descents", "--max-n", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: generator 1 is not idempotent\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "exc, code, line",
    [
        (
            ValueError("label subset is not generator-stable"),
            3,
            "error: internal: ValueError: label subset is not generator-stable",
        ),
        (KeyError("t"), 3, "error: internal: KeyError: 't'"),
        (BoundExceeded("n = 4 exceeds bound 3"), 2, "error: n = 4 exceeds bound 3"),
    ],
)
def test_exception_inside_a_case(exc, code, line, jobs, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise exc

    # thm-3.1's case asks the claims' memo for each class's certificate
    monkeypatch.setattr(verify, "_invariant", broken)
    assert cli.main(["verify", "thm-3.1", "--max-n", "3", "--jobs", jobs]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


def test_failing_factors_case_reports_json(monkeypatch, capsys):
    from collections import Counter

    from spcthecke import modules

    monkeypatch.setattr(modules, "composition_factors", lambda m: Counter({(9,): 1}))
    assert cli.main(["verify", "factors-vs-descents", "--max-n", "2"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["status"] == "fail" and captured.err == ""
    assert report["witness"][0]["got"] == {"(9,)": 1}


def test_verify_list():
    res = run_cli("verify", "--list")
    assert res.returncode == 0
    assert "prop-3.4" in res.stdout and "cor-5.6" in res.stdout


def test_unknown_claim_is_usage_error():
    res = run_cli("verify", "no-such-claim")
    assert res.returncode == 2


def test_verify_empty_run_is_usage_error():
    res = run_cli("verify", "thm-3.1", "--max-n", "0")
    assert res.returncode == 2
    assert res.stdout == "" and "max_n" in res.stderr


@pytest.mark.parametrize("claim", ["prop-4.6", "thm-4.8"])
def test_verify_zero_case_run_is_usage_error(claim):
    # both list cases only from degree 2 on, so max_n = 1 checks nothing
    res = run_cli("verify", claim, "--max-n", "1")
    assert res.returncode == 2
    assert res.stdout == "" and "no case" in res.stderr


def test_unwritable_out_fails_before_the_claim_runs(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("the claim ran before --out was opened")

    monkeypatch.setattr(cli, "run_claim", unreachable)
    path = tmp_path / "missing" / "r.json"
    assert cli.main(["verify", "thm-3.1", "--max-n", "2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and str(path) in captured.err


def test_unwritable_dot_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.dot"
    assert cli.main(["graph", "--shape", "2,1", "--sigma", "2,1", "--dot", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and str(path) in captured.err


def test_bound_exceeded_is_usage_error():
    res = run_cli("enumerate", "spct", "--shape", "2,2,2,2", "--sigma", "1,2,3,4", "--bound", "6")
    assert res.returncode == 2
    assert "exceeds" in res.stderr


def test_malformed_shape_is_usage_error():
    res = run_cli("char", "--shape", "2,x", "--sigma", "1")
    assert res.returncode == 2


def test_enumerate_malformed_pair_is_usage_error():
    for shape, sigma in (("2,1", "1,1"), ("2,0", "1,2"), ("2,-1", "1,2"), ("2,1", "1")):
        res = run_cli("enumerate", "spct", "--shape", shape, "--sigma", sigma)
        assert res.returncode == 2 and res.stdout == "", (shape, sigma)
    # an empty field is refused, not dropped, with one line naming the flag
    for shape, sigma, flag in (
        ("2,,1", "2,1", "--shape"),
        ("2,1,", "2,1", "--shape"),
        (",", "", "--shape"),
        ("2,1", "2,,1", "--sigma"),
    ):
        res = run_cli("enumerate", "spct", "--shape", shape, "--sigma", sigma)
        assert res.returncode == 2 and res.stdout == "", (shape, sigma)
        assert res.stderr.startswith(f"error: cannot parse {flag} ") and res.stderr.count("\n") == 1, res.stderr
    # a blank value is the degree-0 composition, with its one empty tableau
    res = run_cli("enumerate", "spct", "--shape", "", "--sigma", "")
    assert res.returncode == 0 and json.loads(res.stdout) == [[]]


def test_basis_cert():
    res = run_cli("basis-cert", "--n", "4")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["ok"] and report["det"] in (1, -1)


def test_basis_cert_enforces_the_size_bound():
    res = subprocess.run(BASE + ["basis-cert", "--n", "10"], capture_output=True, text=True, timeout=20)
    assert res.returncode == 2
    assert res.stdout == "" and "exceeds" in res.stderr


def test_determinism_across_runs():
    for claim, max_n in (("thm-4.8", "4"), ("thm-3.1", "5")):
        a = run_cli("verify", claim, "--max-n", max_n)
        b = run_cli("verify", claim, "--max-n", max_n, "--jobs", "2")
        assert a.returncode == b.returncode == 0, claim
        assert a.stdout == b.stdout, claim


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "thm-3.1", "--max-n", "5"),
        ("verify", "thm-3.1", "--max-n", "3", "--jobs", "2"),
        ("enumerate", "spct", "--shape", "2,1", "--sigma", "2,1"),
    ],
)
def test_closed_stdout_exits_quietly(args):
    # the read end is closed before the child starts, so its first write or
    # flush to stdout fails whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(BASE + list(args), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert res.returncode == cli.BROKEN_PIPE
    assert res.stderr == ""
