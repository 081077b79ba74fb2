"""Tests for the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(run.SRC), PYTHONHASHSEED="0")
# case counts of small sweeps, to keep these tests quick
SMALL = {"thm-3.1/4": 55, "cor-4.11/4": 4, "prop-3.4/5": 325, "thm-4.8/4": 66}


def small_spec(expected=SMALL) -> run.Spec:
    return run.Spec("small", [(k.split("/")[0], int(k.split("/")[1])) for k in expected], 1, dict(expected))


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert layertrace.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_every_binding_is_the_wrapper():
    code = """
import sys, layertrace, spcthecke.cli
wrappers = layertrace.Tracer("t").install()
import spcthecke.verify as v, spcthecke.modules as m, spcthecke.linalg as la
wrapped = {id(w) for _, w in wrappers.values()}
assert id(v.compositions) in wrapped and id(m.nullspace) in wrapped
assert id(la.RatMat.__rmul__) in wrapped and id(la.EchelonSpace.add) in wrapped
assert all(id(runner) in wrapped for _, runner in v.CLAIMS.values())
left = [f"{n}.{a}" for n, mod in sys.modules.items() if n.startswith("spcthecke")
        for a, val in vars(mod).items() if id(val) in wrappers and wrappers[id(val)][0] is val]
assert not left, left
"""
    env = dict(ENV, PYTHONPATH=os.pathsep.join([str(run.SRC), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_wrong_case_count_fails_the_run(tmp_path):
    spec = small_spec({"cor-4.11/4": SMALL["cor-4.11/4"] + 1})
    results = run.Launcher(spec, 1, ENV, tmp_path).run([run.Task("cor-4.11", 4, 1)])
    assert len(results) == 1
    assert run.failed_frac(results) == 1.0
    assert "expected" in results[0].why


def test_check_report_gates_on_verdict_only():
    report = {"claim": "x", "status": "pass", "cases": 7, "new_field": 1}
    assert run.check_report(json.dumps(report), 0, 7) == (True, "", 7)
    assert not run.check_report(json.dumps(report), 1, 7)[0]
    assert not run.check_report(json.dumps(dict(report, status="fail")), 0, 7)[0]
    assert not run.check_report("not json", 0, 7)[0]


def test_seed_permutes_launch_order_only():
    tasks = [run.Task(c, n, 1) for c, n in small_spec().claims]
    first = list(run.timed_passes(tasks, 5, 0, []))
    assert sorted(first, key=repr) == sorted(tasks, key=repr)
    assert first == list(run.timed_passes(tasks, 5, 0, []))
    assert {tuple(run.timed_passes(tasks, s, 0, [])) for s in range(8)} != {tuple(first)}


COUNTS = (
    "tableaux.enumerate_spct.calls", "tableaux.enumerate_spct.misses",
    "linalg.EchelonSpace.add.calls", "permutations.compose.calls",
    "permutations.check_perm.calls", "modules.hom_space.unknowns",
)


def test_two_traced_runs_give_identical_counts(tmp_path):
    spec = small_spec()
    tasks = [run.Task(c, n, 1, trace=True) for c, n in spec.claims]
    counts = []
    for k in range(2):
        scratch = tmp_path / str(k)
        scratch.mkdir()
        results = run.Launcher(spec, 2, ENV, scratch).run(run.one_pass(tasks, k))
        assert run.failed_frac(results) == 0.0, [r.why for r in results]
        summary = layertrace.Summary()
        for r in results:
            summary.add(layertrace.load(str(r.trace_path)))
        metrics = summary.metrics()
        counts.append({name: metrics[name] for name in COUNTS})
    assert counts[0] == counts[1]
    assert all(counts[0][name] > 0 for name in COUNTS)
