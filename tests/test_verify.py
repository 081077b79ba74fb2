import contextlib
import gc
import itertools
import json
import os
import signal
import time
from collections import Counter
from pathlib import Path

import pytest

import action_oracle
import case_oracle
import class_oracle
from case_oracle import compatible_pairs
from spcthecke import cli, hecke, modules, tableaux, verify
from spcthecke.compositions import BoundExceeded
from spcthecke.verify import CLAIMS, _run_cases

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.json"
# each claim's bound in tests/test_acceptance.py
GATES = {
    "rel-2.1": 7, "prop-3.4": 8, "lem-2.7": 7, "thm-3.15": 8, "cor-3.18": 8, "thm-3.1": 7,
    "thm-4.2": 6, "prop-4.6": 6, "thm-4.8": 6, "cor-4.9": 8, "cor-4.11": 8, "thm-5.5": 6,
    "cor-5.6": 7, "factors-vs-descents": 7, "app-A": 6, "pim-dims": 7,
}


def _chunked(cases, size):
    """cases in chunks of one listed piece of up to size cases each."""
    return [(verify._Cases(cases[k : k + size]),) for k in range(0, len(cases), size)]


def _odd(case):
    return [{"case": case}] if case % 2 else []


def _odd_run(cases):
    """What `_run_cases` gives for `_odd` over cases: every failure sorted."""
    failures = [{"case": c} for c in cases if c % 2]
    return len(cases), len(failures), sorted(failures, key=repr)[:10]


def test_pool_keeps_case_order():
    # the merged result is the serial one for any worker count, three
    # one-case chunks for two workers included
    for cases, jobs, size in ((list(range(-300, 300)), 2, 7), (list(range(-300, 300)), 3, 1), ([4, -5, 6], 2, 1)):
        chunks = _chunked(cases, size)
        assert _run_cases(chunks, _odd, jobs) == _run_cases(chunks, _odd, 1) == _odd_run(cases)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block runs past seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _in_a_worker(action):
    """Yield a case function that calls action in a forked worker, and
    that in this process waits at its first case until a worker has
    started one, so a worker's case runs whatever the scheduling."""
    parent = os.getpid()
    ready_r, ready_w = os.pipe()
    waited = []

    def check(case):
        if os.getpid() != parent:
            os.write(ready_w, b"x")
            action()
        elif not waited:
            waited.append(os.read(ready_r, 1))
        return []

    try:
        yield check
    finally:
        os.close(ready_r)
        os.close(ready_w)


def test_jobs_run_no_more_processes_than_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    assert _run_cases(_chunked(list(range(50)), 1), _odd, 10**6) == _odd_run(range(50))
    # this process works as the last worker
    assert len(forks) == min(cpus, 50) - 1
    _no_child_left()


def test_a_failed_fork_leaves_the_work_to_this_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _run_cases(_chunked(list(range(-50, 50)), 1), _odd, 2) == _odd_run(range(-50, 50))


def test_a_dead_worker_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    desc, default, cases_of, _ = CLAIMS["thm-3.1"]
    with _in_a_worker(lambda: os.kill(os.getpid(), signal.SIGKILL)) as check, _deadline(20):
        monkeypatch.setitem(CLAIMS, "thm-3.1", (desc, default, cases_of, check))
        assert cli.main(["verify", "thm-3.1", "--max-n", "4", "--jobs", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: internal: a worker process ended with status {-signal.SIGKILL} before sending its results\n"
    )
    _no_child_left()


def test_a_workers_exception_keeps_its_type_and_message(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def exceed():
        raise BoundExceeded("n = 9 exceeds bound 8")

    with _in_a_worker(exceed) as check, _deadline(20):
        with pytest.raises(BoundExceeded, match="^n = 9 exceeds bound 8$"):
            _run_cases(_chunked(list(range(40)), 1), check, 2)
    _no_child_left()


def test_a_failing_parent_stops_its_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent = os.getpid()

    def check(case):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(0.2)  # 40 one-case chunks: 8 s for a worker left running
        return []

    start = time.monotonic()
    with _deadline(20), pytest.raises(KeyboardInterrupt):
        _run_cases(_chunked(list(range(40)), 1), check, 2)
    assert time.monotonic() - start < 3
    _no_child_left()


def _streamed(claim, max_n):
    """The cases a claim's chunks list up to max_n, running none of them."""
    return [case for chunk in CLAIMS[claim][2](max_n) for case in verify._expand(chunk)]


def test_benchmark_case_counts():
    # the benchmark accepts a claim run only when it reports the case count
    # recorded for that claim and bound
    expected = json.loads(WORKLOADS.read_text())["expected_cases"]
    assert expected
    for key, count in expected.items():
        claim, n = key.split("/")
        assert len(_streamed(claim, int(n))) == count, key


@pytest.mark.parametrize("claim", sorted(GATES))
def test_streamed_cases_are_the_listed_ones(claim):
    for max_n in range(1, GATES[claim] + 1):
        chunks = CLAIMS[claim][2](max_n)
        assert len(chunks) <= verify._MAX_CHUNKS
        assert Counter(_streamed(claim, max_n)) == Counter(case_oracle.CASES[claim](max_n)), max_n


def test_chunks_go_out_largest_degree_first():
    for claim in ("prop-3.4", "thm-3.1", "prop-4.6"):
        degrees = [sum(case[0]) for case in _streamed(claim, 6)]
        assert degrees == sorted(degrees, reverse=True) and degrees[0] == 6, claim
    # a shape's types are sliced: (1^7) alone holds 5,040 of the 7,713
    # compatible pairs of degree 7
    ones = [chunk for chunk in CLAIMS["thm-3.1"][2](7) if any(p.shape == (1,) * 7 for p in chunk)]
    assert len(ones) > 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_witnesses_are_the_first_failures_of_all(jobs, monkeypatch):
    # two failures per case, so a chunk's witnesses come from more failures
    # than cases
    def fail(case):
        return [{"case": case}, {"again": case}]

    desc, default, cases_of, _ = CLAIMS["thm-3.1"]
    monkeypatch.setitem(CLAIMS, "thm-3.1", (desc, default, cases_of, fail))
    report = verify.run_claim("thm-3.1", 5, jobs=jobs)
    failures = [f for case in case_oracle.CASES["thm-3.1"](5) for f in fail(case)]
    assert report["status"] == "fail" and report["cases"] == len(failures) // 2
    assert report["witness"] == sorted(failures, key=repr)[:10]


def _alive_spct(n):
    gc.collect()
    return [o for o in gc.get_objects() if type(o) is tableaux.Spct and o.n == n]


def test_no_top_degree_tableau_stays_cached():
    tableaux._SMALLER.clear()
    before = _alive_spct(7)
    assert verify.run_claim("thm-3.1", 7)["status"] == "pass"
    # the recursion's memo holds what degree 7 read, and no degree-7
    # tableau the run built outlives it
    assert tableaux._SMALLER and max(sum(alpha) for alpha, _ in tableaux._SMALLER) == 6
    kept = {id(t) for t in before}
    assert not [t for t in _alive_spct(7) if id(t) not in kept]


def test_no_top_degree_existence_answer_stays_cached():
    tableaux._spct_exists.cache_clear()
    assert verify.run_claim("prop-3.4", 7)["status"] == "pass"
    for alpha, sigma in case_oracle.all_pairs(7):
        misses = tableaux._spct_exists.cache_info().misses
        tableaux._spct_exists(alpha, sigma)
        assert tableaux._spct_exists.cache_info().misses > misses, (alpha, sigma)


def _reported(groups):
    """Whether the one-pass lem-2.7 check reports a grouping of tableaux."""
    return not all(verify._is_component(g, [tableaux._step_id(t) for t in g]) for g in groups)


def test_one_pass_class_check_matches_the_component_search():
    for n in range(1, 7):
        for alpha, sigma in compatible_pairs(n):
            ts = tableaux._enumerate_spct(alpha, sigma)
            read = tableaux._read_classes(tableaux._grouped(ts))
            assert {frozenset(cls.members) for cls, _ in read} == set(class_oracle.action_components(ts))
            assert verify._case_classes((alpha, sigma)) == []


def test_split_or_merged_components_are_reported():
    splits = merges = 0
    for n in range(1, 7):
        for alpha, sigma in compatible_pairs(n):
            ts = tableaux._enumerate_spct(alpha, sigma)
            comps = [[t for t in ts if t in comp] for comp in class_oracle.action_components(ts)]
            assert not _reported(comps)
            for k, comp in enumerate(comps):
                for cut in range(1, len(comp)):
                    assert _reported(comps[:k] + [comp[:cut], comp[cut:]] + comps[k + 1 :]), (alpha, sigma)
                    splits += 1
            for k in range(1, len(comps)):
                assert _reported([comps[0] + comps[k]] + comps[1:k] + comps[k + 1 :]), (alpha, sigma)
                merges += 1
    assert splits and merges


def _read_submodules(n):
    """Each class of degree n with its step ids and its submodule, from
    the public builder."""
    for alpha, sigma in compatible_pairs(n):
        read = tableaux._read_classes(tableaux._grouped(tableaux._enumerate_spct(alpha, sigma)))
        subs = modules.class_submodules(alpha, sigma)
        assert [cls for cls, _ in read] == [cls for cls, _ in subs]
        for (cls, sids), (_, sub) in zip(read, subs):
            yield cls, sids, sub


def _tableau_modules(n):
    """("whole", ...) for each tableau module of degree n and ("canonical",
    ...) for each canonical class submodule, with its tableaux and their
    step ids, from the public builders."""
    for alpha, sigma in compatible_pairs(n):
        whole = modules.spct_module(alpha, sigma)
        yield "whole", whole.basis, tuple(map(tableaux._step_id, whole.basis)), whole
        cls, sub = modules.canonical_submodule(alpha, sigma)
        yield "canonical", cls.members, tuple(map(tableaux._step_id, cls.members)), sub


def _action(m):
    """n, dim and the columns of m, hashable."""
    return m.n, m.dim, tuple(tuple(tuple(col.items()) for col in g) for g in m.cols)


def test_each_class_is_reached_from_its_source_in_any_order():
    # the walk starts at the flagged source wherever it is listed, so the
    # members listed in reverse pass too
    walked = 0
    for n in range(1, 7):
        for alpha, sigma in compatible_pairs(n):
            for cls, sids in tableaux._read_classes(tableaux._grouped(tableaux._enumerate_spct(alpha, sigma))):
                assert verify._is_component(cls.members, sids)
                assert verify._is_component(cls.members[::-1], sids[::-1]), (alpha, sigma, str(cls.label))
                walked += len(cls.members) > 1
    assert walked


def test_a_group_without_its_source_is_reported():
    for n in range(2, 7):
        for alpha, sigma in compatible_pairs(n):
            for cls, sids in tableaux._read_classes(tableaux._grouped(tableaux._enumerate_spct(alpha, sigma))):
                rest = [(t, s) for t, s in zip(cls.members, sids) if t is not cls.source]
                if rest:
                    assert not verify._is_component([t for t, _ in rest], [s for _, s in rest])


@pytest.mark.parametrize("kwargs", [{"max_n": True}, {"max_n": 2.5}, {"max_n": "3"}, {"jobs": 1.5}, {"jobs": True}])
def test_run_claim_refuses_a_size_that_is_not_an_int(kwargs, monkeypatch):
    def unreachable(max_n):
        raise AssertionError("cases were listed")

    description, default, _, check = verify.CLAIMS["prop-3.4"]
    monkeypatch.setitem(verify.CLAIMS, "prop-3.4", (description, default, unreachable, check))
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        verify.run_claim("prop-3.4", **kwargs)


def test_equal_class_keys_mean_equal_actions():
    # equal keys mean equal columns, and the keys tell apart as many
    # modules as the columns do
    keys, actions, built = {}, {}, Counter()
    for n in range(1, 7):
        mods = [("class", cls.members, sids, sub) for cls, sids, sub in _read_submodules(n)]
        for kind, members, sids, m in mods + list(_tableau_modules(n)):
            key = verify._tableau_key(n, members, sids)
            assert keys.setdefault((kind, key), m.cols) == m.cols, (kind, m)
            actions.setdefault(kind, set()).add(_action(m))
            built[kind] += 1
    distinct = Counter(kind for kind, _ in keys)
    assert distinct == {kind: len(a) for kind, a in actions.items()}
    assert distinct["whole"] == 162 and distinct["canonical"] == 152
    assert all(distinct[kind] < built[kind] for kind in built)


def test_class_keys_see_the_swap_targets():
    # no two classes with n <= 8 share step ids but not swap targets, so
    # the targets are tried on classes listed in another order: two
    # members with one step id trade places, so the step ids stay and the
    # columns change
    reordered = 0
    for alpha, sigma in compatible_pairs(7):
        for cls, sids in tableaux._read_classes(tableaux._grouped(tableaux._enumerate_spct(alpha, sigma))):
            pairs = [(j, k) for j, k in itertools.combinations(range(len(sids)), 2) if sids[j] == sids[k]]
            if not pairs:
                continue
            j, k = pairs[0]
            members = list(cls.members)
            members[j], members[k] = members[k], members[j]
            keys, cols = [], []
            for ms in (cls.members, members):
                cols.append(modules._tableau_columns(7, sids, tableaux._swap_targets(ms, sids)))
                keys.append(verify._tableau_key(7, ms, sids))
            assert cols[0] != cols[1] and keys[0] != keys[1]
            reordered += 1
    assert reordered == 6


def test_class_certificate_is_the_submodules_own():
    verify._INVARIANTS.clear()
    for n in range(1, 7):
        for cls, sids, sub in _read_submodules(n):
            # once built, once from the memo; `is_indecomposable` keeps no memo
            want = modules.is_indecomposable(sub)
            assert verify._invariant(modules.is_indecomposable, n, cls.members, sids) == want
            assert verify._invariant(modules.is_indecomposable, n, cls.members, sids) == want


def test_one_memo_keeps_each_invariant_apart():
    # the three claims' invariants on one memo: each entry equals a fresh
    # call of its own invariant, once built and once served
    verify._INVARIANTS.clear()
    for n in range(1, 7):
        for cls, sids, sub in _read_submodules(n):
            verify._invariant(modules.is_indecomposable, n, cls.members, sids)
        for kind, members, sids, m in _tableau_modules(n):
            fn = modules.composition_factors if kind == "whole" else hecke.is_projective
            want = fn(m)
            assert verify._invariant(fn, n, members, sids) == want, (kind, m)
            assert verify._invariant(fn, n, members, sids) == want, (kind, m)
    # a pair with one class is its canonical class and its whole module,
    # so one key holds all three invariants
    assert max(Counter(key[1:] for key in verify._INVARIANTS).values()) == 3


def test_a_class_that_leaks_raises_and_stores_nothing():
    pair = (2, 2, 1), (2, 3, 1)
    cls_a, cls_b = tableaux.equivalence_classes(tableaux._enumerate_spct(*pair))
    stored = dict(verify._INVARIANTS)
    # the sources' swaps land in their own classes, outside these groupings
    for members in ([cls_a.source], [cls_a.source, cls_b.sink], [cls_b.source, cls_a.sink]):
        sids = tuple(map(tableaux._step_id, members))
        assert None in verify._tableau_key(5, members, sids)[2]
        for fn in (modules.is_indecomposable, modules.composition_factors, hecke.is_projective):
            with pytest.raises(ValueError, match="not generator-stable"):
                verify._invariant(fn, 5, members, sids)
    assert verify._INVARIANTS == stored


def test_relation_verdicts_are_the_modules_own():
    # rel-2.1's tableau cases on the memo: each verdict equals the check of
    # the public tableau module and the matrix-product oracle's, built once
    # and served once
    verify._INVARIANTS.clear()
    checked = 0
    for n in range(1, 7):
        for alpha, sigma in compatible_pairs(n):
            m = modules.spct_module(alpha, sigma)
            want = modules.check_relations(m)
            assert want.violations == action_oracle.check_relations(m) == [], m
            sids = tuple(map(tableaux._step_id, m.basis))
            for _ in range(2):
                assert verify._invariant(modules.check_relations, n, m.basis, sids) == want, m
            assert verify._case_relations(("spct", (alpha, sigma))) == []
            checked += 1
    assert checked == 1402
    assert len(verify._INVARIANTS) == 162


def test_a_failing_tableau_module_is_reported(monkeypatch):
    # a relation check that fails every tableau module and passes every
    # other: each tableau case fails under its module's name
    def fail_tableaux(m):
        bad = isinstance(m.basis[0], tableaux.Spct)
        return modules.RelationReport(not bad, [{"relation": "idempotent", "i": 1}] if bad else [])

    monkeypatch.setattr(modules, "check_relations", fail_tableaux)
    report = verify.run_claim("rel-2.1", 4)
    failures = [
        {"module": "S^{1}_{0}".format(*pair)} for kind, pair in case_oracle.CASES["rel-2.1"](4) if kind == "spct"
    ]
    assert report["status"] == "fail" and len(failures) == 55
    assert report["witness"] == sorted(failures, key=repr)[:10]
