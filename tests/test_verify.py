import json
from pathlib import Path

import class_oracle
from spcthecke import tableaux, verify
from spcthecke.verify import CLAIMS, _run_cases

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.json"


def test_pool_keeps_case_order():
    cases = list(range(-300, 300))
    assert _run_cases(cases, abs, 2) == _run_cases(cases, abs, 1) == [abs(c) for c in cases]


def test_benchmark_case_counts():
    # the benchmark accepts a claim run only when it reports the case count
    # recorded for that claim and bound; listing the cases runs none of them
    expected = json.loads(WORKLOADS.read_text())["expected_cases"]
    assert expected
    for key, count in expected.items():
        claim, n = key.split("/")
        assert len(CLAIMS[claim][2](int(n))) == count, key


def _reported(groups):
    """Whether the one-pass lem-2.7 check reports a grouping of tableaux."""
    return not all(verify._is_component(g, [tableaux._steps(t) for t in g]) for g in groups)


def test_one_pass_class_check_matches_the_component_search():
    for n in range(1, 7):
        for alpha, sigma in verify._compatible_pairs(n):
            ts = tableaux._enumerate_spct(alpha, sigma)
            read = tableaux._read_classes(tableaux._grouped(ts))
            assert {frozenset(cls.members) for cls, _ in read} == set(class_oracle.action_components(ts))
            assert verify._case_classes((alpha, sigma)) == []


def test_split_or_merged_components_are_reported():
    splits = merges = 0
    for n in range(1, 7):
        for alpha, sigma in verify._compatible_pairs(n):
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
