import json
from pathlib import Path

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
