from spcthecke.verify import _run_cases


def test_pool_keeps_case_order():
    cases = list(range(-300, 300))
    assert _run_cases(cases, abs, 2) == _run_cases(cases, abs, 1) == [abs(c) for c in cases]
