"""The acceptance gate: every criterion at its stated bound, exact arithmetic.

Each test runs one registered claim suite (plus pinned worked examples
where the criterion demands them) and prints a single pass/fail line; all
tolerances are exact, so a failure carries a witness in the claim report.
"""

import time

from spcthecke import permutations as P
from spcthecke.verify import run_claim


def _check(criterion: str, claims: list[tuple[str, dict]]):
    reports = []
    start = time.time()
    for claim, kwargs in claims:
        reports.append(run_claim(claim, **kwargs))
    status = "PASS" if all(r["status"] == "pass" for r in reports) else "FAIL"
    cases = sum(r["cases"] for r in reports)
    names = ", ".join(c for c, _ in claims)
    print(f"{status} {criterion}: {names} ({cases} cases, {time.time() - start:.1f}s)")
    for r in reports:
        assert r["status"] == "pass", (criterion, r["claim"], r["witness"][:3])


def test_criterion_01_relations_exact():
    _check("criterion-1 generator relations (n<=7)", [("rel-2.1", {"max_n": 7})])


def test_criterion_02_compatibility():
    _check("criterion-2 nonempty iff compatible (n<=8)", [("prop-3.4", {"max_n": 8})])


def test_criterion_03_classes_sources_sinks_components():
    _check("criterion-3 classes/sources/sinks/components (n<=7)", [("lem-2.7", {"max_n": 7})])


def test_criterion_04_simplicity_characterisations():
    _check(
        "criterion-4 unique-source / cyclicity / reversing type (n<=8, modules n<=6)",
        [("thm-3.15", {"max_n": 8}), ("cor-3.18", {"max_n": 8})],
    )


def test_criterion_05_local_endomorphism_rings():
    _check("criterion-5 class submodules indecomposable (n<=7)", [("thm-3.1", {"max_n": 7})])


def test_criterion_06_column_sort_and_image_law():
    # the worked triple is pinned in tests/test_maps.py::test_worked_triple
    _check(
        "criterion-6 column-sort bijection + image law (n<=6)",
        [("thm-4.2", {"max_n": 6}), ("prop-4.6", {"max_n": 6})],
    )


def test_criterion_07_recursion_and_schur():
    _check(
        "criterion-7 characteristic recursion (n<=6) + Schur specialisation (n<=8)",
        [("thm-4.8", {"max_n": 6}), ("cor-4.9", {"max_n": 8})],
    )
    # the advertised count: two standard tableaux for the (2,1) staircase
    from spcthecke.tableaux import enumerate_spct

    assert len(enumerate_spct((2, 1), P.longest_element(2))) == 2


def test_criterion_08_lattice_basis_certificate():
    _check("criterion-8 degree bases are unimodular (n<=8)", [("cor-4.11", {"max_n": 8})])


def test_criterion_09_sign_twist_and_projected_transpose():
    # the n=10 structural goldens are pinned in
    # tests/test_maps.py::test_ribbon_transpose_worked_examples
    _check("criterion-9 sign conjugation + projected transpose (n<=6)", [("thm-5.5", {"max_n": 6})])


def test_criterion_10_projectivity_classification():
    _check("criterion-10 projectivity classification (n<=7)", [("cor-5.6", {"max_n": 7})])


def test_criterion_11_factors_vs_descents():
    _check("criterion-11 factors equal descent compositions (n<=7)", [("factors-vs-descents", {"max_n": 7})])


def test_criterion_12_filtration_statistics():
    _check("criterion-12 letter bound + nonattacking window (n<=6)", [("app-A", {"max_n": 6})])


def test_criterion_13_ideal_bookkeeping():
    _check("criterion-13 ideal dimensions and tops (n<=7)", [("pim-dims", {"max_n": 7})])
