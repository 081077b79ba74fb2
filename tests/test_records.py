"""The result records: cheap to import, and picklable, so `verify --jobs` workers can send them back."""

import pickle
import subprocess
import sys

from spcthecke import hecke, maps, modules, qsym, tableaux
from spcthecke.compositions import Cell


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, spcthecke.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def _round_trip(x):
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is type(x)
    return y


def test_every_record_survives_pickling():
    _, sub = modules.canonical_submodule((2, 2, 1), (2, 3, 1))
    cls = next(c for c in tableaux.equivalence_classes(tableaux.enumerate_spct((2, 2, 1), (2, 3, 1))) if len(c.members) > 1)
    member = next(t for t in cls.members if t != cls.source)
    records = [
        cls,
        cls.label,
        tableaux.pacd_pairs((3, 3, 1, 2), (2, 1, 3, 4))[0],
        tableaux.hatted_source_tableau((2, 2), (1, 2)),
        Cell(1, 2, "rd"),
        modules.is_indecomposable(sub)[1],
        hecke.is_projective(sub)[1],
        modules.check_relations(sub),
        modules.appendix_invariants(cls, member),
        qsym.bn_basis(3)[1],
    ]
    for record in records:
        assert _round_trip(record) == record, record
    assert str(_round_trip(cls.label)) == str(cls.label)
    # a step id is local to its process, so an unpickled tableau walks its cells
    for t in cls.members:
        back = _round_trip(t)
        assert t._sid is not None and back._sid is None
        assert tableaux._steps(back) == tableaux._steps(t) and back.pos(1) is t.pos(1)

    elt = qsym.QSymElt(3, "F", {(1, 2): 1, (3,): 2})
    assert _round_trip(elt) == elt

    res = maps.prc_phi_for_target((2, 1), (2, 1))
    back = _round_trip(res)
    assert back.to_json() == res.to_json() and back.ok == res.ok
    lm = back.linmap
    assert type(lm) is modules.LinearMap
    assert (lm.matrix, lm.name, lm.intertwines) == (res.linmap.matrix, res.linmap.name, res.linmap.intertwines)
    assert lm.source.cols == res.linmap.source.cols and lm.target.basis == res.linmap.target.basis
