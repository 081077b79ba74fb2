"""Every public top-level function or class of the package, and every
public method of a package class, has a caller in it.

A name is called when the package's code refers to it, as a name or an
attribute, outside the name's own definition.  A method is called only
through an attribute (``x.method``), matched by name, so a local variable
of the same name does not count, and neither does a function read off a
package module (``permutations.identity``); a method that shares its name
with another attribute the package reads still passes.  Docstrings and
doctests are strings, so a mention there does not count, and neither does
an import.  The keep-list holds the
paper constructions that only their tests check, and the methods that
serve only the tests and their oracles.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spcthecke"

KEEP = {
    "modules.spct_module": "the tableau module S^sigma_alpha itself; the claims build it on tableaux they have already read",
    "tableaux.spct_exists": "nonemptiness of a pair's tableaux; the claims call its core for pairs already validated",
    "tableaux.pacd_pairs": "the obstruction pairs of a pair with their witness lists",
    "tableaux.is_sigma_simple": "sigma-simplicity; the claims call its core for pairs already validated",
    "tableaux.canonical_source_tableau": "the canonical source; the package reads its rows through the core",
    "tableaux.removable_nodes": "the removable nodes of a pair, checked on the paper's example",
    "tableaux.hatted_source_tableau": "the hatted source filling, valid only under the paper's extra hypotheses",
    "modules.word_transport_holds": "reduced words of the column-word quotient carry one class member to another",
    "modules.reachable_pairs": "the pairs of class members joined by moving steps, where word transport applies",
    "permutations.weak_leq": "the weak order on the symmetric group",
    "compositions.bubble_act_word": "the bubble-sorting right action along a word, inverse to the fibers",
    "maps.ribbon_to_spct": "the ribbon-to-tableau transpose kept only when valid; the projected transpose reads members instead",
    "maps.spct_to_ribbon": "the inverse of the ribbon-to-tableau transpose",
    "maps.psi": "the type change through the partition pivot; prop-4.6 calls its core for types already validated",
    "qsym.qs_to_f": "the QS -> F basis change, inverse to f_to_qs",
    "qsym.recursion_check": "the one-step characteristic recursion; thm-4.8 calls its core for cases already validated",
    "linalg.RatMat.col": "one column of a matrix, which the tests read",
    "linalg.RatMat.identity": "identity matrices for the tests and their action oracle",
    "linalg.RatMat.from_dense": "hand-written matrices in the tests",
    "linalg.RatMat.to_dense": "dense entries for the tests' comparisons",
    "linalg.RatMat.is_zero": "the zero test of the matrix-product oracles",
    "linalg.RatMat.trace": "the trace form of the endomorphism oracle, from matrix products",
    "linalg.RatMat.from_quadruples": "the inverse of to_quadruples, for the JSON round trip",
    "qsym.QSymElt.is_zero": "the zero test on a characteristic",
    "tableaux.PacdPair.witnessed": "whether an obstruction pair has a witness, read on the paper's examples",
    "tableaux.HattedSource.spct": "the hatted source as a tableau when its filling is valid",
}


TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_defs(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _package_modules(tree):
    """The names a module binds to package modules (``from . import x as y``)."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }


def _references(tree, skip=None, kinds=(ast.Name, ast.Attribute)):
    """Names and attributes the code refers to, outside the `skip` node;
    `kinds` picks which of the two count.  When only attributes count, an
    attribute read off a package module (``permutations.identity``) is a
    function, not a method, and does not count."""
    modules = _package_modules(tree) if ast.Name not in kinds else set()
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, kinds):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif not (isinstance(node.value, ast.Name) and node.value.id in modules):
                out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_public_name_has_a_caller(module):
    elsewhere = set().union(*(_references(t) for name, t in TREES.items() if name != module))
    dead = []
    for node in _public_defs(TREES[module]):
        if f"{module}.{node.name}" in KEEP:
            continue
        if node.name not in elsewhere | _references(TREES[module], skip=node):
            dead.append(node.name)
    assert not dead, f"{module}: no caller in the package for {dead}"


def _public_methods(tree):
    """(class name, method node) for every public method of a top-level class."""
    return [
        (cls.name, node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_public_method_has_a_caller(module):
    attrs = (ast.Attribute,)
    elsewhere = set().union(*(_references(t, kinds=attrs) for name, t in TREES.items() if name != module))
    dead = []
    for cls, node in _public_methods(TREES[module]):
        if f"{module}.{cls}.{node.name}" in KEEP:
            continue
        if node.name not in elsewhere | _references(TREES[module], skip=node, kinds=attrs):
            dead.append(f"{cls}.{node.name}")
    assert not dead, f"{module}: no caller in the package for {dead}"


def test_keep_list_names_are_defined():
    for key in KEEP:
        module, *owner, name = key.split(".")
        if owner:
            defined = {node.name for cls, node in _public_methods(TREES[module]) if cls == owner[0]}
        else:
            defined = {node.name for node in _public_defs(TREES[module])}
        assert name in defined, key
