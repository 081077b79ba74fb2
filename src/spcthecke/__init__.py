"""Exact-arithmetic 0-Hecke modules on standard permuted composition tableaux.

The package is organised bottom-up:

* `compositions`, `permutations` -- the indexing combinatorics;
* `linalg` -- exact rational vectors, matrices, and elimination;
* `tableaux` -- the tableau objects, enumeration, and shape predicates;
* `hecke` -- the regular representation of the algebra, its projective
  indecomposables, and the exact projectivity test;
* `modules` -- concrete modules holding each generator's exact columns plus
  the verification toolbox (relations, hom spaces, radicals, factors);
* `maps` -- the structural bijections and homomorphisms between them;
* `qsym` -- degree-graded quasisymmetric functions and characteristics;
* `verify` / `cli` -- the claim table and the command line front end.
"""

__version__ = "0.1.0"
