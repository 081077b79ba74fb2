"""The claim table: one exhaustive property suite per claim id.

Every acceptance-level statement the package asserts about itself is a row
of `CLAIMS`, keyed by a stable claim id::

    claim id -> (description, default max_n, cases(max_n), check(case))

`cases` returns every case up to the size cap as a short list of lazy
chunks (`_stream`), built before any case runs, so a size bound is
refused first; each chunk lists its cases (`_expand`) only in the
process that takes it, and the chunks go largest degree first.  `check`
returns the failures of one case.  Checks that run once per degree or
once per claim are tagged cases like the rest.  `run_claim` runs the
checker over the chunks, with `jobs` > 1 in this process and forked
workers (`_run_cases`), counts the cases as they run, keeps of the
failures only their count and the first 10 by repr, and returns a
JSON-friendly report::

    {"claim": ..., "parameters": {...}, "status": "pass"|"fail",
     "cases": <int>, "witness": <first failures, if any>}

Chunks and checkers reach the workers through fork, and only each
chunk's counts and witnesses, or an exception, come back pickled.  The
witnesses are the first failures by repr, so the report is identical for
any worker count and chunk order.
Cases hold normalised shapes and types, so checkers call the cores behind
the validating public functions (`tableaux._enumerate_spct`, `maps._psi`
and others), which keep nothing of a case's pair.  What is read again is
kept where it is read: the smaller pairs a larger one is built from, in
the recursion's memo (`tableaux._SMALLER`), which the largest-first order
fills before the smaller degrees' cases read it; a case's own tableaux,
handed on within the case; and, for prop-4.6 and thm-4.2, the pairs with
one multiset of parts (`_same_parts_spct`).

lem-2.7 groups a pair's tableaux by class key, a lone tableau being its
own class (`tableaux._grouped`), and reads each tableau once
(`tableaux._read_classes`); no class label is built unless a witness
names it.  Each class has one source and one sink, and a directed walk from the source along
the swaps lands only on members and reaches them all.  So the classes are
the components of the action graph, and each is generated by its source.
thm-3.15 and cor-3.18 read tableau-cyclicity off the same swap graph.

Four claims read one invariant of a module on tableaux: thm-3.1
`modules.is_indecomposable` of each class submodule, factors-vs-descents
`modules.composition_factors` of each whole tableau module, cor-5.6
`hecke.is_projective` of each canonical class submodule, and rel-2.1
`modules.check_relations` of each whole tableau module.  Each keys its
tableaux on n, their step ids and their swap targets (`_tableau_key`),
read before any module is built.  The key fixes the module's columns
exactly, so equal keys have one value, and a module is built and the
invariant computed only for an (invariant, key) the process has not seen
(`_invariant`); most pairs share the key of one seen before.  No module
leaves the claim.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import os
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .compositions import (
    BoundExceeded,
    Composition,
    _bubble_fiber_word,
    comp_of,
    compositions,
    is_partition,
    partitions,
    reverse_of,
    sorted_parts,
)
from .linalg import rank_of
from . import hecke
from . import maps
from . import modules
from . import permutations as perms
from . import qsym
from . import tableaux

#: largest n for the module-level checks of thm-3.15 and cor-3.18
_MODULE_MAX_N = 6

#: failures a report shows, the smallest by repr
_WITNESSES = 10

#: most chunks a claim's cases come in: enough for the workers to even
#: out their finish, few enough that listing a chunk costs little beside
#: its cases; their 4-byte tokens fill less than one page, which any pipe
#: holds, so writing them all never blocks
_MAX_CHUNKS = 128


class _Types(NamedTuple):
    """The cases fn(shape, types) for the types of the shape's length that
    begin with prefix, in lexicographic order: (len(shape) - len(prefix))!
    of them, split by longer prefixes."""

    fn: Callable[[Composition, Iterator[tuple[int, ...]]], Iterable]
    shape: Composition
    prefix: tuple[int, ...] = ()

    @property
    def weight(self) -> int:
        return math.factorial(len(self.shape) - len(self.prefix))

    def _rest(self) -> list[int]:
        return [v for v in range(1, len(self.shape) + 1) if v not in self.prefix]

    def split(self, size: int) -> list[_Types]:
        """The pieces of weight at most size whose prefixes extend this one."""
        free = left = len(self.shape) - len(self.prefix)
        while math.factorial(left) > size:
            left -= 1
        return [_Types(self.fn, self.shape, self.prefix + p) for p in itertools.permutations(self._rest(), free - left)]

    def cases(self) -> Iterable:
        return self.fn(self.shape, map(self.prefix.__add__, itertools.permutations(self._rest())))


class _Cases(tuple):
    """Cases listed ahead, for a family with few cases in a degree."""

    @property
    def weight(self) -> int:
        return len(self)

    def split(self, size: int) -> list[_Cases]:
        return [_Cases(self[k : k + size]) for k in range(0, len(self), size)]

    def cases(self) -> Iterable:
        return self


def _shapes(fn: Callable) -> Callable[[int], list[_Types]]:
    """The family of fn over each composition of n with all its types, the
    compositions grouped by their sorted parts."""
    return lambda n: [_Types(fn, alpha) for group in _compositions_by_sorted_parts(n).values() for alpha in group]


def _listed(per_degree: Callable[[int], Sequence]) -> Callable[[int], list[_Cases]]:
    """The family of the cases per_degree(n) lists."""
    return lambda n: [_Cases(per_degree(n))]


def _stream(max_n: int, *families: Callable[[int], list], last: Sequence = ()) -> list[tuple]:
    """A claim's cases as at most `_MAX_CHUNKS` chunks, listing none of them.

    The pieces are each family's in each degree, largest degree first, and
    then `last`.  A piece weighs its cases, or its types before they are
    filtered; with size the total weight over half of `_MAX_CHUNKS`, a
    piece heavier than size is split into pieces of at most size, and
    consecutive pieces share a chunk while their weights sum to at most
    size.  Two chunks in a row then weigh more than size, which bounds
    their count.  A chunk is a tuple of pieces, and `_expand` lists its
    cases.
    """
    pieces = [piece for n in range(max_n, 0, -1) for family in families for piece in family(n)]
    if last:
        pieces.append(_Cases(last))
    size = -(-sum(piece.weight for piece in pieces) // (_MAX_CHUNKS // 2))
    chunks, chunk, weight = [], [], 0
    pieces.reverse()
    while pieces:
        piece = pieces.pop()
        if piece.weight > size:
            pieces += reversed(piece.split(size))
            continue
        if chunk and weight + piece.weight > size:
            chunks.append(tuple(chunk))
            chunk, weight = [], 0
        chunk.append(piece)
        weight += piece.weight
    if chunk:
        chunks.append(tuple(chunk))
    return chunks


def _algebra_stream(max_n: int, *families: Callable[[int], list], last: Sequence = ()) -> list[tuple]:
    """`_stream` for claims that build algebra modules, refusing a max_n
    above the algebra bound before any case is listed or run."""
    hecke._check_algebra_bound(max_n)
    return _stream(max_n, *families, last=last)


def _expand(chunk: Sequence) -> Iterator:
    """The cases of a chunk, listed as they are taken."""
    return itertools.chain.from_iterable(piece.cases() for piece in chunk)


def _subsets(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, subset) for every subset of [1, n-1], smaller subsets first."""
    return [(n, sub) for r in range(n) for sub in itertools.combinations(range(1, n), r)]


def _all_types(alpha: Composition, types: Iterable[tuple[int, ...]]) -> Iterator:
    return zip(itertools.repeat(alpha), types)


def _compatible_types(alpha: Composition, types: Iterable[tuple[int, ...]]) -> Iterator:
    return ((alpha, sigma) for sigma in types if tableaux._compatible(alpha, sigma))


def _tagged(tag: str, alpha: Composition, types: Iterable[tuple[int, ...]]) -> Iterator:
    return ((tag, pair) for pair in _compatible_types(alpha, types))


def _descent_types(alpha: Composition, types: Iterable[tuple[int, ...]]) -> Iterator:
    """(shape, type, i) for every descent i of each type."""
    return ((alpha, sigma, i) for sigma in types for i in range(1, len(alpha)) if sigma[i - 1] > sigma[i])


def _run_chunk(chunk: Sequence, check: Callable) -> tuple[int, int, list]:
    """check over a chunk's cases: the cases, the failures, and the first
    `_WITNESSES` failures by repr, which are all a report can show.

    Each failure's repr is taken once; one no smaller than the last kept
    is dropped, and one equal to a kept one goes after it, as in a stable
    sort."""
    cases = failed = 0
    kept: list[tuple[str, object]] = []  # (repr, failure), sorted by repr
    for cases, bad in enumerate(map(check, _expand(chunk)), 1):
        if bad:
            failed += len(bad)
            for failure in bad:
                key = repr(failure)
                if len(kept) < _WITNESSES or key < kept[-1][0]:
                    bisect.insort(kept, (key, failure), key=itemgetter(0))
                    del kept[_WITNESSES:]
    return cases, failed, [failure for _, failure in kept]


def _run_cases(chunks: Sequence, check: Callable, jobs: int) -> tuple[int, int, list]:
    """check over the cases of every chunk, in up to `jobs` processes when
    jobs > 1: the cases, the failures, and the first `_WITNESSES` failures
    by repr.

    Each chunk lists its cases in the process that takes it and keeps only
    its counts and witnesses (`_run_chunk`).  The first failures of all
    lie among the first of each chunk, so merging them gives the same
    witnesses in any order the chunks run.  With jobs > 1 the process
    forks workers and works as the last of them itself: min(jobs, usable
    CPUs, chunks) processes in all, so the count never exceeds what can
    run at once.  Chunks come largest degree first, and a case costs more
    the larger its degree, so each process takes the next chunk as it
    becomes free and the small chunks at the end even out the finish.
    Where `os.fork` does not exist, the chunks run in this process.
    """
    workers = 1
    if jobs > 1 and hasattr(os, "fork"):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(jobs, cpus, len(chunks))
    if workers < 2:
        results = [_run_chunk(chunk, check) for chunk in chunks]
    else:
        results = _fork_join(chunks, check, workers)
    witness = heapq.nsmallest(_WITNESSES, itertools.chain.from_iterable(r[2] for r in results), key=repr)
    return sum(r[0] for r in results), sum(r[1] for r in results), witness


def _fork_join(chunks: Sequence, check: Callable, workers: int) -> list[tuple[int, int, list]]:
    """`_run_chunk` over at most `_MAX_CHUNKS` chunks, in this process and
    workers - 1 forked children, in chunk order.

    The chunks' indices are written to one pipe as 4-byte tokens before
    any fork; a pipe read takes a whole token, so each process reads the
    next chunk whenever it is free, and stops at the end of the pipe.
    Chunks and check reach the children through fork, so nothing is
    pickled on the way out.  Each child sends back its chunks' results,
    or the exception it raised, pickled through its own pipe, and ends
    with `os._exit`.  A child that ends without sending (killed, say, or
    with a result that does not pickle) is an internal error
    (`RuntimeError`).  On every exit path the children are reaped; when
    this process raises, it kills them first.
    """
    import pickle
    import signal

    def take_chunks() -> dict[int, tuple[int, int, list]]:
        done = {}
        while token := os.read(queue, 4):
            k = int.from_bytes(token, "little")
            done[k] = _run_chunk(chunks[k], check)
        return done

    queue, tokens = os.pipe()
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        with open(tokens, "wb") as fh:
            fh.write(b"".join(k.to_bytes(4, "little") for k in range(len(chunks))))
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: the workers started so far do it all
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(read_end)
                    try:
                        message = (True, take_chunks())
                    except BaseException as exc:  # raised again in the parent
                        message = (False, exc)
                    with open(write_end, "wb") as fh:
                        fh.write(pickle.dumps(message))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children[pid] = read_end
        done = take_chunks()
        for pid, read_end in list(children.items()):
            data = b"".join(iter(functools.partial(os.read, read_end, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            os.close(read_end)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"a worker process ended with status {code} before sending its results")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            done.update(value)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, read_end in children.items():
            os.close(read_end)
            os.waitpid(pid, 0)
    return [done[k] for k in range(len(chunks))]


# ---------------------------------------------------------------------------
# invariants of tableau modules, once per key


#: each invariant a claim has computed, by the invariant and `_tableau_key`
_INVARIANTS: dict[tuple, object] = {}


def _tableau_key(n: int, members: Sequence[tableaux.Spct], sids: tuple[int, ...]) -> tuple:
    """n, some tableaux's step ids and their swap targets (`tableaux._swap_targets`).

    They fix the columns of the module on those tableaux exactly: member
    j's column under pi_i is itself, zero or its next swap target, as its
    i-th step says.
    """
    return n, sids, tableaux._swap_targets(members, sids)


def _invariant(fn: Callable, n: int, members: Sequence[tableaux.Spct], sids: tuple[int, ...]):
    """fn of the module on some tableaux of degree n (a class or a pair's
    whole set), with their step ids, built only for an fn and a key
    (`_tableau_key`) not seen before.

    fn must read only the module's degree and columns, and the caller
    passes it as it is found at call time, so a replaced function gets its
    own entries.  The stored value is handed out as it is, and callers
    only read it.  A swap that leaves the tableaux raises `ValueError`,
    and nothing is stored.
    """
    key = (fn, *_tableau_key(n, members, sids))
    out = _INVARIANTS.get(key)
    if out is None:
        cols = modules._tableau_columns(n, sids, key[-1])
        out = _INVARIANTS[key] = fn(modules.HModule._trusted(n, members, cols, ""))
    return out


# ---------------------------------------------------------------------------
# criterion 1: generator relations on every module


def _algebra_modules(n: int) -> list:
    """The ribbon, regular and ideal cases of rel-2.1 in one degree."""
    cases = [("ribbon", (a, v)) for a in compositions(n) for v in modules.RIBBON_VARIANTS]
    cases.append(("regular", n))
    return cases + [("pim", p) for p in _subsets(n)]


def _case_relations(case) -> list:
    kind, payload = case
    if kind == "spct":
        alpha, sigma = payload
        taus = tableaux._enumerate_spct(alpha, sigma)
        report = _invariant(modules.check_relations, sum(alpha), taus, tuple(map(tableaux._step_id, taus)))
        return [] if report.ok else [{"module": f"S^{sigma}_{alpha}"}]
    if kind == "ribbon":
        mod = modules.ribbon_module(*payload)
    elif kind == "regular":
        mod = hecke.regular_module(payload)
    else:
        n, subset = payload
        mod = hecke.pim_module(n, frozenset(subset))
    return [] if modules.check_relations(mod).ok else [{"module": mod.name}]


# ---------------------------------------------------------------------------
# criterion 2: nonemptiness == compatibility


def _case_compat(case) -> list:
    # the pair comes from `_all_types`, so neither side re-validates it
    alpha, sigma = case
    nonempty = tableaux._has_spct(alpha, sigma)
    if nonempty != tableaux._compatible(alpha, sigma):
        return [{"alpha": alpha, "sigma": sigma, "nonempty": nonempty}]
    return []


# ---------------------------------------------------------------------------
# criterion 3: classes have one source and one sink and are the components


def _case_classes(case) -> list:
    alpha, sigma = case
    try:
        read = tableaux._read_classes(tableaux._grouped(tableaux._enumerate_spct(alpha, sigma)))
    except RuntimeError as exc:  # source/sink uniqueness violated
        return [{"alpha": alpha, "sigma": sigma, "error": str(exc)}]
    if not all(_is_component(cls.members, sids) for cls, sids in read):
        return [{"alpha": alpha, "sigma": sigma, "error": "classes != components"}]
    return []


def _is_component(members: Sequence[tableaux.Spct], sids: Sequence[int]) -> bool:
    """Whether a class of a pair's tableaux, with its members' step ids, is
    a component of its action graph generated by its source: the directed
    walk from its first source (`tableaux._reach`) must stay in the class,
    so no component leaves it, and reach every member, so no class holds
    two components.  A group with no source fails."""
    roots = [j for j, sid in enumerate(sids) if tableaux._SOURCE[sid]]
    seen = [False] * len(members)
    return bool(roots) and tableaux._reach(tableaux._swap_graph(members, sids), roots[0], seen) and all(seen)


# ---------------------------------------------------------------------------
# criterion 4: unique source / cyclicity / longest-element special case


def _simplicity_types(alpha: Composition, types: Iterable[tuple[int, ...]]) -> Iterator:
    module_level = sum(alpha) <= _MODULE_MAX_N
    return (("pair", (a, s, module_level)) for a, s in _compatible_types(alpha, types))


def _case_simplicity(case) -> list:
    kind, payload = case
    bad = []
    if kind == "w0":
        alpha = payload
        w0 = perms.longest_element(len(alpha))
        if tableaux._has_spct(alpha, w0) != is_partition(alpha):
            bad.append({"alpha": alpha, "error": "w0 nonempty != partition"})
        if is_partition(alpha) and not tableaux._sigma_simple(alpha, w0):
            bad.append({"alpha": alpha, "error": "partition not w0-simple"})
        return bad
    alpha, sigma, module_level = payload
    ts = tableaux._enumerate_spct(alpha, sigma)
    sources = [t for t in ts if tableaux.classify(t) in ("source", "both")]
    simple = tableaux._sigma_simple(alpha, sigma)
    if (len(sources) == 1) != simple:
        bad.append({"alpha": alpha, "sigma": sigma, "sources": len(sources), "simple": simple})
    if simple and sources:
        if sources[0].rows != tableaux._canonical_rows(alpha, sigma):
            bad.append({"alpha": alpha, "sigma": sigma, "error": "unique source is not canonical"})
    if module_level:
        cyclic = modules._spct_cyclic(ts)
        if cyclic != simple:
            bad.append({"alpha": alpha, "sigma": sigma, "cyclic": cyclic, "simple": simple})
    return bad


def _case_w0_classification(alpha) -> list:
    bad = []
    w0 = perms.longest_element(len(alpha))
    nonempty = tableaux._has_spct(alpha, w0)
    if nonempty != is_partition(alpha):
        bad.append({"alpha": alpha, "nonempty": nonempty})
    if sum(alpha) <= _MODULE_MAX_N:
        cyclic = modules.is_spct_cyclic(alpha, w0)
        if cyclic != is_partition(alpha):
            bad.append({"alpha": alpha, "cyclic": cyclic})
    return bad


# ---------------------------------------------------------------------------
# criterion 5: local endomorphism rings of class submodules


def _case_indecomposable(case) -> list:
    alpha, sigma = case
    n = sum(alpha)
    bad = []
    for cls, sids in tableaux._read_classes(tableaux._grouped(tableaux._enumerate_spct(alpha, sigma))):
        cert = _invariant(modules.is_indecomposable, n, cls.members, sids)[1]
        if not cert.indecomposable:
            bad.append(
                {
                    "alpha": alpha,
                    "sigma": sigma,
                    "class": str(cls.label),
                    "end_dim": cert.end_dim,
                    "semisimple_rank": cert.semisimple_rank,
                }
            )
    return bad


# ---------------------------------------------------------------------------
# criterion 6: the column-sort bijection and the type-change image law


@functools.lru_cache(maxsize=None)
def _compositions_by_sorted_parts(n: int) -> dict[Composition, tuple[Composition, ...]]:
    """The compositions of n grouped by their sorted parts, each group in
    `compositions` order."""
    groups: dict[Composition, list[Composition]] = {}
    for alpha in compositions(n):
        groups.setdefault(sorted_parts(alpha), []).append(alpha)
    return {lam: tuple(group) for lam, group in groups.items()}


#: The tableaux of the pairs read so far whose shapes have the one key's
#: sorted parts.  prop-4.6 and thm-4.2 read a pair again only from a case
#: with the same parts, and their cases come grouped by them, so this
#: holds what is read again and no more.
_SAME_PARTS: dict[Composition, dict[tuple[Composition, tuple[int, ...]], tuple]] = {}


def _same_parts_spct(parts: Composition, alpha: Composition, sigma: tuple[int, ...]) -> tuple:
    """`tableaux._enumerate_spct` of a pair whose shape has the sorted parts
    `parts`, through `_SAME_PARTS`; other parts empty it first."""
    memo = _SAME_PARTS.get(parts)
    if memo is None:
        _SAME_PARTS.clear()
        memo = _SAME_PARTS[parts] = {}
    ts = memo.get((alpha, sigma))
    if ts is None:
        ts = memo[alpha, sigma] = tableaux._enumerate_spct(alpha, sigma)
    return ts


def _case_column_sort(case) -> list:
    lam, sigma = case
    bad = []
    w0 = perms.longest_element(len(lam))
    union = []
    for alpha in _compositions_by_sorted_parts(sum(lam))[lam]:
        union.extend(tableaux._enumerate_spct(alpha, sigma))
    target = set(_same_parts_spct(lam, lam, w0))
    images = set()
    for t in union:
        rt = maps.rho(t)
        if rt.shape != lam or rt.sigma != w0:
            bad.append({"lambda": lam, "sigma": sigma, "error": "image off target"})
            continue
        if tableaux.descent_set(rt) != tableaux.descent_set(t):
            bad.append({"lambda": lam, "sigma": sigma, "error": "descents moved"})
        if maps._phi(rt, sigma) != t:
            bad.append({"lambda": lam, "sigma": sigma, "error": "round trip failed"})
        images.add(rt)
    if len(images) != len(union) or images != target:
        bad.append({"lambda": lam, "sigma": sigma, "error": "not a bijection"})
    return bad


def _case_image_law(case) -> list:
    alpha, sigma, i = case
    bad = []
    shorter = perms._times_s(sigma, i)
    parts = tuple(sorted(alpha, reverse=True))
    image = set()
    for t in _same_parts_spct(parts, alpha, sigma):
        u = maps._psi(t, shorter)
        image.add(u)
        if tableaux.descent_set(u) != tableaux.descent_set(t):
            bad.append({"alpha": alpha, "sigma": sigma, "i": i, "error": "descents moved"})
    expected = set()
    for beta in _bubble_fiber_word(alpha, (i,)):
        expected.update(_same_parts_spct(parts, beta, shorter))
    if image != expected:
        bad.append(
            {
                "alpha": alpha,
                "sigma": sigma,
                "i": i,
                "image": len(image),
                "expected": len(expected),
            }
        )
    return bad


# ---------------------------------------------------------------------------
# criterion 7: characteristic recursion and the Schur specialisation


def _case_recursion(case) -> list:
    # the case comes from `_descent_types`, so the type descends at i
    alpha, sigma, i = case
    if not qsym._recursion_holds(alpha, sigma, i):
        return [{"alpha": alpha, "sigma": sigma, "i": i}]
    return []


def _case_schur(lam) -> list:
    bad = []
    w0 = perms.longest_element(len(lam))
    rhs = qsym.schur_oracle(lam)
    if qsym.ch_spct(lam, w0) != rhs:
        bad.append({"lambda": lam, "error": "characteristic != Schur"})
    count = len(tableaux._enumerate_spct(lam, w0))
    syt = sum(rhs.terms.values())
    if count != syt:
        bad.append({"lambda": lam, "count": count, "syt": syt})
    return bad


# ---------------------------------------------------------------------------
# criterion 8: the lattice-basis certificate


def _case_basis(n: int) -> list:
    bad = []
    if not qsym.f_matrix_unimodular(n):
        bad.append({"n": n, "error": "QS -> F matrix not lower unitriangular"})
    rep = qsym.z_basis_certificate(n)
    if not rep["ok"]:
        bad.append(rep)
    return bad


# ---------------------------------------------------------------------------
# criterion 9: sign conjugation, the projected transpose, and its kernel


def _case_section5(case) -> list:
    kind, payload = case
    bad = []
    if kind == "iota":
        alpha = payload
        lm = maps.iota_map(alpha)
        if not lm.intertwines:
            bad.append({"alpha": alpha, "error": "sign map fails to intertwine"})
    else:
        beta, sigma = payload
        res = maps.prc_phi_for_target(beta, sigma)
        if not res.ok:
            bad.append({"beta": beta, "sigma": sigma, "report": res.to_json()})
    return bad


# ---------------------------------------------------------------------------
# criterion 10: projectivity classification of canonical submodules


def _canonical_projectivity_expected(alpha, sigma) -> bool:
    if all(p == 1 for p in alpha):
        return True
    return (
        len(alpha) >= 1
        and alpha[0] >= 2
        and all(p == 1 for p in alpha[1:])
        and sigma[0] == len(alpha)
    )


def _case_projectivity(case) -> list:
    kind, payload = case
    if kind == "counterexample":
        counter = _noncanonical_counterexample()
        return [counter] if counter else []
    alpha, sigma = payload
    bad = []
    [(cls, sids)] = tableaux._read_classes(modules._canonical_group(alpha, sigma))
    got, cert = _invariant(hecke.is_projective, sum(alpha), cls.members, sids)
    want = _canonical_projectivity_expected(alpha, sigma)
    if got != want:
        bad.append(
            {
                "alpha": alpha,
                "sigma": sigma,
                "projective": got,
                "expected": want,
                "cover_dim": cert.cover_dim,
                "dim": cert.dim,
            }
        )
    # positive cases: a projective module with this simple top is the ideal
    # indexed by the reversed shape
    if want and cert.top != {reverse_of(alpha): 1}:
        bad.append({"alpha": alpha, "sigma": sigma, "error": "no certified isomorphism to the ideal"})
    return bad


def _noncanonical_counterexample() -> dict | None:
    """No surjection reaches the class of the displayed non-canonical source.

    The class submodule has a two-dimensional top, so its projective cover
    is not indecomposable, and every map from the twisted (3,2)-ribbon
    ideal (equivalently its plain-ideal twin) has rank strictly below the
    class dimension.  Pinned exact values: class dimension 3, hom space
    dimension 1, maximal rank 2.
    """
    tau0 = tableaux.Spct([[4, 3], [5, 2], [1]])
    cls, sub = next(
        (cl, sub) for cl, sub in modules.class_submodules((2, 2, 1), (2, 3, 1)) if tau0 in cl.members
    )
    if cls.source != tau0:
        return {"error": "displayed tableau is not the source of its class"}
    if sub.dim != 3:
        return {"error": f"class dimension {sub.dim} != 3"}
    top = modules.top_factors(sub)
    if sum(top.values()) < 2:
        return {"error": "top is simple; the cover would be indecomposable"}
    twisted = modules.ribbon_module((3, 2), "theta")
    pim = hecke.pim_module(5, frozenset({1, 2, 4}))
    for src, name in ((twisted, "twisted-ribbon"), (pim, "ideal")):
        homs = modules.hom_space(src, sub)
        if len(homs) != 1:
            return {"error": f"{name}: hom dimension {len(homs)} != 1"}
        # rank is constant on the punctured line spanned by the generator,
        # so one rank computation certifies the absence of surjections
        rank = rank_of(homs[0].rows(), homs[0].ncols)
        if rank >= sub.dim:
            return {"error": f"{name}: found a surjective homomorphism"}
        if rank != 2:
            return {"error": f"{name}: rank {rank} != pinned 2"}
    return None


# ---------------------------------------------------------------------------
# criterion 11: factors agree with descent compositions


def _case_factors(case) -> list:
    alpha, sigma = case
    taus = tableaux._enumerate_spct(alpha, sigma)
    got = _invariant(modules.composition_factors, sum(alpha), taus, tuple(map(tableaux._step_id, taus)))
    want = Counter(map(tableaux.comp_of_tableau, taus))
    if got != want:
        # composition keys as strings, so the report is JSON
        got, want = ({str(beta): k for beta, k in c.items()} for c in (got, want))
        return [{"alpha": alpha, "sigma": sigma, "got": got, "want": want}]
    return []


# ---------------------------------------------------------------------------
# criterion 12: filtration-side letter bound and nonattacking window


def _case_appendix(case) -> list:
    alpha, sigma = case
    bad = []
    for cls in tableaux.equivalence_classes(tableaux._enumerate_spct(alpha, sigma)):
        t0 = cls.source
        for t in cls.members:
            if t == t0:
                continue
            inv = modules.appendix_invariants(cls, t)
            # letter bound: the quotient fixes everything past d, and its
            # reduced words (all of them, for short elements) stay below d
            if any(inv.rho[k - 1] != k for k in range(inv.d + 1, t.n + 1)):
                bad.append({"alpha": alpha, "sigma": sigma, "rows": t.rows, "error": "letter bound"})
                continue
            if perms.length(inv.rho) <= 8:
                for word in perms.all_reduced_words(inv.rho):
                    if any(letter >= inv.d for letter in word):
                        bad.append(
                            {"alpha": alpha, "sigma": sigma, "rows": t.rows, "error": "letter bound (word)"}
                        )
                        break
            if tableaux.descent_set(t) <= tableaux.descent_set(t0):
                d = inv.d
                a = inv.attack_min.get(d)
                if a is None:
                    bad.append({"alpha": alpha, "sigma": sigma, "rows": t.rows, "error": "no attacking partner"})
                    continue
                for k in range(d + 1, a + 1):
                    rd, cd = t.pos(d)
                    rk, ck = t.pos(k)
                    if tableaux.is_attacking(t, d, k) or not cd < ck:
                        bad.append(
                            {"alpha": alpha, "sigma": sigma, "rows": t.rows, "k": k, "error": "window"}
                        )
    return bad


# ---------------------------------------------------------------------------
# criterion 13: ideal dimension bookkeeping


def _case_pim(case) -> list:
    n, sub = case
    bad = []
    subset = frozenset(sub)
    pim = hecke.pim_module(n, subset)
    alpha = comp_of(subset, n)
    srt = len(tableaux.enumerate_srt(alpha))
    if pim.dim != srt:
        bad.append({"n": n, "subset": sorted(subset), "dim": pim.dim, "srt": srt})
    top = modules.top_factors(pim)
    if dict(top) != {alpha: 1}:
        bad.append({"n": n, "subset": sorted(subset), "top": {str(k): v for k, v in top.items()}})
    if not sub:  # the degree's total, checked once
        total = sum(hecke._pim_module(n, frozenset(s)).dim for _, s in _subsets(n))
        if total != math.factorial(n):
            bad.append({"n": n, "total": total})
    return bad


# ---------------------------------------------------------------------------
# the claim table


CLAIMS: dict[str, tuple[str, int, Callable[[int], list], Callable[..., list]]] = {
    "rel-2.1": (
        "generator relations hold on every constructed module",
        8,
        lambda m: _algebra_stream(m, _shapes(functools.partial(_tagged, "spct")), _listed(_algebra_modules)),
        _case_relations,
    ),
    "prop-3.4": (
        "tableau set nonempty exactly for compatible shape/type",
        8, lambda m: _stream(m, _shapes(_all_types)), _case_compat,
    ),
    "lem-2.7": (
        "each class has one source, one sink, and is a component generated by its source",
        8, lambda m: _stream(m, _shapes(_compatible_types)), _case_classes,
    ),
    "thm-3.15": (
        "unique source and tableau-cyclicity both characterised by simplicity",
        8,
        lambda m: _stream(m, _shapes(_simplicity_types), _listed(lambda n: [("w0", a) for a in compositions(n)])),
        _case_simplicity,
    ),
    "cor-3.18": (
        "longest-element modules detect partitions",
        8, lambda m: _stream(m, _listed(compositions)), _case_w0_classification,
    ),
    "thm-3.1": (
        "every class submodule has a local endomorphism ring",
        8, lambda m: _stream(m, _shapes(_compatible_types)), _case_indecomposable,
    ),
    "thm-4.2": (
        "column sort is a descent-preserving bijection with greedy inverse",
        6, lambda m: _stream(m, lambda n: [_Types(_all_types, lam) for lam in partitions(n)]), _case_column_sort,
    ),
    "prop-4.6": (
        "type-change image is the bubble-fiber disjoint union",
        6, lambda m: _stream(m, _shapes(_descent_types)), _case_image_law,
    ),
    "thm-4.8": (
        "characteristic satisfies the one-step type recursion",
        6, lambda m: _stream(m, _shapes(_descent_types)), _case_recursion,
    ),
    "cor-4.9": (
        "partition shapes with reversing type give Schur functions",
        8, lambda m: _stream(m, _listed(partitions)), _case_schur,
    ),
    "cor-4.11": (
        "partition-shape characteristics form a lattice basis",
        8, lambda m: _stream(m, _listed(lambda n: [n])), _case_basis,
    ),
    "thm-5.5": (
        "sign conjugation and the projected transpose with its kernel",
        6,
        lambda m: _stream(
            m, _listed(lambda n: [("iota", a) for a in compositions(n)]), _shapes(functools.partial(_tagged, "prc"))
        ),
        _case_section5,
    ),
    "cor-5.6": (
        "projectivity of canonical submodules classified exactly",
        7,
        lambda m: _algebra_stream(m, _shapes(functools.partial(_tagged, "pair")), last=[("counterexample", None)]),
        _case_projectivity,
    ),
    "factors-vs-descents": (
        "composition factors equal descent compositions",
        8, lambda m: _stream(m, _shapes(_compatible_types)), _case_factors,
    ),
    "app-A": (
        "letter bound and nonattacking window on class quotients",
        6, lambda m: _stream(m, _shapes(_compatible_types)), _case_appendix,
    ),
    "pim-dims": (
        "ideal dimensions, tops, and the factorial total",
        7, lambda m: _algebra_stream(m, _listed(_subsets)), _case_pim,
    ),
}


def run_claim(claim: str, max_n: int | None = None, jobs: int = 1) -> dict:
    """Check one claim on every case up to max_n (the claim's default if None).

    Bad arguments raise `KeyError` or `ValueError` before any case is
    listed (a max_n or jobs that is not an int, or is a bool, included),
    and a max_n over a size bound raises `BoundExceeded`, before any case
    for the algebra bound and from inside a case otherwise.  A max_n at
    which the claim has no case raises `ValueError` once its chunks have
    listed none.  Any other exception a case raises is an internal error
    and is raised again as `RuntimeError`, so that a case's own
    `ValueError` is not taken for bad arguments.
    """
    if claim not in CLAIMS:
        raise KeyError(f"unknown claim id {claim!r}")
    _, default_max_n, cases_of, check = CLAIMS[claim]
    if max_n is None:
        max_n = default_max_n
    for name, value in (("max_n", max_n), ("jobs", jobs)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    try:
        cases, failed, witness = _run_cases(cases_of(max_n), check, jobs)
    except (BoundExceeded, RuntimeError):
        raise
    except Exception as exc:
        raise RuntimeError(f"{type(exc).__name__}: {exc}") from exc
    if not cases:
        raise ValueError(f"{claim} has no case at max_n = {max_n}")
    params = {"max_n": max_n}
    if claim == "thm-3.15":
        params["module_max_n"] = _MODULE_MAX_N
    return {
        "claim": claim,
        "parameters": params,
        "status": "fail" if failed else "pass",
        "cases": cases,
        "witness": witness,
    }
