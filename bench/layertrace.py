"""Outside-in tracer for one cold ``spcthecke`` process.

``python3 bench/layertrace.py OUT RUN_ID ARG...`` imports ``spcthecke.cli``, wraps
the public functions of every package module in each namespace that binds
them, runs ``spcthecke.cli.main([ARG...])`` and, at exit, writes the spans and
counters it kept in memory to OUT in one go.  The program itself is not
changed: every span starts and ends at a call into a layer from outside it.

The layers are the package's modules.  A span's self time is its duration
minus the durations of its direct child spans; a layer's self time is the sum
over its spans.
"""

from __future__ import annotations

import array
import functools
import gc
import importlib
import pickle
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "compositions", "permutations", "tableaux", "linalg", "hecke",
    "modules", "maps", "qsym", "verify", "cli",
)
# classes whose hot methods are traced on the class itself
METHODS = (("linalg", "EchelonSpace", "add"), ("linalg", "RatMat", "__mul__"))
# extra work counters: name -> (counter, f(args, result)); for an lru_cached
# function only calls that missed the cache count
WORK = {
    "tableaux.enumerate_spct": ("tableaux", lambda args, result: len(result)),
    "modules.hom_space": ("unknowns", lambda args, result: args[0].dim * args[1].dim),
    "linalg.EchelonSpace.add": ("enlarged", lambda args, result: int(bool(result))),
}


def _traced_name(layer: str, attr: str) -> bool:
    return not attr.startswith("_") or (layer == "verify" and attr.startswith("_case_"))


class Tracer:
    """Spans and counters of one process, kept in flat arrays until exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ix = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.counters: Counter[str] = Counter()
        self.cached: dict[str, object] = {}
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_t0 = 0.0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return a wrapper of fn that records one span per call."""
        ix = len(self.names)
        self.names.append(name)
        name_ix, start, end, parent, stack = self.name_ix, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter
        info = getattr(fn, "cache_info", None)
        if info is not None:
            self.cached[name] = fn
        counter, work = WORK.get(name, (None, None))
        counters = self.counters
        key = f"{name}.{counter}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            missed = info().misses if work is not None and info is not None else None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if work is not None and (missed is None or info().misses != missed):
                counters[key] += work(args, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_t0
            self.gc_gen2 += info["generation"] == 2

    def install(self) -> dict:
        """Wrap every traced function in every ``spcthecke`` namespace.

        A name bound by ``from .x import y`` is a second binding of the same
        function, so every module, the traced classes and the values of
        module-level dicts (the claim registry) are searched and each binding
        is replaced.  Returns the map from the id of each original function to
        the pair (original, wrapper).
        """
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"spcthecke.{layer}")
            for attr, value in list(vars(mod).items()):
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == mod.__name__
                    and _traced_name(layer, attr)
                ):
                    wrappers[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        owners = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "spcthecke"]
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"spcthecke.{layer}"), cls_name)
            fn = vars(cls)[meth]
            wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{cls_name}.{meth}", fn))
            owners.append(cls)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if type(value) is dict and attr != "__builtins__":
                    for key, entry in list(value.items()):
                        if (new := _rebound(entry, wrappers)) is not entry:
                            value[key] = new
                elif (new := _rebound(value, wrappers)) is not value:
                    setattr(owner, attr, new)
        gc.callbacks.append(self._on_gc)
        return wrappers

    def dump(self, path: str, extra: dict) -> None:
        cache = {name: tuple(fn.cache_info()[:2]) for name, fn in self.cached.items()}
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "name_ix": self.name_ix,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counters": dict(self.counters),
            "cache": cache,
            "gc_pause_s": self.gc_pause_s,
            "gc_gen2": self.gc_gen2,
            **extra,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _rebound(value, wrappers: dict):
    """value with each traced function in it, or in a plain tuple of it,
    replaced by its wrapper."""
    original, wrapper = wrappers.get(id(value), (None, None))
    if original is value:
        return wrapper
    if type(value) is tuple and any(id(v) in wrappers for v in value):
        return tuple(_rebound(v, wrappers) for v in value)
    return value


def self_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    return [d - c for d, c in zip(dur, child)]


class Summary:
    """Per-function totals over the trace files of one workload."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.case_ms: list[float] = []
        self.counters: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()
        self.misses: Counter[str] = Counter()
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self.import_s: list[float] = []

    def add(self, rec: dict) -> None:
        names = rec["names"]
        selfs = self_times(rec["start"], rec["end"], rec["parent"])
        case_ix = {i for i, n in enumerate(names) if n.startswith("verify._case_")}
        for i, (ix, s) in enumerate(zip(rec["name_ix"], selfs)):
            name = names[ix]
            self.calls[name] += 1
            self.self_s[name] += s
            if ix in case_ix:
                self.case_ms.append((rec["end"][i] - rec["start"][i]) * 1e3)
        self.counters.update(rec["counters"])
        for name, (hits, misses) in rec["cache"].items():
            self.hits[name] += hits
            self.misses[name] += misses
        self.gc_pause_s += rec["gc_pause_s"]
        self.gc_gen2 += rec["gc_gen2"]
        self.import_s.append(rec["import_s"])

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return out

    def metrics(self) -> dict[str, float]:
        """The per-function and per-layer metrics named in BENCHMARK.json."""
        m: dict[str, float] = {}
        calls, self_s = self.calls, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0

        spct = "tableaux.enumerate_spct"
        m[f"{spct}.calls"] = calls[spct]
        m[f"{spct}.misses"] = self.misses[spct]
        m[f"{spct}.hit_ratio"] = ratio(self.hits[spct], self.hits[spct] + self.misses[spct])
        m[f"{spct}.self_s"] = self_s[spct]
        m[f"{spct}.tableaux_per_s"] = ratio(self.counters[f"{spct}.tableaux"], self_s[spct])
        for name in ("tableaux.enumerate_srt", "permutations.min_coset_reps", "linalg.nullspace",
                     "linalg.RatMat.__mul__"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        for name in ("tableaux.is_compatible", "tableaux.equivalence_classes",
                     "compositions.bubble_fiber_word"):
            m[f"{name}.self_s"] = self_s[name]
        for name in ("permutations.compose", "permutations.check_perm",
                     "compositions.check_composition"):
            m[f"{name}.calls"] = calls[name]
        add = "linalg.EchelonSpace.add"
        m[f"{add}.calls"] = calls[add]
        m[f"{add}.enlarged_ratio"] = ratio(self.counters[f"{add}.enlarged"], calls[add])
        m[f"{add}.self_s"] = self_s[add]
        for fn in ("spct_module", "ribbon_module", "hom_space", "is_indecomposable",
                   "radical_filtration", "composition_factors", "is_projective",
                   "check_relations", "is_spct_cyclic"):
            m[f"modules.{fn}.self_s"] = self_s[f"modules.{fn}"]
        m["modules.hom_space.calls"] = calls["modules.hom_space"]
        m["modules.hom_space.unknowns"] = self.counters["modules.hom_space.unknowns"]
        pim = "hecke.pim_module"
        m[f"{pim}.calls"] = calls[pim]
        m[f"{pim}.hit_ratio"] = ratio(self.hits[pim], self.hits[pim] + self.misses[pim])
        m[f"{pim}.self_s"] = self_s[pim]
        m["hecke.regular_module.self_s"] = self_s["hecke.regular_module"]
        for name in ("maps.rho", "maps.phi", "maps.psi", "maps.prc_phi_for_target",
                     "qsym.ch_spct", "qsym.recursion_check", "qsym.z_basis_certificate"):
            m[f"{name}.self_s"] = self_s[name]
        m["verify.case_p50_ms"] = _quantile(self.case_ms, 0.50)
        m["verify.case_p99_ms"] = _quantile(self.case_ms, 0.99)
        m["verify.runner.self_s"] = sum(s for n, s in self_s.items() if n.startswith("verify.run_"))
        m["gc.pause_s"] = self.gc_pause_s
        m["gc.gen2_collections"] = self.gc_gen2
        m["cli.import_s"] = statistics.median(self.import_s) if self.import_s else 0.0
        layers = self.layer_self_s()
        total = sum(layers.values())
        for layer, s in layers.items():
            m[f"layer.{layer}.self_s"] = s
            m[f"layer.{layer}.self_share"] = ratio(s, total)
        return m


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def load(path: str) -> dict:
    # the file was written by Tracer.dump in a process this benchmark started
    with open(path, "rb") as fh:
        return pickle.load(fh)


def main(argv: list[str]) -> int:
    out, run_id, args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("spcthecke.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer(run_id)
    tracer.install()
    code = 3
    try:
        code = cli.main(args)
    finally:
        gc.callbacks.remove(tracer._on_gc)
        tracer.dump(out, {"import_s": import_s, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
