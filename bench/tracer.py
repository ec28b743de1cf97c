"""Per-layer tracing from outside the program.

Each layer is one module of `lcsq`.  Its public functions are wrapped at
every name a caller looks them up by: the module attribute, which is also
the global that same-module calls use, and every `from .x import f`
binding in the other modules.  A call opens a span (name, start, end,
parent, job id); a span's self time is its duration minus its child spans
and the element arithmetic run directly under it.  The arithmetic methods
of the two `reps` element types run thousands of times per job, so they
are aggregate counters rather than spans.

Memory: with `memory` set, `tracemalloc` runs inside each top-level span
(a direct child of a CLI job) of the layers in MEMORY_LAYERS, and the
span's peak is the allocation peak since its entry.  `tracemalloc` slows
allocation, so the times of such a pass are not used.  Under it,
Todd-Coxeter and the isomorphism search run 7 to 12 times slower, which
would stretch one pass of those workloads past the run's time limit, so
`fpgroups` and `graphiso` spans are timed and counted but never
memory-traced.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

LAYERS = ("f2core", "graphs", "decolor", "fpgroups", "reps", "qcert", "graphiso")
MEMORY_LAYERS = ("f2core", "graphs", "decolor", "reps", "qcert")

# Public helpers called once per vertex, edge or label: spans there would
# cost more than the work they time, so they count toward their caller.
NOT_WRAPPED = {
    "graphs.parse_color", "graphs.parse_label", "graphs.render_label",
    "graphs.color_sort_key", "graphs.sign_vectors", "graphs.to_json_dict",
    "graphs.from_json_dict", "graphs.to_dot", "fpgroups.default_cap",
}

ELEMENT_OPS = ("__add__", "__sub__", "__mul__")
ELEMENT_TYPES = {"GroupAlgebraElement": "ga", "DenseElement": "dense"}


class _Span:
    __slots__ = ("index", "layer", "name", "start", "child", "top")

    def __init__(self, index, layer, name, top):
        self.index, self.layer, self.name = index, layer, name
        self.start, self.child, self.top = 0.0, 0.0, top


class Tracer:
    """Install with `install()`, bracket each CLI job with `job()`, read the
    per-pass numbers with `take()`, and undo with `uninstall()`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[_Span] = []
        self._job = None
        self._patches: list[tuple] = []
        self.memory = False
        self._reset()

    def _reset(self) -> None:
        self.self_s = defaultdict(float)     # "layer.function" -> seconds
        self.calls = defaultdict(int)        # "layer.function" -> calls
        self.counts = defaultdict(int)       # named work counters
        self.peak_b = defaultdict(int)       # "layer.function" -> bytes
        self.errors = 0

    # -- installation ------------------------------------------------------

    def install(self, package: str = "lcsq") -> None:
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type)
                        and not name.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__
                        and f"{layer}.{name}" not in NOT_WRAPPED):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname == package or modname.startswith(package + "."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[id(obj)][1])
        reps = modules["reps"]
        for type_name, tag in ELEMENT_TYPES.items():
            cls = getattr(reps, type_name)
            for op in ELEMENT_OPS:
                orig = cls.__dict__[op]
                self._patches.append((cls, op, orig))
                setattr(cls, op, self._wrap_op(tag, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        top = (self.memory and parent is not None and parent.layer == "cli"
               and layer in MEMORY_LAYERS)
        span = _Span(len(self.spans), layer, name, top)
        self.spans.append(None)  # filled on exit, keeps parents before children
        self._stack.append(span)
        if top:
            tracemalloc.start()
        span.start = perf_counter()
        return span

    def _exit(self, span: _Span) -> None:
        end = perf_counter()
        if span.top:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            key = f"{span.layer}.{span.name}"
            self.peak_b[key] = max(self.peak_b[key], peak)
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - span.start
        if parent is not None:
            parent.child += duration
        key = f"{span.layer}.{span.name}"
        self.self_s[key] += duration - span.child
        self.calls[key] += 1
        self.spans[span.index] = (key, span.start, end,
                                  parent.index if parent else None, self._job)

    @contextlib.contextmanager
    def job(self, job_id: str):
        """Bracket one CLI job with the `cli.main` span."""
        self._job = job_id
        span = self._enter("cli", "main")
        try:
            yield
        finally:
            self._exit(span)
            self._job = None

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(f"{layer}.{name}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors += 1
                raise
            finally:
                tracer._exit(span)
            if observe is not None:
                outermost = tracer._stack[-1].layer != layer
                observe(tracer.counts, args, result, outermost)
            return result
        return traced

    def _wrap_op(self, tag: str, fn):
        tracer = self
        key_n, key_s = f"reps.{tag}_ops", f"reps.{tag}_ops_s"

        @functools.wraps(fn)
        def op(a, b):
            start = perf_counter()
            try:
                return fn(a, b)
            finally:
                dt = perf_counter() - start
                tracer.counts[key_n] += 1
                tracer.self_s[key_s] += dt
                tracer._stack[-1].child += dt
        return op

    # -- results -----------------------------------------------------------

    def take(self) -> dict:
        """Per-layer numbers accumulated since the last call, then reset."""
        s, calls, n = self.self_s, self.calls, self.counts
        layer_self = defaultdict(float)
        for key, value in s.items():
            layer = key.split(".", 1)[0]
            layer_self[layer] += value

        def mb(key):
            return self.peak_b.get(key, 0) / 2 ** 20

        out = {f"{layer}.self_s": layer_self[layer] for layer in ("cli",) + LAYERS}
        out.update({
            "fpgroups.todd_coxeter_s": s["fpgroups.todd_coxeter"],
            "fpgroups.todd_coxeter_calls": calls["fpgroups.todd_coxeter"],
            "fpgroups.cosets_out": n["fpgroups.cosets_out"],
            "fpgroups.is_abelian_s": s["fpgroups.is_abelian"],
            "graphiso.find_isomorphism_s": s["graphiso.find_isomorphism"],
            "graphiso.automorphism_group_s": s["graphiso.automorphism_group"],
            "graphiso.calls": (calls["graphiso.find_isomorphism"]
                               + calls["graphiso.automorphism_group"]),
            "graphiso.aut_generators": n["graphiso.aut_generators"],
            "graphs.parse_json_s": s["graphs.parse_graph_json"],
            "graphs.build_s": s["graphs.build_G"] + s["graphs.build_Gstar"],
            "graphs.serialize_s": s["graphs.serialize"],
            "qcert.verify_s": s["qcert.verify_cert"],
            "qcert.verify_calls": calls["qcert.verify_cert"],
            "qcert.entries_verified": n["qcert.entries_verified"],
            "qcert.verify_peak_mb": mb("qcert.verify_cert"),
            "qcert.build_s": s["qcert.build_magic_unitary"],
            "qcert.lift_s": s["qcert.lift_cert"],
            "qcert.witness_s": s["qcert.noncommuting_witness"],
            "reps.ga_ops": n["reps.ga_ops"],
            "reps.ga_ops_s": s["reps.ga_ops_s"],
            "reps.dense_ops": n["reps.dense_ops"],
            "reps.dense_ops_s": s["reps.dense_ops_s"],
            "reps.group_algebra_rep_s": s["reps.group_algebra_rep"],
            "decolor.vertices_out": n["decolor.vertices_out"],
            "decolor.peak_mb": max((mb(k) for k in self.peak_b
                                    if k.startswith("decolor.")), default=0.0),
            "f2core.calls": sum(v for k, v in calls.items() if k.startswith("f2core.")),
            "layers.errors": self.errors,
        })
        self._reset()
        return out


def _cosets(counts, args, result, outermost):
    counts["fpgroups.cosets_out"] += result.num_cosets


def _generators(counts, args, result, outermost):
    counts["graphiso.aut_generators"] += len(result.generators)


def _entries(counts, args, result, outermost):
    counts["qcert.entries_verified"] += len(args[0].entries)


def _decolored(counts, args, result, outermost):
    if outermost:
        counts["decolor.vertices_out"] += result.num_vertices


_OBSERVERS = {
    "fpgroups.todd_coxeter": _cosets,
    "graphiso.automorphism_group": _generators,
    "qcert.verify_cert": _entries,
    "decolor.decolor_vertices": _decolored,
    "decolor.decolor_edges": _decolored,
    "decolor.decolor_full": _decolored,
}
