"""In-memory span tracer that wraps cinfer's public functions from outside.

Every public function of a layer module is replaced, at every cinfer module
namespace that binds it, by a wrapper that records one span: name, start,
end and parent.  Calls made from inside the library therefore go through the
wrapper too, without editing the library.  Nothing is patched unless
``Tracer.install`` runs, so untimed and timed runs see the library as is.

Per-layer metrics are derived from the spans after the run: the time of a
metric is the summed duration of its outermost spans (a span nested in
another span of the same metric is not counted twice), and a layer's self
time is the duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
import weakref

LAYERS = ("cli", "checks", "inference", "dist", "setfn", "inequalities", "catalog")

# Public methods that are layer entry points although they live on a class.
_METHODS = {"dist": {"JointDistribution": ("__init__", "marginal_density", "reordered")}}

# metric name -> span names whose outermost durations it sums
TIME_METRICS = {
    "inference.family_s": ("inference.semigraphoid_family", "inference.ci_structure_family"),
    "inference.closure_s": ("inference.closure", "inference.closure_bits"),
    "inference.orbit_s": ("inference.orbit", "inference.orbit_bits"),
    "inference.meet_closure_s": ("inference.meet_closure", "inference.meet_closure_bits"),
    "inference.ground_rules_s": ("inference.ground_rules",),
    "dist.construct_s": ("dist.JointDistribution.__init__",),
    "dist.is_ci_s": ("dist.is_ci",),
    "dist.marginal_s": ("dist.marginal", "dist.JointDistribution.marginal_density"),
    "dist.induced_structure_s": ("dist.induced_ci_structure",),
    "dist.entropy_s": ("dist.entropy_function",),
    "dist.conditional_product_s": ("dist.conditional_product",),
    "dist.lattice_product_s": ("dist.lattice_product",),
    "dist.kl_s": ("dist.kl_divergence",),
    "setfn.ingleton_s": ("setfn.ingleton", "setfn.ingleton_of_singletons"),
    "setfn.delta_s": ("setfn.delta",),
    "setfn.mask_form_s": ("setfn.mask_form",),
    "catalog.load_s": ("catalog.get", "catalog.entries"),
    "catalog.irreducibles_s": ("catalog.all_irreducibles", "catalog.irreducible_orbit_sizes"),
}

# metric name -> span names whose outermost spans it counts
COUNT_METRICS = {
    "inference.scans": ("inference.semigraphoid_family",),
    "inference.closure_calls": ("inference.closure_bits",),
    "inference.orbit_calls": ("inference.orbit", "inference.orbit_bits"),
    "dist.is_ci_calls": ("dist.is_ci",),
}


class Tracer:
    """Records spans around wrapped calls while ``active`` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, start, end, parent span index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False
        self.closure_added_bits = 0
        self.rows_in = 0
        self.marginal_calls = 0
        self.marginal_repeats = 0
        self._seen_masks: dict[int, tuple[weakref.ref, set]] = {}

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording a span per call; ``hook(args, kwargs, result)``
        runs after a successful traced call."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            row = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(idx)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    def span(self, name: str):
        """Context manager recording a span around benchmark code."""
        return _Span(self, self._name_id(name))

    # -- call hooks --------------------------------------------------------------

    def _closure_hook(self, args, kwargs, result) -> None:
        bits = args[0] if args else kwargs["bits"]
        self.closure_added_bits += (result & ~bits).bit_count()

    def _rows_hook(self, args, kwargs, result) -> None:
        P = args[0] if args else kwargs["P"]
        self.rows_in += len(P.items())

    def _marginal_hook(self, args, kwargs, result) -> None:
        P = args[0]
        A = args[1] if len(args) > 1 else kwargs["A"]
        mask = P.space.mask(A)
        key = id(P)
        entry = self._seen_masks.get(key)
        if entry is None or entry[0]() is not P:
            entry = self._seen_masks[key] = (weakref.ref(P), set())
        self.marginal_calls += 1
        if mask in entry[1]:
            self.marginal_repeats += 1
        else:
            entry[1].add(mask)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer module at every cinfer
        namespace binding it, plus the check table of the verify battery."""
        import cinfer
        import cinfer.cli  # noqa: F401  (a layer; not imported by the package)

        hooks = {
            "inference.closure_bits": self._closure_hook,
            "dist.is_ci": self._rows_hook,
            "dist.JointDistribution.marginal_density": self._marginal_hook,
        }
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"cinfer.{layer}"]
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or value.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                replaced[id(value)] = self.wrap(name, value, hooks.get(name))
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth), hooks.get(name)))
        namespaces = [vars(m) for n, m in sys.modules.items() if n.split(".")[0] == "cinfer"]
        namespaces.append(cinfer.checks.CHECKS)
        for ns in namespaces:
            for attr, value in list(ns.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    ns[attr] = wrapper

    # -- derivation --------------------------------------------------------------

    def summary(self) -> dict:
        """Totals over every recorded span: outermost time and count per span
        name group, self time per layer, and the hook counters."""
        names = self.names
        n = len(self.spans)
        child_time = [0.0] * n
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start

        groups: dict[str, tuple[str, ...]] = dict(TIME_METRICS)
        groups.update(COUNT_METRICS)
        from cinfer import checks

        for check, fn in checks.CHECKS.items():
            inner = getattr(fn, "__wrapped_by_tracer__", fn)
            groups[f"checks.{check}_s"] = (f"checks.{inner.__name__}",)
        member_of: dict[str, list[str]] = {}
        for metric, span_names in groups.items():
            for s in span_names:
                member_of.setdefault(s, []).append(metric)

        totals = {m: 0.0 for m in groups}
        self_time = {layer: 0.0 for layer in LAYERS}
        span_metrics = [member_of.get(name, ()) for name in names]
        span_layer = [name.split(".")[0] for name in names]
        for idx, (nid, start, end, parent) in enumerate(self.spans):
            dur = end - start
            layer = span_layer[nid]
            if layer in self_time:
                self_time[layer] += dur - child_time[idx]
            for metric in span_metrics[nid]:
                if not self._has_ancestor_in(parent, groups[metric]):
                    totals[metric] += 1 if metric in COUNT_METRICS else dur
        out = dict(totals)
        for layer, t in self_time.items():
            out[f"{layer}.self_s"] = t
        out["inference.closure_added_bits"] = self.closure_added_bits
        out["dist.rows_in"] = self.rows_in
        out["dist.marginal_calls"] = self.marginal_calls
        out["dist.marginal_repeats"] = self.marginal_repeats
        out["trace.spans"] = n
        return out

    def _has_ancestor_in(self, parent: int, span_names: tuple[str, ...]) -> bool:
        spans, names = self.spans, self.names
        while parent >= 0:
            row = spans[parent]
            if names[row[0]] in span_names:
                return True
            parent = row[3]
        return False

    def write(self, path: str) -> None:
        """Write the name table and every span (times relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [nid, round(s - t0, 9), round(e - t0, 9), p]
                        for nid, s, e, p in self.spans
                    ],
                },
                f,
                separators=(",", ":"),
            )


class _Span:
    __slots__ = ("tracer", "nid", "row")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        if t.active:
            stack = t._stack
            self.row = [self.nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(t.spans))
            t.spans.append(self.row)
            self.row[1] = time.perf_counter()
        else:
            self.row = None
        return self

    def __exit__(self, *exc):
        if self.row is not None:
            self.row[2] = time.perf_counter()
            self.tracer._stack.pop()
        return False
