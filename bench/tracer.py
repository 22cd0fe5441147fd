"""Span tracing of specmeans from outside the package.

`Tracer.install()` replaces every public function of every specmeans
module by a wrapper that records a span (name, parent, start, end), in
each module namespace that binds it: `harness` binds `spectral_mean` by
import and `spaces` calls `difference` through its own globals, so both
bindings are patched.  Methods that are layer boundaries (`to_json`,
`MeanFunction.__call__`) are patched on their class.  `uninstall()`
restores the originals, so untraced passes run the unmodified package.

Some spans carry a note about their input (content hash, grid size,
bytes written).  The note is taken outside the span's own interval and
its cost is charged to no layer: a parent's self time is its duration
minus the full extent (call plus note) of its children.
"""

from __future__ import annotations

import functools
import sys
import types
import weakref
import zlib
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("grid", "symbols", "multipliers", "spaces", "distributions", "signals", "harness", "cli")

# Methods that are layer boundaries; public module functions are found by scanning.
METHODS = (
    ("grid", "GridFunction", "to_json"),
    ("grid", "SpectrumFunction", "to_json"),
    ("symbols", "MeanFunction", "__call__"),
)
# Private functions that are nonetheless layer boundaries.
PRIVATE = (("cli", "_emit"),)
# The job itself is the benchmark's root span, so `cli.main` is not wrapped.
SKIP = {"cli.main"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, start, end, outer_start, outer_end, note]
        self._stack = []
        self._patches = []
        self._wrappers = {}
        self._keys = {}  # id(array) -> (weakref, content key)
        self.notes = {
            "grid.forward_transform": lambda a, kw, r: (self.content_key(a[0].values), a[0].spec.size),
            "grid.inverse_transform": lambda a, kw, r: a[0].spec.size,
            "spaces.difference": lambda a, kw, r: (
                self.content_key(a[0].values),
                tuple(int(v) for v in np.rint(np.atleast_1d(a[1]) / a[0].spec.spacing)),
                int(a[2]),
            ),
            "spaces.build_partition": lambda a, kw, r: a[0],
            "grid.GridFunction.to_json": lambda a, kw, r: len(r),
            "grid.SpectrumFunction.to_json": lambda a, kw, r: len(r),
            "cli._emit": lambda a, kw, r: len(a[0]),
        }

    # -- content identity ---------------------------------------------------

    def content_key(self, arr):
        """Identity of an array's contents; cached per array object, which
        specmeans freezes (write=False) when it builds a grid function."""
        entry = self._keys.get(id(arr))
        if entry is not None and entry[0]() is arr:
            return entry[1]
        data = np.ascontiguousarray(arr)
        key = (arr.shape, arr.dtype.str, zlib.crc32(data), zlib.adler32(data))
        try:
            ref = weakref.ref(arr)
        except TypeError:
            return key
        self._keys[id(arr)] = (ref, key)
        return key

    # -- patching -------------------------------------------------------------

    def _wrap(self, name, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        tracer = self
        note = self.notes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            outer_start = perf_counter()
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, outer_start, 0.0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                rec[2] = perf_counter()
                result = fn(*args, **kwargs)
            finally:
                rec[3] = rec[5] = perf_counter()
                stack.pop()
            if note is not None:
                rec[6] = note(args, kwargs, result)
                rec[5] = perf_counter()
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        import specmeans

        modules = {layer: sys.modules[f"specmeans.{layer}"] for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    originals[obj] = f"{layer}.{attr}"
        for layer, attr in PRIVATE:
            originals[getattr(modules[layer], attr)] = f"{layer}.{attr}"
        for mod in list(modules.values()) + [specmeans]:
            for attr, obj in list(vars(mod).items()):
                name = originals.get(obj) if isinstance(obj, types.FunctionType) else None
                if name is not None and name not in SKIP:
                    self._patch(mod, attr, self._wrap(name, obj))
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", cls.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------------

    def open_root(self, name):
        start = perf_counter()
        self.spans.append([name, -1, start, 0.0, start, 0.0, None])
        self._stack.append(len(self.spans) - 1)

    def close_root(self):
        rec = self.spans[self._stack.pop()]
        rec[3] = rec[5] = perf_counter()

    def drain(self):
        spans, self.spans = self.spans, []
        self._keys = {k: v for k, v in self._keys.items() if v[0]() is not None}
        return spans


def summarize(spans):
    """Per span name: call count, inclusive time of outermost calls, self
    time, and the notes; plus, per root span (one job), its wall time and
    the part of it that child spans cover."""
    count = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    notes = defaultdict(list)
    child_extent = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child_extent[rec[1]] += rec[5] - rec[4]
    coverage = {}
    for i, (name, parent, start, end, _, _, note) in enumerate(spans):
        dur = end - start
        if parent < 0:
            coverage[name] = (child_extent[i], dur)
            continue
        count[name] += 1
        self_time[name] += dur - child_extent[i]
        if note is not None:
            notes[name].append(note)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            inclusive[name] += dur
    return {
        "count": dict(count),
        "inclusive": dict(inclusive),
        "self": dict(self_time),
        "notes": dict(notes),
        "coverage": coverage,
    }


FORWARD, INVERSE = "grid.forward_transform", "grid.inverse_transform"
TO_JSON = ("grid.GridFunction.to_json", "grid.SpectrumFunction.to_json")
PLANS = ("multipliers.spectral_mean_plan", "multipliers.bessel_plan", "multipliers.derivative_plan")
MEANS = ("symbols.make_gaussian_mean", "symbols.make_riesz_mean", "symbols.make_smooth_cutoff_mean")
EMIT = ("harness.report_to_csv", "harness.report_to_json", "cli._emit")


def _ratio(distinct, calls):
    """Useful work over attempts; 1 when nothing was attempted."""
    return distinct / calls if calls else 1.0


def layer_metrics(summary):
    """The per-layer metrics of one traced pass.  Times are inclusive
    (outermost call of each function) unless named self time."""
    count, incl, self_time, notes = (summary[k] for k in ("count", "inclusive", "self", "notes"))

    def n(*names):
        return sum(count.get(name, 0) for name in names)

    def t(*names):
        return sum(incl.get(name, 0.0) for name in names)

    def st(*names):
        return sum(self_time.get(name, 0.0) for name in names)

    forward = notes.get(FORWARD, [])
    diffs = notes.get("spaces.difference", [])
    partitions = notes.get("spaces.build_partition", [])
    return {
        "grid.transform_calls": n(FORWARD, INVERSE),
        "grid.transform_points": sum(size for _, size in forward) + sum(notes.get(INVERSE, [])),
        "grid.transform_s": t(FORWARD, INVERSE),
        "grid.to_json_s": t(*TO_JSON),
        "grid.forward_distinct_ratio": _ratio(len({key for key, _ in forward}), len(forward)),
        "grid.to_json_bytes": sum(sum(notes.get(name, [])) for name in TO_JSON),
        "multipliers.plan_builds": n(*PLANS),
        "multipliers.apply_calls": n("multipliers.apply_multiplier"),
        "multipliers.plan_s": st(*PLANS),
        "multipliers.apply_s": st("multipliers.apply_multiplier"),
        "spaces.partition_builds": n("spaces.build_partition"),
        "spaces.partition_distinct_ratio": _ratio(len(set(partitions)), len(partitions)),
        "spaces.partition_s": t("spaces.build_partition"),
        "spaces.besov_lp_s": t("spaces.besov_norm_lp"),
        "spaces.liouville_s": t("spaces.liouville_norm"),
        "spaces.difference_calls": n("spaces.difference"),
        "spaces.difference_distinct_ratio": _ratio(len(set(diffs)), len(diffs)),
        "spaces.difference_s": t("spaces.difference"),
        "spaces.modulus_s": t("spaces.besov_norm_modulus"),
        "spaces.classical_s": t("spaces.classical_besov_norm"),
        "spaces.nikolskii_s": t("spaces.nikolskii_norm"),
        "spaces.slobodetskii_s": t("spaces.slobodetskii_norm"),
        "spaces.sobolev_s": t("spaces.sobolev_norm"),
        "symbols.mean_builds": n(*MEANS),
        "symbols.mean_build_s": t(*MEANS),
        "symbols.profile_evals": n("symbols.MeanFunction.__call__"),
        "symbols.integrability_s": t("symbols.check_integrability"),
        "symbols.decay_s": t("symbols.check_derivative_decay"),
        "symbols.theorem2_s": t("symbols.check_theorem2"),
        "distributions.spectrum_calls": n("distributions.spectrum_of_distribution"),
        "distributions.spectrum_s": t("distributions.spectrum_of_distribution"),
        "distributions.pairing_calls": n("distributions.pair_distribution"),
        "distributions.pairing_s": t("distributions.pair_distribution"),
        "signals.make_calls": n("signals.make_signal"),
        "signals.make_s": t("signals.make_signal"),
        "harness.corpus_s": t("harness.trig_corpus"),
        "harness.emit_s": t(*EMIT),
        "harness.emit_bytes": sum(notes.get("cli._emit", [])),
    }
