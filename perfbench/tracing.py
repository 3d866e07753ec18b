"""Counting and timing wrappers around ietlab's public entry points.

A traced run installs these wrappers from outside the package and removes
them afterwards, so nothing under ``src/`` changes.  Names imported with
``from .x import y`` are bound once per importing module, so every loaded
``ietlab`` module whose attribute is the original function gets the wrapper,
not only the defining module; ``ietlab.exactnum.quad`` is covered the same
way, which is what makes the ``QuadReal`` operators' internal calls count.

Three kinds of wrapper:

* ``count``: a call counter only (``quad``, ``quad_sign``), the hottest
  primitives, where a timer would cost more than the call;
* ``leaf``: counter plus time summed per name, no span (the ``Iet`` step
  methods, ``quad_approx``, ``det``, ``mat_mul``);
* ``span``: counter, summed time and one span record per call with name,
  start, end, parent span and job id (the layer entry points).

Self time of a layer is the time its timed frames cover minus the time of
the timed frames nested directly inside them.  Time spent in a ``count``
primitive stays in its caller's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (defining module, name, kind, layer); the layer names are the modules of ietlab.
FUNCTIONS = (
    ("exactnum", "quad", "count", "exactnum"),
    ("exactnum", "quad_sign", "count", "exactnum"),
    ("exactnum", "quad_approx", "leaf", "exactnum"),
    ("intmat", "det", "leaf", "intmat"),
    ("intmat", "mat_mul", "leaf", "intmat"),
    ("iet", "idoc_check", "span", "iet"),
    ("induction", "induce", "span", "induction"),
    ("induction", "shrink_sequence", "span", "induction"),
    ("measures", "empirical_measure", "span", "measures"),
    ("measures", "cone_approx", "span", "measures"),
    ("measures", "unique_ergodicity_certificate", "span", "measures"),
    ("ktheory", "bratteli", "span", "ktheory"),
    ("ktheory", "dimension_group", "span", "ktheory"),
    ("ktheory", "towers", "span", "ktheory"),
    ("ktheory", "l_sigma", "span", "ktheory"),
    ("ktheory", "strip_class_matrix", "span", "ktheory"),
    ("suspension", "strip_decomposition", "span", "suspension"),
    ("suspension", "singularity_profile", "span", "suspension"),
    ("render", "render_strip_level", "span", "render"),
    ("cli", "main", "span", "cli"),
)
IET_METHODS = ("apply", "apply_inverse", "interval_index", "image_interval_index")

# Span names whose map steps are also counted per scope (outermost call only).
STEP_SCOPES = ("bratteli", "strip_decomposition", "induce")


class Tracer:
    """Holds the counters, timers and spans of one traced pass."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.scope_steps: dict[str, int] = defaultdict(int)
        self.idoc_in_strips_s = 0.0
        self.spans: list[tuple | None] = []
        self.job: int | None = None
        self._child = [0.0]
        self._open = [-1]
        self._scope_depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded ietlab module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ietlab" or name.startswith("ietlab."))]
        for home, name, kind, layer in FUNCTIONS:
            original = getattr(sys.modules[f"ietlab.{home}"], name)
            wrapper = self._wrap(name, kind, layer, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._patch(module, name, wrapper)
        iet_class = sys.modules["ietlab.iet"].Iet
        for name in IET_METHODS:
            original = iet_class.__dict__[name]
            self._patch(iet_class, name, self._wrap(f"Iet.{name}", "leaf", "iet", original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: object, name: str, wrapper: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, kind: str, layer: str, fn):
        counts = self.counts
        if kind == "count":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        clock = time.perf_counter
        child, total_s, self_s = self._child, self.total_s, self.self_s
        if kind == "leaf":
            def timed(*args, **kwargs):
                counts[name] += 1
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = child.pop()
                    child[-1] += elapsed
                    total_s[name] += elapsed
                    self_s[layer] += elapsed - inner
            return timed

        spans, open_spans = self.spans, self._open
        scoped = name in STEP_SCOPES
        is_idoc = name == "idoc_check"
        tracer = self

        def spanned(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(index)
            if scoped:
                tracer._scope_depth[name] += 1
                steps_before = counts["Iet.apply"] + counts["Iet.apply_inverse"]
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = child.pop()
                child[-1] += elapsed
                total_s[name] += elapsed
                self_s[layer] += elapsed - inner
                open_spans.pop()
                spans[index] = (name, start, end, parent, tracer.job)
                if scoped:
                    tracer._scope_depth[name] -= 1
                    if tracer._scope_depth[name] == 0:
                        tracer.scope_steps[name] += (
                            counts["Iet.apply"] + counts["Iet.apply_inverse"] - steps_before)
                if is_idoc and tracer._scope_depth["strip_decomposition"]:
                    tracer.idoc_in_strips_s += elapsed
        return spanned

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics that the wrappers alone can give."""
        c, t, s = self.counts, self.total_s, self.self_s
        forward, inverse = c["Iet.apply"], c["Iet.apply_inverse"]
        strips_s = t["strip_decomposition"]
        return {
            "exactnum.quad_calls": (c["quad"], "count"),
            "exactnum.sign_calls": (c["quad_sign"], "count"),
            "exactnum.approx_calls": (c["quad_approx"], "count"),
            "exactnum.approx_s": (t["quad_approx"], "s"),
            "iet.steps": (forward, "count"),
            "iet.inverse_steps": (inverse, "count"),
            "iet.index_calls": (c["Iet.interval_index"] + c["Iet.image_interval_index"], "count"),
            "iet.self_s": (s["iet"], "s"),
            "iet.ns_per_step": (s["iet"] * 1e9 / (forward + inverse) if forward + inverse else 0.0,
                                "ns"),
            "iet.idoc_s": (t["idoc_check"], "s"),
            "induction.induce_calls": (c["induce"], "count"),
            "induction.induce_s": (t["induce"], "s"),
            "induction.self_s": (s["induction"], "s"),
            "induction.steps_per_induce": (
                self.scope_steps["induce"] / c["induce"] if c["induce"] else 0.0, "count"),
            "intmat.calls": (c["det"] + c["mat_mul"], "count"),
            "intmat.s": (t["det"] + t["mat_mul"], "s"),
            "measures.empirical_s": (t["empirical_measure"], "s"),
            "measures.cone_s": (t["cone_approx"], "s"),
            "ktheory.bratteli_s": (t["bratteli"], "s"),
            "ktheory.self_s": (s["ktheory"], "s"),
            "ktheory.recount_steps": (self.scope_steps["bratteli"], "count"),
            "suspension.strips_s": (strips_s, "s"),
            "suspension.self_s": (s["suspension"], "s"),
            "suspension.orbit_steps": (self.scope_steps["strip_decomposition"], "count"),
            "suspension.idoc_share": (self.idoc_in_strips_s / strips_s if strips_s else 0.0,
                                      "ratio"),
            "render.svg_s": (t["render_strip_level"], "s"),
            "render.self_s": (s["render"], "s"),
            "cli.main_s": (t["main"], "s"),
            "cli.self_s": (s["cli"], "s"),
        }

    def write_spans(self, path: Path) -> None:
        """Write the spans once, as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "job")
        with path.open("w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **dict(zip(keys, span))}) + "\n")
