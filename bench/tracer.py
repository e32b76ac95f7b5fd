"""Spans around the public functions of each qleak module, from outside the package.

`install` wraps every public function defined in the layer modules and
rebinds the wrapper under each name that any qleak module holds for it (for
example `eig_hermitian` in linalg, sdp, leakage and divergences), so calls
between modules are traced too.  A span records its name, thread, op, start,
end, self time (duration minus the spans nested in it on the same thread) and
a few counts read from the result.  Spans stay in memory until `summarise`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "leakage", "sdp", "simplex", "linalg", "divergences", "channels", "vqml")
_SIMPLEX = ("simplex.solve_standard_form", "simplex.resume_phase2")
_FACTORIES = {
    "channels.depolarizing_global",
    "channels.depolarizing_local",
    "channels.identity_channel",
    "channels.compose",
    "channels.tensor",
    "channels.random_channel",
}
# Counts that must repeat exactly between two traced passes over one op list.
DETERMINISTIC = (
    "linalg.eig.calls",
    "simplex.solves",
    "simplex.pivots",
    "sdp.dominating.solves",
    "sdp.dominating.iterations",
    "sdp.dominating.cuts",
    "sdp.weights.solves",
    "sdp.weights.iterations",
    "sdp.weights.cuts",
    "channels.build.kraus",
)


@dataclass
class Span:
    name: str
    thread: int
    op: int
    start: float
    parent: str | None
    end: float = 0.0
    child_s: float = 0.0
    first_lp_s: float | None = None
    note: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _certificate_gaps(result) -> list[float]:
    if hasattr(result, "gap"):
        return [result.gap]
    if hasattr(result, "barycentric"):
        return [result.sandwiched_inf.gap, result.maximal.gap, result.barycentric.gap, result.pairwise.gap]
    return []


def _note(span: Span, result) -> None:
    name = span.name
    if name == "sdp.solve":
        span.note.update({
            "iterations": result.iterations,
            "cuts": result.cut_count,
            "capped": result.status != "optimal",
            "seed_s": span.first_lp_s if span.first_lp_s is not None else span.end - span.start,
        })
    elif name in _SIMPLEX:
        span.note = {"pivots": result.iterations, "optimal": result.status == "optimal"}
    elif name in _FACTORIES:
        span.note = {"kraus": len(result.kraus)}
    elif name.startswith("leakage."):
        gaps = _certificate_gaps(result)
        if gaps:
            span.note = {"gap_bits": max(gaps)}


class Tracer:
    """Collects spans from every thread; `op` names the op in flight."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            now = time.perf_counter()
            if name in _SIMPLEX:
                for outer in reversed(stack):
                    if outer.name == "sdp.solve":
                        if outer.first_lp_s is None:
                            outer.first_lp_s = now - outer.start
                        break
            span = Span(name, threading.get_ident(), tracer.op, now, stack[-1].name if stack else None)
            if name == "sdp.solve":
                span.note["form"] = (args[0] if args else kwargs["program"]).form
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
                tracer.spans.append(span)
            _note(span, result)
            return result

        return traced

    def install(self) -> list:
        """Rebind traced wrappers in every loaded qleak module; returns the undo list."""
        modules = [m for n, m in list(sys.modules.items()) if n == "qleak" or n.startswith("qleak.")]
        undo = []
        for layer in LAYERS:
            mod = sys.modules[f"qleak.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    if vars(m).get(attr) is fn:
                        setattr(m, attr, traced)
                        undo.append((m, attr, fn))
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for mod, attr, fn in undo:
            setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {
                    "name": s.name,
                    "thread": s.thread,
                    "op": s.op,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.self_s,
                }
                row.update(s.note)
                fh.write(json.dumps(row) + "\n")


def summarise(spans: list[Span]) -> dict:
    """Per-layer counts and self times, keyed by the benchmark's metric names."""
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    m: dict = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        m[s.name.split(".")[0] + ".self_s"] += s.self_s
        if s.name == "sdp.solve":
            form = s.note["form"]
            m[f"sdp.{form}.solves"] += 1
            m[f"sdp.{form}.iterations"] += s.note.get("iterations", 0)
            m[f"sdp.{form}.cuts"] += s.note.get("cuts", 0)
            m[f"sdp.{form}.capped"] += s.note.get("capped", True)
            m[f"sdp.{form}.seed_s"] += s.note.get("seed_s", 0.0)
            m[f"sdp.{form}.self_s"] += s.self_s
        elif s.name in _SIMPLEX:
            m["simplex.pivots"] += s.note.get("pivots", 0)
            if s.name == "simplex.resume_phase2":
                m["simplex.warm_ok"] += s.note.get("optimal", False)
        elif s.name in _FACTORIES:
            m["channels.build.self_s"] += s.self_s
            if s.parent not in _FACTORIES:
                m["channels.build.kraus"] += s.note.get("kraus", 0)
        elif "gap_bits" in s.note:
            m["leakage.gap_bits_max"] = max(m["leakage.gap_bits_max"], s.note["gap_bits"])
    out = {layer + ".self_s": m[layer + ".self_s"] for layer in LAYERS}
    out.update(
        {
            "linalg.eig.calls": calls["linalg.eig_hermitian"],
            "linalg.eig.self_s": self_s["linalg.eig_hermitian"],
            "simplex.solves": sum(calls[n] for n in _SIMPLEX),
            "simplex.pivots": int(m["simplex.pivots"]),
            "simplex.warm_ok_ratio": _ratio(m["simplex.warm_ok"], calls["simplex.resume_phase2"]),
            "leakage.accessible.calls": calls["leakage.accessible_information_lower"],
            "leakage.accessible.self_s": self_s["leakage.accessible_information_lower"],
            "leakage.pairwise.self_s": self_s["leakage.pairwise_leakage"],
            "leakage.gap_bits_max": m["leakage.gap_bits_max"],
            "divergences.sandwiched.calls": calls["divergences.sandwiched_renyi"],
            "divergences.sandwiched.self_s": self_s["divergences.sandwiched_renyi"],
            "channels.build.kraus": int(m["channels.build.kraus"]),
            "channels.build.self_s": m["channels.build.self_s"],
            "channels.apply.calls": calls["channels.apply"],
            "channels.apply.self_s": self_s["channels.apply"],
            "vqml.degradation.self_s": self_s["vqml.performance_degradation"],
        }
    )
    for form in ("dominating", "weights"):
        solves = int(m[f"sdp.{form}.solves"])
        out[f"sdp.{form}.solves"] = solves
        out[f"sdp.{form}.iterations"] = int(m[f"sdp.{form}.iterations"])
        out[f"sdp.{form}.cuts"] = int(m[f"sdp.{form}.cuts"])
        out[f"sdp.{form}.capped_ratio"] = _ratio(m[f"sdp.{form}.capped"], solves)
        out[f"sdp.{form}.seed_s"] = m[f"sdp.{form}.seed_s"]
        out[f"sdp.{form}.self_s"] = m[f"sdp.{form}.self_s"]
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def count_mismatches(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a[k]} != {b[k]}" for k in DETERMINISTIC if a[k] != b[k]]
