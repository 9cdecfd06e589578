"""Per-layer spans and counters, recorded from outside the program.

A traced layer is a public ormkit function or method.  Installing the
tracer replaces it by a wrapper: a module-level function is replaced in
every ormkit module that holds it (so `from .wp import closure` in
cayley is traced too), a method is replaced on its class.  Wrappers
either open a span (calls, and self time: duration minus the time its
child spans cover) or only count calls, for functions called hundreds
of thousands of times where a span would swamp what it measures.

A layer whose function no longer exists is recorded as absent and its
metrics are left out; the workload runs on untouched.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path, kind).  kind "span" times the
# call, "count" only counts it.
LAYERS = [
    ("wp.equal_bounded", "ormkit.wp", "equal_bounded", "span"),
    ("wp.neighbors", "ormkit.wp", "neighbors", "count"),
    ("words.Presentation.shortlex_key", "ormkit.words", "Presentation.shortlex_key", "count"),
    ("wp.closure", "ormkit.wp", "closure", "span"),
    ("wp.equal_via_compression", "ormkit.wp", "equal_via_compression", "span"),
    ("compress.compress_step", "ormkit.compress", "compress_step", "span"),
    ("wp.Oracle.class_of", "ormkit.wp", "Oracle.class_of", "span"),
    ("wp.Oracle.equal", "ormkit.wp", "Oracle.equal", "span"),
    ("cayley.enumerate_classes", "ormkit.cayley", "enumerate_classes", "span"),
    ("cayley.build_ball", "ormkit.cayley", "build_ball", "span"),
    ("cayley.attach_cells", "ormkit.cayley", "attach_cells", "span"),
    ("cayley.two_cycle_basis", "ormkit.cayley", "two_cycle_basis", "span"),
    ("cayley.structure_checks", "ormkit.cayley", "structure_checks", "span"),
    ("squier.random_walk_check", "ormkit.squier", "random_walk_check", "span"),
    ("squier.apply_move", "ormkit.squier", "apply_move", "count"),
    ("squier.injectivity_harness", "ormkit.squier", "injectivity_harness", "span"),
    ("classify.classify_full", "ormkit.classify", "classify_full", "span"),
    ("cli.dispatch", "ormkit.cli", "dispatch", "span"),
    ("cli.emit", "ormkit.cli", "emit", "span"),
]

CHECK_KINDS = ["PsiWellDefined", "PsiInjectiveOnIdeal", "BasisFreeness",
               "LocalDivisorIso", "RegularityWitness", "RTrivial",
               "KernelInclusion"]

# Every per-layer metric: (name, unit, better).  A name starts with the
# prefix of the layer it needs; trace.* is the caller's.
METRICS = [
    ("wp.equal_bounded.calls", "count", "lower"),
    ("wp.equal_bounded.self_s", "s", "lower"),
    ("wp.equal_bounded.unknown", "count", "lower"),
    ("wp.neighbors.calls", "count", "lower"),
    ("words.Presentation.shortlex_key.calls", "count", "lower"),
    ("wp.closure.calls", "count", "lower"),
    ("wp.closure.self_s", "s", "lower"),
    ("wp.closure.words", "count", "lower"),
    ("wp.closure.saturated_frac", "frac", "higher"),
    ("wp.equal_via_compression.calls", "count", "lower"),
    ("wp.equal_via_compression.self_s", "s", "lower"),
    ("compress.compress_step.calls", "count", "lower"),
    ("compress.compress_step.self_s", "s", "lower"),
    ("wp.Oracle.class_of.calls", "count", "lower"),
    ("wp.Oracle.class_of.hit_frac", "frac", "higher"),
    ("wp.Oracle.equal.calls", "count", "lower"),
    ("wp.Oracle.equal.self_s", "s", "lower"),
    ("cayley.enumerate_classes.self_s", "s", "lower"),
    ("cayley.build_ball.self_s", "s", "lower"),
    ("cayley.attach_cells.self_s", "s", "lower"),
    ("cayley.two_cycle_basis.self_s", "s", "lower"),
] + [
    (f"cayley.structure_checks.{k}.self_s", "s", "lower") for k in CHECK_KINDS
] + [
    ("squier.random_walk_check.self_s", "s", "lower"),
    ("squier.random_walk_check.steps_applied", "count", "higher"),
    ("squier.apply_move.calls", "count", "lower"),
    ("squier.injectivity_harness.self_s", "s", "lower"),
    ("classify.classify_full.self_s", "s", "lower"),
    ("cli.dispatch.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class _Frame:
    __slots__ = ("child_s", "children")

    def __init__(self):
        self.child_s = 0.0
        self.children: set[str] = set()


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted attribute path, or None
    when the module, class or attribute does not exist."""
    mod = sys.modules.get(module)
    if mod is None:
        return None
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if not callable(fn):
        return None
    return owner, parts[-1], fn


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- install

    def install(self) -> None:
        for prefix, module, path, kind in LAYERS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(prefix)
                continue
            owner, attr, fn = found
            wrapper = (self._span(prefix, fn) if kind == "span"
                       else self._count(prefix, fn))
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "ormkit" or name.startswith("ormkit.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------- wrappers

    def _count(self, prefix: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[prefix] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, prefix: str, fn):
        tracer = self

        def spanned(*args, **kwargs):
            name = prefix
            if prefix == "cayley.structure_checks":
                check = args[1] if len(args) > 1 else kwargs.get("check")
                name = f"{prefix}.{getattr(check, 'value', check)}"
            stack = tracer._stack
            frame = _Frame()
            if stack:
                stack[-1].children.add(prefix)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame.child_s
            tracer._observe(prefix, frame, result)
            return result
        return spanned

    def _observe(self, prefix: str, frame: _Frame, result) -> None:
        """Counters read off a call's result, keyed by metric name (the
        numerator, for a _frac metric)."""
        extra = self.extra
        if prefix == "wp.equal_bounded":
            extra["wp.equal_bounded.unknown"] += type(result).__name__ == "Unknown"
        elif prefix == "wp.closure":
            parents, saturated = result
            extra["wp.closure.words"] += len(parents)
            extra["wp.closure.saturated_frac"] += bool(saturated)
        elif prefix == "wp.Oracle.class_of":
            extra["wp.Oracle.class_of.hit_frac"] += "wp.closure" not in frame.children
        elif prefix == "squier.random_walk_check":
            extra["squier.random_walk_check.steps_applied"] += result.applied

    # -------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric whose layer is present (the trace
        overhead is the caller's)."""
        out = {}
        for name, _, _ in METRICS:
            layer = next((p for p, *_ in LAYERS if name.startswith(p + ".")), None)
            if layer is None or layer in self.absent:
                continue
            span, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = self.calls[span]
            elif stat == "self_s":
                out[name] = self.self_s[span]
            elif stat.endswith("_frac"):
                out[name] = self.extra[name] / self.calls[span] if self.calls[span] else 0.0
            else:
                out[name] = self.extra[name]
        return out
