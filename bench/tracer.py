"""Per-layer spans recorded by wrapping cyclomod's functions from outside.

``install`` replaces each named layer function by a wrapper that records
a span (name, start, end, parent span, job id) in memory.  Modules import
each other's functions by name (``from .endo import commutant_basis``),
so the wrapper replaces every binding of the function object in every
loaded ``cyclomod`` module, not only the defining one.  A layer whose
module, function or method no longer exists is reported as absent.

Self time is a span's duration minus the time its child spans cover.
Work counts are read from arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "cyclomod"

# Functions timed by the traced run, as module.function or module.Class.method.
LAYERS = (
    "cli.main",
    "boolfn.sn_action",
    "boolfn.parse_anf",
    "boolfn.decompose_boolean",
    "perms.permutation_module",
    "modules.orbit_basis",
    "endo.compute_end",
    "endo.commutant_basis",
    "endo.find_splitting_element",
    "endo.fitting_split",
    "endo.verify_certificate",
    "decompose.complete_decomposition",
    "decompose.block_endo",
    "decompose.block_from_vectors",
    "polynomials.min_poly",
    "polynomials.factor",
    "linalg.rref",
    "linalg.kernel_basis",
    "linalg.mat_pow",
    "linalg.SpanSolver.add",
    "linalg.SpanSolver.coordinates",
    "linalg.SpanSolver.contains",
    "wfa.left_reduce",
    "wfa.right_reduce",
    "wfa.minimize",
    "serialize.report_to_json",
    "serialize.to_text",
    "serialize.automaton_from_json",
    "serialize.automaton_to_json",
    "serialize.presentation_from_json",
)

SEARCH_STAGES = ("scanned", "enumerated", "min_poly_tried", "box_swept")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_commutant(args, kwargs, result):
    dim = _arg(args, kwargs, 1, "dim")
    yield "endo.commutant_basis.unknowns", dim * dim


def _count_rref(args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    yield "linalg.rref.entries", m.rows * m.cols


def _count_left_reduce(args, kwargs, result):
    yield "wfa.left_reduce.kept_words", len(result[1].words)


def _count_search(args, kwargs, result):
    yield "endo.search.candidates", sum(result.diagnostics.get(k, 0) for k in SEARCH_STAGES)
    yield "endo.search.decomposable", int(result.verdict == "decomposable")


def _count_leaves(args, kwargs, result):
    yield "decompose.noncyclic_leaves", sum(
        1 for block in result.summands if not getattr(block, "is_cyclic", True)
    )
    yield "decompose.undecided_leaves", result.undecided_count


COUNTERS = {
    "endo.commutant_basis": _count_commutant,
    "linalg.rref": _count_rref,
    "wfa.left_reduce": _count_left_reduce,
    "endo.find_splitting_element": _count_search,
    "decompose.complete_decomposition": _count_leaves,
}


class Recorder:
    """Spans and work counts of the calls made while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.count_errors = Counter()

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, args, kwargs, result):
        # a later signature or result shape must not crash the traced job
        try:
            for key, amount in counter(args, kwargs, result):
                self.counts[key] += amount
        except (AttributeError, IndexError, KeyError, TypeError) as err:
            self.count_errors[f"{name}: {type(err).__name__}: {err}"] += 1

    def layer_totals(self):
        """Per layer: (self seconds, seconds with children, calls).

        Self time subtracts the child spans; the time with children counts
        only outermost spans of a layer, so recursion is not counted twice.
        """
        child = defaultdict(float)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0.0, 0])
        open_depth = Counter()
        ends = []  # (end time, name) of spans still open, innermost last
        for k, (name, start, end, _parent, _job) in enumerate(self.spans):
            while ends and ends[-1][0] <= start:
                open_depth[ends.pop()[1]] -= 1
            entry = totals[name]
            entry[0] += end - start - child[k]
            if open_depth[name] == 0:
                entry[1] += end - start
            entry[2] += 1
            open_depth[name] += 1
            ends.append((end, name))
        return {name: tuple(t) for name, t in totals.items()}


def _loaded_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def resolve(layer: str):
    """(owner, attribute, function) for a layer name, or None when absent."""
    parts = layer.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    except ImportError:
        return None
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn) or isinstance(fn, type):
        return None
    return owner, attr, fn


@dataclass
class Installation:
    patches: list = field(default_factory=list)   # (owner, attribute, original)
    absent: list = field(default_factory=list)

    def remove(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(recorder: Recorder, layers=LAYERS) -> Installation:
    """Wrap each layer at every place it is bound; call remove() to undo."""
    inst = Installation()
    modules = _loaded_modules()
    for layer in layers:
        target = resolve(layer)
        if target is None:
            inst.absent.append(layer)
            continue
        owner, attr, fn = target
        wrapper = recorder.wrap(layer, fn, COUNTERS.get(layer))
        if isinstance(owner, type):
            inst.patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    inst.patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
    return inst
