"""Spans and counters around the package's functions, installed from outside.

`install` replaces each function named in SPANNED or COUNTED at every module
attribute (and module-level dict value) through which the package reaches
it, so local imports such as `color_group`'s `from .quotient import
build_group` are covered too.  A name the package no longer defines is
skipped and reads as 0.

A spanned call records (span id, parent span id, name, start, end); its
self time is its duration minus the time its child spans cover.  A counted
call only increments a call counter: `element_key` runs millions of times
per pass, and a span for each would dominate the run and hide the caller's
cost.  Spans are kept in memory; the worker hands them to the benchmark
runner, which writes them out when the run ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from itertools import count
from time import perf_counter

MODULES = ("isometry", "quotient", "orbits", "coloring", "crystal", "cli")


def _add(key, amount):
    def measure(counters, result):
        counters[key] += amount(result)

    return measure


def _color_group(counters, result):
    counters["coloring.color_group.kept"] += result.subgroup.order
    counters["coloring.color_group.tried"] += result.subgroup.parent.order


def _color_action(counters, result):
    counters["coloring.color_action.permuting"] += result is not None


# every counter a measure may add to, so that an absent call reads as 0
COUNTERS = (
    "quotient.closure_elements",
    "quotient.certify_translations.witness_letters",
    "coloring.color_group.kept",
    "coloring.color_group.tried",
    "coloring.color_action.permuting",
    "coloring.to_text.bytes",
    "crystal.export.bytes",
)

_closure = _add("quotient.closure_elements", lambda group: group.order)
_export_bytes = _add("crystal.export.bytes", lambda text: len(text.encode()))

# (module, attribute) -> what to count from the result, or None
SPANNED = {
    ("isometry", "eval_word"): None,
    ("quotient", "build_group"): _closure,
    ("quotient", "build_subgroup"): _closure,
    ("quotient", "certify_translations"): _add(
        "quotient.certify_translations.witness_letters",
        lambda sub: sum(len(w.word) for w in sub.translation_certificate),
    ),
    ("quotient", "left_cosets"): None,
    ("quotient", "index"): None,
    ("orbits", "decompose"): None,
    ("orbits", "stabilizer"): None,
    ("coloring", "verify_theorem"): None,
    ("coloring", "color_group"): _color_group,
    ("coloring", "color_action"): _color_action,
    ("coloring", "build_coloring"): None,
    ("coloring", "VertexColoring.to_text"): _add(
        "coloring.to_text.bytes", lambda text: len(text.encode())
    ),
    ("crystal", "preset"): None,
    ("crystal", "export_xyz"): _export_bytes,
    ("crystal", "export_off"): _export_bytes,
    ("crystal", "export_report"): _export_bytes,
    ("cli", "load_config"): None,
    ("cli", "build_from_config"): None,
    ("cli", "main"): None,
}
COUNTED = (("isometry", "parse_word"), ("quotient", "element_key"))


def metric_prefix(module: str, attribute: str) -> str:
    """`coloring.VertexColoring.to_text` is reported as `coloring.to_text`."""
    return f"{module}.{attribute.rpartition('.')[2]}"


class Recorder:
    """Spans, call counts, self times and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = count(1)
        self._stack = [[0, 0.0]]  # [span id, time covered by child spans]

    def spanned(self, name, fn, measure=None):
        ids, stack, spans = self._ids, self._stack, self.spans
        calls, self_s, counters = self.calls, self.self_s, self.counters

        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                spans.append((frame[0], parent, name, start, end))
                calls[name] += 1
                self_s[name] += duration - frame[1]
            if measure is not None:
                measure(counters, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def item(self, name: str, fn):
        """Run one workload item as a root span, so its spans share an id."""
        return self.spanned(f"item:{name}", fn)()

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


def _replace(spaces, original, wrapper) -> None:
    for space in spaces:
        for key, value in list(vars(space).items()):
            if value is original:
                setattr(space, key, wrapper)
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


def install(package_name: str, recorder: Recorder) -> None:
    """Wrap every SPANNED and COUNTED function of the package's modules
    that are already imported; the others are not called."""
    modules = {m: sys.modules.get(f"{package_name}.{m}") for m in MODULES}
    modules = {m: module for m, module in modules.items() if module is not None}
    spaces = [sys.modules[package_name], *modules.values()]
    targets = [(key, True, measure) for key, measure in SPANNED.items()]
    targets += [(key, False, None) for key in COUNTED]
    for (module, attribute), spanned, measure in targets:
        name = metric_prefix(module, attribute)
        owner_name, _, fn_name = attribute.rpartition(".")
        owner = modules.get(module)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        original = getattr(owner, fn_name, None)
        if original is None:
            continue
        if spanned:
            wrapper = recorder.spanned(name, original, measure)
        else:
            wrapper = recorder.counted(name, original)
        if owner_name:
            setattr(owner, fn_name, wrapper)
        else:
            _replace(spaces, original, wrapper)
