"""Outside-in tracing of gridtext's layers.

Each traced function is replaced, for the duration of a ``with Tracer()``
block, at every ``gridtext`` module attribute that holds it.  Callers look
their callees up as module globals (``simloop.match_lines``,
``decoder.follow``) or import them at call time (``geometry.nms`` inside
``extract_nodes``), so the wrapper sees every call and the package itself is
not modified.

A span is (name, start_ns, end_ns, parent index).  Spans stay in memory and
are written out once, at the end of the run.  A layer's self time is its
spans' duration minus that of their direct children.  Counters are computed
from each call's inputs and outputs, outside the span's interval.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Callable

# (module, function) pairs, named as the span and metric prefix.
TRACED = (
    ("synth", "gen_page"),
    ("predictions", "oracle_predict"),
    ("predictions", "load_maps"),
    ("geometry", "nms"),
    ("decoder", "decode"),
    ("decoder", "extract_nodes"),
    ("decoder", "follow"),
    ("decoder", "resolve_edges"),
    ("decoder", "assemble"),
    ("decoder", "validate_result"),
    ("matching", "match_lines"),
    ("matching", "match_chars"),
    ("matching", "spatial_filter"),
    ("pseudolabels", "update"),
    ("pseudolabels", "build_targets"),
    ("pseudolabels", "gen_paths"),
    ("losses", "compute_losses"),
    ("metrics", "ar_star"),
    ("metrics", "det_prf"),
    ("simloop", "run_stage"),
    ("simloop", "coverage"),
    ("simloop", "mean_label_iou"),
)

# Scoring reuses training's line matcher; its spans under ar_star are also
# reported on their own.
AR_STAR = "metrics.ar_star"
MATCH_LINES = "matching.match_lines"
IN_AR_STAR = "matching.match_lines.in_ar_star"


def _ref_lines(annots) -> list:
    return annots.lines if hasattr(annots, "lines") else list(annots)


def _count_nms(a, result, add):
    add("candidates", len(a["candidates"]))
    add("kept", len(result))


def _count_follow(a, trace, add):
    add("steps", len(trace.visited))
    add(trace.outcome, 1)


def _count_match_lines(a, result, add):
    hyps = a["results"]
    refs = _ref_lines(a["annots"])
    add("pairs", len(hyps) * len(refs))
    add("dp_cells", sum(len(h) for h in hyps) * sum(len(r) for r in refs))
    add("matched", len(result))


def _count_spatial_filter(a, result, add):
    if hasattr(a["m_c"], "__len__"):
        add("in", len(a["m_c"]))
        add("kept", len(result))


def _count_losses(a, report, add):
    add("terms", sum(report.counts.values()))


def _count_det_prf(a, result, add):
    add("iou_tests", len(a["results"]) * len(a["gts"]))


def _count_load_maps(a, result, add):
    add("bytes", os.path.getsize(a["path"]))


def _count_gen_paths(a, result, add):
    add("steps", len(result))


def _store_size(a) -> int:
    return a["store"].n_labels()


def _count_update(a, result, add, before):
    new = a["store"].n_labels() - before
    add("new", new)
    if hasattr(a["m_c"], "__len__"):
        add("blended", len(a["m_c"]) - new)


# Counters that need only the output skip argument binding; follow runs
# once per decoded character.
OUTPUT_COUNTERS: dict[str, Callable] = {
    "decoder.follow": _count_follow,
    "decoder.resolve_edges": lambda a, r, add: add("edges", len(r)),
    "decoder.assemble": lambda a, r, add: (add("lines", len(r.lines)), add("dropped", len(r.dropped))),
    "pseudolabels.gen_paths": _count_gen_paths,
    "losses.compute_losses": _count_losses,
}
INPUT_COUNTERS: dict[str, Callable] = {
    "geometry.nms": _count_nms,
    "matching.match_lines": _count_match_lines,
    "matching.spatial_filter": _count_spatial_filter,
    "metrics.det_prf": _count_det_prf,
    "predictions.load_maps": _count_load_maps,
}
# Counters that diff state around the call: name -> (before, counter).
AROUND_COUNTERS: dict[str, tuple[Callable, Callable]] = {
    "pseudolabels.update": (_store_size, _count_update),
}


class Tracer:
    """Records spans and counters while active; restores the package on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        import gridtext  # noqa: F401  (loads every module the package exports)

        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "gridtext"]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"gridtext.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        out_counter = OUTPUT_COUNTERS.get(name)
        in_counter = INPUT_COUNTERS.get(name)
        around = AROUND_COUNTERS.get(name)
        signature = inspect.signature(fn)

        def add(key: str, value: int) -> None:
            counts[f"{name}.{key}"] += value

        def wrapper(*args, **kwargs):
            if around is not None:
                bound = signature.bind(*args, **kwargs).arguments
                before = around[0](bound)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0, 0, parent))
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if out_counter is not None:
                out_counter(None, result, add)
            elif in_counter is not None:
                in_counter(signature.bind(*args, **kwargs).arguments, result, add)
            elif around is not None:
                around[1](bound, result, add, before)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper


def self_times(spans: list[tuple[str, int, int, int]]) -> dict[str, dict[str, float]]:
    """Per name: calls and self time in ms; match_lines under ar_star also apart."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
    for k, (name, start, end, parent) in enumerate(spans):
        self_ms = (end - start - child_ns[k]) / 1e6
        keys = [name]
        if name == MATCH_LINES and parent >= 0 and spans[parent][0] == AR_STAR:
            keys.append(IN_AR_STAR)
        for key in keys:
            out[key]["calls"] += 1
            out[key]["self_ms"] += self_ms
    return dict(out)


def top_level_ms(spans: list[tuple[str, int, int, int]]) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0) / 1e6
