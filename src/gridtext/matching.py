"""Semantic and spatial matching of decoded lines against transcripts.

Line matching pairs recognition results with annotated transcripts greedily
in descending accurate-rate order.  Character matching backtraces a minimum
edit script per pair into per-character states (equal / substituted /
inserted), from which the reliable "consecutive equal" positions are read
off.  Spatial matching then vetoes character pairs whose predicted box
disagrees with the stored pseudo-label.

Minimum edit scripts are not unique; the canonical backtrace scans from the
end of the DP table and prefers equal > substitution > deletion > insertion
on cost ties, which makes every downstream set deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .geometry import Box, GridShape, iou
from .jsoncheck import check, read_jsonl

if TYPE_CHECKING:
    from .decoder import PageResult
    from .pseudolabels import PseudoLabel


@dataclass
class PageAnnotation:
    """Line-level transcripts for one page; boxes are ground truth used only
    by the generator and evaluation, never by matching."""

    lines: list[list[int]]
    boxes: list[list[Box]] | None = None
    page_id: str = ""

    def __post_init__(self) -> None:
        if any(len(line) == 0 for line in self.lines):
            raise ValueError("annotation lines must be non-empty")
        if self.boxes is not None:
            if [len(b) for b in self.boxes] != [len(t) for t in self.lines]:
                raise ValueError("boxes must parallel transcripts")

    def n_chars(self) -> int:
        return sum(len(line) for line in self.lines)


@dataclass
class MatchSet:
    """Matching products: line pairs, character pairs, consecutive equals."""

    m_l: set[tuple[int, int]] = field(default_factory=set)
    m_c: set[tuple[int, int, int, int]] = field(default_factory=set)
    m_ce: set[tuple[int, int]] = field(default_factory=set)


def edit_script(hyp: Sequence[int], ref: Sequence[int]) -> list[str]:
    """Canonical minimum edit script from ``ref`` to ``hyp``.

    Ops are "E" (equal), "S" (substitution), "I" (insertion: a hyp element
    absent from ref), "D" (deletion: a ref element absent from hyp), in
    forward order.
    """
    m, n = len(hyp), len(ref)
    cost = [[0] * (n + 1) for _ in range(m + 1)]
    for a in range(1, m + 1):
        cost[a][0] = a
    for b in range(1, n + 1):
        cost[0][b] = b
    for a in range(1, m + 1):
        row = cost[a]
        prev = cost[a - 1]
        ha = hyp[a - 1]
        for b in range(1, n + 1):
            if ha == ref[b - 1]:
                row[b] = prev[b - 1]
            else:
                row[b] = 1 + min(prev[b - 1], row[b - 1], prev[b])
    ops: list[str] = []
    a, b = m, n
    while a > 0 or b > 0:
        c = cost[a][b]
        if a > 0 and b > 0 and hyp[a - 1] == ref[b - 1] and cost[a - 1][b - 1] == c:
            ops.append("E")
            a -= 1
            b -= 1
        elif a > 0 and b > 0 and hyp[a - 1] != ref[b - 1] and cost[a - 1][b - 1] + 1 == c:
            ops.append("S")
            a -= 1
            b -= 1
        elif b > 0 and cost[a][b - 1] + 1 == c:
            ops.append("D")
            b -= 1
        else:
            ops.append("I")
            a -= 1
    ops.reverse()
    return ops


def edit_counts(hyp: Sequence[int], ref: Sequence[int]) -> tuple[int, int, int]:
    """(insertions, deletions, substitutions) of the canonical script."""
    ops = edit_script(hyp, ref)
    return ops.count("I"), ops.count("D"), ops.count("S")


def ar(hyp: Sequence[int], ref: Sequence[int]) -> float:
    """Accurate rate (N - Ie - De - Se) / N; may be negative, never > 1."""
    if len(ref) == 0:
        raise ValueError("accurate rate needs a non-empty reference")
    ie, de, se = edit_counts(hyp, ref)
    return (len(ref) - ie - de - se) / len(ref)


def cr(hyp: Sequence[int], ref: Sequence[int]) -> float:
    """Correct rate (N - De - Se) / N under the canonical script."""
    if len(ref) == 0:
        raise ValueError("correct rate needs a non-empty reference")
    _, de, se = edit_counts(hyp, ref)
    return (len(ref) - de - se) / len(ref)


def match_lines(
    results: Sequence[Sequence[int]],
    annots: PageAnnotation | Sequence[Sequence[int]],
    th_ar: float = 0.3,
) -> set[tuple[int, int]]:
    """Greedy one-to-one line matching in descending AR order.

    Returns 1-based (p, q) pairs; pairs with AR below ``th_ar`` are skipped,
    and AR ties break by (p, q) lexicographic order.
    """
    ref_lines = annots.lines if isinstance(annots, PageAnnotation) else list(annots)
    scored = []
    for p, res in enumerate(results, start=1):
        for q, ref in enumerate(ref_lines, start=1):
            scored.append((ar(res, ref), p, q))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    matched: set[tuple[int, int]] = set()
    used_p: set[int] = set()
    used_q: set[int] = set()
    for score, p, q in scored:
        if score < th_ar:
            break
        if p in used_p or q in used_q:
            continue
        matched.add((p, q))
        used_p.add(p)
        used_q.add(q)
    return matched


def match_chars(
    m_l: Iterable[tuple[int, int]],
    results: Sequence[Sequence[int]],
    annots: PageAnnotation | Sequence[Sequence[int]],
) -> tuple[set[tuple[int, int, int, int]], set[tuple[int, int]]]:
    """Character matching over matched line pairs.

    Every "E" position yields a (p, m, q, n) character match; a result
    position m joins the consecutive-equal set when it is an "E" position
    and so is m + 1 (or m is the last result position).  Deletions consume
    no result position.
    """
    ref_lines = annots.lines if isinstance(annots, PageAnnotation) else list(annots)
    m_c: set[tuple[int, int, int, int]] = set()
    m_ce: set[tuple[int, int]] = set()
    for p, q in sorted(m_l):
        hyp = results[p - 1]
        equal: set[int] = set()
        m = n = 0
        for op in edit_script(hyp, ref_lines[q - 1]):
            m += op != "D"
            n += op != "I"
            if op == "E":
                m_c.add((p, m, q, n))
                equal.add(m)
        m_ce.update((p, m) for m in equal if m == len(hyp) or m + 1 in equal)
    return m_c, m_ce


def spatial_filter(
    m_c: Iterable[tuple[int, int, int, int]],
    result: "PageResult",
    pseudo: Mapping[tuple[int, int], "PseudoLabel"],
    shape: GridShape,
    th_iou: float = 0.5,
) -> set[tuple[int, int, int, int]]:
    """Drop character pairs whose box disagrees with an existing pseudo-label.

    Pairs without a stored pseudo-label pass through; a pair is removed only
    when IoU(predicted box, pseudo-label box) falls below ``th_iou``.
    """
    kept: set[tuple[int, int, int, int]] = set()
    for p, m, q, n in m_c:
        label = pseudo.get((q, n))
        if label is None:
            kept.add((p, m, q, n))
            continue
        box = result.lines[p - 1].chars[m - 1].box
        if iou(box, label.box, shape) >= th_iou:
            kept.add((p, m, q, n))
    return kept


# ---------------------------------------------------------------------------
# Annotation files: JSON lines, one page per line.
# ---------------------------------------------------------------------------


def annotation_to_dict(annot: PageAnnotation) -> dict:
    doc: dict = {"page_id": annot.page_id, "lines": annot.lines}
    if annot.boxes is not None:
        doc["boxes"] = [[[b.x, b.y, b.w, b.h] for b in line] for line in annot.boxes]
    return doc


def _annotation_from_row(doc: object) -> PageAnnotation:
    check(doc, {"lines": [[int]]})
    boxes = None
    if doc.get("boxes") is not None:
        check(doc["boxes"], [[(float, float, float, float)]], "row.boxes")
        boxes = [[Box(*vals) for vals in line] for line in doc["boxes"]]
    return PageAnnotation(
        lines=doc["lines"],
        boxes=boxes,
        page_id=str(doc.get("page_id", "")),
    )


def save_annotations(annots: Iterable[PageAnnotation], path: str | Path) -> None:
    with open(path, "w") as fh:
        for annot in annots:
            fh.write(json.dumps(annotation_to_dict(annot)) + "\n")


def load_annotations(path: str | Path) -> dict[str, PageAnnotation]:
    return {a.page_id: a for a in read_jsonl(path, _annotation_from_row)}
