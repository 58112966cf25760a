"""Semantic and spatial matching of decoded lines against transcripts.

Line matching scores every (result line, transcript line) pair by its
Levenshtein distance alone, one packed bit-parallel pass per result line,
and pairs them greedily in descending accurate-rate order; only the pairs
it matches are aligned, by a minimum edit script backtraced from the
columns of that same pass, and it hands back those scripts.  Character
matching reads them into per-character states (equal / substituted /
inserted), from which the reliable "consecutive equal" positions are read
off, and AR*/CR* count their errors off the same scripts, so no pair is
aligned twice and no unmatched pair is aligned at all.  Spatial matching
then vetoes character pairs whose predicted box disagrees with the stored
pseudo-label.

Distances and scripts read Levenshtein tables whose columns ``_columns``
computes by Myers' bit vectors, over ``_table``'s one bit segment per
transcript line.  A matched pair's script backtraces its transcript line's
segment of the packed columns, shifted down to bit 0: no carry crosses
segments, so a segment is exactly the column of that line alone, and the
script is the one :func:`edit_script` builds from a pass of its own.
Minimum edit scripts are not unique; the canonical backtrace scans from
the end of the table and prefers equal > substitution > deletion >
insertion on cost ties, which makes every downstream set deterministic;
the bit vectors leave that rule unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .geometry import Box, GridShape, ious
from .jsoncheck import BOX, by_page_id, check, expect, read_jsonl

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
        # Named as keys of the annotation row, as the row readers name them.
        for q, line in enumerate(self.lines):
            if not line:
                raise ValueError(f"row.lines[{q}]: must be non-empty")
        if self.boxes is None:
            return
        if len(self.boxes) != len(self.lines):
            raise ValueError(f"row.boxes: expected {len(self.lines)} lines, got {len(self.boxes)}")
        for q, (boxes, line) in enumerate(zip(self.boxes, self.lines)):
            if len(boxes) != len(line):
                raise ValueError(f"row.boxes[{q}]: expected {len(line)} boxes, got {len(boxes)}")

    def n_chars(self) -> int:
        return sum(len(line) for line in self.lines)


@dataclass
class ErrorCounts:
    """Insertions, deletions and substitutions against ``n_total`` reference
    characters."""

    n_ie: int = 0
    n_de: int = 0
    n_se: int = 0
    n_total: int = 0

    def add(self, other: "ErrorCounts") -> None:
        self.n_ie += other.n_ie
        self.n_de += other.n_de
        self.n_se += other.n_se
        self.n_total += other.n_total

    def rates(self) -> tuple[float, float]:
        """(AR, CR): (N - Ie - De - Se) / N and (N - De - Se) / N.

        AR may be negative; neither is ever above 1.
        """
        n = self.n_total
        if n == 0:
            raise ValueError("accurate and correct rates need a non-empty reference")
        return (n - self.n_ie - self.n_de - self.n_se) / n, (n - self.n_de - self.n_se) / n


def _backtrace(
    hyp: Sequence[int], ref: Sequence[int], cols: Sequence[tuple[int, int]]
) -> tuple[list[str], int, int]:
    """The canonical minimum edit script from ``ref`` to ``hyp``, its ops
    last first, with its cost and its number of substitutions.

    ``cols`` are the :func:`_columns` of ``hyp`` against ``ref`` alone, its
    bits from bit 0 up.  Backtraces them (Hyyrö 2004) by the canonical tie
    rule, where c = D[a][b]: E when the elements are equal and
    D[a-1][b-1] = c, S when they differ and D[a-1][b-1] = c - 1, else D
    when bit b - 1 of ``pv_a`` is set (D[a][b-1] = c - 1), else I.
    """
    m, n = len(hyp), len(ref)
    pv, mv = cols[m]
    cost = c = m + pv.bit_count() - mv.bit_count()
    n_se = 0
    ops: list[str] = []
    a, b = m, n
    while a > 0 or b > 0:
        if a > 0 and b > 0:
            pv, mv = cols[a - 1]
            low = (1 << (b - 1)) - 1
            diag = a - 1 + (pv & low).bit_count() - (mv & low).bit_count()
            unequal = hyp[a - 1] != ref[b - 1]
            if diag + unequal == c:
                ops.append("S" if unequal else "E")
                n_se += unequal
                a -= 1
                b -= 1
                c = diag
                continue
        if b > 0 and cols[a][0] >> (b - 1) & 1:
            ops.append("D")
            b -= 1
        else:
            ops.append("I")
            a -= 1
        c -= 1
    return ops, cost, n_se


def edit_script(hyp: Sequence[int], ref: Sequence[int]) -> list[str]:
    """Canonical minimum edit script from ``ref`` to ``hyp``.

    Ops are "E" (equal), "S" (substitution), "I" (insertion: a hyp element
    absent from ref), "D" (deletion: a ref element absent from hyp), in
    forward order, as :func:`_backtrace` finds them.
    """
    ops = _backtrace(hyp, ref, _columns(hyp, _table([ref])))[0]
    ops.reverse()
    return ops


def script_counts(ops: Sequence[str]) -> ErrorCounts:
    """Error counts of an edit script; its reference length is the total."""
    n_ie = ops.count("I")
    return ErrorCounts(n_ie, ops.count("D"), ops.count("S"), len(ops) - n_ie)


def edit_counts(hyp: Sequence[int], ref: Sequence[int]) -> tuple[int, int, int]:
    """(insertions, deletions, substitutions) of the canonical script.

    :func:`_backtrace` counts the substitutions S; the script's cost is
    I + D + S, and as every op but D consumes a hyp element and every op
    but I a ref element, I - D = len(hyp) - len(ref).
    """
    _, cost, n_se = _backtrace(hyp, ref, _columns(hyp, _table([ref])))
    n_ie = (cost - n_se + len(hyp) - len(ref)) // 2
    return n_ie, cost - n_se - n_ie, n_se


_Table = tuple[dict[int, int], int, int, int, list[int]]


def _table(refs: Sequence[Sequence[int]]) -> _Table:
    """(peq, mask, low, high, segs): the position table of ``refs`` packed
    end to end, one bit segment per line.  Bit k of ``peq[c]`` is set when
    the position at bit k holds class c; ``mask`` has every segment's bits,
    ``low`` / ``high`` each segment's lowest / highest bit and ``segs[q]``
    line q's bits, none for an empty line."""
    peq: dict[int, int] = {}
    bit = 1
    low = high = 0
    segs: list[int] = []
    for ref in refs:
        first = bit
        for c in ref:
            peq[c] = peq.get(c, 0) | bit
            bit <<= 1
        segs.append(bit - first)
        if ref:
            low |= first
            high |= bit >> 1
    return peq, bit - 1, low, high, segs


def _columns(hyp: Sequence[int], table: _Table) -> list[tuple[int, int]]:
    """Every column (pv, mv) of the Levenshtein tables of ``hyp`` against
    each reference line of ``table`` at once.

    Myers' bit vectors (JACM 1999) in Hyyrö's global form (2001), packed
    one segment per line (Hyyrö, Fredriksson & Navarro 2005): within the
    segment of a line of table D, bit b - 1 of ``pv`` / ``mv`` is set when
    D[b][a] - D[b - 1][a] is +1 / -1, so with s_b the segment's lowest b
    bits, D[b][a] = a + popcount(pv_a & s_b) - popcount(mv_a & s_b).
    Column 0 is (mask, 0), as D[b][0] = b; the top row D[0][a] = a rises by
    one per column, hence the fresh 1 at each segment's low bit of the
    shifted horizontal delta ``ph``, where ``mh`` takes a 0.  The add sums
    each segment's high bit by xor, so no carry crosses segments.
    """
    peq, mask, low, high, _ = table
    keep = mask & ~high
    pv, mv = mask, 0
    cols = [(pv, mv)]
    for c in hyp:
        eq = peq.get(c, 0)
        xv = eq | mv
        x = eq & pv
        xh = ((((x & keep) + (pv & keep)) ^ ((x ^ pv) & high)) ^ pv) | eq
        ph = mv | (mask & ~(xh | pv))
        mh = pv & xh
        ph = ((ph & keep) << 1) | low
        pv = (mh & keep) << 1 | (mask & ~(xv | ph))
        mv = ph & xv
        cols.append((pv, mv))
    return cols


def match_lines(
    results: Sequence[Sequence[int]],
    annots: Sequence[Sequence[int]],
    th_ar: float,
) -> dict[tuple[int, int], list[str]]:
    """Greedy one-to-one line matching in descending AR order.

    Maps each matched 1-based (p, q) pair to the canonical edit script of
    result line p against transcript line q.  Pairs with AR below
    ``th_ar`` are skipped, and AR ties break by (p, q) lexicographic order.

    Every pair is scored by its Levenshtein distance d alone, as
    (n - d) / n with n the transcript line's length.  One :func:`_columns`
    pass per result line gives all of its distances: d = len(result) +
    popcount(pv & seg) - popcount(mv & seg) in the last column, seg the
    transcript line's segment.  Only the pairs the greedy loop matches get
    their edit script, backtraced from result line p's kept columns, each
    cut down to line q's segment as ((pv & seg) >> off, (mv & seg) >> off)
    with ``off`` the segment's lowest bit.  Each segment evolves as the
    table of its line alone (see :func:`_columns`), so the script is
    :func:`edit_script`'s, without a second pass.  The AR of a pair is
    bit-identical to the one its script gives: the canonical script is a
    minimum script, so its I + D + S is d, the numerator is the same
    integer over the same n, and the float, the sort and the tie order are
    those of scoring by script.
    A transcript line that is empty has no AR, so it is a ValueError as
    soon as a result line is scored against it.
    """
    if results and not all(annots):
        raise ValueError("an empty transcript line has no accurate rate")
    table = _table(annots)
    segs = table[-1]
    columns = []
    scored = []
    for p, res in enumerate(results, start=1):
        cols = _columns(res, table)
        columns.append(cols)
        pv, mv = cols[-1]
        for q, (ref, seg) in enumerate(zip(annots, segs), start=1):
            d = len(res) + (pv & seg).bit_count() - (mv & seg).bit_count()
            scored.append(((len(ref) - d) / len(ref), p, q))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    matched: dict[tuple[int, int], list[str]] = {}
    used_p: set[int] = set()
    used_q: set[int] = set()
    for score, p, q in scored:
        if score < th_ar:
            break
        if p in used_p or q in used_q:
            continue
        ref, seg = annots[q - 1], segs[q - 1]
        off = seg.bit_length() - len(ref)
        cols = [((pv & seg) >> off, (mv & seg) >> off) for pv, mv in columns[p - 1]]
        matched[p, q] = _backtrace(results[p - 1], ref, cols)[0][::-1]
        used_p.add(p)
        used_q.add(q)
    return matched


def match_chars(
    m_l: Mapping[tuple[int, int], Sequence[str]],
) -> tuple[set[tuple[int, int, int, int]], set[tuple[int, int]]]:
    """Character matching over the scripts of matched line pairs.

    Every "E" position yields a (p, m, q, n) character match; a result
    position m joins the consecutive-equal set when it is an "E" position
    and so is m + 1 (or m is the last result position).  Deletions consume
    no result position.
    """
    m_c: set[tuple[int, int, int, int]] = set()
    m_ce: set[tuple[int, int]] = set()
    for (p, q), ops in sorted(m_l.items()):
        equal: set[int] = set()
        m = n = 0
        for op in ops:
            m += op != "D"
            n += op != "I"
            if op == "E":
                m_c.add((p, m, q, n))
                equal.add(m)
        m_ce.update((p, k) for k in equal if k == m or k + 1 in equal)
    return m_c, m_ce


def spatial_filter(
    m_c: Iterable[tuple[int, int, int, int]],
    result: "PageResult",
    pseudo: Mapping[tuple[int, int], "PseudoLabel"],
    shape: GridShape,
    th_iou: float,
) -> set[tuple[int, int, int, int]]:
    """Drop character pairs whose box disagrees with an existing pseudo-label.

    Pairs without a stored pseudo-label pass through; a pair is removed only
    when IoU(predicted box, pseudo-label box) falls below ``th_iou``.  The
    labelled pairs are scored with one :func:`ious` call.
    """
    pairs = set(m_c)
    labelled = [pair for pair in pairs if pair[2:] in pseudo]
    scores = ious([result.lines[p - 1].chars[m - 1].box for p, m, _, _ in labelled],
                  [pseudo[pair[2:]].box for pair in labelled], shape)
    return pairs - {pair for pair, v in zip(labelled, scores) if v < th_iou}


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
        check(doc["boxes"], [[BOX]], "row.boxes")
        boxes = [[Box(*vals) for vals in line] for line in doc["boxes"]]
    return PageAnnotation(
        lines=doc["lines"],
        boxes=boxes,
        page_id=expect(doc.get("page_id", ""), str, "row.page_id"),
    )


def save_annotations(annots: Iterable[PageAnnotation], path: str | Path) -> None:
    with open(path, "w") as fh:
        for annot in annots:
            fh.write(json.dumps(annotation_to_dict(annot)) + "\n")


def load_annotations(path: str | Path) -> dict[str, PageAnnotation]:
    return by_page_id(path, read_jsonl(path, _annotation_from_row), lambda a: a.page_id)
