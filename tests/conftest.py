"""Shared fixtures and independent reference oracles for the test suite.

The oracles here deliberately re-derive results through different algorithms
than the package (recursive memoized alignment, CTC forward enumeration,
naive double-loop losses) so the tests check implementations against
independent computations, not against themselves.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from gridtext.geometry import Box, GridShape
from gridtext.predictions import DIR_DELTAS, EPS, Direction, PredictionMaps, _blank_maps
from gridtext.pseudolabels import LossTargets


@pytest.fixture
def shape44() -> GridShape:
    return GridShape(4, 4, 64, 64)


def blank_maps(shape: GridShape, n_cls: int) -> PredictionMaps:
    return _blank_maps(shape, n_cls)


def put_char(
    maps: PredictionMaps,
    i: int,
    j: int,
    cls_id: int,
    dis: float = 1.0 - EPS,
    box: Box | None = None,
    sol: float | None = None,
    eol: float | None = None,
) -> None:
    """Write one character into hand-built maps at grid (i, j)."""
    shape = maps.shape
    if box is None:
        box = Box(
            (i - 0.5) * shape.cell_w,
            (j - 0.5) * shape.cell_h,
            0.8 * shape.cell_w / shape.img_w,
            0.8 * shape.cell_h / shape.img_h,
        )
    maps.dis[i - 1, j - 1] = dis
    row = np.zeros(maps.n_cls, dtype=np.float32)
    row[cls_id - 1] = 1.0
    maps.cls[i - 1, j - 1] = row
    maps.box[i - 1, j - 1] = (
        box.x / shape.img_w * shape.w_g - (i - 1),
        box.y / shape.img_h * shape.h_g - (j - 1),
        box.w,
        box.h,
    )
    if sol is not None:
        maps.sol[i - 1, j - 1] = sol
    if eol is not None:
        maps.eol[i - 1, j - 1] = eol


def set_rd(maps: PredictionMaps, i: int, j: int, d: int) -> None:
    row = np.full(4, EPS, dtype=np.float32)
    row[d] = 1.0 - 3 * EPS
    maps.rd[i - 1, j - 1] = row


# ---------------------------------------------------------------------------
# Staircase oracle: the per-step loop, one delta, one Direction and one grid
# tuple per step.
# ---------------------------------------------------------------------------

_DELTA_TO_DIR = {d: Direction(k) for k, d in enumerate(DIR_DELTAS)}


class RecordingGenerator(np.random.Generator):
    """A PCG64 ``Generator`` that keeps, in call order, what each of its
    ``random``, ``uniform`` and ``integers`` calls returned, as
    ``(name, array)`` pairs."""

    def __init__(self, seed: int) -> None:
        super().__init__(np.random.PCG64(seed))
        self.calls: list[tuple[str, np.ndarray]] = []

    def _record(self, name: str, out):
        self.calls.append((name, np.asarray(out)))
        return out

    def random(self, *args, **kwargs):
        return self._record("random", super().random(*args, **kwargs))

    def uniform(self, *args, **kwargs):
        return self._record("uniform", super().uniform(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._record("integers", super().integers(*args, **kwargs))


def staircase(src, dst, vertical_slots=None) -> list[tuple[int, int, int]]:
    """Monotone grid path from ``src`` to ``dst`` as (i, j, d) int steps.

    The path takes |di| horizontal and |dj| vertical unit moves; the vertical
    moves occupy ``vertical_slots`` (0-based positions among the total
    |di|+|dj| steps), and ``None`` puts every horizontal move first.  Each
    step is the grid a move leaves from and the move's direction index d;
    the final move lands on ``dst``.  A slot count other than |dj| is a
    ``ValueError``.
    """
    di = dst[0] - src[0]
    dj = dst[1] - src[1]
    total = abs(di) + abs(dj)
    if vertical_slots is None:
        vertical_slots = range(abs(di), total)
    slots = set(vertical_slots)
    if len(slots) != abs(dj):
        raise ValueError(f"need {abs(dj)} vertical slots, got {len(slots)}")
    sx = (di > 0) - (di < 0)
    sy = (dj > 0) - (dj < 0)
    out = []
    cur = src
    for k in range(total):
        move = (0, sy) if k in slots else (sx, 0)
        out.append((*cur, int(_DELTA_TO_DIR[move])))
        cur = (cur[0] + move[0], cur[1] + move[1])
    assert cur == dst
    return out


# ---------------------------------------------------------------------------
# IoU oracle, written out from the boxes' centres and extents; and the NMS
# oracle, the textbook greedy loop over (Box, score) candidates, each
# candidate tested against every kept box.
# ---------------------------------------------------------------------------


def _corners_reference(box, shape):
    """Pixel-space (x1, y1, x2, y2) of a box's centre and extents."""
    hw, hh = 0.5 * box.w * shape.img_w, 0.5 * box.h * shape.img_h
    return box.x - hw, box.y - hh, box.x + hw, box.y + hh


def _corner_iou_reference(a, b):
    """IoU written out from two boxes' corners."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0.0 else 0.0


def _iou_reference(a, b, shape):
    """IoU written out from the boxes' centres and extents."""
    return _corner_iou_reference(_corners_reference(a, shape), _corners_reference(b, shape))


def _nms_reference(candidates, iou_threshold, shape):
    """All-pairs greedy NMS: each candidate against every kept box."""
    corners = [_corners_reference(c[0], shape) for c in candidates]
    order = sorted(range(len(candidates)), key=lambda k: -candidates[k][1])
    kept = []
    for k in order:
        for m in kept:
            if _corner_iou_reference(corners[k], corners[m]) > iou_threshold:
                break
        else:
            kept.append(k)
    return sorted(kept)


# ---------------------------------------------------------------------------
# Edit-distance oracle: recursive, memoized over (hyp, ref) suffix pairs.
# Preference on cost ties is equal > substitution > deletion > insertion,
# applied from the end of both sequences, mirroring the canonical contract.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _align(hyp: tuple, ref: tuple) -> tuple[int, tuple[int, int, int]]:
    if not hyp and not ref:
        return 0, (0, 0, 0)
    best_cost = None
    best = None
    if hyp and ref and hyp[-1] == ref[-1]:
        cost, (ie, de, se) = _align(hyp[:-1], ref[:-1])
        best_cost, best = cost, (ie, de, se)
    if hyp and ref and hyp[-1] != ref[-1]:
        cost, (ie, de, se) = _align(hyp[:-1], ref[:-1])
        cost += 1
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, (ie, de, se + 1)
    if ref:
        cost, (ie, de, se) = _align(hyp, ref[:-1])
        cost += 1
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, (ie, de + 1, se)
    if hyp:
        cost, (ie, de, se) = _align(hyp[:-1], ref)
        cost += 1
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, (ie + 1, de, se)
    return best_cost, best


def edit_oracle(hyp, ref) -> tuple[int, int, int]:
    """(Ie, De, Se) by exhaustive recursion with the canonical tie rule."""
    _, counts = _align(tuple(hyp), tuple(ref))
    return counts


def plain_distance(hyp, ref) -> int:
    """Textbook two-row Levenshtein distance, no backtrace."""
    prev = list(range(len(ref) + 1))
    for a, h in enumerate(hyp, start=1):
        cur = [a] + [0] * len(ref)
        for b, r in enumerate(ref, start=1):
            cur[b] = min(
                prev[b] + 1,
                cur[b - 1] + 1,
                prev[b - 1] + (0 if h == r else 1),
            )
        prev = cur
    return prev[-1]


# ---------------------------------------------------------------------------
# CTC scoring oracle: forward algorithm over an explicit labeling, used to
# enumerate best labelings exhaustively on small fixtures.
# ---------------------------------------------------------------------------


def ctc_forward(labels, frames) -> float:
    """Sum-over-alignments probability of ``labels`` given per-frame
    (blank_prob, class_probs) scores."""
    ext = [0]
    for c in labels:
        ext.extend([c, 0])
    s = len(ext)
    alpha = [0.0] * s
    blank0, probs0 = frames[0]
    alpha[0] = blank0
    if s > 1:
        alpha[1] = float(probs0[ext[1] - 1])
    for blank_p, probs in frames[1:]:
        nxt = [0.0] * s
        for k in range(s):
            total = alpha[k]
            if k >= 1:
                total += alpha[k - 1]
            if k >= 2 and ext[k] != 0 and ext[k] != ext[k - 2]:
                total += alpha[k - 2]
            nxt[k] = total * (blank_p if ext[k] == 0 else float(probs[ext[k] - 1]))
        alpha = nxt
    return alpha[-1] + (alpha[-2] if s > 1 else 0.0)


def lm_product(labels, lm) -> float:
    p = 1.0
    for k, c in enumerate(labels):
        p *= lm.prob(c, tuple(labels[:k]))
    return p


def exhaustive_best_labeling(frames, lm, alphabet, max_len):
    """Argmax of ctc_forward * lm_product over all labelings up to max_len.

    Ties resolve to the lexicographically smallest labeling, matching the
    beam search's deterministic tie rule.
    """
    best = ()
    best_score = ctc_forward((), frames)

    def rec(prefix):
        nonlocal best, best_score
        if len(prefix) >= max_len:
            return
        for c in alphabet:
            cand = prefix + (c,)
            score = ctc_forward(cand, frames) * lm_product(cand, lm)
            if score > best_score or (score == best_score and cand < best):
                best, best_score = cand, score
            rec(cand)

    rec(())
    return list(best)


# ---------------------------------------------------------------------------
# Naive loss reference: raw formulas with explicit loops, no shared helpers.
# ---------------------------------------------------------------------------


def loss_targets(**sets) -> LossTargets:
    """``LossTargets`` from sets (or any iterables) of int tuples: each
    field's distinct rows in sorted order, as ``build_targets`` makes them."""
    widths = {"s_c": 4, "s_rd": 3}
    return LossTargets(**{
        name: np.array(sorted(set(rows)), dtype=np.intp).reshape(-1, widths.get(name, 2))
        for name, rows in sets.items()
    })


def row_set(rows: np.ndarray) -> set[tuple[int, ...]]:
    """The rows of a target array as a set of int tuples."""
    return set(map(tuple, rows.tolist()))


def naive_losses(maps, targets, labels, annot) -> dict[str, float]:
    def clamp(p):
        return min(max(p, 1e-7), 1 - 1e-7)

    out = {}
    s_c = [tuple(row) for row in targets.s_c.tolist()]
    d_neg, s_rd = row_set(targets.s_d_neg), row_set(targets.s_rd)
    pos = -sum(math.log(clamp(float(maps.dis[i - 1, j - 1]))) for i, j, _, _ in s_c)
    neg = -sum(
        math.log(clamp(1 - float(maps.dis[i - 1, j - 1]))) for i, j in d_neg
    )
    out["dis"] = (pos / (2 * len(s_c)) if s_c else 0.0) + (
        neg / (2 * len(d_neg)) if d_neg else 0.0
    )

    box = 0.0
    for i, j, q, n in s_c:
        lab, s = labels[(q, n)].box, maps.shape
        want = [lab.x / s.img_w * s.w_g - (i - 1), lab.y / s.img_h * s.h_g - (j - 1), lab.w, lab.h]
        got = [float(v) for v in maps.box[i - 1, j - 1]]
        ws = [1.0, 1.0, 0.1, 0.1]
        box += sum(w * (a - b) ** 2 for w, a, b in zip(ws, got, want))
    out["box"] = box / len(s_c) if s_c else 0.0

    cls = -sum(
        math.log(clamp(float(maps.cls[i - 1, j - 1, annot.lines[q - 1][n - 1] - 1])))
        for i, j, q, n in s_c
    )
    out["cls"] = cls / len(s_c) if s_c else 0.0

    for name, grid_map, pos_set, neg_set in (
        ("sol", maps.sol, row_set(targets.s_s_pos), row_set(targets.s_s_neg)),
        ("eol", maps.eol, row_set(targets.s_e_pos), row_set(targets.s_e_neg)),
    ):
        p = -sum(math.log(clamp(float(grid_map[i - 1, j - 1]))) for i, j in pos_set)
        n = -sum(math.log(clamp(1 - float(grid_map[i - 1, j - 1]))) for i, j in neg_set)
        out[name] = (p / (2 * len(pos_set)) if pos_set else 0.0) + (
            n / (2 * len(neg_set)) if neg_set else 0.0
        )

    rd = -sum(
        math.log(clamp(float(maps.rd[i - 1, j - 1, d]))) for i, j, d in s_rd
    )
    out["rd"] = rd / len(s_rd) if s_rd else 0.0
    out["total"] = sum(out[k] for k in ("dis", "box", "cls", "sol", "eol", "rd"))
    return out


# ---------------------------------------------------------------------------
# Tiny page helper for tests that need real pages without the synth defaults.
# ---------------------------------------------------------------------------


def small_page_config(**overrides):
    from gridtext.synth import PageConfig

    params = dict(n_lines=3, chars_per_line=(6, 6), n_cls=20, w_g=24, h_g=24, cell_px=16)
    params.update(overrides)
    return PageConfig(**params)


def gt_label_map(page):
    """Ground-truth pseudo-label view for one page (gamma = 1)."""
    from gridtext.pseudolabels import PseudoLabel

    out = {}
    for q, line in enumerate(page.annotation.boxes, start=1):
        for n, box in enumerate(line, start=1):
            out[(q, n)] = PseudoLabel(box=box, gamma=1.0)
    return out
