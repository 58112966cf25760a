"""Graph-based decoding: grids to characters to reading-order lines.

Decoding runs in three steps.  Node extraction thresholds the presence map
and removes duplicate detections with NMS.  Edge resolution walks the
per-grid direction field from every node except an end-of-line node until
another node is reached (or the walk exits the lattice, revisits a grid, or
hits the step cap), then enforces the at-most-one-edge-in/one-edge-out
property.  An end-of-line node ends its line, so no walk and no edge leaves
it.  Assembly emits each maximal chain that begins at a start-of-line node.

The maps are read in bulk, never one numpy scalar at a time: a decode takes
the argmax direction of every grid once, as a nested-list table that the
walks index, and node extraction gathers each map at all its hits at once.
Node extraction scores the hits and suppresses duplicates on float64 arrays,
with the scalar expressions' operations in their order, and builds a
:class:`CharInstance` only for the candidates NMS keeps, from one list per
field.  ``np.argmax`` keeps the first maximum of a row, as a per-row argmax
does, and ``tolist`` turns each float32 value into the Python float that
``float()`` gives, so every box, score and walk keeps its bits.

A decode's records are slotted dataclasses.  :class:`CharInstance` and its
:class:`~gridtext.geometry.Box` are value records, one per kept node, that
nothing in ``gridtext`` mutates or hashes; :class:`SearchTrace`,
:class:`Line` and :class:`PageResult` hold them.

Every stage is a pure function of its inputs, so repeated decodes of the
same maps are bit-identical.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .geometry import Box, cells, ordered_sum, rel_to_abs
from .predictions import DIR_DELTAS, PredictionMaps, step

DIS_WEIGHT = 0.8
CLS_WEIGHT = 0.2

REACHED = "reached"
BOUNDARY = "boundary"
CYCLE = "cycle"
MAX_STEPS = "max_steps"
END_OF_LINE = "end_of_line"  # no walk ran: the node's end-of-line flag ends its line


class InvariantError(RuntimeError):
    """A decoded result violated a structural guarantee."""


@dataclass(frozen=True)
class DecodeConfig:
    dis_threshold: float = 0.5
    nms_iou: float = 0.3
    sol_eol_threshold: float = 0.9
    max_steps: int | None = None  # None: w_g + h_g

    def __post_init__(self) -> None:
        for name in ("dis_threshold", "nms_iou", "sol_eol_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # also rejects NaN
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be None or >= 1, got {self.max_steps}")


@dataclass(slots=True)
class CharInstance:
    """One decoded character: grid cell, box, fused score, and class.

    A slotted value record, like its :class:`Box`: nothing in ``gridtext``
    mutates or hashes one, and :func:`rescore_with_lm` changes a class
    through :func:`dataclasses.replace`.
    """

    grid: tuple[int, int]
    box: Box
    score: float
    cls_id: int
    cls_prob: float


@dataclass(slots=True)
class SearchTrace:
    """Grid walk from one node toward its successor.

    ``visited`` holds the grids the walk stood on, origin first; the reached
    node's grid is never included, so ``path`` (everything after the origin)
    is exactly the character-free corridor between two nodes.  An end-of-line
    node never walks: its trace has outcome END_OF_LINE and an empty path.
    """

    origin: tuple[int, int]
    visited: list[tuple[int, int]]
    outcome: str
    target: tuple[int, int] | None = None

    @property
    def path(self) -> list[tuple[int, int]]:
        return self.visited[1:]


@dataclass(slots=True)
class Line:
    chars: list[CharInstance]
    traces: list[SearchTrace]
    sol_conf: float
    eol_conf: float

    def class_ids(self) -> list[int]:
        return [c.cls_id for c in self.chars]


@dataclass(slots=True)
class PageResult:
    lines: list[Line]
    dropped: list[CharInstance] = field(default_factory=list)

    def transcripts(self) -> list[list[int]]:
        return [line.class_ids() for line in self.lines]

    def to_dict(self) -> dict:
        return {
            "lines": [
                {
                    "chars": [
                        {
                            "i": c.grid[0],
                            "j": c.grid[1],
                            "x": c.box.x,
                            "y": c.box.y,
                            "w": c.box.w,
                            "h": c.box.h,
                            "cls": c.cls_id,
                            "score": c.score,
                        }
                        for c in line.chars
                    ],
                    "sol_conf": line.sol_conf,
                    "eol_conf": line.eol_conf,
                }
                for line in self.lines
            ]
        }


def fused_score(dis: float, cls_prob: float) -> float:
    """Detection/recognition confidence fusion, weighted 0.8/0.2."""
    return DIS_WEIGHT * dis + CLS_WEIGHT * cls_prob


def extract_nodes(
    maps: PredictionMaps, config: DecodeConfig = DecodeConfig()
) -> list[CharInstance]:
    """Threshold the presence map into candidates, NMS, return row-major.

    Hits are taken in row-major (j, i) order, and each map is gathered at
    all of them at once: presence, the class argmax (first maximum on ties)
    with its probability, and the cell-relative box.  A box with a
    non-positive extent has both extents floored at 1e-6, and then every box
    is made absolute in one call.  :func:`fused_score` scores them all on
    float64 arrays, and NMS takes the boxes and scores as rows, so a
    :class:`CharInstance` is built only for a kept candidate, field by field
    from the kept rows' column lists.
    """
    from .geometry import nms

    jj, ii = np.argwhere(maps.dis.T >= config.dis_threshold).T
    at = (ii, jj)
    cls_rows = maps.cls[at]
    cls0 = np.argmax(cls_rows, axis=-1)
    probs = cls_rows[np.arange(len(cls0)), cls0].astype(np.float64)
    rel = maps.box[at].astype(np.float64)
    flat = (rel[:, 2] <= 0) | (rel[:, 3] <= 0)
    rel[flat, 2:] = np.maximum(rel[flat, 2:], 1e-6)
    scores = fused_score(maps.dis[at].astype(np.float64), probs)
    rows = np.column_stack((rel_to_abs(rel, at, maps.shape), scores))
    keep = nms(rows, config.nms_iou, maps.shape)
    x, y, w, h, score = rows[keep].T.tolist()
    grids = zip((ii[keep] + 1).tolist(), (jj[keep] + 1).tolist())
    return list(map(
        CharInstance, grids, map(Box, x, y, w, h), score,
        (cls0[keep] + 1).tolist(), probs[keep].tolist(),
    ))


def direction_table(maps: PredictionMaps) -> list[list[int]]:
    """The argmax direction of every grid, ``table[i-1][j-1]`` for (i, j);
    ties go to the lowest direction index."""
    return np.argmax(maps.rd, axis=-1).tolist()


def _neighbor_node(
    dirs: list[list[int]],
    cur: tuple[int, int],
    origin: tuple[int, int],
    node_scores: Mapping[tuple[int, int], float],
) -> tuple[int, int] | None:
    """Relaxed target at a walk's final grid: the pointed node if any, else
    the highest-scoring node among the 4-neighbors (ties row-major)."""
    pointed = step(cur, dirs[cur[0] - 1][cur[1] - 1])
    if pointed != origin and pointed in node_scores:
        return pointed
    best: tuple[int, int] | None = None
    best_key = None
    for d in range(4):
        g = step(cur, d)
        if g == origin or g not in node_scores:
            continue
        key = (-node_scores[g], g[1], g[0])
        if best_key is None or key < best_key:
            best_key = key
            best = g
    return best


def follow(
    dirs: list[list[int]],
    origin: tuple[int, int],
    node_scores: Mapping[tuple[int, int], float],
    max_steps: int,
) -> SearchTrace:
    """Walk argmax directions from ``origin`` until a node is found.

    ``dirs`` is the page's :func:`direction_table`, whose shape is the
    lattice's.  Strict termination: the next grid of a step is a node.
    Relaxed termination: when the walk ends for any other reason after at
    least one step, a node in the final grid's 4-neighborhood also counts as
    reached.  The origin itself is never a valid target.
    """
    w_g, h_g = len(dirs), len(dirs[0])
    visited = [origin]
    seen = {origin}
    i, j = origin
    outcome = MAX_STEPS
    for _ in range(max_steps):
        di, dj = DIR_DELTAS[dirs[i - 1][j - 1]]
        i += di
        j += dj
        if not (0 < i <= w_g and 0 < j <= h_g):
            outcome = BOUNDARY
            break
        nxt = (i, j)
        if nxt in node_scores and nxt != origin:
            return SearchTrace(origin, visited, REACHED, nxt)
        if nxt in seen:
            outcome = CYCLE
            break
        visited.append(nxt)
        seen.add(nxt)
    if len(visited) >= 2:
        target = _neighbor_node(dirs, visited[-1], origin, node_scores)
        if target is not None:
            return SearchTrace(origin, visited, REACHED, target)
    return SearchTrace(origin, visited, outcome)


def _edge_angle(src: CharInstance, dst: CharInstance) -> float:
    return math.atan2(dst.box.y - src.box.y, dst.box.x - src.box.x)


def _circular_mean(angles: Sequence[float]) -> float:
    return math.atan2(
        ordered_sum(map(math.sin, angles)) / len(angles),
        ordered_sum(map(math.cos, angles)) / len(angles),
    )


def _angle_diff(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def resolve_edges(
    nodes: Sequence[CharInstance], traces: Sequence[SearchTrace]
) -> dict[int, int]:
    """Turn per-node traces into edges with at most one in and one out.

    Unconflicted edges commit first.  When several edges end at one node,
    the survivor is the edge whose angle is closest to the running mean
    angle of the edges already committed along its own incoming chain;
    candidates without any chain history fall back to source score.
    Discarded edges are dropped, not rerouted.
    """
    grid_to_idx = {n.grid: k for k, n in enumerate(nodes)}
    incoming: dict[int, list[int]] = defaultdict(list)
    for k, tr in enumerate(traces):
        if tr.outcome == REACHED:
            incoming[grid_to_idx[tr.target]].append(k)

    committed: dict[int, int] = {}
    pred: dict[int, int] = {}
    order = sorted(incoming, key=lambda t: (nodes[t].grid[1], nodes[t].grid[0]))
    conflicts = []
    for t in order:
        srcs = incoming[t]
        if len(srcs) == 1:
            committed[srcs[0]] = t
            pred[t] = srcs[0]
        else:
            conflicts.append(t)

    def chain_angles(s: int) -> list[float]:
        angles: list[float] = []
        cur = s
        guard = {s}
        while cur in pred:
            p = pred[cur]
            angles.append(_edge_angle(nodes[p], nodes[cur]))
            if p in guard:
                break
            guard.add(p)
            cur = p
        return angles

    for t in conflicts:
        best_key = None
        winner = None
        for s in incoming[t]:
            hist = chain_angles(s)
            if hist:
                diff = _angle_diff(_edge_angle(nodes[s], nodes[t]), _circular_mean(hist))
                key = (0, diff, -nodes[s].score, nodes[s].grid[1], nodes[s].grid[0])
            else:
                key = (1, 0.0, -nodes[s].score, nodes[s].grid[1], nodes[s].grid[0])
            if best_key is None or key < best_key:
                best_key = key
                winner = s
        committed[winner] = t
        pred[t] = winner
    return committed


def assemble(
    nodes: Sequence[CharInstance],
    edges: Mapping[int, int],
    traces: Sequence[SearchTrace],
    maps: PredictionMaps,
    config: DecodeConfig = DecodeConfig(),
) -> PageResult:
    """Chase edges from start-of-line nodes into ordered line results.

    A line starts at every node whose start-of-line confidence exceeds the
    threshold and that has no incoming edge; it ends where no outgoing edge
    exists, as :func:`decode` makes it at every end-of-line node, and reports
    that node's end-of-line confidence.  Nodes on no line are kept as
    diagnostics in ``dropped``.
    """
    at = cells(n.grid for n in nodes)
    sol = maps.sol[at].tolist()
    eol = maps.eol[at].tolist()
    has_incoming = set(edges.values())
    order = sorted(range(len(nodes)), key=lambda k: (nodes[k].grid[1], nodes[k].grid[0]))
    used: set[int] = set()
    lines: list[Line] = []
    for k in order:
        if k in used or k in has_incoming:
            continue
        if sol[k] <= config.sol_eol_threshold:
            continue
        chain = [k]
        cur = k
        while cur in edges:
            nxt = edges[cur]
            if nxt in used or nxt in chain:
                break
            chain.append(nxt)
            cur = nxt
        used.update(chain)
        lines.append(
            Line(
                chars=[nodes[m] for m in chain],
                traces=[traces[m] for m in chain],
                sol_conf=sol[chain[0]],
                eol_conf=eol[chain[-1]],
            )
        )
    dropped = [nodes[k] for k in order if k not in used]
    return PageResult(lines=lines, dropped=dropped)


def validate_result(result: PageResult) -> None:
    """Structural checks: disjoint simple paths, traces consistent."""
    seen: set[tuple[int, int]] = set()
    for line in result.lines:
        if not line.chars:
            raise InvariantError("empty line in result")
        for c in line.chars:
            if c.grid in seen:
                raise InvariantError(f"character at {c.grid} appears in two lines")
            seen.add(c.grid)
        if line.traces:
            for m in range(len(line.chars) - 1):
                tr = line.traces[m]
                if tr.outcome != REACHED or tr.target != line.chars[m + 1].grid:
                    raise InvariantError(
                        f"chain at {line.chars[m].grid} not backed by a reached trace"
                    )
    for c in result.dropped:
        if c.grid in seen:
            raise InvariantError(f"dropped character at {c.grid} also in a line")


def decode(maps: PredictionMaps, config: DecodeConfig = DecodeConfig()) -> PageResult:
    """Full pipeline: extract nodes, follow directions, resolve, assemble."""
    nodes = extract_nodes(maps, config)
    node_scores = {n.grid: n.score for n in nodes}
    max_steps = config.max_steps or maps.shape.w_g + maps.shape.h_g
    dirs = direction_table(maps)
    eol = maps.eol[cells(n.grid for n in nodes)].tolist()
    traces = [
        follow(dirs, n.grid, node_scores, max_steps) if e <= config.sol_eol_threshold
        else SearchTrace(n.grid, [n.grid], END_OF_LINE)
        for n, e in zip(nodes, eol)
    ]
    edges = resolve_edges(nodes, traces)
    result = assemble(nodes, edges, traces, maps, config)
    validate_result(result)
    return result


# ---------------------------------------------------------------------------
# n-gram rescoring over concatenated grid sequences
# ---------------------------------------------------------------------------


@dataclass
class NGramLM:
    """Simple n-gram model over class ids (1-based).

    ``table`` maps a context tuple of length ``order - 1`` to per-class
    probabilities; unseen contexts fall back to the uniform distribution.
    """

    n_cls: int
    order: int = 3
    table: dict[tuple[int, ...], dict[int, float]] = field(default_factory=dict)

    def prob(self, cls_id: int, prefix: Sequence[int]) -> float:
        ctx = tuple(prefix[-(self.order - 1):]) if self.order > 1 else ()
        row = self.table.get(ctx)
        if row is None:
            return 1.0 / self.n_cls
        return row.get(cls_id, 0.0)

    @classmethod
    def uniform(cls, n_cls: int, order: int = 3) -> "NGramLM":
        return cls(n_cls=n_cls, order=order)

    @classmethod
    def fit(
        cls,
        sequences: Sequence[Sequence[int]],
        n_cls: int,
        order: int = 3,
        smoothing: float = 1.0,
    ) -> "NGramLM":
        counts: dict[tuple[int, ...], dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for seq in sequences:
            for k, c in enumerate(seq):
                ctx = tuple(seq[max(0, k - (order - 1)):k])
                if len(ctx) == order - 1:
                    counts[ctx][c] += 1
        table = {}
        for ctx, row in counts.items():
            total = sum(row.values()) + smoothing * n_cls
            table[ctx] = {
                c: (row.get(c, 0) + smoothing) / total for c in range(1, n_cls + 1)
            }
        return cls(n_cls=n_cls, order=order, table=table)


def line_grid_sequence(line: Line) -> list[tuple[int, int]]:
    """Concatenated time steps for a line: each node grid then its search path."""
    frames: list[tuple[int, int]] = []
    for tr in line.traces:
        frames.extend(tr.visited)
    return frames


def frame_scores(
    maps: PredictionMaps, frames: Sequence[tuple[int, int]]
) -> list[tuple[float, np.ndarray]]:
    """Per-frame (blank probability, class probabilities): blank is 1 - dis."""
    out = []
    for i, j in frames:
        out.append(
            (
                1.0 - float(maps.dis[i - 1, j - 1]),
                maps.cls[i - 1, j - 1].astype(np.float64),
            )
        )
    return out


def beam_search_lm(
    frames: Sequence[tuple[float, np.ndarray]],
    lm: NGramLM,
    beam: int = 16,
    top_k: int | None = None,
) -> list[int]:
    """CTC-style prefix beam search combining frame scores with the LM.

    Repeated symbols merge unless separated by a blank frame; each new
    symbol extension is weighted by the LM probability given the prefix.
    With no pruning (``beam`` large, ``top_k`` None) the returned labeling
    maximizes sum-over-alignments probability times the LM product.
    """
    beams: dict[tuple[int, ...], list[float]] = {(): [1.0, 0.0]}
    for blank_p, probs in frames:
        if top_k is None or top_k >= len(probs):
            cand = range(1, len(probs) + 1)
        else:
            idx = np.lexsort((np.arange(len(probs)), -probs))[:top_k]
            cand = [int(i) + 1 for i in idx]
        new: dict[tuple[int, ...], list[float]] = defaultdict(lambda: [0.0, 0.0])
        for prefix, (pb, pnb) in beams.items():
            total = pb + pnb
            new[prefix][0] += blank_p * total
            if prefix:
                new[prefix][1] += float(probs[prefix[-1] - 1]) * pnb
            for c in cand:
                p_sym = float(probs[c - 1]) * lm.prob(c, prefix)
                if p_sym == 0.0:
                    continue
                ext = new[prefix + (c,)]
                if prefix and c == prefix[-1]:
                    ext[1] += p_sym * pb
                else:
                    ext[1] += p_sym * total
        ranked = sorted(new.items(), key=lambda kv: (-(kv[1][0] + kv[1][1]), kv[0]))
        beams = dict(ranked[:beam])
    best = min(beams.items(), key=lambda kv: (-(kv[1][0] + kv[1][1]), kv[0]))
    return list(best[0])


def rescore_with_lm(
    maps: PredictionMaps,
    result: PageResult,
    lm: NGramLM,
    beam: int = 16,
    top_k: int | None = None,
) -> PageResult:
    """Re-decode each line's transcript with the LM; geometry is untouched.

    The revised class sequence is paired positionally with the existing
    characters; in the rare case the lengths differ, surplus symbols are
    dropped and surplus characters keep their place in the line with their
    original class.  Lines without frames are returned unchanged.
    """
    new_lines: list[Line] = []
    for line in result.lines:
        frames = line_grid_sequence(line)
        if not frames or not line.chars:
            new_lines.append(line)
            continue
        labels = beam_search_lm(frame_scores(maps, frames), lm, beam=beam, top_k=top_k)
        chars = []
        for m, c in enumerate(line.chars):
            if m < len(labels) and labels[m] != c.cls_id:
                prob = float(maps.cls[c.grid[0] - 1, c.grid[1] - 1][labels[m] - 1])
                chars.append(replace(c, cls_id=labels[m], cls_prob=prob))
            else:
                chars.append(c)
        new_lines.append(
            Line(chars=chars, traces=line.traces, sol_conf=line.sol_conf, eol_conf=line.eol_conf)
        )
    return PageResult(lines=new_lines, dropped=list(result.dropped))
