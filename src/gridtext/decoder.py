"""Graph-based decoding: grids to characters to reading-order lines.

Decoding runs in three steps.  Node extraction thresholds the presence map
and removes duplicate detections with NMS.  Edge resolution walks the
per-grid direction field from every node except an end-of-line node until
another node is reached (or the walk exits the lattice, revisits a grid, or
hits the step cap), then enforces the at-most-one-edge-in/one-edge-out
property.  An end-of-line node ends its line, so no walk and no edge leaves
it.  Assembly emits each maximal chain that begins at a start-of-line node.

The maps are read in bulk, never one numpy scalar at a time: node
extraction gathers each map at all its hits at once, and a decode takes the
argmax direction of every grid once, into a :class:`Lattice`.  The lattice
is flat and has a one-cell border: next to the directions, as ``bytes``, it
holds each cell's owner, a node index, -1 for a free grid or -2 for the
border.  A walk's step is then one add and one ``owner`` lookup on plain
ints, with no bounds test and no grid tuple.

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

A decode allocates few objects that the cyclic garbage collector tracks
beyond the records it returns.  A decode makes no reference cycles, so every
such object it keeps alive only brings the next collector pass closer and
makes each pass scan more, and no pass frees anything.  A trace therefore
keeps its walk as ``bytes`` of direction indices rather than a list of grid
tuples, a reached trace's target is its node's own ``grid`` tuple, and edge
resolution builds a list of sources only for a target that two or more walks
reach.

Every stage is a pure function of its inputs, so repeated decodes of the
same maps are bit-identical.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .geometry import Box, Cells, cells, ordered_sum, rel_to_abs
from .jsoncheck import check_ranges, ranged
from .predictions import DIR_DELTAS, PredictionMaps

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
    dis_threshold: float = ranged(0.5, 0, 1)
    nms_iou: float = ranged(0.3, 0, 1)
    sol_eol_threshold: float = ranged(0.9, 0, 1)
    max_steps: int | None = ranged(None, 1)  # None: w_g + h_g

    def __post_init__(self) -> None:
        check_ranges(self)


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


@dataclass(slots=True)
class SearchTrace:
    """Grid walk from one node toward its successor.

    ``moves`` holds one :class:`~gridtext.predictions.Direction` index per
    step the walk took from ``origin``.  A byte per step is not tracked by
    the garbage collector, where a grid tuple per step would be, and a
    decode keeps every trace it makes.  ``visited`` rebuilds the grids the
    walk stood on, origin first; the reached node's grid is never included,
    so ``visited[1:]`` is exactly the character-free corridor between two
    nodes.  An end-of-line node never walks: its trace has outcome
    END_OF_LINE and no moves.
    """

    origin: tuple[int, int]
    moves: bytes
    outcome: str
    target: tuple[int, int] | None = None

    @property
    def visited(self) -> list[tuple[int, int]]:
        i, j = self.origin
        grids = [self.origin]
        for d in self.moves:
            di, dj = DIR_DELTAS[d]
            i += di
            j += dj
            grids.append((i, j))
        return grids


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
    from the kept rows' column lists; one index array selects the kept rows
    of every array.
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
    keep = np.array(nms(rows, config.nms_iou, maps.shape), np.intp)
    x, y, w, h, score = rows[keep].T.tolist()
    grids = zip((ii[keep] + 1).tolist(), (jj[keep] + 1).tolist())
    return list(map(
        CharInstance, grids, map(Box, x, y, w, h), score, (cls0[keep] + 1).tolist()
    ))


@dataclass(slots=True)
class Lattice:
    """A page's direction field and nodes on a flat lattice with a border.

    Grid (i, j) is cell ``i * stride + j`` of a ``(w_g + 2) x stride``
    lattice, ``stride = h_g + 2``, whose outermost ring is a one-cell border.
    ``dirs`` holds each grid's argmax direction (ties to the lowest index),
    so a step in direction ``d`` adds ``offset[d]`` to the cell.  ``owner``
    holds each cell's node index into ``nodes``, -1 for a free grid and -2
    for the border, so one lookup tells the three apart and no walk tests
    bounds.  ``cell`` holds each node's cell, and ``at`` its 0-based
    (i - 1, j - 1) index arrays into the maps.
    """

    nodes: Sequence[CharInstance]
    dirs: bytes
    owner: list[int]
    stride: int
    offset: tuple[int, int, int, int]
    cell: list[int]
    at: Cells


def bordered_lattice(maps: PredictionMaps, nodes: Sequence[CharInstance]) -> Lattice:
    """The :class:`Lattice` of ``maps`` with ``nodes`` placed on it.

    The nodes' cells come from one :func:`~gridtext.geometry.cells` pass and
    go into ``owner`` in one scatter.  A scatter would write a grid off the
    lattice into the border or past its end, and does not say which of two
    nodes on one grid wins, so either is a ValueError naming the grid.
    """
    w, h = maps.shape.w_g, maps.shape.h_g
    stride = h + 2
    dirs = np.zeros((w + 2, stride), np.uint8)
    dirs[1:-1, 1:-1] = np.argmax(maps.rd, axis=-1)
    at = i0, j0 = cells(n.grid for n in nodes)
    outside = (i0 < 0) | (i0 >= w) | (j0 < 0) | (j0 >= h)
    if outside.any():
        grid = nodes[int(np.argmax(outside))].grid
        raise ValueError(f"node grid {grid} outside the {w}x{h} lattice")
    cell = (i0 + 1) * stride + (j0 + 1)
    owner = np.full(dirs.shape, -2, np.intp)
    owner[1:-1, 1:-1] = -1
    owner = owner.ravel()
    index = np.arange(len(nodes))
    owner[cell] = index
    lost = owner[cell] != index  # a node whose cell another node took
    if lost.any():
        raise ValueError(f"node grid {nodes[int(np.argmax(lost))].grid} shared by two nodes")
    offset = tuple(di * stride + dj for di, dj in DIR_DELTAS)
    return Lattice(nodes, dirs.tobytes(), owner.tolist(), stride, offset, cell.tolist(), at)


def follow(lattice: Lattice, k: int, max_steps: int) -> SearchTrace:
    """Walk argmax directions from node ``k`` until another node is found.

    Strict termination: the next grid of a step is a node other than ``k``.
    Relaxed termination: when the walk ends for any other reason after at
    least one step, a node next to the final grid also counts as reached:
    the node its direction points at, else the 4-neighbour with the highest
    score (ties row-major).  Node ``k`` itself is never a valid target.

    Each step is one add and one ``owner`` lookup on plain ints; a step
    onto the border that rings the lattice ends the walk as ``BOUNDARY``.
    A step back onto node ``k``'s own cell closes a cycle, so ``seen``
    holds only the free grids walked.  Steps count from 0, and a step
    never lands where it stands, so step 2 is the first that can land on
    a walked free grid: ``seen`` is built there, and the many walks that
    end sooner build none.  It is freed on return; the trace keeps the
    directions taken, as ``bytes``, and a reached trace's ``target`` is
    the target node's own ``grid``.
    """
    dirs, owner, offset, nodes = lattice.dirs, lattice.owner, lattice.offset, lattice.nodes
    origin = nodes[k].grid
    f = lattice.cell[k]
    moves: list[int] = []
    outcome = MAX_STEPS
    for n in range(max_steps):
        d = dirs[f]
        g = f + offset[d]
        o = owner[g]
        if o != -1:  # the border or a node
            if o == -2:
                outcome = BOUNDARY
            elif o != k:
                return SearchTrace(origin, bytes(moves), REACHED, nodes[o].grid)
            else:
                outcome = CYCLE
            break
        if n > 1:  # step 2 is the first that can land on a free grid walked
            if n == 2:
                seen = {f - offset[moves[1]], f}
            if g in seen:
                outcome = CYCLE
                break
            seen.add(g)
        moves.append(d)
        f = g
    if moves:  # f is the final grid the walk stood on
        o = owner[f + offset[dirs[f]]]
        if o < 0 or o == k:
            near = [m for m in (owner[f + step] for step in offset) if m >= 0 and m != k]
            if not near:
                return SearchTrace(origin, bytes(moves), outcome)
            o = min(near, key=lambda m: (-nodes[m].score, nodes[m].grid[1], nodes[m].grid[0]))
        return SearchTrace(origin, bytes(moves), REACHED, nodes[o].grid)
    return SearchTrace(origin, bytes(moves), outcome)


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
    Discarded edges are dropped, not rerouted.  Conflicts are settled in
    row-major (j, i) order of their target, since each winner extends the
    history of later ones.

    Only a target that two or more walks reach gets a list of its sources.
    Each committed edge's angle is computed once, when a chain history
    first reads it.  The returned mapping's insertion order is not part of
    its meaning, and no caller reads it in order.
    """
    grid_to_idx = {n.grid: k for k, n in enumerate(nodes)}
    first: dict[int, int] = {}
    contested: dict[int, list[int]] = {}
    for k, tr in enumerate(traces):
        if tr.outcome == REACHED:
            t = grid_to_idx[tr.target]
            s = first.setdefault(t, k)
            if s != k:
                if t in contested:
                    contested[t].append(k)
                else:
                    contested[t] = [s, k]

    committed: dict[int, int] = {}
    pred: dict[int, int] = {}
    for t, s in first.items():
        if t not in contested:
            committed[s] = t
            pred[t] = s
    angle: dict[int, float] = {}  # target -> angle of its committed edge

    def chain_angles(s: int) -> list[float]:
        angles: list[float] = []
        cur = s
        guard = {s}
        while cur in pred:
            p = pred[cur]
            a = angle.get(cur)
            if a is None:
                a = angle[cur] = _edge_angle(nodes[p], nodes[cur])
            angles.append(a)
            if p in guard:
                break
            guard.add(p)
            cur = p
        return angles

    for t in sorted(contested, key=lambda t: (nodes[t].grid[1], nodes[t].grid[0])):
        best_key = None
        winner = None
        for s in contested[t]:
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
    sol: Sequence[float],
    eol: Sequence[float],
    config: DecodeConfig = DecodeConfig(),
) -> PageResult:
    """Chase edges from start-of-line nodes into ordered line results.

    ``sol`` and ``eol`` hold each node's start- and end-of-line confidence.
    A line starts at every node whose start-of-line confidence exceeds the
    threshold and that has no incoming edge; it ends where no outgoing edge
    exists, as :func:`decode` makes it at every end-of-line node, and reports
    that node's end-of-line confidence.  Nodes on no line are kept as
    diagnostics in ``dropped``.
    """
    has_incoming = set(edges.values())
    row_major = [(n.grid[1], n.grid[0]) for n in nodes]
    order = sorted(range(len(nodes)), key=row_major.__getitem__)
    used: set[int] = set()
    lines: list[Line] = []
    for k in order:
        if k in used or k in has_incoming:
            continue
        if sol[k] <= config.sol_eol_threshold:
            continue
        chain = [k]
        used.add(k)
        cur = k
        while cur in edges:
            nxt = edges[cur]
            if nxt in used:  # on an earlier line, or already on this one
                break
            chain.append(nxt)
            used.add(nxt)
            cur = nxt
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
    max_steps = config.max_steps or maps.shape.w_g + maps.shape.h_g
    lattice = bordered_lattice(maps, nodes)
    sol = maps.sol[lattice.at].tolist()
    eol = maps.eol[lattice.at].tolist()
    traces = [
        follow(lattice, k, max_steps) if e <= config.sol_eol_threshold
        else SearchTrace(nodes[k].grid, b"", END_OF_LINE)
        for k, e in enumerate(eol)
    ]
    edges = resolve_edges(nodes, traces)
    result = assemble(nodes, edges, traces, sol, eol, config)
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
    at = cells(frames)
    blank = (1.0 - maps.dis[at].astype(np.float64)).tolist()
    return list(zip(blank, maps.cls[at].astype(np.float64)))


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
        chars = [
            replace(c, cls_id=labels[m]) if m < len(labels) and labels[m] != c.cls_id else c
            for m, c in enumerate(line.chars)
        ]
        new_lines.append(
            Line(chars=chars, traces=line.traces, sol_conf=line.sol_conf, eol_conf=line.eol_conf)
        )
    return PageResult(lines=new_lines, dropped=list(result.dropped))
