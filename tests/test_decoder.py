import math
import tracemalloc
from collections import defaultdict
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    _iou_reference,
    _nms_reference,
    blank_maps,
    ctc_forward,
    exhaustive_best_labeling,
    lm_product,
    put_char,
    set_rd,
)
from gridtext.decoder import (
    BOUNDARY,
    CYCLE,
    END_OF_LINE,
    MAX_STEPS,
    REACHED,
    CharInstance,
    DecodeConfig,
    InvariantError,
    Line,
    NGramLM,
    PageResult,
    SearchTrace,
    _angle_diff,
    _circular_mean,
    _edge_angle,
    assemble,
    beam_search_lm,
    bordered_lattice,
    decode,
    extract_nodes,
    follow,
    frame_scores,
    fused_score,
    line_grid_sequence,
    rescore_with_lm,
    resolve_edges,
    validate_result,
)
from gridtext.geometry import IMAGE_SIZE_RANGE, Box, GridShape, grid_of
from gridtext.predictions import DIR_DELTAS, Direction, OracleNoise, PredictionMaps, oracle_predict
from gridtext.synth import PageConfig, gen_page


def test_fused_score_values():
    assert fused_score(1, 1) == 1.0
    assert fused_score(0, 0) == 0.0
    assert math.isclose(fused_score(0.9, 0.5), 0.82, abs_tol=1e-12)


# The per-hit and per-step loops that extract_nodes and follow replaced live
# on as test oracles: one numpy read per value, one argmax per row, and
# conftest's all-pairs NMS loop.  So do resolve_edges before it listed only
# contested targets and assemble before it kept a set of a chain's members.


def _extract_nodes_reference(
    maps: PredictionMaps, config: DecodeConfig = DecodeConfig()
) -> list[CharInstance]:
    cand: list[CharInstance] = []
    hits = np.argwhere(maps.dis >= config.dis_threshold)
    for i0, j0 in sorted(hits.tolist(), key=lambda t: (t[1], t[0])):
        i, j = i0 + 1, j0 + 1
        row = maps.cls[i0, j0]
        cls0 = int(np.argmax(row))
        x_o, y_o, w_o, h_o = (float(v) for v in maps.box[i0, j0])
        if w_o <= 0 or h_o <= 0:
            w_o, h_o = max(w_o, 1e-6), max(h_o, 1e-6)
        s = maps.shape
        cand.append(
            CharInstance(
                grid=(i, j),
                box=Box((i0 + x_o) / s.w_g * s.img_w, (j0 + y_o) / s.h_g * s.img_h, w_o, h_o),
                score=fused_score(float(maps.dis[i0, j0]), float(row[cls0])),
                cls_id=cls0 + 1,
            )
        )
    keep = _nms_reference([(c.box, c.score) for c in cand], config.nms_iou, maps.shape)
    return [cand[k] for k in keep]


def step(grid: tuple[int, int], d: int) -> tuple[int, int]:
    di, dj = DIR_DELTAS[d]
    return grid[0] + di, grid[1] + dj


def _argmax_dir(maps: PredictionMaps, g: tuple[int, int]) -> int:
    return int(np.argmax(maps.rd[g[0] - 1, g[1] - 1]))


def _neighbor_node_reference(maps, cur, origin, node_scores):
    pointed = step(cur, _argmax_dir(maps, cur))
    if pointed != origin and pointed in node_scores:
        return pointed
    best = best_key = None
    for d in range(4):
        g = step(cur, d)
        if g == origin or g not in node_scores:
            continue
        key = (-node_scores[g], g[1], g[0])
        if best_key is None or key < best_key:
            best_key = key
            best = g
    return best


def _walk_reference(maps, origin, node_scores, max_steps):
    """A walk's (visited, outcome, target), its grid list built step by step."""
    visited = [origin]
    seen = {origin}
    cur = origin

    def finalize(outcome: str):
        if len(visited) >= 2:
            target = _neighbor_node_reference(maps, cur, origin, node_scores)
            if target is not None:
                return visited, REACHED, target
        return visited, outcome, None

    for _ in range(max_steps):
        nxt = step(cur, _argmax_dir(maps, cur))
        if not (1 <= nxt[0] <= maps.shape.w_g and 1 <= nxt[1] <= maps.shape.h_g):
            return finalize(BOUNDARY)
        if nxt != origin and nxt in node_scores:
            return visited, REACHED, nxt
        if nxt in seen:
            return finalize(CYCLE)
        visited.append(nxt)
        seen.add(nxt)
        cur = nxt
    return finalize(MAX_STEPS)


_DELTA_TO_DIR = {(0, -1): Direction.UP, (1, 0): Direction.RIGHT,
                 (0, 1): Direction.DOWN, (-1, 0): Direction.LEFT}


def _follow_reference(maps, origin, node_scores, max_steps) -> SearchTrace:
    visited, outcome, target = _walk_reference(maps, origin, node_scores, max_steps)
    moves = bytes(_DELTA_TO_DIR[(b[0] - a[0], b[1] - a[1])]
                  for a, b in zip(visited, visited[1:]))
    return SearchTrace(origin, moves, outcome, target)


def _bordered_lattice_reference(maps, nodes):
    """bordered_lattice's (dirs, owner, stride, offset, cell) built one grid
    and one node at a time: each grid's argmax read on its own, each node
    written into ``owner`` in turn."""
    w, h = maps.shape.w_g, maps.shape.h_g
    stride = h + 2
    dirs = bytearray((w + 2) * stride)
    owner = [-2] * len(dirs)
    for i in range(1, w + 1):
        for j in range(1, h + 1):
            dirs[i * stride + j] = _argmax_dir(maps, (i, j))
            owner[i * stride + j] = -1
    cell = []
    for k, n in enumerate(nodes):
        cell.append(n.grid[0] * stride + n.grid[1])
        owner[cell[-1]] = k
    offset = tuple(di * stride + dj for di, dj in DIR_DELTAS)
    return bytes(dirs), owner, stride, offset, cell


def _resolve_edges_reference(
    nodes: Sequence[CharInstance], traces: Sequence[SearchTrace]
) -> dict[int, int]:
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


def _line_flags(
    maps: PredictionMaps, nodes: Sequence[CharInstance]
) -> tuple[list[float], list[float]]:
    """Each node's start- and end-of-line confidence, read one grid at a time."""
    sol = [float(maps.sol[i - 1, j - 1]) for i, j in (n.grid for n in nodes)]
    eol = [float(maps.eol[i - 1, j - 1]) for i, j in (n.grid for n in nodes)]
    return sol, eol


def _assemble_reference(
    nodes: Sequence[CharInstance],
    edges: Mapping[int, int],
    traces: Sequence[SearchTrace],
    maps: PredictionMaps,
    config: DecodeConfig = DecodeConfig(),
) -> PageResult:
    sol, eol = _line_flags(maps, nodes)
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


def _decode_reference(maps: PredictionMaps, config: DecodeConfig) -> PageResult:
    nodes = _extract_nodes_reference(maps, config)
    node_scores = {n.grid: n.score for n in nodes}
    max_steps = config.max_steps or maps.shape.w_g + maps.shape.h_g
    traces = [
        SearchTrace(n.grid, b"", END_OF_LINE)
        if float(maps.eol[n.grid[0] - 1, n.grid[1] - 1]) > config.sol_eol_threshold
        else _follow_reference(maps, n.grid, node_scores, max_steps)
        for n in nodes
    ]
    edges = _resolve_edges_reference(nodes, traces)
    result = _assemble_reference(nodes, edges, traces, maps, config)
    validate_result(result)
    return result


def test_extract_nodes_round_trip():
    page = gen_page(PageConfig(n_lines=1, chars_per_line=(10, 10), n_cls=30, seed=2))
    maps = oracle_predict(page, OracleNoise())
    nodes = extract_nodes(maps)
    assert len(nodes) == 10
    want = sorted(grid_of(box, page.shape) for box in page.annotation.boxes[0])
    assert sorted(n.grid for n in nodes) == want


def test_extract_nodes_empty():
    maps = blank_maps(GridShape(8, 8, 128, 128), 5)
    assert extract_nodes(maps) == []


def test_extract_nodes_nms_suppresses_overlap():
    shape = GridShape(8, 8, 64, 64)
    maps = blank_maps(shape, 5)
    # adjacent grids, nearly coincident large boxes
    put_char(maps, 3, 3, 1, dis=0.9, box=Box(20.0, 20.0, 0.75, 0.25))
    put_char(maps, 4, 3, 2, dis=0.7, box=Box(24.1, 20.0, 0.75, 0.25))
    assert _iou_reference(Box(20.0, 20.0, 0.75, 0.25), Box(24.1, 20.0, 0.75, 0.25), shape) > 0.8
    nodes = extract_nodes(maps, DecodeConfig(dis_threshold=0.5, nms_iou=0.5))
    assert [n.grid for n in nodes] == [(3, 3)]


def test_extract_nodes_row_major_order():
    shape = GridShape(8, 8, 128, 128)
    maps = blank_maps(shape, 5)
    for grid in [(5, 2), (2, 2), (3, 7)]:
        put_char(maps, grid[0], grid[1], 1)
    nodes = extract_nodes(maps)
    assert [n.grid for n in nodes] == [(2, 2), (5, 2), (3, 7)]


@pytest.mark.parametrize("nms_iou", [0.3, 1.0])
def test_extract_nodes_on_page_spanning_boxes_matches_reference(nms_iou):
    # Every grid is a hit whose box spans the page, so every pair of the
    # 576 candidates shares every bucket; nms must still list each pair in
    # bounded memory.
    shape = GridShape(24, 24, 384.0, 384.0)
    maps = blank_maps(shape, 1)
    maps.dis[:] = np.random.default_rng(0).uniform(0.5, 1.0, (24, 24))
    maps.box[:] = (0.5, 0.5, 2.0, 2.0)
    maps.validate()
    config = DecodeConfig(nms_iou=nms_iou)
    tracemalloc.start()
    try:
        nodes = extract_nodes(maps, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20
    assert nodes == _extract_nodes_reference(maps, config)


def _walk_maps():
    return blank_maps(GridShape(5, 5, 80, 80), 4)


def _follow(maps, origin, node_scores, max_steps):
    """:func:`follow` from ``origin`` among the nodes of ``node_scores``;
    the origin is made a node if it is not one, as a walk never reads its
    own origin's score."""
    grids = [origin] + [g for g in node_scores if g != origin]
    nodes = [_node(g, 0.0, 0.0, score=node_scores.get(g, 0.0)) for g in grids]
    return follow(bordered_lattice(maps, nodes), 0, max_steps)


def test_follow_reaches_adjacent_node():
    maps = _walk_maps()
    set_rd(maps, 2, 2, Direction.RIGHT)
    trace = _follow(maps, (2, 2), {(3, 2): 1.0}, max_steps=10)
    assert trace.outcome == REACHED
    assert trace.target == (3, 2)
    assert trace.visited == [(2, 2)]


def test_follow_boundary_at_first_column():
    maps = _walk_maps()
    set_rd(maps, 1, 3, Direction.LEFT)
    trace = _follow(maps, (1, 3), {(4, 4): 1.0}, max_steps=10)
    assert trace.outcome == BOUNDARY
    assert trace.visited == [(1, 3)]


def test_follow_cycle_detected():
    maps = _walk_maps()
    set_rd(maps, 2, 2, Direction.RIGHT)
    set_rd(maps, 3, 2, Direction.LEFT)
    trace = _follow(maps, (2, 2), {}, max_steps=10)
    assert trace.outcome == CYCLE
    assert len(trace.visited) <= 3


def test_follow_max_steps_cap():
    maps = _walk_maps()
    for i in range(1, 6):
        set_rd(maps, i, 3, Direction.RIGHT)
    trace = _follow(maps, (1, 3), {}, max_steps=2)
    assert trace.outcome == MAX_STEPS
    assert trace.visited == [(1, 3), (2, 3), (3, 3)]


def test_follow_relaxed_picks_highest_score_neighbor():
    # The walk exits upward; at its final grid the direction points off the
    # lattice, and two nodes sit in the 4-neighborhood with scores 0.7/0.9.
    maps = _walk_maps()
    set_rd(maps, 1, 2, Direction.RIGHT)
    set_rd(maps, 2, 2, Direction.UP)
    set_rd(maps, 2, 1, Direction.UP)
    scores = {(3, 1): 0.7, (2, 2): 0.0, (1, 1): 0.9}
    # origin (1,2) -> (2,2)? (2,2) is a node: use origin (2,2) instead
    trace = _follow(maps, (2, 2), {(3, 1): 0.7, (1, 1): 0.9}, max_steps=10)
    assert trace.outcome == REACHED
    assert trace.target == (1, 1)
    assert trace.visited == [(2, 2), (2, 1)]


def test_follow_relaxed_never_fires_at_origin():
    maps = _walk_maps()
    set_rd(maps, 1, 1, Direction.UP)  # immediate boundary exit, 0 steps taken
    trace = _follow(maps, (1, 1), {(2, 1): 1.0}, max_steps=10)
    assert trace.outcome == BOUNDARY


@pytest.mark.parametrize("d, origin, beside", [
    (Direction.UP, (3, 1), (4, 1)),
    (Direction.RIGHT, (5, 3), (5, 4)),
    (Direction.DOWN, (3, 5), (2, 5)),
    (Direction.LEFT, (1, 3), (1, 2)),
])
def test_follow_off_each_edge_is_a_boundary_without_moves(d, origin, beside):
    # A node beside the origin is not reached: relaxed termination needs a step.
    maps = _walk_maps()
    set_rd(maps, *origin, d)
    trace = _follow(maps, origin, {beside: 1.0}, max_steps=10)
    assert (trace.moves, trace.outcome, trace.target) == (b"", BOUNDARY, None)


@pytest.mark.parametrize("d", list(Direction))
def test_follow_on_a_one_grid_lattice(d):
    maps = blank_maps(GridShape(1, 1, 16, 16), 1)
    set_rd(maps, 1, 1, d)
    trace = _follow(maps, (1, 1), {}, max_steps=2)
    assert (trace.visited, trace.outcome, trace.target) == ([(1, 1)], BOUNDARY, None)


def test_follow_relaxed_target_beside_the_border():
    # The walk runs right along row 3 and leaves the lattice from (5, 3).
    # Of that grid's neighbours, (6, 3) is border and (4, 3) was walked; the
    # nodes at (5, 2) and (5, 4) tie on score, and row-major order wins.
    maps = _walk_maps()
    for i in (3, 4, 5):
        set_rd(maps, i, 3, Direction.RIGHT)
    trace = _follow(maps, (3, 3), {(5, 4): 0.5, (5, 2): 0.5}, max_steps=10)
    assert (trace.visited, trace.outcome, trace.target) == (
        [(3, 3), (4, 3), (5, 3)], REACHED, (5, 2)
    )


# Walks that close a cycle, named by the step (from 0) that closes it.
# follow builds ``seen`` at step 2: steps 0 and 1 cannot land on a walked
# free grid, and a return to the origin is found through ``owner``.
_R, _L, _U, _D = Direction.RIGHT, Direction.LEFT, Direction.UP, Direction.DOWN


@pytest.mark.parametrize("directions, origin, node_scores, max_steps", [
    pytest.param({(2, 2): _R, (3, 2): _L}, (2, 2), {}, 10, id="back-to-the-origin-at-step-1"),
    pytest.param({(1, 1): _R, (2, 1): _R, (3, 1): _L}, (1, 1), {}, 10,
                 id="2-cycle-closed-at-step-2"),
    pytest.param({(1, 1): _R, (2, 1): _R, (3, 1): _R, (4, 1): _L}, (1, 1), {}, 10,
                 id="2-cycle-closed-at-step-3"),
    pytest.param({(1, 1): _D, (1, 2): _R, (2, 2): _R, (3, 2): _D, (3, 3): _L, (2, 3): _U},
                 (1, 1), {(1, 3): 0.5, (2, 4): 0.7}, 10, id="4-cycle-after-a-tail"),
    pytest.param({(1, 1): _D, (1, 2): _R, (2, 2): _R, (3, 2): _D, (3, 3): _L, (2, 3): _U},
                 (1, 1), {}, 4, id="max-steps-inside-a-cycle"),
])
def test_follow_closes_a_cycle_as_the_reference_does(directions, origin, node_scores, max_steps):
    maps = _walk_maps()
    for grid, d in directions.items():
        set_rd(maps, *grid, d)
    trace = _follow(maps, origin, node_scores, max_steps)
    assert trace == _follow_reference(maps, origin, node_scores, max_steps)


@pytest.mark.parametrize("grids, message", [
    ([(2, 2), (0, 3)], r"^node grid \(0, 3\) outside the 4x4 lattice$"),
    ([(-1, 2)], r"^node grid \(-1, 2\) outside the 4x4 lattice$"),
    ([(9, 9), (1, 1)], r"^node grid \(9, 9\) outside the 4x4 lattice$"),
    ([(1, 1), (2, 3), (4, 4), (2, 3)], r"^node grid \(2, 3\) shared by two nodes$"),
])
def test_bordered_lattice_rejects_a_grid_off_the_lattice_or_shared(shape44, grids, message):
    # Placed unchecked, (0, 3) would overwrite border cell 3, (-1, 2) would
    # wrap into border cell 32, (9, 9) would index past the end, and the
    # second (2, 3) would take the first one's grid.
    nodes = [_node(g, 0.0, 0.0) for g in grids]
    with pytest.raises(ValueError, match=message):
        bordered_lattice(blank_maps(shape44, 1), nodes)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_bordered_lattice_matches_reference(data):
    w, h = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    maps = blank_maps(GridShape(w, h, 16.0 * w, 16.0 * h), 1)
    maps.rd = _rows(data.draw, (w, h, 4), data.draw(st.sampled_from([_UNIT, _COARSE_UNIT])))
    grids = data.draw(st.just([]) | _some_grids(w, h))
    nodes = [_node(g, 0.0, 0.0) for g in grids]
    lattice = bordered_lattice(maps, nodes)
    assert lattice.nodes is nodes
    assert (lattice.dirs, lattice.owner, lattice.stride, lattice.offset, lattice.cell) == (
        _bordered_lattice_reference(maps, nodes)
    )
    assert list(zip(*(a.tolist() for a in lattice.at))) == [(i - 1, j - 1) for i, j in grids]


def test_reached_traces_share_their_target_nodes_grid():
    page = gen_page(PageConfig(n_lines=4, chars_per_line=(6, 9), n_cls=20, seed=3))
    result = decode(oracle_predict(page, OracleNoise(dir_flip_p=0.1, seed=4)))
    nodes = {c.grid: c for line in result.lines for c in line.chars}
    nodes.update((c.grid, c) for c in result.dropped)
    reached = [tr for line in result.lines for tr in line.traces if tr.outcome == REACHED]
    assert reached
    for tr in reached:
        assert tr.target is nodes[tr.target].grid


def _node(grid, x, y, score=1.0, cls_id=1):
    return CharInstance(grid=grid, box=Box(x, y, 0.05, 0.05), score=score, cls_id=cls_id)


def _reached(origin, target):
    return SearchTrace(origin=origin, moves=b"", outcome=REACHED, target=target)


def _dead(origin):
    return SearchTrace(origin=origin, moves=b"", outcome=BOUNDARY)


def test_resolve_edges_linear_chain():
    nodes = [_node((i, 2), 10.0 * i, 10.0) for i in range(1, 6)]
    traces = [_reached((i, 2), (i + 1, 2)) for i in range(1, 5)] + [_dead((5, 2))]
    edges = resolve_edges(nodes, traces)
    assert edges == {0: 1, 1: 2, 2: 3, 3: 4}


def test_resolve_edges_conflict_without_history_prefers_score():
    nodes = [
        _node((1, 1), 10, 10, score=0.7),
        _node((1, 3), 10, 30, score=0.9),
        _node((3, 2), 30, 20, score=0.5),
    ]
    traces = [_reached((1, 1), (3, 2)), _reached((1, 3), (3, 2)), _dead((3, 2))]
    edges = resolve_edges(nodes, traces)
    assert edges == {1: 2}


def test_resolve_edges_slope_rule_keeps_collinear_edge():
    # Two chains, both running at 0 degrees, converge on X; the 5-degree
    # incoming edge beats the 40-degree one even though its score is lower.
    ang5, ang40 = math.radians(5), math.radians(40)
    x_node = _node((5, 3), 110.0, 55.25)
    s1 = _node((3, 3), 110 - 60 * math.cos(ang5), 55.25 - 60 * math.sin(ang5), score=0.2)
    p1 = _node((1, 3), s1.box.x - 60, s1.box.y, score=0.2)
    s2 = _node((3, 5), 110 - 60 * math.cos(ang40), 55.25 - 60 * math.sin(ang40), score=0.99)
    p2 = _node((1, 5), s2.box.x - 60, s2.box.y, score=0.99)
    nodes = [x_node, s1, p1, s2, p2]
    traces = [
        _dead(x_node.grid),
        _reached(s1.grid, x_node.grid),
        _reached(p1.grid, s1.grid),
        _reached(s2.grid, x_node.grid),
        _reached(p2.grid, s2.grid),
    ]
    edges = resolve_edges(nodes, traces)
    assert edges[2] == 1 and edges[4] == 3  # both chains commit
    assert edges[1] == 0  # the 5-degree edge wins the conflict
    assert 3 not in edges


def _line(chars, traces):
    return Line(chars=chars, traces=traces, sol_conf=0.9, eol_conf=0.9)


_A, _B, _C = _node((1, 1), 8, 8), _node((2, 1), 24, 8), _node((3, 1), 40, 8)


@pytest.mark.parametrize(
    "result, message",
    [
        (PageResult(lines=[_line([], [])]), "empty line in result"),
        (
            PageResult(lines=[_line([_A, _B], []), _line([_B], [])]),
            "character at (2, 1) appears in two lines",
        ),
        (
            PageResult(lines=[_line([_A, _B], [_dead((1, 1)), _dead((2, 1))])]),
            "chain at (1, 1) not backed by a reached trace",
        ),
        (
            PageResult(lines=[_line([_A, _B], [_reached((1, 1), (3, 1)), _dead((2, 1))])]),
            "chain at (1, 1) not backed by a reached trace",
        ),
        (
            PageResult(lines=[_line([_A], [_dead((1, 1))])], dropped=[_C, _A]),
            "dropped character at (1, 1) also in a line",
        ),
    ],
)
def test_validate_result_rejects_each_broken_invariant(result, message):
    with pytest.raises(InvariantError) as err:
        validate_result(result)
    assert str(err.value) == message


def test_validate_result_passes_a_valid_result():
    line = _line([_A, _B], [_reached((1, 1), (2, 1)), _dead((2, 1))])
    validate_result(PageResult(lines=[line], dropped=[_C]))
    validate_result(PageResult(lines=[_line([_A, _B], [])]))  # a line without traces


def test_assemble_single_char_line():
    maps = _walk_maps()
    put_char(maps, 3, 3, 2, sol=0.95, eol=0.95)
    nodes = [_node((3, 3), 40, 40, cls_id=2)]
    result = assemble(nodes, {}, [_dead((3, 3))], *_line_flags(maps, nodes))
    assert len(result.lines) == 1
    assert result.lines[0].class_ids() == [2]


def test_assemble_chain_without_eol_ends_at_last_edge():
    maps = _walk_maps()
    put_char(maps, 1, 2, 1, sol=0.95, eol=1e-6)
    put_char(maps, 2, 2, 2)
    put_char(maps, 3, 2, 3)
    nodes = [_node((1, 2), 8, 24), _node((2, 2), 24, 24, cls_id=2),
             _node((3, 2), 40, 24, cls_id=3)]
    traces = [_reached((1, 2), (2, 2)), _reached((2, 2), (3, 2)), _dead((3, 2))]
    result = assemble(nodes, {0: 1, 1: 2}, traces, *_line_flags(maps, nodes))
    assert [c.cls_id for c in result.lines[0].chars] == [1, 2, 3]


def test_no_walk_leaves_an_end_of_line_node():
    # Both lines read right to left.  The upper line ends at (2, 5), whose
    # walk would drift down the blank field into (2, 6), the corridor of the
    # lower line, and reach (1, 6), the lower line's last character.  That
    # walk has chain history and the lower line's true walk from (3, 6) has
    # none, so it would win the edge and cut the lower line short.
    maps = blank_maps(GridShape(8, 6, 128, 96), 4)
    put_char(maps, 6, 5, 1, sol=1.0 - 1e-6)
    put_char(maps, 4, 5, 2)
    put_char(maps, 2, 5, 3, eol=1.0 - 1e-6)
    put_char(maps, 3, 6, 4, sol=1.0 - 1e-6)
    put_char(maps, 1, 6, 1, eol=1.0 - 1e-6)
    for i, j in ((6, 5), (5, 5), (4, 5), (3, 5), (3, 6), (2, 6)):
        set_rd(maps, i, j, Direction.LEFT)
    assert np.argmax(maps.rd[1, 4]) == Direction.DOWN  # the drift at (2, 5)
    result = decode(maps)
    assert [[c.grid for c in line.chars] for line in result.lines] == [
        [(6, 5), (4, 5), (2, 5)], [(3, 6), (1, 6)]
    ]
    assert not result.dropped
    for line in result.lines:
        assert line.traces[-1] == SearchTrace(line.chars[-1].grid, b"", END_OF_LINE)


def test_assemble_three_line_page():
    page = gen_page(PageConfig(n_lines=3, chars_per_line=(5, 5), n_cls=10, seed=8))
    result = decode(oracle_predict(page, OracleNoise()))
    assert result.transcripts() == page.annotation.lines


def test_decode_deterministic_on_noisy_maps():
    page = gen_page(PageConfig(n_lines=3, chars_per_line=(6, 6), n_cls=10, seed=4))
    noise = OracleNoise(jitter_sigma=0.15, label_swap_p=0.1, drop_p=0.05,
                        spurious_p=0.03, dir_flip_p=0.1, seed=21)
    maps = oracle_predict(page, noise)
    docs = {decode(maps).to_dict() == decode(maps).to_dict() for _ in range(3)}
    assert docs == {True}


# ---------------------------------------------------------------------------
# LM rescoring
# ---------------------------------------------------------------------------


def test_uniform_lm_preserves_noiseless_transcripts():
    page = gen_page(PageConfig(n_lines=2, chars_per_line=(6, 6), n_cls=15, seed=9))
    maps = oracle_predict(page, OracleNoise())
    result = decode(maps)
    rescored = rescore_with_lm(maps, result, NGramLM.uniform(15), beam=8)
    assert rescored.transcripts() == result.transcripts()
    assert [[c.box for c in ln.chars] for ln in rescored.lines] == [
        [c.box for c in ln.chars] for ln in result.lines
    ]


def test_zero_mass_class_never_emitted():
    page = gen_page(PageConfig(n_lines=1, chars_per_line=(4, 4), n_cls=5, seed=3))
    maps = oracle_predict(page, OracleNoise())
    result = decode(maps)
    banned = result.transcripts()[0][1]
    table = {(): {c: (0.0 if c == banned else 0.25) for c in range(1, 6)}}
    lm = NGramLM(n_cls=5, order=1, table=table)
    rescored = rescore_with_lm(maps, result, lm, beam=16)
    assert banned not in {c for line in rescored.transcripts() for c in line}


def test_lm_flips_ambiguous_second_char():
    # Frame scores prefer "ab" 0.51 to "ac" 0.49; the LM strongly prefers
    # class 3 after class 1, so the output flips to "ac".
    shape = GridShape(6, 3, 96, 48)
    maps = blank_maps(shape, 3)
    put_char(maps, 2, 2, 1, sol=0.99)
    put_char(maps, 4, 2, 2, eol=0.99)
    maps.cls[3, 1] = np.array([0.0, 0.51, 0.49], dtype=np.float32)
    set_rd(maps, 2, 2, Direction.RIGHT)
    set_rd(maps, 3, 2, Direction.RIGHT)
    result = decode(maps)
    assert result.transcripts() == [[1, 2]]
    lm = NGramLM(
        n_cls=3,
        order=2,
        table={
            (): {1: 0.9, 2: 0.05, 3: 0.05},
            (1,): {1: 0.01, 2: 0.01, 3: 0.98},
        },
    )
    rescored = rescore_with_lm(maps, result, lm, beam=32)
    assert rescored.transcripts() == [[1, 3]]
    # brute force over the same scoring formula agrees
    frames = frame_scores(maps, line_grid_sequence(result.lines[0]))
    best = exhaustive_best_labeling(frames, lm, alphabet=[1, 2, 3], max_len=3)
    assert best == [1, 3]


def test_frame_scores_match_a_per_frame_read():
    page = gen_page(PageConfig(n_lines=3, chars_per_line=(6, 9), n_cls=30, seed=4))
    maps = oracle_predict(page, OracleNoise(0.3, 0.1, 0.1, 0.05, 0.02, 0.02, seed=4))
    for line in decode(maps).lines:
        frames = line_grid_sequence(line)
        got = frame_scores(maps, frames)
        assert len(got) == len(frames) > 0
        for (blank, probs), (i, j) in zip(got, frames):
            assert type(blank) is float and blank == 1.0 - float(maps.dis[i - 1, j - 1])
            want = maps.cls[i - 1, j - 1].astype(np.float64)
            assert probs.dtype == np.float64 and np.array_equal(probs, want)
    assert frame_scores(maps, []) == []


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_beam_search_matches_exhaustive_enumeration(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    n_frames = data.draw(st.integers(1, 6))
    n_cls = 4
    frames = []
    for _ in range(n_frames):
        blank = float(rng.uniform(0.05, 0.95))
        probs = rng.dirichlet(np.ones(n_cls)).astype(np.float64)
        frames.append((blank, probs))
    seqs = [[1, 2, 3], [2, 3, 4], [1, 3]]
    lm = NGramLM.fit(seqs, n_cls=n_cls, order=2)
    got = beam_search_lm(frames, lm, beam=4096, top_k=None)
    want = exhaustive_best_labeling(frames, lm, alphabet=[1, 2, 3, 4], max_len=n_frames)
    got_score = ctc_forward(got, frames) * lm_product(got, lm)
    want_score = ctc_forward(want, frames) * lm_product(want, lm)
    assert math.isclose(got_score, want_score, rel_tol=1e-9)


def test_empty_line_returned_unchanged():
    page = gen_page(PageConfig(n_lines=1, chars_per_line=(3, 3), n_cls=5, seed=1))
    maps = oracle_predict(page, OracleNoise())
    result = decode(maps)

    empty = PageResult(lines=[Line(chars=[], traces=[], sol_conf=0, eol_conf=0)])
    out = rescore_with_lm(maps, empty, NGramLM.uniform(5))
    assert out.lines[0].chars == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("dis_threshold", 1.5),
        ("dis_threshold", -0.1),
        ("nms_iou", float("nan")),
        ("nms_iou", -1.0),
        ("sol_eol_threshold", 2.0),
        ("max_steps", 0),
        ("max_steps", -3),
    ],
)
def test_decode_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        DecodeConfig(**{field: value})


def test_decode_config_accepts_closed_interval_ends():
    DecodeConfig(dis_threshold=0.0, nms_iou=1.0, sol_eol_threshold=0.0, max_steps=1)
    DecodeConfig(dis_threshold=1.0, nms_iou=0.0, sol_eol_threshold=1.0, max_steps=None)


# Any maps that pass PredictionMaps.validate decode, under any valid
# DecodeConfig, to a result that passes validate_result.

_UNIT = st.floats(0.0, 1.0, width=32)
_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=32)
# Few distinct values: ties in every argmax and NMS score, and box extents
# that are zero or negative.
_COARSE_UNIT = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_COARSE_BOX = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0])


def _rows(draw, shape, unit=_UNIT):
    """Float32 rows that sum to 1: drawn weights over their sum."""
    raw = draw(arrays(np.float32, shape, elements=unit)).astype(np.float64)
    raw[raw.sum(axis=-1) == 0] = 1.0  # an all-zero row becomes uniform
    return (raw / raw.sum(axis=-1, keepdims=True)).astype(np.float32)


@st.composite
def _valid_maps(draw, unit=_UNIT, box=_FINITE, max_side=5):
    w, h = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    n_cls = draw(st.integers(1, 4))
    img_w, img_h = draw(st.floats(*IMAGE_SIZE_RANGE)), draw(st.floats(*IMAGE_SIZE_RANGE))
    maps = PredictionMaps(
        shape=GridShape(w, h, img_w, img_h),
        n_cls=n_cls,
        box=draw(arrays(np.float32, (w, h, 4), elements=box)),
        dis=draw(arrays(np.float32, (w, h), elements=unit)),
        cls=_rows(draw, (w, h, n_cls), unit),
        sol=draw(arrays(np.float32, (w, h), elements=unit)),
        eol=draw(arrays(np.float32, (w, h), elements=unit)),
        rd=_rows(draw, (w, h, 4), unit),
    )
    maps.validate()
    return maps


_DECODE_CONFIGS = st.builds(
    DecodeConfig,
    dis_threshold=st.floats(0.0, 1.0),
    nms_iou=st.floats(0.0, 1.0),
    sol_eol_threshold=st.floats(0.0, 1.0),
    max_steps=st.none() | st.integers(1, 12),
)


@settings(deadline=None, max_examples=200)
@given(_valid_maps(), _DECODE_CONFIGS)
def test_valid_maps_decode_to_a_valid_result(maps, config):
    validate_result(decode(maps, config))


# decode, with its table-driven walks and gathered reads, equals a decode
# composed from the per-value reference layers: lines, traces and dropped
# characters, every float included.


@settings(deadline=None, max_examples=300)
@given(
    _valid_maps(max_side=8) | _valid_maps(_COARSE_UNIT, _COARSE_BOX, max_side=8),
    _DECODE_CONFIGS | st.builds(DecodeConfig, dis_threshold=_COARSE_UNIT),
)
def test_decode_matches_reference_layers(maps, config):
    result = decode(maps, config)
    assert result == _decode_reference(maps, config)
    for line in result.lines:
        (i, j), (k, m) = line.chars[0].grid, line.chars[-1].grid
        assert (line.sol_conf, line.eol_conf) == (
            float(maps.sol[i - 1, j - 1]), float(maps.eol[k - 1, m - 1])
        )


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_follow_matches_reference(data):
    w, h = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    maps = blank_maps(GridShape(w, h, 16.0 * w, 16.0 * h), 1)
    maps.rd = _rows(data.draw, (w, h, 4), data.draw(st.sampled_from([_UNIT, _COARSE_UNIT])))
    grids = st.tuples(st.integers(1, w), st.integers(1, h))
    scores = _COARSE_UNIT | st.floats(0.0, 1.0)
    node_scores = data.draw(st.dictionaries(grids, scores, max_size=w * h))
    # Edge grids, where the border ends a walk or flanks its final grid,
    # are drawn more often.
    origin = data.draw(st.tuples(
        st.sampled_from([1, w]) | st.integers(1, w), st.sampled_from([1, h]) | st.integers(1, h)
    ))
    node_scores.setdefault(origin, data.draw(scores))
    max_steps = data.draw(st.integers(1, 2 * (w + h)))
    trace = _follow(maps, origin, node_scores, max_steps)
    visited, outcome, target = _walk_reference(maps, origin, node_scores, max_steps)
    assert (trace.origin, trace.visited, trace.outcome, trace.target) == (
        origin, visited, outcome, target
    )


@given(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    st.lists(st.sampled_from(list(Direction)), max_size=40).map(bytes),
)
@example((1, 1), b"")
def test_trace_rebuilds_its_walk_from_moves(origin, moves):
    walk = [origin]
    for d in moves:
        walk.append(step(walk[-1], d))
    trace = SearchTrace(origin, moves, BOUNDARY)
    assert trace.visited == walk


def _some_grids(w, h):
    """Distinct grids of a w x h lattice in any order, from one to all."""
    every = [(i, j) for j in range(1, h + 1) for i in range(1, w + 1)]
    return st.tuples(st.permutations(every), st.integers(1, w * h)).map(
        lambda t: t[0][:t[1]]
    )


@st.composite
def _edge_problems(draw):
    """Nodes at distinct grids, one trace each: a dead or end-of-line trace,
    or one reaching a node.  Reaching the next node builds chains, and so
    angle history; reaching one of the first few funnels many sources into
    one target."""
    grids = draw(_some_grids(4, 4))
    n = len(grids)
    coord = st.sampled_from([0.0, 10.0, 20.0]) | st.floats(0.0, 100.0)
    nodes = [_node(g, draw(coord), draw(coord), score=draw(_COARSE_UNIT)) for g in grids]
    targets = st.just(None) | st.integers(0, n - 1) | st.integers(0, min(n, 3) - 1)
    traces = []
    for k, g in enumerate(grids):
        t = draw(st.just(min(k + 1, n - 1)) | targets)
        if t is None:
            traces.append(SearchTrace(g, b"", draw(st.sampled_from([BOUNDARY, END_OF_LINE]))))
        else:
            traces.append(_reached(g, grids[t]))
    return nodes, traces


def _edge_problem(grids, targets):
    """Nodes at ``grids``, each 10 px per grid step, and one trace each:
    reaching node ``targets[k]``, or dead where it is None."""
    nodes = [_node(g, 10.0 * g[0] + 0.5 * g[1], 10.0 * g[1], score=0.5) for g in grids]
    traces = [_dead(g) if t is None else _reached(g, grids[t]) for g, t in zip(grids, targets)]
    return nodes, traces


@settings(deadline=None, max_examples=300)
@given(_edge_problems())
# Three uncontested traces that commit a cycle (0 -> 1 -> 2 -> 0), beside a
# target (6) contested by two sources with chain history (3 -> 4, 7 -> 5)
# and one without (8).
@example(_edge_problem(
    [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (4, 3), (1, 3), (2, 3)],
    [1, 2, 0, 4, 6, 6, None, 5, 6],
))
# A trace that targets its own node's grid: uncontested (3), and contested
# (0) by a source with chain history (2 -> 1).
@example(_edge_problem([(1, 1), (2, 1), (3, 1), (4, 4)], [0, 0, 1, 3]))
def test_resolve_edges_matches_reference(problem):
    nodes, traces = problem
    assert resolve_edges(nodes, traces) == _resolve_edges_reference(nodes, traces)


@st.composite
def _assembly_problems(draw):
    """Nodes with any edge mapping.  Most edges run to the next node, so
    chains are long; the rest make cycles, self-edges, and targets shared by
    several sources, so a chain can run back into itself or into a line
    already taken."""
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grids = draw(_some_grids(w, h))
    maps = blank_maps(GridShape(w, h, 16.0 * w, 16.0 * h), 1)
    maps.sol = draw(arrays(np.float32, (w, h), elements=_COARSE_UNIT))
    maps.eol = draw(arrays(np.float32, (w, h), elements=_COARSE_UNIT))
    n = len(grids)
    edges = {}
    for k in range(n):
        t = draw(st.just(k + 1) | st.none() | st.integers(0, n - 1))
        if t is not None and t < n:
            edges[k] = t
    nodes = [_node(g, 16.0 * g[0] - 8, 16.0 * g[1] - 8) for g in grids]
    return nodes, edges, [_dead(g) for g in grids], maps


@settings(deadline=None, max_examples=300)
@given(_assembly_problems(), st.builds(DecodeConfig, sol_eol_threshold=_COARSE_UNIT))
def test_assemble_matches_reference(problem, config):
    nodes, edges, traces, maps = problem
    sol, eol = _line_flags(maps, nodes)
    assert assemble(nodes, edges, traces, sol, eol, config) == _assemble_reference(
        nodes, edges, traces, maps, config
    )


def test_serpentine_page_decodes_to_one_line():
    # A character on every grid of a 32 x 32 page, read in one line that
    # snakes right along odd rows and left along even ones.
    n = 32
    maps = blank_maps(GridShape(n, n, 16.0 * n, 16.0 * n), 2)
    order = [(i if j % 2 else n + 1 - i, j) for j in range(1, n + 1) for i in range(1, n + 1)]
    for (i, j), (k, m) in zip(order, order[1:]):
        put_char(maps, i, j, 1)
        set_rd(maps, i, j, _DELTA_TO_DIR[(k - i, m - j)])
    put_char(maps, *order[0], 1, sol=1.0 - 1e-6)
    put_char(maps, *order[-1], 2, eol=1.0 - 1e-6)
    result = decode(maps)
    assert [[c.grid for c in line.chars] for line in result.lines] == [order]
    assert not result.dropped
