import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row_set, set_rd, staircase
from gridtext.decoder import (
    BOUNDARY,
    END_OF_LINE,
    CharInstance,
    Line,
    PageResult,
    SearchTrace,
    decode,
)
from gridtext.geometry import Box, GridShape, grid_of
from gridtext.matching import PageAnnotation
from gridtext.pseudolabels import (
    PseudoLabel,
    PseudoLabelStore,
    build_targets,
    distinct_rows,
    gen_paths,
    update,
    update_weight,
)
from gridtext.predictions import DIR_DELTAS, Direction, OracleNoise, oracle_predict
from gridtext.synth import PageConfig, gen_page

SHAPE = GridShape(8, 8, 128, 128)


def _cell_box(i, j, shape=SHAPE):
    return Box((i - 0.5) * shape.cell_w, (j - 0.5) * shape.cell_h, 0.08, 0.08)


def _result_with(chars):
    line = Line(
        chars=[
            CharInstance(grid=g, box=b, score=s, cls_id=c)
            for g, b, s, c in chars
        ],
        traces=[],
        sol_conf=1.0,
        eol_conf=1.0,
    )
    return PageResult(lines=[line])


def test_update_weight_symmetry_exact():
    assert update_weight(0.8, 0.8) == 0.5
    assert update_weight(0.123, 0.123, epsilon=3.7) == 0.5


def test_update_weight_hand_value():
    want = 1.0 / (1.0 + math.exp(-1.0))
    assert math.isclose(update_weight(0.9, 0.8, 10.0), want, abs_tol=1e-12)


def test_update_first_observation_copies():
    store = PseudoLabelStore()
    box = _cell_box(3, 3)
    result = _result_with([((3, 3), box, 0.87, 5)])
    update(store, "pg", {(1, 1, 1, 1)}, result)
    label = store.labels("pg")[(1, 1)]
    assert label.box == box
    assert label.gamma == 0.87
    assert label.count == 1


def test_update_blends_convexly():
    store = PseudoLabelStore()
    old_box = Box(40, 40, 0.1, 0.1)
    store.page("pg")[(1, 1)] = PseudoLabel(box=old_box, gamma=0.9)
    new_box = Box(44, 38, 0.12, 0.1)
    result = _result_with([((3, 3), new_box, 0.8, 5)])
    update(store, "pg", {(1, 1, 1, 1)}, result, epsilon=10.0)
    label = store.labels("pg")[(1, 1)]
    lam = 1.0 / (1.0 + math.exp(-1.0))
    assert math.isclose(label.box.x, lam * 40 + (1 - lam) * 44, abs_tol=1e-12)
    assert math.isclose(label.gamma, lam * 0.9 + (1 - lam) * 0.8, abs_tol=1e-12)
    assert label.count == 2
    assert min(40, 44) <= label.box.x <= max(40, 44)
    assert min(0.8, 0.9) <= label.gamma <= max(0.8, 0.9)


@settings(deadline=None, max_examples=100)
@given(
    gamma=st.floats(0.01, 1.0),
    score=st.floats(0.01, 1.0),
    eps=st.floats(0.0, 10.0),
)
def test_gamma_stays_in_convex_hull(gamma, score, eps):
    lam = update_weight(gamma, score, eps)
    blended = lam * gamma + (1 - lam) * score
    assert 0.0 < lam < 1.0
    assert min(gamma, score) <= blended <= max(gamma, score)


def _labels(*grid_pairs):
    out = {}
    for (q, n), grid in grid_pairs:
        out[(q, n)] = PseudoLabel(box=_cell_box(*grid), gamma=0.9)
    return out


def _grids(labels):
    """The labels' sorted (q, n) rows and their grid rows, as
    ``build_targets`` passes them to ``gen_paths``."""
    keys = sorted(labels)
    return (np.array(keys, dtype=np.intp).reshape(-1, 2),
            np.array([grid_of(labels[k].box, SHAPE) for k in keys], dtype=np.intp).reshape(-1, 2))


def test_gen_paths_same_grid_contributes_nothing():
    labels = _labels(((1, 1), (2, 2)))
    labels[(1, 2)] = PseudoLabel(box=Box(_cell_box(2, 2).x + 1, _cell_box(2, 2).y, 0.08, 0.08), gamma=0.9)
    annot = PageAnnotation(lines=[[1, 2]])
    rng = np.random.default_rng(0)
    assert grid_of(labels[(1, 2)].box, SHAPE) == (2, 2)
    assert gen_paths(*_grids(labels), annot, rng).shape == (0, 3)


def test_gen_paths_horizontal_pair_deterministic():
    labels = _labels(((1, 1), (2, 2)), ((1, 2), (4, 2)))
    annot = PageAnnotation(lines=[[1, 2]])
    rng = np.random.default_rng(0)
    want = [[2, 2, 1], [3, 2, 1]]  # two RIGHT moves
    assert gen_paths(*_grids(labels), annot, rng).tolist() == want


def test_gen_paths_two_staircases_both_occur():
    labels = _labels(((1, 1), (2, 2)), ((1, 2), (3, 3)))
    annot = PageAnnotation(lines=[[1, 2]])
    variants = set()
    for seed in range(64):
        s_rd = gen_paths(*_grids(labels), annot, np.random.default_rng(seed))
        variants.add(frozenset(row_set(s_rd)))
    right_then_down = frozenset({(2, 2, 1), (3, 2, 2)})
    down_then_right = frozenset({(2, 2, 2), (2, 3, 1)})
    assert variants == {right_then_down, down_then_right}


@settings(deadline=None, max_examples=60)
@given(
    si=st.integers(1, 8), sj=st.integers(1, 8),
    ti=st.integers(1, 8), tj=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
def test_gen_paths_adjacency_and_endpoint(si, sj, ti, tj, seed):
    labels = _labels(((1, 1), (si, sj)), ((1, 2), (ti, tj)))
    annot = PageAnnotation(lines=[[1, 2]])
    rng = np.random.default_rng(seed)
    s_rd = gen_paths(*_grids(labels), annot, rng)
    dist = abs(ti - si) + abs(tj - sj)
    assert s_rd.shape == (dist, 3)
    # replay the emitted steps: they must chain 4-adjacent from source to target
    pos = (si, sj)
    remaining = dict(((i, j), d) for i, j, d in s_rd.tolist())
    for _ in range(dist):
        d = remaining.pop(pos)
        di, dj = DIR_DELTAS[d]
        pos = (pos[0] + di, pos[1] + dj)
    assert pos == (ti, tj)
    assert not remaining


def _gen_paths_reference(labels, annot, shape, rng):
    """One pair at a time, each grid recomputed: every step of a pair draws
    a scalar ``rng.random`` key, and the pair's vertical moves take the
    slots of its ``n_vert`` smallest keys.  Returns the set of (i, j, d)
    steps."""
    s_rd = set()
    for q, line in enumerate(annot.lines, start=1):
        for n in range(1, len(line)):
            a = labels.get((q, n))
            b = labels.get((q, n + 1))
            if a is None or b is None:
                continue
            src = grid_of(a.box, shape)
            dst = grid_of(b.box, shape)
            total = abs(dst[0] - src[0]) + abs(dst[1] - src[1])
            n_vert = abs(dst[1] - src[1])
            keys = [rng.random() for _ in range(total)]
            slots = sorted(range(total), key=keys.__getitem__)[:n_vert]
            for i, j, d in staircase(src, dst, vertical_slots=slots):
                s_rd.add((i, j, int(d)))
    return s_rd


_MOVES = ("same grid", "same cell", "horizontal", "vertical", "mixed", "missing")


@st.composite
def _path_cases(draw):
    """Lines whose consecutive labels mix every kind of pair: on one grid,
    horizontal only, vertical only, both, and with a label missing."""
    lines, labels = [], {}
    for q in range(1, draw(st.integers(1, 3)) + 1):
        lines.append(list(range(1, draw(st.integers(1, 6)) + 1)))
        i, j = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        for n in lines[-1]:
            move = draw(st.sampled_from(_MOVES))
            if move in ("horizontal", "mixed"):
                i = draw(st.integers(1, 8).filter(lambda v, i=i: v != i))
            if move in ("vertical", "mixed"):
                j = draw(st.integers(1, 8).filter(lambda v, j=j: v != j))
            box = _cell_box(i, j)
            if move == "same cell":  # off the centre, in the same grid
                box = Box(box.x + 3.0, box.y - 2.0, 0.05, 0.1)
            if move != "missing":
                labels[(q, n)] = PseudoLabel(box=box, gamma=0.9)
    return labels, PageAnnotation(lines=lines)


def _sorted_rows(steps, width):
    return np.array(sorted(steps), dtype=np.intp).reshape(-1, width)


@settings(deadline=None, max_examples=200)
@given(case=_path_cases(), seed=st.integers(0, 2**32 - 1))
def test_gen_paths_matches_reference_and_leaves_the_same_rng_state(case, seed):
    labels, annot = case
    want_rng = np.random.default_rng(seed)
    want = _sorted_rows(_gen_paths_reference(labels, annot, SHAPE, want_rng), 3)
    rng = np.random.default_rng(seed)
    got = gen_paths(*_grids(labels), annot, rng)
    assert got.dtype == np.intp and np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state
    rng = np.random.default_rng(seed)
    targets = build_targets(labels, annot, PageResult(lines=[]), set(), SHAPE, rng)
    assert np.array_equal(targets.s_rd, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("dx, dy", [(2, 2), (1, 1), (3, 1), (1, 3), (3, 2), (-2, 2), (2, -2)])
def test_gen_paths_picks_each_vertical_subset_of_a_pair_equally_often(dx, dy):
    """6,000 pairs, each ``dx`` grids right and ``dy`` down (left or up
    when negative), each on rows of its own: each of the ways to place the
    ``|dy|`` vertical moves among the pair's steps is drawn within 5
    binomial standard deviations of its equal share."""
    n_pairs = 6000
    stride = abs(dy) + 1  # pair q's steps lie on rows stride * q to stride * q + |dy|
    q = np.repeat(np.arange(1, n_pairs + 1), 2)
    keys = np.stack([q, np.tile([1, 2], n_pairs)], axis=1)
    i0, j0 = 1 + max(-dx, 0), max(-dy, 0)
    grids = np.stack([np.tile([i0, i0 + dx], n_pairs),
                      stride * q + np.tile([j0, j0 + dy], n_pairs)], axis=1)
    annot = PageAnnotation(lines=[[1, 1]] * n_pairs)
    s_rd = gen_paths(keys, grids, annot, np.random.default_rng(36))
    paths: dict[int, set] = {}
    for i, j, d in s_rd.tolist():
        paths.setdefault(j // stride, set()).add((i, j % stride, d))
    total = abs(dx) + abs(dy)
    assert len(paths) == n_pairs and all(len(path) == total for path in paths.values())
    counts = Counter(frozenset(path) for path in paths.values())
    assert len(counts) == math.comb(total, abs(dy))
    p = 1 / len(counts)
    sd = math.sqrt(n_pairs * p * (1 - p))
    for path, count in counts.items():
        assert abs(count - n_pairs * p) <= 5 * sd, (sorted(path), count)


@given(width=st.integers(2, 4), data=st.data())
def test_distinct_rows_lists_rows_as_sorted_set_does(width, data):
    rows = data.draw(st.lists(st.tuples(*[st.integers(-2, 9)] * width), max_size=40)
                     | st.lists(st.tuples(*[st.integers(0, 2)] * width), max_size=40))
    got = distinct_rows(np.array(rows, dtype=np.intp).reshape(-1, width))
    assert got.shape == (len(set(rows)), width)
    assert [tuple(r) for r in got.tolist()] == sorted(set(rows))


def _build_targets_reference(labels, annot, result, m_ce, shape, rng):
    """The set-based body ``build_targets`` had before it built sorted rows,
    with ``_gen_paths_reference``'s per-step keys; returns each target set
    by name."""
    grids = {key: grid_of(label.box, shape) for key, label in labels.items()}
    per_grid = {}
    for (q, n) in sorted(labels):
        g = grids[(q, n)]
        prev = per_grid.get(g)
        if prev is None or labels[(q, n)].gamma > labels[prev].gamma:
            per_grid[g] = (q, n)
    out = {name: set() for name in
           ("s_c", "s_d_neg", "s_s_pos", "s_s_neg", "s_e_pos", "s_e_neg")}
    for g, (q, n) in per_grid.items():
        out["s_c"].add((g[0], g[1], q, n))
    for p, m in sorted(m_ce):
        line = result.lines[p - 1]
        if m - 1 < len(line.traces):
            out["s_d_neg"].update(line.traces[m - 1].visited[1:])
    for i, j, q, n in out["s_c"]:
        if n == 1:
            out["s_s_pos"].add((i, j))
        if n == len(annot.lines[q - 1]):
            out["s_e_pos"].add((i, j))
    all_grids = {(i, j) for i, j, _, _ in out["s_c"]}
    out["s_s_neg"] = all_grids - out["s_s_pos"]
    out["s_e_neg"] = all_grids - out["s_e_pos"]
    out["s_rd"] = _gen_paths_reference(labels, annot, shape, rng)
    return out


@st.composite
def _target_cases(draw):
    """Labels that may share grids with equal or differing gamma, and a
    decoded page whose traces walk, end at once or repeat grids, with
    consecutive-equal pairs that name characters with and without a trace."""
    labels, annot = draw(_path_cases())
    gammas = st.sampled_from([0.25, 0.5, 0.9]) | st.floats(0.0, 1.0)
    for key in list(labels):
        box = labels[key].box
        if draw(st.booleans()):  # onto a small corner of the lattice: collisions
            i, j = draw(st.integers(1, 2)), draw(st.integers(1, 2))
            box = Box(_cell_box(i, j).x + draw(st.floats(-7.0, 7.0)), _cell_box(i, j).y, 0.08, 0.08)
        labels[key] = PseudoLabel(box=box, gamma=draw(gammas))
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        n_chars = draw(st.integers(1, 4))
        chars = [CharInstance(grid=(1, 1), box=_cell_box(1, 1), score=1.0, cls_id=1)
                 for _ in range(n_chars)]
        traces = [
            SearchTrace(origin=(draw(st.integers(1, 8)), draw(st.integers(1, 8))),
                        moves=bytes(draw(st.lists(st.integers(0, 3), max_size=6))),
                        outcome=END_OF_LINE)
            for _ in range(draw(st.integers(0, n_chars)))
        ]
        lines.append(Line(chars=chars, traces=traces, sol_conf=1.0, eol_conf=1.0))
    m_ce = {(p, m) for p, line in enumerate(lines, 1) for m in range(1, len(line.chars) + 1)
            if draw(st.booleans())}
    return labels, annot, PageResult(lines=lines), m_ce


@settings(deadline=None, max_examples=200)
@given(case=_target_cases(), seed=st.integers(0, 2**32 - 1))
def test_build_targets_matches_reference(case, seed):
    """Every target array holds the reference's set as distinct rows in
    sorted order, and the generator ends in the reference's state."""
    labels, annot, result, m_ce = case
    want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _build_targets_reference(labels, annot, result, m_ce, SHAPE, want_rng)
    targets = build_targets(labels, annot, result, m_ce, SHAPE, rng)
    for name, rows in want.items():
        got = getattr(targets, name)
        assert got.dtype == np.intp, name
        assert np.array_equal(got, _sorted_rows(rows, {"s_c": 4, "s_rd": 3}.get(name, 2))), name
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_store_labels_reads_without_adding_a_page():
    store = PseudoLabelStore()
    assert store.labels("absent") == {}
    assert store.page_ids() == []
    label = PseudoLabel(box=_cell_box(2, 2), gamma=0.5)
    store.page("written")[(1, 1)] = label
    assert store.labels("written") == {(1, 1): label}
    assert store.page_ids() == ["written"]


def test_build_targets_single_char_line():
    labels = _labels(((1, 1), (4, 4)))
    annot = PageAnnotation(lines=[[7]])
    result = PageResult(lines=[])
    targets = build_targets(labels, annot, result, set(), SHAPE, np.random.default_rng(0))
    assert targets.s_c.tolist() == [[4, 4, 1, 1]]
    assert targets.s_s_pos.tolist() == [[4, 4]] and targets.s_e_pos.tolist() == [[4, 4]]
    assert targets.s_s_neg.shape == targets.s_e_neg.shape == (0, 2)
    assert targets.s_rd.shape == (0, 3)


def test_build_targets_empty_store():
    annot = PageAnnotation(lines=[[1, 2, 3]])
    targets = build_targets({}, annot, PageResult(lines=[]), set(), SHAPE,
                            np.random.default_rng(0))
    assert targets.s_c.shape == (0, 4)
    assert targets.s_d_neg.shape == (0, 2)
    assert targets.s_s_pos.shape == targets.s_s_neg.shape == (0, 2)
    assert targets.s_rd.shape == (0, 3)


def test_build_targets_three_char_line_sol_eol_sets():
    labels = _labels(((1, 1), (2, 2)), ((1, 2), (4, 2)), ((1, 3), (6, 2)))
    annot = PageAnnotation(lines=[[1, 2, 3]])
    targets = build_targets(labels, annot, PageResult(lines=[]), set(), SHAPE,
                            np.random.default_rng(0))
    assert targets.s_s_pos.tolist() == [[2, 2]]
    assert targets.s_s_neg.tolist() == [[4, 2], [6, 2]]
    assert targets.s_e_pos.tolist() == [[6, 2]]
    assert targets.s_e_neg.tolist() == [[2, 2], [4, 2]]
    assert row_set(targets.s_s_pos).isdisjoint(row_set(targets.s_s_neg))
    assert row_set(targets.s_e_pos).isdisjoint(row_set(targets.s_e_neg))


def test_build_targets_collision_keeps_higher_gamma():
    labels = {
        (1, 1): PseudoLabel(box=_cell_box(3, 3), gamma=0.4),
        (2, 1): PseudoLabel(box=Box(_cell_box(3, 3).x + 2, _cell_box(3, 3).y, 0.08, 0.08), gamma=0.9),
    }
    annot = PageAnnotation(lines=[[1], [2]])
    targets = build_targets(labels, annot, PageResult(lines=[]), set(), SHAPE,
                            np.random.default_rng(0))
    assert targets.s_c.tolist() == [[3, 3, 2, 1]]


def test_build_targets_d_neg_from_traces():
    char = CharInstance(grid=(2, 2), box=_cell_box(2, 2), score=1.0, cls_id=1)
    trace = SearchTrace(origin=(2, 2), moves=bytes([Direction.RIGHT, Direction.RIGHT]),
                        outcome="reached", target=(5, 2))
    result = PageResult(lines=[Line(chars=[char], traces=[trace], sol_conf=1,
                                    eol_conf=1)])
    annot = PageAnnotation(lines=[[1]])
    targets = build_targets({}, annot, result, {(1, 1)}, SHAPE,
                            np.random.default_rng(0))
    assert targets.s_d_neg.tolist() == [[3, 2], [4, 2]]


def test_build_targets_d_neg_skips_end_of_line_chars_on_a_decoded_page():
    # A line's last character has a path only when no end-of-line flag ended
    # its line: an end-of-line node never walks.  Line 2's last flag is
    # cleared, and the directions from its last node to the page's right
    # edge, the empty tail of its horizontal line, point right, so that
    # node walks off the page and its path counts.
    page = gen_page(PageConfig(n_lines=3, chars_per_line=(4, 6), n_cls=10, seed=11))
    maps = oracle_predict(page, OracleNoise())
    i, j = grid_of(page.annotation.boxes[1][-1], page.shape)
    maps.eol[i - 1, j - 1] = 1e-6
    for tail in range(i, page.shape.w_g + 1):
        set_rd(maps, tail, j, Direction.RIGHT)
    result = decode(maps)
    assert result.transcripts() == page.annotation.lines
    m_ce = {(p, m) for p, line in enumerate(result.lines, 1)
            for m in range(1, len(line.chars) + 1)}
    targets = build_targets({}, page.annotation, result, m_ce, page.shape,
                            np.random.default_rng(0))
    last = [line.traces[-1] for line in result.lines]
    assert [t.outcome for t in last] == [END_OF_LINE, BOUNDARY, END_OF_LINE]
    assert last[0].visited[1:] == last[2].visited[1:] == [] and last[1].visited[1:]
    assert row_set(targets.s_d_neg) == {
        g for line in result.lines for trace in line.traces for g in trace.visited[1:]
    }


def test_store_save_load_round_trip(tmp_path):
    store = PseudoLabelStore()
    store.page("a")[(1, 1)] = PseudoLabel(box=Box(10, 10, 0.1, 0.1), gamma=0.5, count=3)
    store.page("b")[(2, 4)] = PseudoLabel(box=Box(20, 20, 0.2, 0.2), gamma=0.9)
    path = tmp_path / "store.jsonl"
    store.save(path)
    loaded = PseudoLabelStore.load(path)
    assert loaded.page("a") == store.page("a")
    assert loaded.page("b") == store.page("b")


def test_update_requires_valid_indices():
    store = PseudoLabelStore()
    result = _result_with([((3, 3), _cell_box(3, 3), 0.9, 1)])
    with pytest.raises(IndexError):
        update(store, "pg", {(2, 1, 1, 1)}, result)
