import copy
import json
import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import RecordingGenerator, staircase
from gridtext import predictions
from gridtext.geometry import Box, GridShape, cells, grid_of
from gridtext.matching import PageAnnotation
from gridtext.predictions import (
    _HEADER,
    EPS,
    FORMAT_VERSION,
    MAGIC,
    Direction,
    GridCollisionError,
    MapFormatError,
    OracleNoise,
    PredictionMaps,
    MAX_SIZE_SIGMA,
    ROW_SUM_TOL,
    RenderPlan,
    _apply_noise,
    _blank_maps,
    _check_version,
    _header,
    _in_unit_interval,
    _load_json,
    _rows_sum_to_one,
    _tensor_shapes,
    load_maps,
    oracle_predict,
    path_rows,
    render_plan,
    save_maps,
    staircase_rows,
)
from gridtext.pseudolabels import PseudoLabelStore
from gridtext.simloop import StageConfig, run_stage
from gridtext.synth import LAYOUT_KINDS, Layout, PageConfig, SyntheticPage, gen_page


@pytest.fixture(scope="module")
def page():
    return gen_page(PageConfig(n_lines=3, chars_per_line=(6, 6), n_cls=20, seed=5))


def test_zero_noise_dis_exact(page):
    maps = oracle_predict(page, OracleNoise())
    for line in page.annotation.boxes:
        for box in line:
            i, j = grid_of(box, page.shape)
            assert maps.dis[i - 1, j - 1] == np.float32(1.0 - EPS)
    assert float(maps.dis.max()) <= 1.0
    maps.validate()


def test_zero_noise_round_trip(page):
    from gridtext.decoder import decode

    result = decode(oracle_predict(page, OracleNoise()))
    assert result.transcripts() == page.annotation.lines
    got = [[c.grid for c in line.chars] for line in result.lines]
    want = [[grid_of(box, page.shape) for box in line] for line in page.annotation.boxes]
    assert got == want
    assert not result.dropped


def test_same_seed_bit_identical(page):
    noise = OracleNoise(jitter_sigma=0.1, label_swap_p=0.2, drop_p=0.1,
                        spurious_p=0.02, dir_flip_p=0.1, seed=7)
    a = oracle_predict(page, noise)
    b = oracle_predict(page, noise)
    assert a.equals(b)


def test_different_seeds_differ(page):
    noise = OracleNoise(jitter_sigma=0.1, seed=1)
    a = oracle_predict(page, noise)
    b = oracle_predict(page, OracleNoise(jitter_sigma=0.1, seed=2))
    assert not a.equals(b)


def test_noisy_rows_stay_normalized(page):
    noise = OracleNoise(jitter_sigma=0.2, size_sigma=0.1, label_swap_p=0.3,
                        drop_p=0.2, spurious_p=0.05, dir_flip_p=0.3, seed=3)
    maps = oracle_predict(page, noise)
    maps.validate()
    assert np.abs(maps.cls.sum(axis=-1) - 1).max() < 1e-5
    assert np.abs(maps.rd.sum(axis=-1) - 1).max() < 1e-5


def _collision_page():
    shape = GridShape(8, 8, 128, 128)
    box_a = Box(40, 40, 0.1, 0.1)
    box_b = Box(42, 42, 0.1, 0.1)  # same grid cell as box_a
    annot = PageAnnotation(lines=[[1, 2]], boxes=[[box_a, box_b]], page_id="x")
    return SyntheticPage(shape=shape, n_cls=4, annotation=annot, layout=None)


def _hand_page(*lines: list[tuple[int, int]]) -> SyntheticPage:
    """A page on an 8x8 lattice of 16-pixel cells with one character
    centred in each listed grid; character k of a line has class k % 4 + 1."""
    shape = GridShape(8, 8, 128, 128)
    boxes = [[Box(16 * i - 8, 16 * j - 8, 0.1, 0.1) for i, j in line] for line in lines]
    classes = [[k % 4 + 1 for k in range(len(line))] for line in lines]
    annot = PageAnnotation(lines=classes, boxes=boxes, page_id="hand")
    return SyntheticPage(shape=shape, n_cls=4, annotation=annot, layout=None)


def test_grid_collision_raises():
    page = _collision_page()
    for _ in range(2):  # a failed plan is never kept
        with pytest.raises(GridCollisionError):
            oracle_predict(page, OracleNoise())


def test_size_noise_that_shrinks_a_box_to_nothing_raises():
    # A box 5e-324 wide, the least positive float, is 0 wide once the size
    # noise scales it by a factor of one half or less.
    page = _hand_page([(i, 2) for i in range(1, 9)])
    for line in page.annotation.boxes:
        for box in line:
            box.w = 5e-324
    with pytest.raises(ValueError, match="box extent must be > 0"):
        oracle_predict(page, OracleNoise(size_sigma=1.0, seed=0))


# The staircase (2,2)->(5,4) runs right through (4,2); the later line's
# (4,1)->(4,3) runs down through it, and its row wins.
_CROSSING_PAGE = _hand_page([(2, 2), (5, 4)], [(4, 1), (4, 3)])


@pytest.mark.parametrize("page, message", [
    (_collision_page(), "characters 0 and 1 share grid (3, 3)"),
    (_hand_page([(2, 2), (5, 2)], [(3, 2)]),
     "inter-character path (2, 2)->(5, 2) crosses character at (3, 2)"),
], ids=["shared-grid", "path-crosses-char"])
def test_grid_collision_messages(page, message):
    with pytest.raises(GridCollisionError, match=f"^{re.escape(message)}$"):
        oracle_predict(page, OracleNoise())
    with pytest.raises(GridCollisionError, match=f"^{re.escape(message)}$"):
        render_plan(page)


def test_run_stage_rejects_a_collision_page_before_any_pass():
    pages = [gen_page(PageConfig(n_lines=1, chars_per_line=(3, 3), n_cls=4)), _collision_page()]
    store = PseudoLabelStore()
    with pytest.raises(GridCollisionError, match="share grid"):
        run_stage(pages, store, StageConfig(real_prob=1.0))
    assert store.n_labels() == 0


# The loop render and noise model that the render plan's arrays replaced
# live on as the test oracle: one write per character, path grid and line
# end, then one noise step per character.


def _rd_row(d: int) -> np.ndarray:
    row = np.full(4, EPS, dtype=np.float32)
    row[d] = 1.0 - 3 * EPS
    return row


def _one_hot(n: int, idx0: int) -> np.ndarray:
    row = np.zeros(n, dtype=np.float32)
    row[idx0] = 1.0
    return row


def _set_rel(maps, grid, box):
    s = maps.shape
    maps.box[grid[0] - 1, grid[1] - 1] = (
        box.x / s.img_w * s.w_g - (grid[0] - 1),
        box.y / s.img_h * s.h_g - (grid[1] - 1),
        box.w,
        box.h,
    )


def _clamp_to_cell(x, lo, hi):
    return min(max(x, lo + 1e-9 * (hi - lo)), hi)


def _apply_noise_reference(maps, chars, grids, noise, rng):
    shape = maps.shape
    n = len(chars)
    if n:
        mean_size = float(
            np.mean([0.5 * (box.w * shape.img_w + box.h * shape.img_h) for _, _, box in chars])
        )
    else:
        mean_size = min(shape.cell_w, shape.cell_h)

    drop = rng.random(n) < noise.drop_p
    swap = rng.random(n) < noise.label_swap_p
    swap_to = rng.integers(0, max(maps.n_cls - 1, 1), size=n)
    with np.errstate(over="ignore"):
        jitter = rng.normal(0.0, 1.0, size=(n, 2)) * noise.jitter_sigma * mean_size
    size_fac = np.exp(rng.normal(0.0, 1.0, size=(n, 2)) * noise.size_sigma)

    for k, ((i, j), cls_id, box) in enumerate(chars):
        if drop[k]:
            maps.dis[i - 1, j - 1] = EPS
            continue
        if swap[k]:
            wrong = int(swap_to[k])
            if wrong >= cls_id - 1:
                wrong += 1
            wrong %= maps.n_cls
            maps.cls[i - 1, j - 1] = _one_hot(maps.n_cls, wrong)
        if noise.jitter_sigma > 0 or noise.size_sigma > 0:
            x = _clamp_to_cell(
                box.x + float(jitter[k, 0]), (i - 1) * shape.cell_w, i * shape.cell_w
            )
            y = _clamp_to_cell(
                box.y + float(jitter[k, 1]), (j - 1) * shape.cell_h, j * shape.cell_h
            )
            w = min(box.w * float(size_fac[k, 0]), 1.0)
            h = min(box.h * float(size_fac[k, 1]), 1.0)
            _set_rel(maps, (i, j), Box(x, y, w, h))

    if noise.spurious_p > 0:
        hits = rng.random((shape.w_g, shape.h_g)) < noise.spurious_p
        size_frac_w = mean_size / shape.img_w
        size_frac_h = mean_size / shape.img_h
        at = [(int(i0), int(j0)) for i0, j0 in np.argwhere(hits)
              if (int(i0) + 1, int(j0) + 1) not in grids]
        # One scalar draw per hit for each quantity in turn: dis, the class,
        # (x_o, y_o) and scale.
        dis = [rng.uniform(0.55, 0.9) for _ in at]
        cls = [int(rng.integers(0, maps.n_cls)) for _ in at]
        offsets = [(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)) for _ in at]
        scales = [rng.uniform(0.8, 1.2) for _ in at]
        for (i0, j0), d, c, (x_o, y_o), scale in zip(at, dis, cls, offsets, scales):
            maps.dis[i0, j0] = d
            maps.cls[i0, j0] = _one_hot(maps.n_cls, c)
            maps.box[i0, j0] = (
                float(x_o),
                float(y_o),
                min(size_frac_w * scale, 1.0),
                min(size_frac_h * scale, 1.0),
            )

    if noise.dir_flip_p > 0:
        flips = rng.random((shape.w_g, shape.h_g)) < noise.dir_flip_p
        for i0, j0 in np.argwhere(flips):
            maps.rd[i0, j0] = _rd_row(int(rng.integers(0, 4)))


def _render_plan_reference(page: SyntheticPage):
    """The loop render of a page's exact maps; returns the maps, the
    characters as (grid, class, box) in reading order, and each grid's
    first character."""
    shape = page.shape
    maps = _blank_maps(shape, page.n_cls)
    annot = page.annotation
    lines = [
        [(grid_of(box, shape), cls_id, box) for cls_id, box in zip(line, boxes)]
        for line, boxes in zip(annot.lines, annot.boxes)
    ]
    chars = [ch for line in lines for ch in line]
    grids: dict[tuple[int, int], int] = {}
    for k, (g, _, _) in enumerate(chars):
        if g in grids:
            raise GridCollisionError(f"characters {grids[g]} and {k} share grid {g}")
        grids[g] = k
    for line in lines:
        for (ga, _, _), (gb, _, _) in zip(line, line[1:]):
            for i, j, d in staircase(ga, gb):
                if (i, j) != ga and (i, j) in grids:
                    raise GridCollisionError(
                        f"inter-character path {ga}->{gb} crosses character at {(i, j)}"
                    )
                maps.rd[i - 1, j - 1] = _rd_row(d)
    for (i, j), cls_id, box in chars:
        maps.dis[i - 1, j - 1] = 1.0 - EPS
        maps.cls[i - 1, j - 1] = _one_hot(page.n_cls, cls_id - 1)
        _set_rel(maps, (i, j), box)
    for line in lines:
        gi, gj = line[0][0]
        maps.sol[gi - 1, gj - 1] = 1.0 - EPS
        gi, gj = line[-1][0]
        maps.eol[gi - 1, gj - 1] = 1.0 - EPS
    return maps, chars, grids


def _oracle_reference(page: SyntheticPage, noise: OracleNoise):
    maps, chars, grids = _render_plan_reference(page)
    _apply_noise_reference(maps, chars, grids, noise, np.random.default_rng(noise.seed))
    return maps


_TENSORS = ("box", "dis", "cls", "sol", "eol", "rd")


def _assert_same_maps(a, b):
    assert a.shape == b.shape and a.n_cls == b.n_cls
    for name in _TENSORS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


# Each noise kind alone at a strong setting, all of them at once, and none.
_NOISE_KINDS = [
    {}, {"jitter_sigma": 0.3}, {"size_sigma": 0.3}, {"label_swap_p": 0.5}, {"drop_p": 0.5},
    {"spurious_p": 0.1}, {"dir_flip_p": 0.3},
    {"jitter_sigma": 0.2, "size_sigma": 0.2, "label_swap_p": 0.2, "drop_p": 0.2,
     "spurious_p": 0.05, "dir_flip_p": 0.2},
]


def _off_or(values):
    return st.just(0.0) | values


# Drawn magnitudes, each noise kind off or on: a jitter past 1e300 overflows
# to +-inf and lands on the cell edge, and size_sigma reaches its bound.
_NOISE = st.fixed_dictionaries({
    "jitter_sigma": _off_or(st.floats(0.0, 1.0) | st.floats(1e300, 1e308)),
    "size_sigma": _off_or(st.floats(0.0, MAX_SIZE_SIGMA)),
    **{name: _off_or(st.floats(0.0, 1.0))
       for name in ("label_swap_p", "drop_p", "spurious_p", "dir_flip_p")},
})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(LAYOUT_KINDS),
    page_seed=st.integers(0, 1000),
    n_cls=st.integers(1, 7),  # with one class a label swap wraps back to the true class
    cell_px=st.sampled_from([16, 1, 10**90]),  # 10**90 puts the image near its size bound
    noise=st.one_of(st.sampled_from(_NOISE_KINDS), _NOISE),
    noise_seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
)
def test_oracle_predict_matches_loop_render(kind, page_seed, n_cls, cell_px, noise, noise_seeds):
    layout = Layout(kind, amplitude=1.0) if kind == "sine" else Layout(kind)
    page = gen_page(PageConfig(n_lines=3, chars_per_line=(2, 8), n_cls=n_cls, layout=layout,
                               w_g=24, h_g=24, cell_px=cell_px, seed=page_seed))
    for seed in noise_seeds:
        want = _oracle_reference(page, OracleNoise(**noise, seed=seed))
        # The page's kept plan, made by gen_page's round trip, and a fresh
        # copy's plan, made by this prediction.
        _assert_same_maps(oracle_predict(page, OracleNoise(**noise, seed=seed)), want)
        _assert_same_maps(oracle_predict(replace(page), OracleNoise(**noise, seed=seed)), want)


@pytest.mark.parametrize("noise", _NOISE_KINDS)
def test_crossing_staircases_match_loop_render(noise):
    page = _CROSSING_PAGE
    maps = oracle_predict(page, OracleNoise(**noise, seed=5))
    _assert_same_maps(maps, _oracle_reference(page, OracleNoise(**noise, seed=5)))
    if not noise:
        assert int(np.argmax(maps.rd[3, 1])) == Direction.DOWN


@st.composite
def _jittered_pages(draw):
    """A page of any layout on a 12-24 square lattice, with characters two
    grids apart and up to as many lines as fit (two grids apart, three for
    sine), all of them first, whose box centres then move up to a cell each
    way: about half collide."""
    kind = draw(st.sampled_from(LAYOUT_KINDS))
    w_g, h_g = draw(st.integers(12, 24)), draw(st.integers(12, 24))
    sine = kind == "sine"
    layout = Layout(kind, amplitude=1.0) if sine else Layout(kind)
    max_lines = (h_g - 4) // 3 if sine else (h_g - 2) // 2
    n_lines = max_lines - draw(st.integers(0, max_lines - 1))
    page = gen_page(PageConfig(n_lines=n_lines, chars_per_line=(2, (w_g - 3) // 2 + 1), n_cls=5,
                               layout=layout, w_g=w_g, h_g=h_g, seed=draw(st.integers(0, 1000))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cell_w, cell_h = page.shape.cell_w, page.shape.cell_h
    boxes = [
        [Box(b.x + rng.uniform(-1, 1) * cell_w, b.y + rng.uniform(-1, 1) * cell_h, b.w, b.h)
         for b in line]
        for line in page.annotation.boxes
    ]
    annot = PageAnnotation(lines=page.annotation.lines, boxes=boxes, page_id="jittered")
    return SyntheticPage(shape=page.shape, n_cls=page.n_cls, annotation=annot, layout=layout)


@settings(deadline=None, max_examples=150)
@given(page=_jittered_pages())
@example(page=_CROSSING_PAGE)
@example(page=_collision_page())
@example(page=_hand_page([(2, 2), (5, 2)], [(3, 2)]))
def test_render_plan_matches_the_loop_render(page):
    """``render_plan`` raises the loop render's error, for the same first
    pair, or makes a plan that scatters to the loop's maps, where the later
    line's direction wins where staircases cross; each staircase grid is in
    ``rd_at`` once."""
    try:
        want, _, _ = _render_plan_reference(page)
    except GridCollisionError as exc:
        with pytest.raises(GridCollisionError, match=f"^{re.escape(str(exc))}$"):
            render_plan(page)
        return
    plan = render_plan(page)
    rd_grids = set(zip(*(a.tolist() for a in plan.rd_at)))
    assert len(rd_grids) == len(plan.rd_dir)
    _assert_same_maps(oracle_predict(page, OracleNoise()), want)


# A plan with no characters: every grid may take a spurious hit.
_NO_CHARS = RenderPlan(
    rd_at=cells([]), rd_dir=np.empty(0, np.intp), char_at=cells([]),
    char_cls=np.empty(0, np.intp), char_box=np.empty((0, 4)), sol_at=cells([]), eol_at=cells([]),
)


@settings(deadline=None, max_examples=100)
@given(
    w_g=st.integers(1, 40),
    h_g=st.integers(1, 40),
    n_cls=st.integers(1, 7),
    spurious_p=st.sampled_from([1e-12, 1.0]) | st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
@example(w_g=1, h_g=1, n_cls=3, spurious_p=1e-12, seed=0)  # no hit
@example(w_g=40, h_g=40, n_cls=7, spurious_p=1.0, seed=0)  # every grid a hit
def test_spurious_hits_match_the_per_hit_loop(w_g, h_g, n_cls, spurious_p, seed):
    """The spurious pass draws each quantity for all hits at once, as the
    per-hit loops draw them one value at a time, and writes all hits at
    once: the same maps, and the generator left in the same state for the
    draws after it."""
    shape = GridShape(w_g, h_g, 16.0 * w_g, 16.0 * h_g)
    noise = OracleNoise(spurious_p=spurious_p, seed=seed)
    got, want = _blank_maps(shape, n_cls), _blank_maps(shape, n_cls)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    _apply_noise(got, _NO_CHARS, noise, rng)
    _apply_noise_reference(want, [], {}, noise, ref_rng)
    _assert_same_maps(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(deadline=None, max_examples=100)
@given(
    w_g=st.integers(1, 30),
    h_g=st.integers(1, 30),
    n_cls=st.sampled_from([1, 2]) | st.integers(1, 50),
    spurious_p=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_spurious_draws_lie_in_their_ranges(w_g, h_g, n_cls, spurious_p, seed):
    """The spurious pass's draws after the hit draw, one value per hit
    each: dis in [0.55, 0.9), the class in [0, n_cls), (x_o, y_o) in
    [0.3, 0.7) and the scale in [0.8, 1.2); the hit cells hold that dis
    and class."""
    shape = GridShape(w_g, h_g, 16.0 * w_g, 16.0 * h_g)
    maps = _blank_maps(shape, n_cls)
    rng = RecordingGenerator(seed)
    _apply_noise(maps, _NO_CHARS, OracleNoise(spurious_p=spurious_p), rng)
    names, (hits, dis, cls, offsets, scale) = zip(*rng.calls[-5:])
    assert names == ("random", "uniform", "integers", "uniform", "uniform")
    at = np.nonzero(hits < spurious_p)
    n_hits = len(at[0])
    assert dis.shape == cls.shape == scale.shape == (n_hits,) and offsets.shape == (n_hits, 2)
    assert ((0.55 <= dis) & (dis < 0.9)).all() and ((0 <= cls) & (cls < n_cls)).all()
    assert ((0.3 <= offsets) & (offsets < 0.7)).all() and ((0.8 <= scale) & (scale < 1.2)).all()
    assert np.array_equal(maps.dis[at], dis.astype(np.float32))
    assert np.array_equal(np.argmax(maps.cls[at], axis=-1), cls)


def test_reused_plan_is_never_changed_or_shared():
    page = gen_page(PageConfig(n_lines=3, chars_per_line=(4, 8), n_cls=7, seed=9))
    plan = page.plan
    before = copy.deepcopy(plan)
    arrays = [v for f in vars(plan).values() for v in (f if isinstance(f, tuple) else (f,))
              if isinstance(v, np.ndarray)]
    for seed in range(3):
        maps = oracle_predict(page, OracleNoise(**_NOISE_KINDS[-1], seed=seed))
        for name in _TENSORS:
            tensor = getattr(maps, name)
            assert not any(np.shares_memory(tensor, arr) for arr in arrays), name
            tensor[...] = -1.0  # a caller that edits its maps
    for name, value in vars(before).items():
        got = getattr(plan, name)
        for x, y in zip(got if isinstance(got, tuple) else (got,),
                        value if isinstance(value, tuple) else (value,)):
            if isinstance(y, np.ndarray):
                assert np.array_equal(x, y), name
    assert page.plan is plan


def test_staircase_deterministic_variant():
    # Every horizontal move first, as render_plan draws it.
    steps = staircase_rows(np.array([[2, 2]]), np.array([[3, 2]]), np.arange(5) >= 3).tolist()
    assert [(i, j) for i, j, _ in steps] == [(2, 2), (3, 2), (4, 2), (5, 2), (5, 3)]
    assert [d for _, _, d in steps] == [Direction.RIGHT] * 3 + [Direction.DOWN] * 2
    assert steps == [list(step) for step in staircase((2, 2), (5, 4))]
    with pytest.raises(ValueError):
        staircase((2, 2), (5, 4), vertical_slots=[0])


_LATTICE = st.tuples(st.integers(1, 12), st.integers(1, 12))


@st.composite
def _staircases(draw):
    """Two grids and the vertical slots of a staircase between them, None
    for every horizontal move first."""
    src, dst = draw(_LATTICE), draw(_LATTICE)
    total = abs(dst[0] - src[0]) + abs(dst[1] - src[1])
    n_vert = abs(dst[1] - src[1])
    slots = draw(st.none() | st.permutations(range(total)).map(lambda p: p[:n_vert]))
    return src, dst, slots


@settings(deadline=None, max_examples=300)
@given(cases=st.lists(_staircases(), max_size=4), data=st.data())
def test_staircase_matches_per_step_reference(cases, data):
    """Several staircases at once, some of no step: ``staircase_rows`` gives
    the per-step loop's steps one staircase after another, and
    ``path_rows`` of their moves gives the grid each move lands on, the
    next step's grid or the staircase's destination."""
    want = [staircase(src, dst, slots) for src, dst, slots in cases]
    vert = []
    for src, dst, slots in cases:
        total = abs(dst[0] - src[0]) + abs(dst[1] - src[1])
        up = set(range(abs(dst[0] - src[0]), total) if slots is None else slots)
        vert.extend(k in up for k in range(total))
    src = np.array([c[0] for c in cases], dtype=np.intp).reshape(-1, 2)
    delta = np.array([c[1] for c in cases], dtype=np.intp).reshape(-1, 2) - src
    got = staircase_rows(src, delta, np.array(vert, dtype=bool))
    assert got.dtype == np.intp
    assert got.tolist() == [list(step) for steps in want for step in steps]
    lengths = np.array([len(steps) for steps in want], dtype=np.intp)
    lands = path_rows(src, lengths, got[:, 2])
    assert lands.dtype == np.intp
    want_lands = []
    for steps, (_, dst, _) in zip(want, cases):
        want_lands += [[i, j] for i, j, _ in steps[1:]] + ([list(dst)] if steps else [])
    assert lands.tolist() == want_lands
    if cases and lengths[0]:  # a slot count other than the vertical distance
        first, dst, _ = cases[0]
        total, n_vert = int(lengths[0]), abs(dst[1] - first[1])
        size = data.draw(st.integers(0, total).filter(lambda k: k != n_vert))
        wrong = data.draw(st.permutations(range(total)))[:size]
        with pytest.raises(ValueError, match="vertical slots"):
            staircase(first, dst, vertical_slots=wrong)


@pytest.mark.parametrize("warmup", [0, 1, 2, 5])
def test_batched_direction_draws_equal_scalar_draws(warmup):
    # The direction-flip pass draws its k directions in one call; that
    # keeps the maps of one draw per flip only while numpy's bounded
    # integer sampler gives the same numbers and the same generator state
    # either way.  An odd number of warm-up draws leaves a buffered 32-bit
    # half-word, an even number none.
    for seed in (0, 7):
        for k in range(41):
            batched = np.random.default_rng(seed)
            batched.integers(0, 100, size=warmup)
            assert batched.bit_generator.state["has_uint32"] == warmup % 2
            scalar = np.random.default_rng()
            scalar.bit_generator.state = batched.bit_generator.state
            draws = batched.integers(0, 4, size=k)
            assert draws.tolist() == [int(scalar.integers(0, 4)) for _ in range(k)]
            assert batched.bit_generator.state == scalar.bit_generator.state


def test_save_load_binary_round_trip(tmp_path, page):
    noise = OracleNoise(jitter_sigma=0.1, spurious_p=0.02, seed=11)
    maps = oracle_predict(page, noise)
    path = tmp_path / "page.pgnm"
    save_maps(maps, path)
    assert load_maps(path).equals(maps)


@pytest.mark.parametrize("dtype", [np.float32, ">f4", np.float64])
def test_save_maps_writes_little_endian_float32_whatever_the_tensor_dtype(tmp_path, page, dtype):
    # Native, byte-swapped and float64 tensors all go to disk as the <f4
    # layout that load_maps reads.  (A big-endian host, where native is >f4,
    # cannot be run here; the byte-swapped case stands in for it.)
    maps = oracle_predict(page, OracleNoise(jitter_sigma=0.1, spurious_p=0.02, seed=11))
    cast = replace(maps, **{name: getattr(maps, name).astype(dtype) for name in _TENSORS})
    path = tmp_path / "page.pgnm"
    save_maps(cast, path)
    shape = maps.shape
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, shape.w_g, shape.h_g, maps.n_cls,
                        shape.img_w, shape.img_h)
    payload = b"".join(getattr(maps, name).astype("<f4").tobytes() for name in _TENSORS)
    assert path.read_bytes() == head + payload
    _assert_same_maps(load_maps(path), maps)


def test_save_load_json_round_trip(tmp_path, page):
    maps = oracle_predict(page, OracleNoise())
    path = tmp_path / "page.json"
    save_maps(maps, path)
    assert load_maps(path).equals(maps)


def test_truncated_file_rejected(tmp_path, page):
    maps = oracle_predict(page, OracleNoise())
    path = tmp_path / "page.pgnm"
    save_maps(maps, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(MapFormatError):
        load_maps(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pgnm"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(MapFormatError, match="header"):
        load_maps(path)


def test_json_n_cls_mismatch_rejected(tmp_path, page):
    maps = oracle_predict(page, OracleNoise())
    path = tmp_path / "page.json"
    save_maps(maps, path)
    doc = json.loads(path.read_text())
    doc["n_cls"] = maps.n_cls + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(MapFormatError, match="cls"):
        load_maps(path)


def test_nan_payload_rejected(tmp_path, page):
    maps = oracle_predict(page, OracleNoise())
    maps.dis[0, 0] = np.nan
    path = tmp_path / "page.pgnm"
    save_maps(maps, path)
    with pytest.raises(MapFormatError, match="dis"):
        load_maps(path)


@pytest.mark.parametrize("name, value", [("box", np.inf), ("box", -np.inf), ("rd", np.inf)])
def test_infinite_payload_rejected(tmp_path, page, name, value):
    maps = oracle_predict(page, OracleNoise())
    getattr(maps, name)[0, 0, 0] = value
    for path in (tmp_path / "page.pgnm", tmp_path / "page.json"):
        save_maps(maps, path)
        with pytest.raises(MapFormatError, match=f"{name}: non-finite"):
            load_maps(path)


# Any JSON object or any bytes given to load_maps either load or raise
# MapFormatError, never another exception.

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
_MAP_KEYS = ("version", "w_g", "h_g", "n_cls", "img_w", "img_h",
             "box", "dis", "cls", "sol", "eol", "rd")


@pytest.fixture(scope="module")
def tiny_map(tmp_path_factory):
    """A valid 8x4 map as a JSON document and as PGNM bytes, plus a scratch path."""
    page = gen_page(PageConfig(n_lines=1, chars_per_line=(2, 2), n_cls=3, w_g=8, h_g=4))
    maps = oracle_predict(page, OracleNoise())
    root = tmp_path_factory.mktemp("tiny_map")
    save_maps(maps, root / "map.json")
    save_maps(maps, root / "map.pgnm")
    doc = json.loads((root / "map.json").read_text())
    return doc, (root / "map.pgnm").read_bytes(), root / "input"


def _loads_or_map_format_error(path):
    try:
        load_maps(path)
    except MapFormatError:
        pass


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_load_maps_json_object_loads_or_raises_map_format_error(tiny_map, data):
    doc, _, path = tiny_map
    if data.draw(st.booleans()):  # a valid document with a few keys replaced or removed
        doc = dict(doc)
        for key in data.draw(st.lists(st.sampled_from(_MAP_KEYS), max_size=3)):
            if data.draw(st.booleans()):
                doc[key] = data.draw(_JSON_VALUES)
            else:
                doc.pop(key, None)
    else:
        keys = st.sampled_from(_MAP_KEYS) | st.text(max_size=4)
        doc = data.draw(st.dictionaries(keys, _JSON_VALUES, max_size=8))
    path.write_text(json.dumps(doc))
    _loads_or_map_format_error(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_json_value_past_float32_rejected_without_warning(tiny_map):
    doc, _, path = tiny_map
    dis = [[1e39] * len(row) for row in doc["dis"]]
    path.write_text(json.dumps({**doc, "dis": dis}))
    with pytest.raises(MapFormatError, match="^dis: non-finite"):
        load_maps(path)


def test_json_version_is_optional_but_checked(tiny_map):
    doc, _, path = tiny_map
    want = load_maps(path.with_name("map.json"))
    path.write_text(json.dumps({k: v for k, v in doc.items() if k != "version"}))
    assert load_maps(path).equals(want)
    for version, message in [(99, "header: unsupported version 99"),
                             ("x", "header.version: expected an integer, got str"),
                             (True, "header.version: expected an integer, got bool")]:
        path.write_text(json.dumps({**doc, "version": version}))
        with pytest.raises(MapFormatError, match=f"^{re.escape(message)}$"):
            load_maps(path)


def test_json_class_tensor_of_the_wrong_shape_names_both_shapes(tiny_map):
    doc, _, path = tiny_map
    path.write_text(json.dumps({**doc, "n_cls": doc["n_cls"] + 1}))
    with pytest.raises(MapFormatError,
                       match=f"^{re.escape('cls: expected shape (8, 4, 4), got (8, 4, 3)')}$"):
        load_maps(path)


@pytest.mark.parametrize("name, element, kind", [
    ("dis", "0.9", "str"), ("dis", True, "bool"), ("cls", False, "bool"), ("rd", None, "NoneType"),
])
def test_json_tensor_element_must_be_a_number(tiny_map, name, element, kind):
    doc, _, path = tiny_map
    tensor = copy.deepcopy(doc[name])
    cell = tensor[-1][-1]
    if isinstance(cell, list):  # a boolean among floats, which numpy reads as 0 or 1
        cell[-1] = element
    else:
        tensor[-1][-1] = element
    path.write_text(json.dumps({**doc, name: tensor}))
    with pytest.raises(MapFormatError, match=f"^{name}: expected a number, got {kind}$"):
        load_maps(path)


def _load_maps_reference(path):
    """load_maps as it was before it read tensors in place: the whole file
    as bytes, a copy of each tensor out of them, and the old validate."""
    raw = path.read_bytes()
    if raw[:4] == MAGIC:
        if len(raw) < _HEADER.size:
            raise MapFormatError("header: truncated file")
        _, version, *fields = _HEADER.unpack_from(raw)
        _check_version(version)
        shape, n_cls = _header(*fields)
        offset, tensors = _HEADER.size, {}
        for name, dims in _tensor_shapes(shape, n_cls).items():
            count = math.prod(dims)
            if offset + 4 * count > len(raw):
                raise MapFormatError(f"{name}: truncated tensor payload")
            tensors[name] = np.frombuffer(raw, "<f4", count, offset).reshape(dims).copy()
            offset += 4 * count
        if offset != len(raw):
            raise MapFormatError("payload: trailing bytes after tensors")
    elif raw.lstrip()[:1] == b"{":
        shape, n_cls, tensors = _load_json(raw)
    else:
        raise MapFormatError("header: not a prediction-map file")
    maps = PredictionMaps(shape=shape, n_cls=n_cls, **tensors)
    _validate_reference(maps)
    return maps


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_load_maps_bytes_load_or_raise_map_format_error(tiny_map, data):
    """Any bytes load to the maps, or raise the MapFormatError message, that
    the whole-file reader gives them."""
    _, valid, path = tiny_map
    raw = data.draw(
        st.binary(max_size=80)
        | st.binary(max_size=80).map(lambda b: MAGIC + b)
        | st.binary(max_size=80).map(lambda b: b"{" + b)
        | st.integers(0, len(valid)).map(lambda n: valid[:n])
        | st.binary(min_size=1, max_size=8).map(lambda b: valid + b)
    )
    if data.draw(st.booleans()) and len(raw) > 0:  # flip one byte
        k = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:k] + bytes([raw[k] ^ data.draw(st.integers(1, 255))]) + raw[k + 1:]
    path.write_bytes(raw)
    got, want = _load_outcome(path), _load_outcome(path, _load_maps_reference)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str) and got.equals(want)


def _validate_reference(maps):
    """PredictionMaps.validate as it was before it read each tensor's
    extremes once: a finiteness pass per tensor, then a min and a max pass
    per probability tensor."""
    for name, want in _tensor_shapes(maps.shape, maps.n_cls).items():
        arr = getattr(maps, name)
        if arr.shape != want:
            raise MapFormatError(f"{name}: expected shape {want}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise MapFormatError(f"{name}: non-finite payload (NaN or inf)")
    for name in ("dis", "cls", "sol", "eol", "rd"):
        arr = getattr(maps, name)
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise MapFormatError(f"{name}: probability outside [0, 1]")
    for name in ("cls", "rd"):
        sums = getattr(maps, name).sum(axis=-1, dtype=np.float64)
        if np.abs(sums - 1.0).max() > 1e-5:
            raise MapFormatError(f"{name}: rows not normalized")


def _map_format_error(check, maps):
    """The message of the MapFormatError ``check(maps)`` raises, or None."""
    try:
        check(maps)
    except MapFormatError as exc:
        return str(exc)
    return None


# The bit patterns either side of _in_unit_interval's bound 0x3F800000
# (1.0 and the next float32 above it) and of the sign bit (-0.0), the
# smallest and largest subnormals, the infinities and NaN.
_BIT_EDGES = [-0.0, 1.0, float(np.nextafter(np.float32(1), np.float32(2))), 1e-45,
              float(np.nextafter(np.finfo(np.float32).tiny, np.float32(0))),
              math.inf, -math.inf, math.nan]
# Those, each side of 0, and the float32 extremes.
_EDGE_VALUES = _BIT_EDGES + [0.0, -1e-45, 3.4e38, -3.4e38]


@pytest.fixture(scope="module")
def noisy_maps(page):
    return oracle_predict(page, OracleNoise(0.2, 0.1, 0.1, 0.1, 0.05, 0.05, seed=3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_validate_raises_what_the_reference_raises(noisy_maps, data):
    """Values injected into one or two tensors: NaN, infinities, values
    below 0 or above 1, and rows scaled off a sum of 1."""
    maps = copy.deepcopy(noisy_maps)
    for _ in range(data.draw(st.integers(1, 2))):
        arr = getattr(maps, data.draw(st.sampled_from(list(_tensor_shapes(maps.shape, maps.n_cls)))))
        at = np.unravel_index(data.draw(st.integers(0, arr.size - 1)), arr.shape)
        if arr.ndim == 3 and data.draw(st.booleans()):  # scale the row
            with np.errstate(over="ignore"):  # an overflow to +-inf is an injected value too
                arr[at[:2]] *= np.float32(data.draw(st.floats(0.0, 2.0)))
        else:
            arr[at] = data.draw(st.sampled_from(_EDGE_VALUES) | st.floats(width=32))
    assert _map_format_error(PredictionMaps.validate, maps) == _map_format_error(
        _validate_reference, maps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", _BIT_EDGES, ids=repr)
@pytest.mark.parametrize("name", ["dis", "cls", "sol", "eol", "rd"])
def test_validate_raises_what_the_reference_raises_at_each_bit_pattern_edge(
    noisy_maps, name, value
):
    maps = copy.deepcopy(noisy_maps)
    getattr(maps, name).flat[7] = value
    assert _map_format_error(PredictionMaps.validate, maps) == _map_format_error(
        _validate_reference, maps)


@pytest.mark.parametrize("dtype", ["<f4", ">f4"])
@pytest.mark.parametrize("value", _BIT_EDGES, ids=repr)
def test_unit_interval_bit_check_accepts_exactly_plus_zero_through_one(dtype, value):
    arr = np.full((3, 2), 0.5, np.float32)
    arr[1, 1] = value
    want = not math.copysign(1.0, value) < 0 and 0.0 <= value <= 1.0
    assert _in_unit_interval(arr.astype(dtype)) is want
    assert _in_unit_interval(arr.astype(dtype)[:, 1]) is want  # a strided view
    assert _in_unit_interval(arr.astype(np.float64)) is False


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_rejects_a_row_scaled_past_float32(noisy_maps):
    """A box row holding 3.4e38, scaled by 2: the float32 multiply overflows
    to inf, which both checks reject alike."""
    maps = copy.deepcopy(noisy_maps)
    maps.box.flat[0] = 3.4e38
    with np.errstate(over="ignore"):
        maps.box[0, 0] *= np.float32(2.0)
    assert maps.box[0, 0, 0] == np.inf
    error = _map_format_error(PredictionMaps.validate, maps)
    assert error is not None and error == _map_format_error(_validate_reference, maps)


def _gamma32(n: int) -> float:
    return n * 2.0**-24 / (1 - n * 2.0**-24)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(n_cls=st.sampled_from([1, 4, 7, 100, 168, 200]), data=st.data())
def test_rows_near_the_tolerance_are_decided_as_the_reference_decides(n_cls, data):
    """Class and direction rows scaled to within gamma_n of 1 - tol, 1 or
    1 + tol, some with one element moved by a few float32 ulps.  What the
    float32 pass accepts, the float64 sums accept; from 168 classes on its
    bound leaves no margin, and the class rows always fall back."""
    maps = _blank_maps(GridShape(3, 2, 48.0, 32.0), n_cls)
    for _ in range(data.draw(st.integers(1, 3))):
        arr = getattr(maps, data.draw(st.sampled_from(["cls", "rd"])))
        n = arr.shape[-1]
        at = np.unravel_index(data.draw(st.integers(0, 5)), arr.shape[:2])
        weights = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n)
        if data.draw(st.booleans()):  # a peaked row, as the oracle writes
            weights[data.draw(st.integers(0, n - 1))] += n
        off = data.draw(st.sampled_from([-ROW_SUM_TOL, 0.0, ROW_SUM_TOL]))
        target = 1.0 + off + data.draw(st.floats(-1.0, 1.0)) * _gamma32(n)
        row = (weights / weights.sum() * target).astype(np.float32)
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, n - 1))
            row[k] += np.float32(data.draw(st.integers(-4, 4))) * np.spacing(row[k])
        arr[at] = row
    assert _map_format_error(PredictionMaps.validate, maps) == _map_format_error(
        _validate_reference, maps)
    for name in ("cls", "rd"):
        arr = getattr(maps, name)
        if arr.min() >= 0 and _rows_sum_to_one(arr):
            assert np.abs(arr.sum(axis=-1, dtype=np.float64) - 1.0).max() <= ROW_SUM_TOL
    if n_cls >= 168:
        assert not _rows_sum_to_one(maps.cls)


def test_float32_row_sums_decide_only_up_to_167_terms():
    """gamma_n leaves the float32 pass a margin below 168 terms a row; past
    that, and for any dtype but float32, the float64 sums decide."""
    for n, fast in [(1, True), (4, True), (100, True), (167, True), (168, False)]:
        rows = np.zeros((2, 3, n), np.float32)
        rows[..., -1] = 1.0
        assert _rows_sum_to_one(rows) is fast, n
        assert _rows_sum_to_one(rows.astype(np.float64)) is False
    assert _rows_sum_to_one(np.broadcast_to(np.float32(0), (1, 2**24))) is False


@pytest.mark.parametrize("grid, n_lines, chars, noise", [
    (32, 5, (10, 10), OracleNoise(jitter_sigma=0.1, label_swap_p=0.05, drop_p=0.02,
                                  spurious_p=0.01, dir_flip_p=0.01)),
    (128, 27, (30, 36), OracleNoise(size_sigma=0.1, spurious_p=0.02, dir_flip_p=0.02)),
], ids=["train-small", "decode-large"])
def test_oracle_maps_pass_the_row_sums_without_the_float64_fallback(
    monkeypatch, tmp_path, grid, n_lines, chars, noise
):
    """Oracle maps at the bench workloads' sizes and noise clear the float32
    pass, so loading them never pays for the float64 sums."""
    page = gen_page(PageConfig(n_lines=n_lines, chars_per_line=chars, n_cls=100,
                               w_g=grid, h_g=grid, seed=1))
    save_maps(oracle_predict(page, replace(noise, seed=2)), tmp_path / "page.pgnm")
    verdicts = []

    def spy(arr):
        verdicts.append(_rows_sum_to_one(arr))
        return verdicts[-1]

    monkeypatch.setattr(predictions, "_rows_sum_to_one", spy)
    load_maps(tmp_path / "page.pgnm")
    assert verdicts == [True, True]


@pytest.mark.parametrize("fields, name", [
    ({"jitter_sigma": math.nan}, "jitter_sigma"),
    ({"jitter_sigma": math.inf}, "jitter_sigma"),
    ({"size_sigma": math.nan}, "size_sigma"),
    ({"size_sigma": -0.1}, "size_sigma"),
    ({"seed": -1}, "seed"),
    ({"size_sigma": 1000.0}, "size_sigma"),
])
def test_oracle_noise_rejects_out_of_range_field(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        OracleNoise(**fields)


def test_scaled_noise_multiplies_every_magnitude_and_keeps_the_seed():
    noise = OracleNoise(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, seed=7)
    assert noise.scaled(0.5) == OracleNoise(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, seed=7)


def _pgnm_header(w_g: int, h_g: int, n_cls: int) -> bytes:
    return _HEADER.pack(MAGIC, FORMAT_VERSION, w_g, h_g, n_cls, 16.0 * w_g, 16.0 * h_g)


@pytest.mark.parametrize("w_g, h_g, n_cls, payload, name", [
    (2**31, 2**31, 1, 0, "box"),  # a 2**66-byte box tensor
    (256, 256, 2**20, 5 * 256 * 256 * 4, "cls"),  # box and dis present, a 256 GiB class tensor
], ids=["box", "cls"])
def test_a_header_claiming_huge_dims_allocates_no_tensor(tmp_path, w_g, h_g, n_cls, payload, name):
    """The peak traced memory stays below the tensors the file holds plus
    1 MiB: no array is made for a tensor that the file cannot fill."""
    path = tmp_path / "huge.pgnm"
    path.write_bytes(_pgnm_header(w_g, h_g, n_cls) + bytes(payload))
    tracemalloc.start()
    try:
        with pytest.raises(MapFormatError, match=f"^{name}: truncated tensor payload$"):
            load_maps(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < payload + 2**20


def _load_outcome(path, load=load_maps):
    """The maps ``load(path)`` returns, or its MapFormatError message."""
    try:
        return load(path)
    except MapFormatError as exc:
        return str(exc)


def _load_through_pipe(raw: bytes):
    """``_load_outcome`` of ``raw`` read through a pipe's /dev/fd path."""
    assert len(raw) < 65536  # fits the pipe's buffer, so one write needs no reader
    r, w = os.pipe()
    try:
        os.write(w, raw)
        os.close(w)
        w = -1
        return _load_outcome(f"/dev/fd/{r}")
    finally:
        os.close(r)
        if w >= 0:
            os.close(w)


def test_files_load_or_fail_alike_from_disk_and_from_a_pipe(tiny_map):
    doc, valid, path = tiny_map
    shape = GridShape(doc["w_g"], doc["h_g"], doc["img_w"], doc["img_h"])
    starts, at = {}, _HEADER.size
    for name, dims in _tensor_shapes(shape, doc["n_cls"]).items():
        starts[name] = at
        at += 4 * math.prod(dims)
    assert at == len(valid)
    cases = {
        "binary": (valid, None),
        "json": (json.dumps(doc).encode(), None),
        "cut header": (valid[:_HEADER.size - 1], "header: truncated file"),
        "no tensors": (valid[:_HEADER.size], "box: truncated tensor payload"),
        "cut class tensor": (valid[:starts["cls"] + 10], "cls: truncated tensor payload"),
        "one byte short": (valid[:-1], "rd: truncated tensor payload"),
        "one trailing byte": (valid + b"\0", "payload: trailing bytes after tensors"),
    }
    want_maps = load_maps(path.with_name("map.pgnm"))
    for case, (raw, message) in cases.items():
        path.write_bytes(raw)
        on_disk, piped = _load_outcome(path), _load_through_pipe(raw)
        if message is None:
            assert on_disk.equals(want_maps) and piped.equals(want_maps), case
        else:
            assert on_disk == piped == message, case


def _blank_maps_reference(shape, n_cls):
    """The per-call construction ``_blank_maps`` made before it copied a
    cached direction field."""
    w, h = shape.w_g, shape.h_g
    rd = np.full((w, h, 4), EPS, dtype=np.float32)
    ii = np.arange(1, w + 1, dtype=np.float32)[:, None]
    jj = np.arange(1, h + 1, dtype=np.float32)[None, :]
    dist = np.stack(
        [
            np.broadcast_to(jj - 1, (w, h)),
            np.broadcast_to(w - ii, (w, h)),
            np.broadcast_to(h - jj, (w, h)),
            np.broadcast_to(ii - 1, (w, h)),
        ],
        axis=-1,
    )
    np.put_along_axis(rd, np.argmin(dist, axis=-1)[..., None], 1.0 - 3 * EPS, axis=-1)
    return PredictionMaps(
        shape=shape,
        n_cls=n_cls,
        box=np.full((w, h, 4), 0.5, dtype=np.float32),
        dis=np.full((w, h), EPS, dtype=np.float32),
        cls=np.full((w, h, n_cls), 1.0 / n_cls, dtype=np.float32),
        sol=np.full((w, h), EPS, dtype=np.float32),
        eol=np.full((w, h), EPS, dtype=np.float32),
        rd=rd,
    )


def _same_maps(a: PredictionMaps, b: PredictionMaps) -> bool:
    return a.equals(b) and all(
        getattr(a, f).dtype == getattr(b, f).dtype for f in _tensor_shapes(a.shape, a.n_cls))


@pytest.mark.parametrize("w, h", [(1, 1), (1, 9), (9, 1), (5, 3), (3, 8), (32, 32)])
def test_blank_maps_equal_the_per_call_construction(w, h):
    shape = GridShape(w, h, 16.0 * w, 16.0 * h)
    for _ in range(2):  # built, then served from the cache
        maps = _blank_maps(shape, 3)
        assert _same_maps(maps, _blank_maps_reference(shape, 3))
        assert maps.rd.flags.writeable
        maps.rd[...] = 0.5  # a write into one blank reaches no other
    cached = predictions._boundary_rd(w, h)
    assert not cached.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0, 0] = 0.0


def test_writing_into_oracle_maps_leaves_the_next_call_unchanged(page):
    noise = OracleNoise(jitter_sigma=0.1, spurious_p=0.05, dir_flip_p=0.1, seed=4)
    want = copy.deepcopy(oracle_predict(page, noise))
    first = oracle_predict(page, noise)
    for name in _tensor_shapes(first.shape, first.n_cls):
        getattr(first, name)[...] = 0.25
    assert _same_maps(oracle_predict(page, noise), want)
    assert _same_maps(_blank_maps(page.shape, page.n_cls),
                      _blank_maps_reference(page.shape, page.n_cls))
