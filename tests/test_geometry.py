import builtins
import importlib
import math
import pkgutil
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridtext
from conftest import _iou_reference, _nms_reference
from gridtext import geometry
from gridtext.decoder import extract_nodes
from gridtext.geometry import (
    Box,
    GridShape,
    abs_to_rel,
    box_rows,
    cells,
    corner_iou,
    corner_ious,
    corners,
    grid_of,
    grid_rows,
    ious,
    nms,
    ordered_sum,
    rel_to_abs,
)
from gridtext.predictions import OracleNoise, oracle_predict
from gridtext.synth import Layout, PageConfig, gen_page
from test_pins import PINS, pipeline_digests


def test_rel_to_abs_zero_offset_corner(shape44):
    box = rel_to_abs(np.array([[0, 0, 0.5, 0.5]]), cells([(1, 1)]), shape44)
    assert box.tolist() == [[0, 0, 0.5, 0.5]]


def test_rel_to_abs_hand_value(shape44):
    box = rel_to_abs(np.array([[0.5, 0.5, 0.25, 0.25]]), cells([(3, 2)]), shape44)
    assert box.tolist() == [[40, 24, 0.25, 0.25]]


def test_abs_to_rel_inverse_hand_values(shape44):
    rows = np.array([[0, 0, 0.5, 0.5], [40, 24, 0.25, 0.25]])
    rel = abs_to_rel(rows, cells([(1, 1), (3, 2)]), shape44)
    assert rel.tolist() == [[0, 0, 0.5, 0.5], [0.5, 0.5, 0.25, 0.25]]


@pytest.mark.parametrize("img_w", [0.0, 1e-101, 1e101, math.inf, math.nan])
def test_grid_shape_rejects_image_size_out_of_range(img_w):
    with pytest.raises(ValueError, match="^image dims must be in"):
        GridShape(4, 4, img_w, 64.0)


@pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_box_rejects_a_non_finite_center(x, y):
    with pytest.raises(ValueError, match="^box center must be finite"):
        Box(x, y, 0.1, 0.1)


@pytest.mark.parametrize("w, h", [(0.0, 0.1), (0.1, -0.5), (-math.inf, 0.1)])
def test_box_rejects_a_non_positive_extent(w, h):
    with pytest.raises(ValueError, match="^box extent must be > 0"):
        Box(1.0, 1.0, w, h)


def test_box_accepts_nan_and_infinite_extents():
    # The metrics tests score such boxes; only a non-positive extent is rejected.
    for w, h in ((math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1), (0.1, math.inf)):
        Box(1.0, 1.0, w, h)


def test_rel_to_abs_rejects_out_of_range(shape44):
    # The message names the first grid outside the lattice, 1-based.
    rows = np.array([[0.5, 0.5, 0.5, 0.5]] * 2)
    for grid in ((0, 1), (1, 5)):
        for convert in (rel_to_abs, abs_to_rel):
            with pytest.raises(ValueError, match=re.escape(f"grid index {grid} outside 4x4")):
                convert(rows, cells([(2, 2), grid]), shape44)


@given(
    x_o=st.floats(0, 1),
    y_o=st.floats(0, 1),
    w_o=st.floats(1e-6, 1),
    h_o=st.floats(1e-6, 1),
    i=st.integers(1, 4),
    j=st.integers(1, 4),
)
def test_round_trip_identity(x_o, y_o, w_o, h_o, i, j):
    shape = GridShape(4, 4, 64, 64)
    at = cells([(i, j)])
    ((bx, by, bw, bh),) = abs_to_rel(
        rel_to_abs(np.array([[x_o, y_o, w_o, h_o]]), at, shape), at, shape
    ).tolist()
    assert math.isclose(bx, x_o, abs_tol=1e-12)
    assert math.isclose(by, y_o, abs_tol=1e-12)
    assert bw == w_o and bh == h_o


@given(
    x_o=st.floats(1e-6, 1),
    y_o=st.floats(1e-6, 1),
    i=st.integers(1, 4),
    j=st.integers(1, 4),
)
def test_cell_membership(x_o, y_o, i, j):
    shape = GridShape(4, 4, 64, 64)
    (row,) = rel_to_abs(np.array([[x_o, y_o, 0.5, 0.5]]), cells([(i, j)]), shape).tolist()
    assert grid_of(Box(*row), shape) == (i, j)


def test_grid_of_hand_values(shape44):
    assert grid_of(Box(40, 24, 0.1, 0.1), shape44) == (3, 2)
    assert grid_of(Box(64, 64, 0.1, 0.1), shape44) == (4, 4)
    assert grid_of(Box(1e-12, 1e-12, 0.1, 0.1), shape44) == (1, 1)
    # clamped origin: a center exactly at 0 still maps to cell 1
    assert grid_of(Box(0.0, 0.0, 0.1, 0.1), shape44) == (1, 1)
    # overflow clamps to the last cell
    assert grid_of(Box(80, 70, 0.1, 0.1), shape44) == (4, 4)


_finite_centre = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
)


@given(
    x=_finite_centre,
    y=_finite_centre,
    shape=st.builds(
        GridShape,
        st.integers(1, 256),
        st.integers(1, 256),
        st.sampled_from([1e-100, 1e-3, 1.0, 1024.0, 1e100]),
        st.sampled_from([1e-100, 1e-3, 1.0, 1024.0, 1e100]),
    ),
)
@example(x=1e308, y=1.0, shape=GridShape(64, 64, 1024, 1024))
@example(x=-1e308, y=-0.0, shape=GridShape(64, 64, 1024, 1024))
def test_grid_of_equals_grid_rows_for_any_finite_centre(x, y, shape):
    box = Box(x, y, 0.1, 0.1)
    assert grid_of(box, shape) == tuple(grid_rows(box_rows([box]), shape)[0].tolist())


def test_iou_identical_and_disjoint(shape44):
    a, b = Box(10, 10, 0.2, 0.2), Box(50, 50, 0.2, 0.2)
    assert ious([a, a], [a, b], shape44) == [1.0, 0.0]


def test_iou_one_third():
    shape = GridShape(4, 4, 4, 4)
    a = Box(1, 1, 0.5, 0.5)  # spans [0,2] x [0,2]
    b = Box(2, 1, 0.5, 0.5)  # shifted +1 in x
    (v,) = ious([a], [b], shape)
    assert math.isclose(v, 1 / 3, abs_tol=1e-12)


def test_ious_of_no_pairs_and_of_unequal_lengths(shape44):
    a = Box(10, 10, 0.2, 0.2)
    assert ious([], [], shape44) == []
    with pytest.raises(ValueError, match="^zip\\(\\) argument 2 is shorter than argument 1$"):
        ious([a, a], [a], shape44)


@given(
    ax=st.floats(0, 64), ay=st.floats(0, 64),
    bx=st.floats(0, 64), by=st.floats(0, 64),
    aw=st.floats(0.01, 1), ah=st.floats(0.01, 1),
    bw=st.floats(0.01, 1), bh=st.floats(0.01, 1),
)
def test_iou_symmetric_bounded(ax, ay, bx, by, aw, ah, bw, bh):
    shape = GridShape(4, 4, 64, 64)
    a, b = Box(ax, ay, aw, ah), Box(bx, by, bw, bh)
    (v,) = ious([a], [b], shape)
    assert [v] == ious([b], [a], shape)
    assert 0.0 <= v <= 1.0 + 1e-12


# Centres on the page or anywhere finite; extents from image fractions to
# ones whose corners overflow to infinity.
_centre = st.floats(0, 64) | st.floats(-1e300, 1e300)
_extent = st.sampled_from([0.1, 0.5]) | st.floats(5e-324, 1.7e308)
_iou_box = st.builds(Box, _centre, _centre, _extent, _extent)
_img = st.tuples(*[st.sampled_from([1e-100, 1.0, 64.0, 1e100])] * 2)


@settings(max_examples=300)
@given(a=_iou_box, b=_iou_box, img=_img)
@example(a=Box(0.0, 0.0, 1e300, 1e300), b=Box(1.0, 1.0, 0.5, 0.5), img=(1e100, 1e100))
@example(a=Box(0.0, 0.0, 1e300, 1e300), b=Box(0.0, 0.0, 1e300, 1e300), img=(1e100, 1e100))
def test_iou_is_the_corner_iou_of_the_corners(a, b, img):
    shape = GridShape(4, 4, *img)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, same = ious([a, a], [b, a], shape)
        assert v == corner_iou(a.corners(shape), b.corners(shape)) == _iou_reference(a, b, shape)
        assert math.isfinite(v)
        x1, y1, x2, y2 = a.corners(shape)
        area = (x2 - x1) * (y2 - y1)
        # Identical boxes score exactly 1.0 whenever their union is a
        # positive finite float; otherwise, as with infinite corners, 0.0.
        assert same == (1.0 if 0.0 < 2 * area < math.inf else 0.0)


@settings(max_examples=200)
@given(pairs=st.lists(st.tuples(_iou_box, _iou_box), max_size=8), img=_img)
def test_corner_ious_are_corner_iou_elementwise(pairs, img):
    shape = GridShape(4, 4, *img)
    a = corners(box_rows([p[0] for p in pairs]), shape)
    b = corners(box_rows([p[1] for p in pairs]), shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = corner_ious(a, b)
        pairwise = ious([p[0] for p in pairs], [p[1] for p in pairs], shape)
    assert a.shape == b.shape == (4, len(pairs))
    assert a.T.tolist() == [list(p[0].corners(shape)) for p in pairs]
    want = [_iou_reference(p, q, shape) for p, q in pairs]
    assert got.tolist() == pairwise == want
    assert all(type(v) is float for v in pairwise)


def _rows(cands):
    """The (n, 5) rows nms takes, from (Box, score) candidates."""
    return np.array([[b.x, b.y, b.w, b.h, s] for b, s in cands]).reshape(-1, 5)


def test_nms_no_candidates(shape44):
    assert nms(np.empty((0, 5)), 0.3, shape44) == []


def test_nms_identical_pair(shape44):
    box = Box(32, 32, 0.3, 0.3)
    keep = nms(_rows([(box, 0.9), (box, 0.8)]), 0.5, shape44)
    assert keep == [0]


def test_nms_disjoint_all_kept(shape44):
    cands = [(Box(10, 10, 0.1, 0.1), 0.5), (Box(30, 30, 0.1, 0.1), 0.4),
             (Box(50, 50, 0.1, 0.1), 0.3)]
    assert nms(_rows(cands), 0.5, shape44) == [0, 1, 2]


def test_nms_chain_keeps_ends():
    # a overlaps b (IoU 1/3), b overlaps c, a and c merely touch (IoU 0);
    # greedy at threshold 0.3 keeps a, suppresses b, keeps c.
    shape = GridShape(4, 4, 100, 100)
    a = (Box(5, 5, 0.10, 0.10), 0.9)
    b = (Box(10, 5, 0.10, 0.10), 0.8)
    c = (Box(15, 5, 0.10, 0.10), 0.7)
    assert _iou_reference(a[0], b[0], shape) > 0.3
    assert _iou_reference(a[0], c[0], shape) == 0.0
    assert nms(_rows([a, b, c]), 0.3, shape) == [0, 2]


def test_nms_equal_scores_keep_lower_index(shape44):
    box = Box(32, 32, 0.3, 0.3)
    assert nms(_rows([(box, 0.7), (box, 0.7)]), 0.5, shape44) == [0]


@pytest.mark.parametrize("threshold", [-1e-300, -0.5, -math.inf, math.nan])
def test_nms_rejects_a_threshold_below_zero_or_nan(shape44, threshold):
    # Two disjoint boxes in one bucket: a negative threshold would let
    # their IoU of 0.0 suppress one, which the all-pairs loop never does.
    cands = _rows([(Box(4, 4, 0.05, 0.05), 0.9), (Box(12, 12, 0.05, 0.05), 0.8)])
    with pytest.raises(ValueError, match=f"^nms iou_threshold must be >= 0, got {threshold}$"):
        nms(cands, threshold, shape44)


@given(
    st.lists(
        st.tuples(
            st.floats(0, 64), st.floats(0, 64),
            st.floats(0.05, 0.5), st.floats(0.05, 0.5),
            st.floats(0, 1),
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(0.1, 0.9),
)
def test_nms_invariants(raw, threshold):
    shape = GridShape(4, 4, 64, 64)
    cands = [(Box(x, y, w, h), s) for x, y, w, h, s in raw]
    keep = nms(_rows(cands), threshold, shape)
    assert set(keep) <= set(range(len(cands)))
    for k in keep:
        for m in keep:
            if k < m:
                assert _iou_reference(cands[k][0], cands[m][0], shape) <= threshold + 1e-12
    best = max(s for _, s in cands)
    assert any(cands[k][1] == best for k in keep)


# Centers and extents as page fractions; lattice values make boxes that
# touch exactly on bucket edges, the open ranges make boxes that overhang
# the page or are wider than it.
_frac_center = st.one_of(st.floats(-0.5, 1.5), st.integers(-4, 12).map(lambda v: v / 8))
_frac_extent = st.one_of(
    st.floats(1e-3, 3.0), st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0])
)


@settings(max_examples=300, deadline=None)
@given(
    w_g=st.integers(1, 8),
    h_g=st.integers(1, 8),
    img=st.tuples(st.floats(1.0, 200.0), st.floats(1.0, 200.0)),
    raw=st.lists(
        st.tuples(
            _frac_center, _frac_center, _frac_extent, _frac_extent,
            st.sampled_from([0.2, 0.5, 0.9]) | st.floats(0, 1),
        ),
        max_size=60,
    ),
    threshold=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
)
def test_nms_matches_all_pairs_reference(w_g, h_g, img, raw, threshold):
    shape = GridShape(w_g, h_g, img[0], img[1])
    cands = [
        (Box(x * shape.img_w, y * shape.img_h, w, h), s) for x, y, w, h, s in raw
    ]
    assert nms(_rows(cands), threshold, shape) == _nms_reference(cands, threshold, shape)


def test_nms_non_finite_extents_match_reference(shape44):
    cands = [
        (Box(32, 32, math.inf, 0.2), 0.9),
        (Box(32, 32, 0.2, 0.2), 0.8),
        (Box(10, 50, 0.2, math.inf), 0.7),
        (Box(10, 50, math.nan, 0.2), 0.95),
        (Box(-1e300, 1e300, 1e300, 0.5), 0.6),
        (Box(12, 48, 0.25, 0.25), 0.5),
    ]
    for threshold in (0.0, 0.3, 1.0):
        assert nms(_rows(cands), threshold, shape44) == _nms_reference(cands, threshold, shape44)


def test_extract_nodes_matches_reference_on_large_page(monkeypatch):
    config = PageConfig(
        n_lines=27, chars_per_line=(30, 36), layout=Layout("sine", amplitude=1.0),
        w_g=128, h_g=128, seed=21,
    )
    page = gen_page(config)
    assert page.annotation.n_chars() >= 800
    maps = oracle_predict(
        page, OracleNoise(size_sigma=0.3, jitter_sigma=0.2, spurious_p=0.05, seed=4)
    )
    nodes = extract_nodes(maps)
    calls = []

    def counted(rows, *args):
        calls.append(1)
        return _nms_reference([(Box(*r[:4]), r[4]) for r in rows.tolist()], *args)

    monkeypatch.setattr(geometry, "nms", counted)
    reference = extract_nodes(maps)
    assert calls == [1]  # extract_nodes looked nms up at call time
    assert len(reference) < len(maps.dis[maps.dis >= 0.5])  # NMS did suppress
    assert nodes == reference


def _compensated_sum(values, start=0):
    """The builtin ``sum`` of Python 3.12 and later: floats are added with
    Neumaier compensation; any other items go to the running builtin."""
    items = list(values)
    if not items or not all(type(v) is float for v in items):
        return builtins.sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_pins_hold_when_builtin_sum_compensates(tmp_path, monkeypatch, capsys):
    # Every float sum whose bits reach an output goes through ordered_sum,
    # so the outputs do not depend on how the running Python's sum adds.
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0 == sum([1e16, 1.0, -1e16])
    for info in pkgutil.iter_modules(gridtext.__path__):
        module = importlib.import_module(f"gridtext.{info.name}")
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert pipeline_digests(tmp_path) == PINS
    capsys.readouterr()


def _cells_reference(grids):
    """``cells`` as it was: a list of the grids, then one array."""
    ij = np.array(list(grids), dtype=np.intp).reshape(-1, 2) - 1
    return ij[:, 0], ij[:, 1]


_SOURCES = {
    "list": list,
    "generator": lambda grids: (g for g in grids),
    "dict keys": dict.fromkeys,
}


@settings(max_examples=200)
@given(
    grids=st.lists(st.tuples(st.integers(-2**40, 2**40), st.integers(-2**40, 2**40)), max_size=40),
    source=st.sampled_from(sorted(_SOURCES)),
)
@example(grids=[], source="list")
@example(grids=[], source="generator")
@example(grids=[], source="dict keys")
def test_cells_matches_the_list_form(grids, source):
    make = _SOURCES[source]
    got, want = cells(make(grids)), _cells_reference(make(grids))
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
