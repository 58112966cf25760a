import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtext import geometry
from gridtext.decoder import extract_nodes
from gridtext.geometry import Box, GridShape, RelBox, abs_to_rel, grid_of, iou, nms, rel_to_abs
from gridtext.predictions import OracleNoise, oracle_predict
from gridtext.synth import Layout, PageConfig, gen_page


def _nms_reference(candidates, iou_threshold, shape):
    """All-pairs greedy NMS: each candidate against every kept box."""
    corners = [c[0].corners(shape) for c in candidates]
    areas = [(x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in corners]
    order = sorted(range(len(candidates)), key=lambda k: -candidates[k][1])
    kept = []
    for k in order:
        x1, y1, x2, y2 = corners[k]
        ok = True
        for m in kept:
            mx1, my1, mx2, my2 = corners[m]
            iw = min(x2, mx2) - max(x1, mx1)
            if iw <= 0.0:
                continue
            ih = min(y2, my2) - max(y1, my1)
            if ih <= 0.0:
                continue
            inter = iw * ih
            if inter / (areas[k] + areas[m] - inter) > iou_threshold:
                ok = False
                break
        if ok:
            kept.append(k)
    return sorted(kept)


def test_rel_to_abs_zero_offset_corner(shape44):
    box = rel_to_abs(RelBox(0, 0, 0.5, 0.5), 1, 1, shape44)
    assert (box.x, box.y, box.w, box.h) == (0, 0, 0.5, 0.5)


def test_rel_to_abs_hand_value(shape44):
    box = rel_to_abs(RelBox(0.5, 0.5, 0.25, 0.25), 3, 2, shape44)
    assert (box.x, box.y, box.w, box.h) == (40, 24, 0.25, 0.25)


def test_abs_to_rel_inverse_hand_values(shape44):
    rel = abs_to_rel(Box(0, 0, 0.5, 0.5), 1, 1, shape44)
    assert (rel.x_o, rel.y_o, rel.w_o, rel.h_o) == (0, 0, 0.5, 0.5)
    rel = abs_to_rel(Box(40, 24, 0.25, 0.25), 3, 2, shape44)
    assert (rel.x_o, rel.y_o, rel.w_o, rel.h_o) == (0.5, 0.5, 0.25, 0.25)


@pytest.mark.parametrize("img_w", [0.0, 1e-101, 1e101, math.inf, math.nan])
def test_grid_shape_rejects_image_size_out_of_range(img_w):
    with pytest.raises(ValueError, match="^image dims must be in"):
        GridShape(4, 4, img_w, 64.0)


def test_rel_to_abs_rejects_out_of_range(shape44):
    with pytest.raises(ValueError):
        rel_to_abs(RelBox(0, 0, 0.5, 0.5), 0, 1, shape44)
    with pytest.raises(ValueError):
        rel_to_abs(RelBox(0, 0, 0.5, 0.5), 1, 5, shape44)


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
    rel = RelBox(x_o, y_o, w_o, h_o)
    back = abs_to_rel(rel_to_abs(rel, i, j, shape), i, j, shape)
    assert math.isclose(back.x_o, x_o, abs_tol=1e-12)
    assert math.isclose(back.y_o, y_o, abs_tol=1e-12)
    assert back.w_o == w_o and back.h_o == h_o


@given(
    x_o=st.floats(1e-6, 1),
    y_o=st.floats(1e-6, 1),
    i=st.integers(1, 4),
    j=st.integers(1, 4),
)
def test_cell_membership(x_o, y_o, i, j):
    shape = GridShape(4, 4, 64, 64)
    box = rel_to_abs(RelBox(x_o, y_o, 0.5, 0.5), i, j, shape)
    assert grid_of(box, shape) == (i, j)


def test_grid_of_hand_values(shape44):
    assert grid_of(Box(40, 24, 0.1, 0.1), shape44) == (3, 2)
    assert grid_of(Box(64, 64, 0.1, 0.1), shape44) == (4, 4)
    assert grid_of(Box(1e-12, 1e-12, 0.1, 0.1), shape44) == (1, 1)
    # clamped origin: a center exactly at 0 still maps to cell 1
    assert grid_of(Box(0.0, 0.0, 0.1, 0.1), shape44) == (1, 1)
    # overflow clamps to the last cell
    assert grid_of(Box(80, 70, 0.1, 0.1), shape44) == (4, 4)


def test_iou_identical_and_disjoint(shape44):
    a = Box(10, 10, 0.2, 0.2)
    assert iou(a, a, shape44) == 1.0
    b = Box(50, 50, 0.2, 0.2)
    assert iou(a, b, shape44) == 0.0


def test_iou_one_third():
    shape = GridShape(4, 4, 4, 4)
    a = Box(1, 1, 0.5, 0.5)  # spans [0,2] x [0,2]
    b = Box(2, 1, 0.5, 0.5)  # shifted +1 in x
    assert math.isclose(iou(a, b, shape), 1 / 3, abs_tol=1e-12)


@given(
    ax=st.floats(0, 64), ay=st.floats(0, 64),
    bx=st.floats(0, 64), by=st.floats(0, 64),
    aw=st.floats(0.01, 1), ah=st.floats(0.01, 1),
    bw=st.floats(0.01, 1), bh=st.floats(0.01, 1),
)
def test_iou_symmetric_bounded(ax, ay, bx, by, aw, ah, bw, bh):
    shape = GridShape(4, 4, 64, 64)
    a, b = Box(ax, ay, aw, ah), Box(bx, by, bw, bh)
    v = iou(a, b, shape)
    assert v == iou(b, a, shape)
    assert 0.0 <= v <= 1.0 + 1e-12


def test_nms_identical_pair(shape44):
    box = Box(32, 32, 0.3, 0.3)
    keep = nms([(box, 0.9), (box, 0.8)], 0.5, shape44)
    assert keep == [0]


def test_nms_disjoint_all_kept(shape44):
    cands = [(Box(10, 10, 0.1, 0.1), 0.5), (Box(30, 30, 0.1, 0.1), 0.4),
             (Box(50, 50, 0.1, 0.1), 0.3)]
    assert nms(cands, 0.5, shape44) == [0, 1, 2]


def test_nms_chain_keeps_ends():
    # a overlaps b (IoU 1/3), b overlaps c, a and c merely touch (IoU 0);
    # greedy at threshold 0.3 keeps a, suppresses b, keeps c.
    shape = GridShape(4, 4, 100, 100)
    a = (Box(5, 5, 0.10, 0.10), 0.9)
    b = (Box(10, 5, 0.10, 0.10), 0.8)
    c = (Box(15, 5, 0.10, 0.10), 0.7)
    assert iou(a[0], b[0], shape) > 0.3
    assert iou(a[0], c[0], shape) == 0.0
    assert nms([a, b, c], 0.3, shape) == [0, 2]


def test_nms_equal_scores_keep_lower_index(shape44):
    box = Box(32, 32, 0.3, 0.3)
    assert nms([(box, 0.7), (box, 0.7)], 0.5, shape44) == [0]


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
    keep = nms(cands, threshold, shape)
    assert set(keep) <= set(range(len(cands)))
    for k in keep:
        for m in keep:
            if k < m:
                assert iou(cands[k][0], cands[m][0], shape) <= threshold + 1e-12
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
    assert nms(cands, threshold, shape) == _nms_reference(cands, threshold, shape)


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
        assert nms(cands, threshold, shape44) == _nms_reference(cands, threshold, shape44)


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
    monkeypatch.setattr(geometry, "nms", _nms_reference)
    reference = extract_nodes(maps)
    assert len(reference) < len(maps.dis[maps.dis >= 0.5])  # NMS did suppress
    assert nodes == reference
