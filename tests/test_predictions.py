import copy
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridtext.geometry import Box, GridShape, grid_of
from gridtext.matching import PageAnnotation
from gridtext.predictions import (
    EPS,
    MAGIC,
    Direction,
    GridCollisionError,
    MapFormatError,
    OracleNoise,
    PredictionMaps,
    MAX_SIZE_SIGMA,
    _blank_maps,
    _one_hot,
    _rd_row,
    _tensor_shapes,
    load_maps,
    oracle_predict,
    render_plan,
    save_maps,
    staircase,
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
        for i0, j0 in np.argwhere(hits):
            if (int(i0) + 1, int(j0) + 1) in grids:
                continue
            maps.dis[i0, j0] = rng.uniform(0.55, 0.9)
            maps.cls[i0, j0] = _one_hot(maps.n_cls, int(rng.integers(0, maps.n_cls)))
            x_o, y_o = rng.uniform(0.3, 0.7, size=2)
            scale = rng.uniform(0.8, 1.2)
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


def _oracle_reference(page: SyntheticPage, noise: OracleNoise):
    shape = page.shape
    maps = _blank_maps(shape, page.n_cls)
    rng = np.random.default_rng(noise.seed)
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
            for g, d in staircase(ga, gb):
                if g != ga and g in grids:
                    raise GridCollisionError(
                        f"inter-character path {ga}->{gb} crosses character at {g}"
                    )
                maps.rd[g[0] - 1, g[1] - 1] = _rd_row(d)
    for (i, j), cls_id, box in chars:
        maps.dis[i - 1, j - 1] = 1.0 - EPS
        maps.cls[i - 1, j - 1] = _one_hot(page.n_cls, cls_id - 1)
        _set_rel(maps, (i, j), box)
    for line in lines:
        gi, gj = line[0][0]
        maps.sol[gi - 1, gj - 1] = 1.0 - EPS
        gi, gj = line[-1][0]
        maps.eol[gi - 1, gj - 1] = 1.0 - EPS
    _apply_noise_reference(maps, chars, grids, noise, rng)
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
    steps = staircase((2, 2), (5, 4))
    assert [g for g, _ in steps] == [(2, 2), (3, 2), (4, 2), (5, 2), (5, 3)]
    assert [d for _, d in steps] == [Direction.RIGHT] * 3 + [Direction.DOWN] * 2
    with pytest.raises(ValueError):
        staircase((2, 2), (5, 4), vertical_slots=[0])


def test_save_load_binary_round_trip(tmp_path, page):
    noise = OracleNoise(jitter_sigma=0.1, spurious_p=0.02, seed=11)
    maps = oracle_predict(page, noise)
    path = tmp_path / "page.pgnm"
    save_maps(maps, path)
    assert load_maps(path).equals(maps)


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


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_load_maps_bytes_load_or_raise_map_format_error(tiny_map, data):
    _, valid, path = tiny_map
    raw = data.draw(
        st.binary(max_size=80)
        | st.binary(max_size=80).map(lambda b: MAGIC + b)
        | st.binary(max_size=80).map(lambda b: b"{" + b)
        | st.integers(0, len(valid)).map(lambda n: valid[:n])
    )
    if data.draw(st.booleans()) and len(raw) > 0:  # flip one byte
        k = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:k] + bytes([raw[k] ^ data.draw(st.integers(1, 255))]) + raw[k + 1:]
    path.write_bytes(raw)
    _loads_or_map_format_error(path)


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


# NaN, the infinities, each side of 0 and 1, and the float32 extremes.
_EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -1e-45, 1e-45,
                float(np.nextafter(np.float32(1), np.float32(2))), 3.4e38, -3.4e38]


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
            arr[at[:2]] *= np.float32(data.draw(st.floats(0.0, 2.0)))
        else:
            arr[at] = data.draw(st.sampled_from(_EDGE_VALUES) | st.floats(width=32))
    assert _map_format_error(PredictionMaps.validate, maps) == _map_format_error(
        _validate_reference, maps)


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
