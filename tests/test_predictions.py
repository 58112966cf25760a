import json
import math

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
    load_maps,
    oracle_predict,
    save_maps,
    staircase,
)
from gridtext.synth import PageConfig, SyntheticPage, gen_page


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


def test_grid_collision_raises():
    with pytest.raises(GridCollisionError):
        oracle_predict(_collision_page(), OracleNoise())


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
