import dataclasses
import math

import pytest

from gridtext.geometry import grid_of
from gridtext.synth import (
    GenerationError,
    Layout,
    PageConfig,
    gen_dataset,
    gen_page,
)


def test_single_char_page():
    page = gen_page(PageConfig(n_lines=1, chars_per_line=(1, 1), n_cls=5, seed=1))
    [[cls_id]] = page.annotation.lines
    assert 1 <= cls_id <= 5


def test_fixed_seed_reproducible():
    cfg = PageConfig(seed=17)
    a = gen_page(cfg, page_index=3)
    b = gen_page(cfg, page_index=3)
    assert a.annotation == b.annotation


def test_sine_amplitude_zero_matches_horizontal():
    base = PageConfig(seed=23)
    flat_sine = dataclasses.replace(base, layout=Layout("sine", amplitude=0.0))
    a = gen_page(base, page_index=1)
    b = gen_page(flat_sine, page_index=1)
    assert a.annotation == b.annotation


def test_grid_uniqueness():
    for layout in ("horizontal", "rot90", "rot180", "rot270", "sine"):
        page = gen_page(PageConfig(seed=9, layout=Layout(layout)), page_index=2)
        grids = [grid_of(box, page.shape) for line in page.annotation.boxes for box in line]
        assert len(set(grids)) == len(grids)


def test_rotated_shapes_swap_grid_dims():
    cfg = PageConfig(w_g=32, h_g=24, seed=4, n_lines=3, chars_per_line=(6, 6))
    assert gen_page(cfg).shape.w_g == 32
    rot = dataclasses.replace(cfg, layout=Layout("rot90"))
    page = gen_page(rot)
    assert (page.shape.w_g, page.shape.h_g) == (24, 32)


def test_infeasible_config_raises():
    with pytest.raises(GenerationError):
        gen_page(PageConfig(n_lines=1, chars_per_line=(30, 30), w_g=16, h_g=16))
    with pytest.raises(GenerationError):
        gen_page(PageConfig(n_lines=20, chars_per_line=(3, 3), w_g=16, h_g=16))


def test_gen_dataset_count_and_determinism():
    cfg = PageConfig(n_lines=2, chars_per_line=(4, 4), n_cls=10, seed=31)
    pages = list(gen_dataset(cfg, 4))
    again = list(gen_dataset(cfg, 4))
    assert len(pages) == 4
    assert [p.page_id for p in pages] == ["p00000", "p00001", "p00002", "p00003"]
    assert all(a.annotation == b.annotation for a, b in zip(pages, again))
    transcripts = {tuple(tuple(line) for line in p.annotation.lines) for p in pages}
    assert len(transcripts) == 4  # distinct pages w.h.p.


def test_variable_chars_per_line():
    page = gen_page(PageConfig(n_lines=4, chars_per_line=(3, 8), n_cls=10, seed=2))
    lengths = [len(line) for line in page.annotation.lines]
    assert all(3 <= n <= 8 for n in lengths)


@pytest.mark.parametrize("fields, name", [
    ({"n_lines": 0}, "n_lines"),
    ({"chars_per_line": (0, 3)}, "chars_per_line"),
    ({"chars_per_line": (5, 3)}, "chars_per_line"),
    ({"n_cls": 0}, "n_cls"),
    ({"w_g": 0}, "w_g"),
    ({"h_g": 0}, "h_g"),
    ({"cell_px": 0}, "cell_px"),
    ({"seed": -1}, "seed"),
])
def test_page_config_rejects_out_of_range_field(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        PageConfig(**fields)


@pytest.mark.parametrize("fields, name", [
    ({"kind": "sine", "amplitude": math.inf}, "amplitude"),
    ({"amplitude": math.nan}, "amplitude"),
    ({"amplitude": -1.0}, "amplitude"),
    ({"kind": "sine", "period": math.nan}, "period"),
    ({"period": math.inf}, "period"),
    ({"period": 0.0}, "period"),
    ({"kind": "sine", "period": 1e-310}, "period"),
])
def test_layout_rejects_out_of_range_field(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        Layout(**fields)


@pytest.mark.parametrize("n_pages", [0, -1])
def test_gen_dataset_rejects_fewer_than_one_page(n_pages):
    with pytest.raises(ValueError, match="^pages must be >= 1"):
        list(gen_dataset(PageConfig(), n_pages))
