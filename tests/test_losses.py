import math

import numpy as np
import pytest

from conftest import blank_maps, gt_label_map, naive_losses, put_char, set_rd
from gridtext.geometry import Box, GridShape, cells, grid_of, rel_to_abs
from gridtext.losses import (
    compute_losses,
    loss_box,
    loss_cls,
    loss_dis,
    loss_eol,
    loss_rd,
    loss_sol,
    loss_total,
)
from gridtext.matching import PageAnnotation
from gridtext.predictions import OracleNoise, oracle_predict
from gridtext.pseudolabels import LossTargets, PseudoLabel, build_targets
from gridtext.synth import PageConfig, gen_page

SHAPE = GridShape(8, 8, 128, 128)


def _maps(n_cls=4):
    return blank_maps(SHAPE, n_cls)


def _cell_box(i, j):
    return Box((i - 0.5) * SHAPE.cell_w, (j - 0.5) * SHAPE.cell_h, 0.08, 0.08)


def test_loss_dis_half_log_two():
    maps = _maps()
    maps.dis[1, 1] = 0.5  # grid (2,2): one positive at 0.5
    maps.dis[4, 4] = 0.5  # grid (5,5): one negative at 0.5
    targets = LossTargets(s_c={(2, 2, 1, 1)}, s_d_neg={(5, 5)})
    term = loss_dis(maps, targets)
    assert math.isclose(term.value, math.log(2), abs_tol=1e-9)
    assert term.count == 2


def test_loss_dis_ideal_maps_near_zero():
    maps = _maps()
    maps.dis[1, 1] = 1.0 - 1e-6
    targets = LossTargets(s_c={(2, 2, 1, 1)}, s_d_neg={(5, 5)})
    assert loss_dis(maps, targets).value < 1e-5


def test_loss_dis_empty_sets_flagged_zero():
    term = loss_dis(_maps(), LossTargets())
    assert term.value == 0.0
    assert "dis_pos:empty" in term.flags and "dis_neg:empty" in term.flags


def test_loss_box_zero_when_equal():
    maps = _maps()
    box = _cell_box(3, 3)
    put_char(maps, 3, 3, 1, box=box)
    labels = {(1, 1): PseudoLabel(box=box, gamma=1.0)}
    targets = LossTargets(s_c={(3, 3, 1, 1)})
    assert loss_box(maps, targets, labels, SHAPE).value < 1e-12


def test_loss_box_offset_and_extent_weights():
    # The 0.1 difference is constructed against the float32 value actually
    # stored in the map, so the expected 0.01 / 0.001 hold to 1e-9.
    maps = _maps()
    targets = LossTargets(s_c={(3, 3, 1, 1)})
    maps.box[2, 2] = (0.5, 0.5, 0.4, 0.4)
    x_o, y_o, w_o, h_o = (float(v) for v in maps.box[2, 2])

    rel = np.array([[x_o - 0.1, y_o, w_o, h_o], [x_o, y_o, w_o - 0.1, h_o]])
    boxes = rel_to_abs(rel, cells([(3, 3)] * 2), SHAPE).tolist()
    for box, want in zip(boxes, (0.01, 0.001)):
        label = PseudoLabel(box=Box(*box), gamma=1.0)
        assert math.isclose(loss_box(maps, targets, {(1, 1): label}, SHAPE).value,
                            want, abs_tol=1e-9)


def test_loss_cls_values():
    maps = _maps()
    annot = PageAnnotation(lines=[[2]])
    targets = LossTargets(s_c={(3, 3, 1, 1)})
    maps.cls[2, 2] = np.array([0, 1, 0, 0], dtype=np.float32)
    # probability exactly 1 falls under the clamp convention: the term is
    # -log(1 - 1e-7), i.e. zero at clamp resolution
    assert loss_cls(maps, targets, annot).value < 1e-6
    maps.cls[2, 2] = np.array([0.5, 0.5, 0, 0], dtype=np.float32)
    assert math.isclose(loss_cls(maps, targets, annot).value, math.log(2),
                        abs_tol=1e-9)
    empty = loss_cls(maps, LossTargets(), annot)
    assert empty.value == 0.0 and "cls:empty" in empty.flags


def test_loss_sol_half_weighted():
    maps = _maps()
    maps.sol[1, 1] = 0.5
    targets = LossTargets(s_s_pos={(2, 2)})
    term = loss_sol(maps, targets)
    assert math.isclose(term.value, 0.5 * math.log(2), abs_tol=1e-9)
    assert "sol_neg:empty" in term.flags


def test_loss_eol_negative_half_only():
    maps = _maps()
    maps.eol[1, 1] = 0.5
    targets = LossTargets(s_e_neg={(2, 2)})
    term = loss_eol(maps, targets)
    assert math.isclose(term.value, 0.5 * math.log(2), abs_tol=1e-9)
    assert "eol_pos:empty" in term.flags


def test_loss_rd_uniform_ln4():
    maps = _maps()
    maps.rd[2, 2] = np.full(4, 0.25, dtype=np.float32)
    targets = LossTargets(s_rd={(3, 3, 1)})
    assert math.isclose(loss_rd(maps, targets).value, math.log(4), abs_tol=1e-9)
    set_rd(maps, 3, 3, 1)
    assert loss_rd(maps, targets).value < 1e-5
    empty = loss_rd(maps, LossTargets())
    assert empty.value == 0.0 and "rd:empty" in empty.flags


def test_loss_total_is_exact_sum():
    page = gen_page(PageConfig(n_lines=2, chars_per_line=(5, 5), n_cls=10, seed=6))
    maps = oracle_predict(page, OracleNoise(jitter_sigma=0.2, label_swap_p=0.3,
                                            seed=3))
    labels = gt_label_map(page)
    annot = page.annotation
    from gridtext.decoder import decode

    result = decode(maps)
    m_ce = {(p, m) for p, line in enumerate(result.lines, start=1)
            for m in range(1, len(line.chars) + 1)}
    targets = build_targets(labels, annot, result, m_ce, page.shape,
                            np.random.default_rng(0))
    report = compute_losses(maps, targets, labels, annot)
    want = (report.l_dis + report.l_box + report.l_cls + report.l_sol
            + report.l_eol + report.l_rd)
    assert report.l_total == want
    assert report.counts["cls"] == len(targets.s_c)
    assert report.counts["rd"] == len(targets.s_rd)


def test_losses_match_naive_reference():
    rng = np.random.default_rng(12)
    for trial in range(5):
        page = gen_page(PageConfig(n_lines=3, chars_per_line=(4, 6), n_cls=8,
                                   seed=100 + trial))
        noise = OracleNoise(jitter_sigma=0.15, label_swap_p=0.2, drop_p=0.1,
                            spurious_p=0.03, dir_flip_p=0.2, seed=trial)
        maps = oracle_predict(page, noise)
        from gridtext.decoder import decode

        result = decode(maps)
        m_ce = {(p, m) for p, line in enumerate(result.lines, start=1)
                for m in range(1, len(line.chars) + 1)}
        labels = gt_label_map(page)
        targets = build_targets(labels, page.annotation, result, m_ce,
                                page.shape, np.random.default_rng(trial))
        report = compute_losses(maps, targets, labels, page.annotation)
        want = naive_losses(maps, targets, labels, page.annotation)
        for name in ("dis", "box", "cls", "sol", "eol", "rd"):
            assert math.isclose(report.terms()[name], want[name], abs_tol=1e-12), name
        assert math.isclose(report.l_total, want["total"], abs_tol=1e-11)


def test_losses_insensitive_to_set_construction_order():
    maps = _maps()
    maps.dis[1, 1] = 0.4
    maps.dis[3, 3] = 0.7
    grids = [(2, 2, 1, 1), (4, 4, 1, 2)]
    a = LossTargets(s_c=set(grids))
    b = LossTargets(s_c=set(reversed(grids)))
    assert loss_dis(maps, a).value == loss_dis(maps, b).value


def test_clamping_flags_extreme_probabilities():
    maps = _maps()
    maps.dis[1, 1] = 0.0
    targets = LossTargets(s_c={(2, 2, 1, 1)})
    term = loss_dis(maps, targets)
    assert math.isclose(term.value, 0.5 * -math.log(1e-7), rel_tol=1e-9)
    assert "dis_pos:clamped" in term.flags
