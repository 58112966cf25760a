import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import blank_maps, gt_label_map, loss_targets, naive_losses, put_char, set_rd
from gridtext.geometry import Box, GridShape, abs_to_rel, cells, rel_to_abs
from gridtext.losses import (
    BOX_WEIGHTS,
    CLAMP,
    Term,
    _mean_neg_log,
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
    targets = loss_targets(s_c={(2, 2, 1, 1)}, s_d_neg={(5, 5)})
    term = loss_dis(maps, targets)
    assert math.isclose(term.value, math.log(2), abs_tol=1e-9)
    assert term.count == 2


def test_loss_dis_ideal_maps_near_zero():
    maps = _maps()
    maps.dis[1, 1] = 1.0 - 1e-6
    targets = loss_targets(s_c={(2, 2, 1, 1)}, s_d_neg={(5, 5)})
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
    targets = loss_targets(s_c={(3, 3, 1, 1)})
    assert loss_box(maps, targets, labels, SHAPE).value < 1e-12


def test_loss_box_offset_and_extent_weights():
    # The 0.1 difference is constructed against the float32 value actually
    # stored in the map, so the expected 0.01 / 0.001 hold to 1e-9.
    maps = _maps()
    targets = loss_targets(s_c={(3, 3, 1, 1)})
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
    targets = loss_targets(s_c={(3, 3, 1, 1)})
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
    targets = loss_targets(s_s_pos={(2, 2)})
    term = loss_sol(maps, targets)
    assert math.isclose(term.value, 0.5 * math.log(2), abs_tol=1e-9)
    assert "sol_neg:empty" in term.flags


def test_loss_eol_negative_half_only():
    maps = _maps()
    maps.eol[1, 1] = 0.5
    targets = loss_targets(s_e_neg={(2, 2)})
    term = loss_eol(maps, targets)
    assert math.isclose(term.value, 0.5 * math.log(2), abs_tol=1e-9)
    assert "eol_pos:empty" in term.flags


def test_loss_rd_uniform_ln4():
    maps = _maps()
    maps.rd[2, 2] = np.full(4, 0.25, dtype=np.float32)
    targets = loss_targets(s_rd={(3, 3, 1)})
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
    terms = report.terms()
    want = (terms["dis"] + terms["box"] + terms["cls"] + terms["sol"]
            + terms["eol"] + terms["rd"])
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
    a = loss_targets(s_c=grids)
    b = loss_targets(s_c=reversed(grids))
    assert loss_dis(maps, a).value == loss_dis(maps, b).value


def test_clamping_flags_extreme_probabilities():
    maps = _maps()
    maps.dis[1, 1] = 0.0
    targets = loss_targets(s_c={(2, 2, 1, 1)})
    term = loss_dis(maps, targets)
    assert math.isclose(term.value, 0.5 * -math.log(1e-7), rel_tol=1e-9)
    assert "dis_pos:clamped" in term.flags


# ---------------------------------------------------------------------------
# The per-element loops the loss terms ran before they worked on arrays.  The
# array forms must give the same floats, not close ones, and the same flags.
# ---------------------------------------------------------------------------


def _mean_neg_log_reference(values, flags, name):
    def log(p):
        if p < CLAMP or p > 1.0 - CLAMP:
            if f"{name}:clamped" not in flags:
                flags.append(f"{name}:clamped")
            p = min(max(p, CLAMP), 1.0 - CLAMP)
        return math.log(p)

    vals = list(values)
    if not vals:
        flags.append(f"{name}:empty")
        return 0.0
    return -sum(log(v) for v in vals) / len(vals)


def _loss_box_reference(maps, targets, labels, shape):
    flags = []
    if not targets.s_c:
        flags.append("box:empty")
        return Term(0.0, 0, flags)
    s_c = sorted(targets.s_c)
    at = cells((i, j) for i, j, _, _ in s_c)
    boxes = [labels[(q, n)].box for _, _, q, n in s_c]
    want = abs_to_rel(np.array([(b.x, b.y, b.w, b.h) for b in boxes]), at, shape)
    total = 0.0
    for diffs in (maps.box[at] - want).tolist():
        total += sum(w * d * d for w, d in zip(BOX_WEIGHTS, diffs))
    return Term(total / len(targets.s_c), len(targets.s_c), flags)


def _log_terms_reference(maps, targets, annot):
    """dis, cls, sol, eol and rd, each value read with ``float`` in the
    sorted order of its targets."""

    def values(arr, cells):
        return [float(arr[(i - 1, j - 1, *rest)]) for i, j, *rest in cells]

    def bce(arr, pos, neg, name):
        flags = []
        p = _mean_neg_log_reference(values(arr, sorted(pos)), flags, f"{name}_pos")
        n = _mean_neg_log_reference(
            [1.0 - v for v in values(arr, sorted(neg))], flags, f"{name}_neg")
        return Term(0.5 * p + 0.5 * n, len(pos) + len(neg), flags)

    s_c = sorted(targets.s_c)
    cls_flags, rd_flags = [], []
    cls_cells = [(i, j, annot.lines[q - 1][n - 1] - 1) for i, j, q, n in s_c]
    return {
        "dis": bce(maps.dis, [(i, j) for i, j, _, _ in s_c], targets.s_d_neg, "dis"),
        "cls": Term(_mean_neg_log_reference(values(maps.cls, cls_cells), cls_flags, "cls"),
                    len(s_c), cls_flags),
        "sol": bce(maps.sol, targets.s_s_pos, targets.s_s_neg, "sol"),
        "eol": bce(maps.eol, targets.s_e_pos, targets.s_e_neg, "eol"),
        "rd": Term(_mean_neg_log_reference(values(maps.rd, sorted(targets.s_rd)), rd_flags, "rd"),
                   len(targets.s_rd), rd_flags),
    }


# The clamp's ends and the points around them, subnormals, and values
# outside [0, 1] that a hand-built map may hold.
_EDGES = [0.0, -0.0, CLAMP, 1.0 - CLAMP, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308,
          float(np.float32(1e-45)), float(np.float32(CLAMP)), float(np.float32(1.0 - CLAMP)),
          np.nextafter(CLAMP, 0.0), np.nextafter(1.0 - CLAMP, 1.0), -0.25, 1.5]
_prob = st.sampled_from(_EDGES) | st.floats(0.0, 1.0)


@settings(max_examples=300)
@given(vals=st.lists(_prob, max_size=12))
@example(vals=[])
@example(vals=[CLAMP, 1.0 - CLAMP])
def test_mean_neg_log_matches_reference_exactly(vals):
    flags, want_flags = ["other"], ["other"]
    got = _mean_neg_log(np.array(vals, dtype=np.float64), flags, "t")
    assert got == _mean_neg_log_reference(vals, want_flags, "t")
    assert flags == want_flags


_grid = st.tuples(st.integers(1, 8), st.integers(1, 8))
_annot = PageAnnotation(lines=[[1, 4, 2], [3, 3]])
_label_keys = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]


@st.composite
def _loss_case(draw):
    """Maps filled with clamp edges, subnormals and uniform values, and
    target sets that may be empty, may share grids, and may be large."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = _maps()
    edges = np.array(_EDGES[:12], dtype=np.float32)
    for arr in (maps.dis, maps.sol, maps.eol, maps.cls, maps.rd):
        arr[...] = rng.uniform(0.0, 1.0, arr.shape)
        mask = rng.random(arr.shape) < draw(st.sampled_from([0.0, 0.2, 1.0]))
        arr[mask] = rng.choice(edges, mask.sum())
    maps.box[...] = rng.normal(0.5, draw(st.sampled_from([0.1, 1e3])), maps.box.shape)
    sets = lambda elem: st.sets(elem, max_size=draw(st.sampled_from([0, 3, 64])))
    s_c = draw(sets(st.tuples(st.integers(1, 8), st.integers(1, 8), st.sampled_from(_label_keys))))
    labels = {
        key: PseudoLabel(
            box=Box(*draw(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                                    st.floats(1e-6, 4.0) | st.just(5e-324),
                                    st.floats(1e-6, 4.0)))),
            gamma=1.0)
        for key in _label_keys
    }
    target_sets = SimpleNamespace(
        s_c={(i, j, q, n) for i, j, (q, n) in s_c},
        s_d_neg=draw(sets(_grid)),
        s_s_pos=draw(sets(_grid)), s_s_neg=draw(sets(_grid)),
        s_e_pos=draw(sets(_grid)), s_e_neg=draw(sets(_grid)),
        s_rd=draw(sets(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(0, 3)))),
    )
    return maps, target_sets, labels


@settings(max_examples=150, deadline=None)
@given(case=_loss_case())
def test_loss_terms_match_reference_loops_exactly(case):
    """The reference loops take the target sets and sort them; the terms
    take the same sets as sorted rows."""
    maps, target_sets, labels = case
    targets = loss_targets(**vars(target_sets))
    want = _log_terms_reference(maps, target_sets, _annot)
    assert loss_dis(maps, targets) == want["dis"]
    assert loss_cls(maps, targets, _annot) == want["cls"]
    assert loss_sol(maps, targets) == want["sol"]
    assert loss_eol(maps, targets) == want["eol"]
    assert loss_rd(maps, targets) == want["rd"]
    assert loss_box(maps, targets, labels, SHAPE) == _loss_box_reference(
        maps, target_sets, labels, SHAPE)
