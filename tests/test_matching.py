import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edit_oracle, plain_distance
from gridtext.decoder import CharInstance, Line, PageResult
from gridtext.geometry import Box, GridShape
from gridtext.matching import (
    PageAnnotation,
    ar,
    cr,
    edit_counts,
    edit_script,
    match_chars,
    match_lines,
    spatial_filter,
)
from gridtext.pseudolabels import PseudoLabel

A, B, C, D, X = 1, 2, 3, 4, 9


def test_ar_identity():
    assert ar([A, B], [A, B]) == 1.0


def test_ar_single_substitution():
    assert math.isclose(ar([A, X, C], [A, B, C]), 2 / 3, abs_tol=1e-12)


def test_ar_insertion_cr_unaffected():
    assert math.isclose(ar([A, B, C, D], [A, B, C]), 2 / 3, abs_tol=1e-12)
    assert cr([A, B, C, D], [A, B, C]) == 1.0


def test_ar_empty_reference_rejected():
    with pytest.raises(ValueError):
        ar([A], [])


def test_edit_script_canonical_substitutions():
    # "ab" vs "ba" admits one insertion+deletion script and one
    # double-substitution script; the canonical backtrace picks S,S.
    assert edit_script([A, B], [B, A]) == ["S", "S"]
    assert edit_counts([A, B], [B, A]) == (0, 0, 2)


def test_match_lines_single_pair():
    assert match_lines([[A, B, C]], [[A, B, C], [X, X, X]]) == {(1, 1)}


def test_match_lines_best_ar_wins():
    assert match_lines([[A, B, C], [A, B, D]], [[A, B, D]]) == {(2, 1)}


def test_match_lines_all_below_threshold():
    assert match_lines([[X, X, X]], [[A, B, C]], th_ar=0.3) == set()


def test_match_chars_all_equal():
    m_c, m_ce = match_chars({(1, 1)}, [[A, B, C]], [[A, B, C]])
    assert m_c == {(1, 1, 1, 1), (1, 2, 1, 2), (1, 3, 1, 3)}
    assert m_ce == {(1, 1), (1, 2), (1, 3)}


def test_match_chars_substitution_breaks_consecutive():
    m_c, m_ce = match_chars({(1, 1)}, [[A, B, C]], [[A, X, C]])
    assert m_c == {(1, 1, 1, 1), (1, 3, 1, 3)}
    assert m_ce == {(1, 3)}


def test_match_chars_deletion_invisible_to_result_states():
    # hyp "ab" vs ref "acb": script E,D,E; the deletion consumes no result
    # position, so both result positions are consecutive equals.
    assert edit_script([A, B], [A, C, B]) == ["E", "D", "E"]
    m_c, m_ce = match_chars({(1, 1)}, [[A, B]], [[A, C, B]])
    assert m_c == {(1, 1, 1, 1), (1, 2, 1, 3)}
    assert m_ce == {(1, 1), (1, 2)}


def test_match_chars_classes_agree():
    results = [[A, B, X, C]]
    annots = [[A, B, C]]
    m_c, _ = match_chars(match_lines(results, annots), results, annots)
    for p, m, q, n in m_c:
        assert results[p - 1][m - 1] == annots[q - 1][n - 1]


def _one_char_result(box: Box) -> PageResult:
    char = CharInstance(grid=(1, 1), box=box, score=0.9, cls_id=A, cls_prob=1.0)
    return PageResult(lines=[Line(chars=[char], traces=[], sol_conf=1, eol_conf=1)])


def test_spatial_filter_missing_label_passes():
    shape = GridShape(4, 4, 64, 64)
    result = _one_char_result(Box(10, 10, 0.2, 0.2))
    kept = spatial_filter({(1, 1, 1, 1)}, result, {}, shape)
    assert kept == {(1, 1, 1, 1)}


def test_spatial_filter_identical_box_retained():
    shape = GridShape(4, 4, 64, 64)
    box = Box(10, 10, 0.2, 0.2)
    labels = {(1, 1): PseudoLabel(box=box, gamma=0.8)}
    kept = spatial_filter({(1, 1, 1, 1)}, _one_char_result(box), labels, shape)
    assert kept == {(1, 1, 1, 1)}


def test_spatial_filter_low_iou_removed():
    shape = GridShape(4, 4, 64, 64)
    from gridtext.geometry import iou

    pred = Box(10, 10, 0.2, 0.2)
    label_box = Box(20, 10, 0.2, 0.2)
    assert iou(pred, label_box, shape) < 0.5
    labels = {(1, 1): PseudoLabel(box=label_box, gamma=0.8)}
    kept = spatial_filter({(1, 1, 1, 1)}, _one_char_result(pred), labels, shape)
    assert kept == set()


def test_spatial_filter_idempotent_and_shrinking():
    shape = GridShape(4, 4, 64, 64)
    result = _one_char_result(Box(10, 10, 0.2, 0.2))
    labels = {(1, 1): PseudoLabel(box=Box(40, 40, 0.2, 0.2), gamma=0.5)}
    m_c = {(1, 1, 1, 1)}
    once = spatial_filter(m_c, result, labels, shape)
    assert once <= m_c
    assert spatial_filter(once, result, labels, shape) == once


@settings(deadline=None, max_examples=300)
@given(
    hyp=st.lists(st.integers(1, 4), max_size=8),
    ref=st.lists(st.integers(1, 4), max_size=8),
)
def test_edit_counts_match_recursive_oracle(hyp, ref):
    got = edit_counts(hyp, ref)
    assert got == edit_oracle(hyp, ref)
    assert sum(got) == plain_distance(hyp, ref)


@settings(deadline=None, max_examples=100)
@given(
    results=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=4), max_size=4),
    annots=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=4),
                    min_size=1, max_size=4),
    th=st.floats(0.0, 1.0),
)
def test_match_lines_greedy_maximal(results, annots, th):
    pairs = match_lines(results, annots, th_ar=th)
    used_p = {p for p, _ in pairs}
    used_q = {q for _, q in pairs}
    assert len(used_p) == len(pairs) and len(used_q) == len(pairs)
    for p in range(1, len(results) + 1):
        for q in range(1, len(annots) + 1):
            if p not in used_p and q not in used_q:
                assert ar(results[p - 1], annots[q - 1]) < th


def test_annotation_rejects_empty_line():
    with pytest.raises(ValueError):
        PageAnnotation(lines=[[]])
