import math
import random

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from conftest import _iou_reference, edit_oracle, plain_distance
from gridtext.decoder import CharInstance, Line, PageResult
from gridtext.geometry import Box, GridShape
from gridtext.matching import (
    PageAnnotation,
    _columns,
    _table,
    edit_counts,
    edit_script,
    match_chars,
    match_lines,
    script_counts,
    spatial_filter,
)
from gridtext.metrics import page_ar_cr
from gridtext.pseudolabels import PseudoLabel

A, B, C, D, X = 1, 2, 3, 4, 9


def _edit_script_reference(hyp, ref):
    """Canonical minimum edit script by a list-of-lists DP and its backtrace."""
    m, n = len(hyp), len(ref)
    cost = [[0] * (n + 1) for _ in range(m + 1)]
    for a in range(1, m + 1):
        cost[a][0] = a
    for b in range(1, n + 1):
        cost[0][b] = b
    for a in range(1, m + 1):
        row = cost[a]
        prev = cost[a - 1]
        ha = hyp[a - 1]
        for b in range(1, n + 1):
            if ha == ref[b - 1]:
                row[b] = prev[b - 1]
            else:
                row[b] = 1 + min(prev[b - 1], row[b - 1], prev[b])
    ops = []
    a, b = m, n
    while a > 0 or b > 0:
        c = cost[a][b]
        if a > 0 and b > 0 and hyp[a - 1] == ref[b - 1] and cost[a - 1][b - 1] == c:
            ops.append("E")
            a -= 1
            b -= 1
        elif a > 0 and b > 0 and hyp[a - 1] != ref[b - 1] and cost[a - 1][b - 1] + 1 == c:
            ops.append("S")
            a -= 1
            b -= 1
        elif b > 0 and cost[a][b - 1] + 1 == c:
            ops.append("D")
            b -= 1
        else:
            ops.append("I")
            a -= 1
    ops.reverse()
    return ops


def _packed_distances(hyp, refs):
    """The distance of ``hyp`` to each of ``refs``, read off the last column
    of one packed pass as len(hyp) + popcount(pv & seg) - popcount(mv & seg)."""
    table = _table(refs)
    pv, mv = _columns(hyp, table)[-1]
    return [len(hyp) + (pv & seg).bit_count() - (mv & seg).bit_count() for seg in table[-1]]


def _error_count(ops):
    return sum(op != "E" for op in ops)


def _match_lines_reference(results, annots, th_ar):
    """All-pairs line matching: every pair scored by its full edit script."""
    scored = []
    for p, res in enumerate(results, start=1):
        for q, ref in enumerate(annots, start=1):
            ops = _edit_script_reference(res, ref)
            scored.append((script_counts(ops).rates()[0], p, q, ops))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    matched = {}
    used_p, used_q = set(), set()
    for score, p, q, ops in scored:
        if score < th_ar:
            break
        if p in used_p or q in used_q:
            continue
        matched[p, q] = ops
        used_p.add(p)
        used_q.add(q)
    return matched


def test_ar_identity():
    assert page_ar_cr([A, B], [A, B])[0] == 1.0


def test_ar_single_substitution():
    assert math.isclose(page_ar_cr([A, X, C], [A, B, C])[0], 2 / 3, abs_tol=1e-12)


def test_ar_insertion_cr_unaffected():
    ar, cr = page_ar_cr([A, B, C, D], [A, B, C])
    assert math.isclose(ar, 2 / 3, abs_tol=1e-12)
    assert cr == 1.0


def test_ar_empty_reference_rejected():
    with pytest.raises(ValueError):
        page_ar_cr([A], [])


def test_edit_script_canonical_substitutions():
    # "ab" vs "ba" admits one insertion+deletion script and one
    # double-substitution script; the canonical backtrace picks S,S.
    assert edit_script([A, B], [B, A]) == ["S", "S"]
    assert edit_counts([A, B], [B, A]) == (0, 0, 2)


def test_match_lines_single_pair():
    assert set(match_lines([[A, B, C]], [[A, B, C], [X, X, X]], th_ar=0.3)) == {(1, 1)}


def test_match_lines_best_ar_wins():
    assert set(match_lines([[A, B, C], [A, B, D]], [[A, B, D]], th_ar=0.3)) == {(2, 1)}


def test_match_lines_all_below_threshold():
    assert set(match_lines([[X, X, X]], [[A, B, C]], th_ar=0.3)) == set()


def test_match_lines_hands_back_each_matched_pairs_script():
    results = [[A, B, X, C], [D]]
    annots = [[A, B, C], [D, D]]
    assert match_lines(results, annots, th_ar=0.3) == {(1, 1): ["E", "E", "I", "E"], (2, 2): ["D", "E"]}


def test_match_chars_all_equal():
    m_c, m_ce = match_chars(match_lines([[A, B, C]], [[A, B, C]], th_ar=0.3))
    assert m_c == {(1, 1, 1, 1), (1, 2, 1, 2), (1, 3, 1, 3)}
    assert m_ce == {(1, 1), (1, 2), (1, 3)}


def test_match_chars_substitution_breaks_consecutive():
    m_c, m_ce = match_chars(match_lines([[A, B, C]], [[A, X, C]], th_ar=0.3))
    assert m_c == {(1, 1, 1, 1), (1, 3, 1, 3)}
    assert m_ce == {(1, 3)}


def test_match_chars_deletion_invisible_to_result_states():
    # hyp "ab" vs ref "acb": script E,D,E; the deletion consumes no result
    # position, so both result positions are consecutive equals.
    assert edit_script([A, B], [A, C, B]) == ["E", "D", "E"]
    m_c, m_ce = match_chars(match_lines([[A, B]], [[A, C, B]], th_ar=0.3))
    assert m_c == {(1, 1, 1, 1), (1, 2, 1, 3)}
    assert m_ce == {(1, 1), (1, 2)}


def test_match_chars_classes_agree():
    results = [[A, B, X, C]]
    annots = [[A, B, C]]
    m_c, _ = match_chars(match_lines(results, annots, th_ar=0.3))
    for p, m, q, n in m_c:
        assert results[p - 1][m - 1] == annots[q - 1][n - 1]


def _one_char_result(box: Box) -> PageResult:
    char = CharInstance(grid=(1, 1), box=box, score=0.9, cls_id=A, cls_prob=1.0)
    return PageResult(lines=[Line(chars=[char], traces=[], sol_conf=1, eol_conf=1)])


def test_spatial_filter_missing_label_passes():
    shape = GridShape(4, 4, 64, 64)
    result = _one_char_result(Box(10, 10, 0.2, 0.2))
    kept = spatial_filter({(1, 1, 1, 1)}, result, {}, shape, th_iou=0.5)
    assert kept == {(1, 1, 1, 1)}


def test_spatial_filter_identical_box_retained():
    shape = GridShape(4, 4, 64, 64)
    box = Box(10, 10, 0.2, 0.2)
    labels = {(1, 1): PseudoLabel(box=box, gamma=0.8)}
    kept = spatial_filter({(1, 1, 1, 1)}, _one_char_result(box), labels, shape, th_iou=0.5)
    assert kept == {(1, 1, 1, 1)}


def test_spatial_filter_low_iou_removed():
    shape = GridShape(4, 4, 64, 64)
    pred = Box(10, 10, 0.2, 0.2)
    label_box = Box(20, 10, 0.2, 0.2)
    assert _iou_reference(pred, label_box, shape) < 0.5
    labels = {(1, 1): PseudoLabel(box=label_box, gamma=0.8)}
    kept = spatial_filter({(1, 1, 1, 1)}, _one_char_result(pred), labels, shape, th_iou=0.5)
    assert kept == set()


def test_spatial_filter_idempotent_and_shrinking():
    shape = GridShape(4, 4, 64, 64)
    result = _one_char_result(Box(10, 10, 0.2, 0.2))
    labels = {(1, 1): PseudoLabel(box=Box(40, 40, 0.2, 0.2), gamma=0.5)}
    m_c = {(1, 1, 1, 1)}
    once = spatial_filter(m_c, result, labels, shape, th_iou=0.5)
    assert once <= m_c
    assert spatial_filter(once, result, labels, shape, th_iou=0.5) == once


def _spatial_filter_reference(m_c, result, pseudo, shape, th_iou):
    """The per-pair loop spatial_filter ran before it scored a page at once."""
    kept = set()
    for p, m, q, n in m_c:
        label = pseudo.get((q, n))
        if label is None:
            kept.add((p, m, q, n))
            continue
        box = result.lines[p - 1].chars[m - 1].box
        if _iou_reference(box, label.box, shape) >= th_iou:
            kept.add((p, m, q, n))
    return kept


_SF_SHAPE = GridShape(4, 4, 64, 64)
# On a 64-pixel page: a box, itself (IoU 1), one half of it (IoU exactly
# 0.5) and one beside it (IoU 0), so IoUs fall exactly on each threshold.
_SF_POOL = [Box(8, 8, 0.25, 0.25), Box(4, 8, 0.125, 0.25), Box(40, 40, 0.25, 0.25)]
_sf_box = st.sampled_from(_SF_POOL) | st.builds(
    Box, *[st.floats(0, 64)] * 2, *[st.floats(0.01, 1)] * 2
)


@st.composite
def _spatial_case(draw):
    """A result of up to three lines, matched pairs into it, and labels for
    some of the pairs' transcript positions (and for positions no pair has)."""
    lines = [
        Line(chars=[CharInstance((1, 1), draw(_sf_box), 0.9, A, 1.0)
                    for _ in range(draw(st.integers(1, 4)))],
             traces=[], sol_conf=1.0, eol_conf=1.0)
        for _ in range(draw(st.integers(1, 3)))
    ]
    slots = [(p, m) for p, line in enumerate(lines, 1) for m in range(1, len(line.chars) + 1)]
    qn = st.tuples(st.integers(1, 3), st.integers(1, 4))
    m_c = draw(st.sets(st.tuples(st.sampled_from(slots), qn).map(lambda t: t[0] + t[1]),
                       max_size=12))
    pseudo = {k: PseudoLabel(draw(_sf_box), 0.5) for k in draw(st.sets(qn, max_size=12))}
    return m_c, PageResult(lines=lines), pseudo


# One result position per pool box, each labelled with the first box: IoUs
# of exactly 1, 0.5 and 0, so each example threshold meets one of them.
_SF_EXACT = (
    {(1, m, 1, m) for m in (1, 2, 3)},
    PageResult(lines=[Line(chars=[CharInstance((m, 1), box, 0.9, A, 1.0)
                                  for m, box in enumerate(_SF_POOL, 1)],
                           traces=[], sol_conf=1.0, eol_conf=1.0)]),
    {(1, m): PseudoLabel(_SF_POOL[0], 0.5) for m in (1, 2, 3)},
)


@settings(deadline=None, max_examples=300)
@given(case=_spatial_case(), th_iou=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1))
@example(case=(set(), PageResult(lines=[]), {}), th_iou=0.5)
@example(case=_SF_EXACT, th_iou=0.0)
@example(case=_SF_EXACT, th_iou=0.5)
@example(case=_SF_EXACT, th_iou=1.0)
def test_spatial_filter_matches_per_pair_reference(case, th_iou):
    m_c, result, pseudo = case
    want = _spatial_filter_reference(m_c, result, pseudo, _SF_SHAPE, th_iou)
    assert spatial_filter(m_c, result, pseudo, _SF_SHAPE, th_iou) == want


def test_spatial_pool_ious_are_exactly_one_half_and_zero():
    first = [_SF_POOL[0]] * 3
    assert [_iou_reference(a, b, _SF_SHAPE) for a, b in zip(first, _SF_POOL)] == [1.0, 0.5, 0.0]


@settings(deadline=None, max_examples=300)
@given(
    hyp=st.lists(st.integers(1, 4), max_size=8),
    ref=st.lists(st.integers(1, 4), max_size=8),
)
def test_edit_counts_match_recursive_oracle(hyp, ref):
    got = edit_counts(hyp, ref)
    assert got == edit_oracle(hyp, ref)
    assert sum(got) == plain_distance(hyp, ref)


@st.composite
def _patterned(draw, n):
    """A line of ``n`` elements: a short drawn pattern repeated, with up to
    four elements overwritten.  Few draws make it, so a failing example
    shrinks in seconds; the repeats make many cost ties for the backtrace."""
    pattern = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    line = (pattern * n)[:n]
    for k, c in draw(st.lists(st.tuples(st.integers(0, 139), st.integers(1, 3)), max_size=4)):
        if n:
            line[k % n] = c
    return line


@st.composite
def _long_line(draw):
    """A line of 60-140 elements, so its bit vectors cross one or two 64-bit
    words."""
    return draw(_patterned(draw(st.integers(60, 140))))


def test_long_lines_cross_one_and_two_words():
    # Seeded, and with enough examples that a length past 128 (12 of the
    # 81 lengths) is all but certain to be drawn.
    for edge in (64, 128):
        line = find(_long_line(), lambda line: len(line) > edge,
                    settings=settings(database=None, max_examples=1000), random=random.Random(0))
        assert len(line) == edge + 1


@settings(deadline=None, max_examples=100)
@given(
    hyp=st.lists(st.integers(1, 4), max_size=8) | _long_line(),
    ref=st.lists(st.integers(1, 4), min_size=1, max_size=8) | _long_line(),
)
def test_edit_distance_is_the_canonical_scripts_error_count(hyp, ref):
    assert _packed_distances(hyp, [ref]) == [_error_count(edit_script(hyp, ref))]


def test_an_empty_line_adds_no_bits_to_the_table():
    peq, mask, low, high, segs = _table([[A, B], [], [C], []])
    assert (peq, mask, low, high, segs) == ({A: 0b1, B: 0b10, C: 0b100}, 0b111, 0b101, 0b110,
                                            [0b11, 0, 0b100, 0])
    assert _table([[]]) == ({}, 0, 0, 0, [0])
    assert _packed_distances([A, X, C], [[A, B], [], [C], []]) == [2, 3, 2, 3]
    assert _packed_distances([], [[A, B], []]) == [2, 0]
    assert edit_script([A, B], []) == ["I", "I"]
    assert edit_script([], [A, B]) == ["D", "D"]


@settings(deadline=None, max_examples=300)
@given(
    hyp=st.lists(st.integers(1, 4), max_size=8) | _long_line(),
    ref=st.lists(st.integers(1, 4), max_size=8) | _long_line(),
)
def test_edit_script_matches_dp_reference(hyp, ref):
    assert edit_script(hyp, ref) == _edit_script_reference(hyp, ref)


@st.composite
def _line_sets(draw):
    """(results, annots): lines drawn from a small pool, so repeated lines
    force AR ties; result lines may be empty."""
    short = st.lists(st.integers(1, 3), min_size=1, max_size=5)
    pool = draw(st.lists(short | _long_line(), min_size=1, max_size=3))
    line = st.sampled_from(pool) | short | st.just([])
    results = draw(st.lists(line, max_size=4))
    annots = draw(st.lists(st.sampled_from(pool) | short, min_size=1, max_size=4))
    return results, annots


@settings(deadline=None, max_examples=100)
@given(lines=_line_sets(), th_ar=st.sampled_from([-math.inf, -0.5, 0.0, 0.3, 1.0]))
def test_match_lines_matches_all_pairs_reference(lines, th_ar):
    results, annots = lines
    assert match_lines(results, annots, th_ar) == _match_lines_reference(results, annots, th_ar)


@st.composite
def _packed_page(draw):
    """(results, lines): 1-30 patterned transcript lines of at most 16
    elements, empty ones among them.  A line of min(16, bits to the next
    64-bit word edge) steps the packed table towards that edge and ends
    exactly at it; the other lengths end inside a word or straddle an edge.
    Result lines are copies of them, edited copies, short lines or empty.
    Short lines keep each example cheap, so a failure shrinks in seconds."""
    lines, end = [], 0
    for _ in range(draw(st.integers(1, 30))):
        to_edge = -end % 64 or 64
        n = min(to_edge, 16) if draw(st.booleans()) else draw(st.sampled_from([1, 5, 0, 13, 2]))
        lines.append(draw(_patterned(n)))
        end += n
    copy = st.sampled_from(lines)
    edited = st.tuples(copy, st.integers(0, 16), st.integers(1, 3)).map(
        lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])
    short = st.lists(st.integers(1, 3), max_size=5)
    results = draw(st.lists(copy | edited | short | st.just([]), min_size=1, max_size=6))
    return results, lines


@settings(deadline=None, max_examples=100)
@given(page=_packed_page(), th_ar=st.sampled_from([-math.inf, 0.0, 0.5]))
def test_packed_page_matches_references(page, th_ar):
    results, lines = page
    for res in results:
        want = [_error_count(_edit_script_reference(res, ref)) for ref in lines]
        assert _packed_distances(res, lines) == want
    annots = [line for line in lines if line]
    if annots:
        assert match_lines(results, annots, th_ar) == _match_lines_reference(results, annots, th_ar)


_one_line = (st.lists(st.integers(1, 3), min_size=1, max_size=8) | _long_line()
             | st.integers(1, 3).map(lambda c: [c]) | st.just([]))


@settings(deadline=None, max_examples=100)
@given(
    hyp=st.lists(st.integers(1, 3), max_size=8) | _long_line(),
    refs=st.lists(_one_line, min_size=1, max_size=5),
)
def test_each_packed_segment_is_the_columns_of_its_line_alone(hyp, refs):
    # Classes 1-3 repeat within and across lines; lines of one element and
    # of 60-140 elements put segment edges inside and across 64-bit words.
    table = _table(refs)
    packed = _columns(hyp, table)
    for ref, seg in zip(refs, table[-1]):
        off = seg.bit_length() - len(ref)
        segment = [((pv & seg) >> off, (mv & seg) >> off) for pv, mv in packed]
        assert segment == _columns(hyp, _table([ref]))


@settings(deadline=None, max_examples=100)
@given(page=_packed_page() | _line_sets())
def test_match_lines_scripts_are_edit_scripts(page):
    results, annots = page
    annots = [line for line in annots if line]
    for (p, q), ops in match_lines(results, annots, -math.inf).items():
        assert ops == edit_script(results[p - 1], annots[q - 1])


def test_match_lines_empty_transcript_line_is_a_value_error():
    for th_ar in (-math.inf, 0.3):
        with pytest.raises(ValueError, match="^an empty transcript line has no accurate rate$"):
            match_lines([[A], []], [[A], []], th_ar)
        with pytest.raises(ValueError):
            _match_lines_reference([[A], []], [[A], []], th_ar)
        # No result line, no pair scored: as in the reference, no error.
        assert match_lines([], [[]], th_ar) == _match_lines_reference([], [[]], th_ar) == {}


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
                assert page_ar_cr(results[p - 1], annots[q - 1])[0] < th


def test_annotation_rejects_empty_line():
    with pytest.raises(ValueError):
        PageAnnotation(lines=[[]])
