import itertools
import json
import logging
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _iou_reference
from gridtext import matching, metrics
from gridtext.cli import main
from gridtext.geometry import Box, GridShape
from gridtext.matching import edit_counts
from gridtext.metrics import ar_star, det_prf, page_ar_cr

A, B, C, D, E = 1, 2, 3, 4, 5
SHAPE = GridShape(4, 4, 100, 100)


def test_ar_star_identity():
    res = {"pg": [[A, B, C], [D, E]]}
    a, c, counts = ar_star(res, res)
    assert a == 1.0 and c == 1.0
    assert (counts.n_ie, counts.n_de, counts.n_se) == (0, 0, 0)


def test_ar_star_extra_result_line_counts_insertions():
    a, c, counts = ar_star({"pg": [[A, B, C], [D, E]]}, {"pg": [[A, B, C]]})
    assert counts.n_ie == 2 and counts.n_de == 0 and counts.n_se == 0
    assert math.isclose(a, 1 / 3, abs_tol=1e-12)
    assert c == 1.0


def test_ar_star_all_deletions():
    a, c, counts = ar_star({"pg": []}, {"pg": [[A, B, C]]})
    assert counts.n_de == 3
    assert a == 0.0 and c == 0.0


def test_ar_star_can_be_negative_not_clamped():
    a, c, _ = ar_star({"pg": [[A], [B, C, D, E], [B, C]]}, {"pg": [[A]]})
    assert a == (1 - 6) / 1
    assert c == 1.0
    assert a <= c <= 1.0


def test_ar_star_missing_pages_on_either_side():
    a, c, counts = ar_star(
        {"only_res": [[A, B]]},
        {"only_ann": [[A, B, C]]},
    )
    assert counts.n_ie == 2 and counts.n_de == 3
    assert counts.n_total == 3


@settings(deadline=None, max_examples=80)
@given(
    res=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=4), max_size=3),
    ann=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=4),
                 min_size=1, max_size=3),
)
def test_ar_star_order_and_bounds(res, ann):
    a, c, counts = ar_star({"p": res}, {"p": ann})
    assert a <= c <= 1.0
    assert counts.n_de + counts.n_se <= counts.n_total


def _exhaustive_ar_star(results, annots):
    """Best AR* over every maximal one-to-one assignment: the fewest summed
    errors, unmatched lines counting as insertions or deletions."""
    n_total = sum(len(a) for a in annots)
    best = None
    k = min(len(results), len(annots))
    for r_idx in itertools.permutations(range(len(results)), k):
        for a_idx in itertools.permutations(range(len(annots)), k):
            errors = sum(len(r) for p, r in enumerate(results) if p not in r_idx)
            errors += sum(len(a) for q, a in enumerate(annots) if q not in a_idx)
            errors += sum(sum(edit_counts(results[p], annots[q])) for p, q in zip(r_idx, a_idx))
            if best is None or errors < best:
                best = errors
    return (n_total - best) / n_total


@settings(deadline=None, max_examples=60)
@given(
    res=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=4),
                 min_size=0, max_size=3),
    ann=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=4),
                 min_size=1, max_size=3),
)
# Two assignments tie on summed per-line AR here but not on AR*.
@example(res=[[1, 1], [2, 2]], ann=[[1], [1, 1]])
def test_ar_star_greedy_vs_exhaustive(res, ann):
    greedy, _, _ = ar_star({"p": res}, {"p": ann})
    optimal = _exhaustive_ar_star(res, ann)
    if not math.isclose(greedy, optimal, abs_tol=1e-12):
        # The metric is defined by the greedy algorithm; divergence from the
        # assignment optimum is possible and logged, and greedy never beats it.
        logging.getLogger(__name__).info(
            "greedy AR* %.4f diverges from exhaustive %.4f on %s vs %s",
            greedy, optimal, res, ann,
        )
        assert greedy <= optimal + 1e-12


def _det_counts_reference(results, gts, shape, iou_th=0.5, require_class=True):
    """All-pairs detection matching: each result against every free box."""
    order = sorted(range(len(results)), key=lambda k: -results[k][2])
    taken = [False] * len(gts)
    tp = 0
    for k in order:
        box, cls_id, _ = results[k]
        best = -1
        best_iou = 0.0
        for g, (gbox, gcls) in enumerate(gts):
            if taken[g]:
                continue
            if require_class and gcls != cls_id:
                continue
            v = _iou_reference(box, gbox, shape)
            if v >= iou_th and v > best_iou:
                best = g
                best_iou = v
        if best >= 0:
            taken[best] = True
            tp += 1
    return tp, len(results) - tp, len(gts) - tp


# Boxes on a coarse lattice with few sizes, so duplicates, IoU ties and
# IoU exactly 1 are common.
_det_box = st.builds(
    Box,
    st.integers(0, 8).map(lambda v: 10.0 * v),
    st.integers(0, 8).map(lambda v: 10.0 * v),
    st.sampled_from([0.1, 0.2, 0.3]),
    st.sampled_from([0.1, 0.2]),
)


@settings(deadline=None, max_examples=200)
@given(
    pool=st.lists(_det_box, min_size=1, max_size=6),
    picks=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3), st.sampled_from([0.5, 0.9])),
                   max_size=12),
    gt_picks=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), max_size=12),
    iou_th=st.sampled_from([0.0, 0.5, 1.0]),
    require_class=st.booleans(),
)
# The first result ties between the first two boxes; the second result can
# use only the second box, so taking the later box of a tie loses a match.
@example(pool=[Box(30, 40, 0.2, 0.1), Box(50, 40, 0.2, 0.1), Box(40, 40, 0.2, 0.1)],
         picks=[(2, 1, 0.9), (1, 1, 0.5)], gt_picks=[(0, 1), (1, 1)], iou_th=0.0,
         require_class=True)
def test_det_counts_matches_all_pairs_reference(pool, picks, gt_picks, iou_th, require_class):
    results = [(pool[k % len(pool)], c, s) for k, c, s in picks]
    gts = [(pool[k % len(pool)], c) for k, c in gt_picks]
    got = metrics.det_counts(results, gts, SHAPE, iou_th, require_class)
    assert got == _det_counts_reference(results, gts, SHAPE, iou_th, require_class)


def test_det_prf_perfect():
    gts = [(Box(10, 10, 0.1, 0.1), A), (Box(40, 40, 0.1, 0.1), B)]
    results = [(b, c, 0.9) for b, c in gts]
    assert det_prf(results, gts, SHAPE) == (1.0, 1.0, 1.0)


def test_det_prf_half_recall():
    gts = [(Box(10, 10, 0.1, 0.1), A), (Box(40, 40, 0.1, 0.1), B)]
    results = [(Box(10, 10, 0.1, 0.1), A, 0.9)]
    p, r, f = det_prf(results, gts, SHAPE)
    assert p == 1.0 and r == 0.5
    assert math.isclose(f, 2 / 3, abs_tol=1e-12)


def test_det_prf_wrong_class_counts_fp_and_fn():
    gts = [(Box(10, 10, 0.1, 0.1), A)]
    results = [(Box(10, 10, 0.1, 0.1), B, 0.9)]
    assert det_prf(results, gts, SHAPE, require_class=True) == (0.0, 0.0, 0.0)
    assert det_prf(results, gts, SHAPE, require_class=False) == (1.0, 1.0, 1.0)


def test_det_prf_identities():
    gts = [(Box(10, 10, 0.1, 0.1), A), (Box(40, 40, 0.1, 0.1), B),
           (Box(70, 70, 0.1, 0.1), C)]
    results = [(Box(10, 10, 0.1, 0.1), A, 0.9), (Box(40, 41, 0.1, 0.1), B, 0.8),
               (Box(90, 20, 0.1, 0.1), D, 0.7)]
    p, r, _ = det_prf(results, gts, SHAPE)
    tp_from_p = p * len(results)
    tp_from_r = r * len(gts)
    assert math.isclose(tp_from_p, tp_from_r, abs_tol=1e-12)


def test_det_prf_empty_sides_are_zero():
    assert det_prf([], [(Box(10, 10, 0.1, 0.1), A)], SHAPE) == (0.0, 0.0, 0.0)
    assert det_prf([(Box(10, 10, 0.1, 0.1), A, 0.9)], [], SHAPE) == (0.0, 0.0, 0.0)


def test_page_ar_cr_values():
    seq = [A, B, C, D, E, A, B, C, D, E]
    assert page_ar_cr(seq, seq) == (1.0, 1.0)
    sub = list(seq)
    sub[3] = 9
    assert page_ar_cr(sub, seq) == (0.9, 0.9)
    ins = seq + [9]
    a, c = page_ar_cr(ins, seq)
    assert c == 1.0 and a == 0.9 and c > a
    with pytest.raises(ValueError):
        page_ar_cr([A], [])


@pytest.fixture
def alignments(monkeypatch):
    """Every (hyp, ref) pair that edit_script aligns while the test runs."""
    calls = []
    real = matching.edit_script

    def counted(hyp, ref):
        calls.append((tuple(hyp), tuple(ref)))
        return real(hyp, ref)

    for module in (matching, metrics):
        if hasattr(module, "edit_script"):
            monkeypatch.setattr(module, "edit_script", counted)
    return calls


def test_match_chars_and_page_counts_do_not_realign(alignments):
    # Line matching scores all six pairs by distance and aligns only the two
    # it matches: (1, 1) and (2, 2) at AR 2/3; (3, 1) at AR 1/3 finds q = 1
    # taken.  Neither match_chars nor AR* aligns a pair again.
    results = [[A, B, E, C], [D, E], [A]]
    annots = [[A, B, C], [D, E, E]]
    matched = Counter({((A, B, E, C), (A, B, C)): 1, ((D, E), (D, E, E)): 1})
    m_l = matching.match_lines(results, annots, th_ar=0.3)
    assert set(m_l) == {(1, 1), (2, 2)}
    assert Counter(alignments) == matched
    matching.match_chars(m_l)
    assert Counter(alignments) == matched
    metrics.page_counts(results, annots)  # its own line matching only
    assert Counter(alignments) == matched + matched


def test_eval_aligns_each_line_pair_of_a_page_once(tmp_path, alignments, capsys):
    pages = {  # page id: (result lines, annotation lines)
        "a": ([[A, B, C], [D, E]], [[A, B, C]]),
        "b": ([[C, D]], [[C, D, E], [B]]),
        "c": (None, [[A]]),
        "d": ([[E]], None),
    }
    results, annots = tmp_path / "results.jsonl", tmp_path / "annotations.jsonl"
    char = {"x": 8.0, "y": 8.0, "w": 0.1, "h": 0.1, "score": 0.9}
    results.write_text("".join(
        json.dumps({"page_id": pid, "img_w": 64, "img_h": 64,
                    "lines": [{"chars": [{**char, "cls": c} for c in ln]} for ln in res]}) + "\n"
        for pid, (res, _) in pages.items() if res is not None
    ))
    annots.write_text("".join(
        json.dumps({"page_id": pid, "lines": ann}) + "\n"
        for pid, (_, ann) in pages.items() if ann is not None
    ))
    assert main(["eval", "--results", str(results), "--annotations", str(annots)]) == 0
    capsys.readouterr()
    # Only the matched pair of each page is aligned: page a's (1, 1) at AR 1
    # (its second result line has no transcript left) and page b's (1, 1) at
    # AR 2/3 (against [B] the AR is -1); pages c and d have no pair.
    assert Counter(alignments) == Counter({((A, B, C), (A, B, C)): 1, ((C, D), (C, D, E)): 1})
