import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _iou_reference
from gridtext import simloop, synth
from gridtext.cli import main
from gridtext.predictions import OracleNoise, oracle_predict, render_plan
from gridtext.pseudolabels import PseudoLabel, PseudoLabelStore
from gridtext.simloop import (
    ConfigError,
    StageConfig,
    coverage,
    export_labels,
    mean_label_iou,
    run_stage,
)
from gridtext.synth import PageConfig, gen_dataset
from gridtext.decoder import NGramLM, decode, rescore_with_lm
from gridtext.geometry import Box, GridShape
from gridtext.losses import compute_losses
from gridtext.matching import PageAnnotation, match_chars, match_lines, spatial_filter
from gridtext.metrics import ar_star, det_prf
from gridtext.pseudolabels import build_targets, update


def _pages(n=4, seed=50, **overrides):
    cfg = PageConfig(n_lines=3, chars_per_line=(5, 5), n_cls=20, seed=seed,
                     **overrides)
    return list(gen_dataset(cfg, n))


def test_zero_noise_single_pass_fills_store_exactly():
    pages = _pages()
    store = PseudoLabelStore()
    reports = run_stage(pages, store, StageConfig(stage="train", n_passes=1,
                                                  real_prob=1.0, seed=3))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.coverage == 1.0
    # boxes round-trip through the float32 map tensors, so IoU reaches 1.0
    # at float32 resolution
    assert rep.mean_iou > 1.0 - 1e-6
    assert rep.losses is not None
    for name in ("dis", "box", "cls", "sol", "eol", "rd"):
        assert rep.losses[name] < 1e-4, name


def test_a_page_is_planned_once_for_its_lifetime(monkeypatch, tmp_path):
    build, built, planned, predicted = synth._build, [], [], []

    def build_spy(config, rng, page_id):
        built.append(page_id)
        return build(config, rng, page_id)

    def plan_spy(page):
        planned.append(page.page_id)
        return render_plan(page)

    def predict_spy(page, noise):
        predicted.append((page.page_id, page.plan))
        return oracle_predict(page, noise)

    monkeypatch.setattr(synth, "render_plan", plan_spy)
    monkeypatch.setattr(synth, "_build", build_spy)
    pages = _pages(n=2)
    # gen_page builds each page once, its round trip plans it, and nothing
    # else does.
    assert planned == built and len(built) == len(pages)
    n_planned = len(planned)
    monkeypatch.setattr(simloop, "oracle_predict", predict_spy)
    store = PseudoLabelStore()
    run_stage(pages, store, StageConfig(stage="initialize", n_passes=3, real_prob=1.0))
    run_stage(pages, store, StageConfig(stage="train", n_passes=2, real_prob=1.0))
    oracle_predict(pages[0], OracleNoise(jitter_sigma=0.1))
    assert len(planned) == n_planned
    assert [pid for pid, _ in predicted] == [p.page_id for p in pages] * 5
    assert all(plan is pages[k % len(pages)].plan for k, (_, plan) in enumerate(predicted))

    built.clear()
    planned.clear()
    assert main(["synth", "--pages", "3", "--out", str(tmp_path), "--emit-maps"]) == 0
    assert len(list((tmp_path / "maps").iterdir())) == 3
    assert planned == built and len(built) >= 3


def test_initialize_updates_store_without_losses():
    pages = _pages()
    store = PseudoLabelStore()
    reports = run_stage(pages, store, StageConfig(stage="initialize", n_passes=1,
                                                  real_prob=1.0, seed=3))
    assert reports[0].losses is None
    assert store.n_labels() > 0


@pytest.mark.parametrize("th_ar", [0.99, 0.3])
def test_store_lists_the_pages_its_saved_copy_holds(tmp_path, th_ar):
    # At th_ar 0.99 the swapped classes leave no line matched, so no page
    # gets a label and none may be listed.
    store = PseudoLabelStore()
    noise = OracleNoise(label_swap_p=0.9)
    run_stage(_pages(n=3), store, StageConfig(stage="initialize", noise=noise, th_ar=th_ar,
                                              real_prob=1.0, seed=3))
    store.save(tmp_path / "store.jsonl")
    assert store.page_ids() == PseudoLabelStore.load(tmp_path / "store.jsonl").page_ids()
    assert (store.n_labels() == 0) == (th_ar == 0.99)


def test_pretrain_logs_losses_without_touching_store():
    pages = _pages()
    store = PseudoLabelStore()
    reports = run_stage(pages, store, StageConfig(stage="pretrain", n_passes=1,
                                                  seed=3))
    assert store.n_labels() == 0
    assert reports[0].losses is not None
    assert reports[0].coverage == 0.0


def test_store_state_is_deterministic():
    noise = OracleNoise(jitter_sigma=0.1, label_swap_p=0.1, drop_p=0.05)
    cfg = StageConfig(stage="train", n_passes=3, noise=noise, real_prob=0.7, seed=11)
    snap = []
    for _ in range(2):
        pages = _pages()
        store = PseudoLabelStore()
        run_stage(pages, store, cfg)
        snap.append(
            {
                (pid, q, n): (lab.box, lab.gamma, lab.count)
                for pid in store.page_ids()
                for (q, n), lab in store.page(pid).items()
            }
        )
    assert snap[0] == snap[1]


def test_page_id_mismatch_rejected():
    pages = _pages()
    store = PseudoLabelStore()
    store.page("not-a-page")[(1, 1)] = PseudoLabel(box=Box(10, 10, 0.1, 0.1), gamma=0.5)
    with pytest.raises(ConfigError):
        run_stage(pages, store, StageConfig(stage="train"))


def test_gamma_never_below_convex_bound():
    pages = _pages(n=3)
    noise = OracleNoise(jitter_sigma=0.15, label_swap_p=0.1, seed=2)
    store = PseudoLabelStore()
    cfg = StageConfig(stage="train", n_passes=4, noise=noise, real_prob=1.0, seed=5)
    run_stage(pages, store, cfg)
    # scores are fused from dis ~ 1 and cls_prob = 1, so gamma stays near 1
    # and never leaves (0, 1]
    for pid in store.page_ids():
        for lab in store.page(pid).values():
            assert 0.0 < lab.gamma <= 1.0


def test_noise_schedule_halves():
    noise = OracleNoise(jitter_sigma=0.2, drop_p=0.1)
    cfg = StageConfig(stage="train", n_passes=10, noise=noise, halve_every=5)
    assert cfg.noise_for_pass(0).jitter_sigma == 0.2
    assert cfg.noise_for_pass(4).jitter_sigma == 0.2
    assert cfg.noise_for_pass(5).jitter_sigma == 0.1
    assert cfg.noise_for_pass(9).drop_p == 0.05


def test_export_labels_full_and_empty():
    pages = _pages()
    store = PseudoLabelStore()
    run_stage(pages, store, StageConfig(stage="train", real_prob=1.0, seed=1))
    rows, report = export_labels(store, pages)
    assert report["coverage"] == 1.0
    assert report["n_labels"] == len(rows) == report["n_chars"]
    # statistics agree with an independent recomputation
    want = [
        _iou_reference(store.labels(p.page_id)[(q, n)].box, box, p.shape)
        for p in pages
        for q, line in enumerate(p.annotation.boxes, start=1)
        for n, box in enumerate(line, start=1)
    ]
    assert math.isclose(report["mean_iou"], sum(want) / len(want), abs_tol=1e-12)

    empty_rows, empty_report = export_labels(PseudoLabelStore(), pages)
    assert empty_rows == []
    assert empty_report["coverage"] == 0.0
    assert empty_report["mean_iou"] is None


def test_coverage_and_iou_helpers():
    pages = _pages(n=2)
    store = PseudoLabelStore()
    assert coverage(store, pages) == 0.0
    assert mean_label_iou(store, pages) is None
    q1_box = pages[0].annotation.boxes[0][0]
    store.page(pages[0].page_id)[(1, 1)] = PseudoLabel(box=q1_box, gamma=1.0)
    assert 0.0 < coverage(store, pages) < 1.0
    assert mean_label_iou(store, pages) == 1.0


def test_scoring_and_export_leave_the_store_pages_as_they_were():
    pages = _pages(n=2)
    store = PseudoLabelStore()
    for filled in ([], [pages[0].page_id]):
        for score in (coverage, mean_label_iou, export_labels):
            score(store, pages)
            assert store.page_ids() == filled, score.__name__
        store.page(pages[0].page_id)[(1, 1)] = PseudoLabel(pages[0].annotation.boxes[0][0], 1.0)


def test_no_stage_changes_a_decoded_record_or_a_stored_box():
    """Box and CharInstance are slotted, not frozen, and a new label shares
    its Box with the result's CharInstance: a training pass, scoring, export
    and LM rescoring must change neither in place."""
    page = synth.gen_page(PageConfig(n_lines=4, chars_per_line=(8, 10), n_cls=20, seed=50))
    store = PseudoLabelStore()
    for seed in (1, 2):  # the second pass blends labels and adds new ones
        maps = oracle_predict(page, OracleNoise(0.3, 0.1, 0.1, 0.05, 0.02, 0.02, seed=seed))
        result = decode(maps)
        m_l = match_lines(result.transcripts(), page.annotation.lines, 0.5)
        m_c, m_ce = match_chars(m_l)
        labels = store.page(page.page_id)
        held = [(label.box, copy.copy(label.box)) for label in labels.values()]
        snapshot = copy.deepcopy(result)
        update(store, page.page_id, spatial_filter(m_c, result, labels, page.shape, 0.5), result)
        stored = copy.deepcopy(store)
        targets = build_targets(labels, page.annotation, result, m_ce, page.shape,
                                np.random.default_rng(seed))
        compute_losses(maps, targets, labels, page.annotation)
        ar_star({page.page_id: result.transcripts()}, {page.page_id: page.annotation.lines})
        det_prf([(c.box, c.cls_id, c.score) for line in result.lines for c in line.chars],
                [(b, c) for boxes, line in zip(page.annotation.boxes, page.annotation.lines)
                 for b, c in zip(boxes, line)], page.shape)
        export_labels(store, [page])
        # Soft class rows, so that the LM can overrule a swapped label.
        maps.cls = (maps.cls + np.float32(0.1)) / np.float32(1 + 0.1 * page.n_cls)
        lm = NGramLM.fit(page.annotation.lines, page.n_cls, order=2, smoothing=0.01)
        rescored = rescore_with_lm(maps, result, lm, beam=4, top_k=4)
        assert result == snapshot
        assert all(box == before for box, before in held)
        assert list(store.rows([page.page_id])) == list(stored.rows([page.page_id]))
    assert any(label.count > 1 for label in store.labels(page.page_id).values())
    assert rescored != result  # rescoring changed a class


def _mean_label_iou_reference(store, pages):
    """The per-label loop mean_label_iou ran before it scored a page at once."""
    vals = []
    for page in pages:
        for (q, n), label in store.labels(page.page_id).items():
            vals.append(_iou_reference(label.box, page.annotation.boxes[q - 1][n - 1], page.shape))
    if not vals:
        return None
    return sum(vals) / len(vals)


# Centres on a 64-pixel page or anywhere finite; extents from subnormal to
# ones whose corners overflow to infinity.
_centre = st.floats(0, 64) | st.floats(-1e300, 1e300)
_extent = st.sampled_from([0.1, 0.5]) | st.floats(5e-324, 1.7e308)
_box = st.builds(Box, _centre, _centre, _extent, _extent)
_on_page = st.builds(Box, *[st.floats(0, 64)] * 2, *[st.floats(0.01, 1)] * 2)
# Scales of at least 1: a smaller one could round a subnormal extent to 0.
_shift, _scale = st.floats(-8.0, 8.0), st.floats(1.0, 2.0)


@st.composite
def _scored_store(draw):
    """Pages of up to three lines, and a store holding some of their labels,
    in a drawn order: on the ground truth, shifted and scaled near it, or
    anywhere."""
    store, pages = PseudoLabelStore(), []
    for k in range(draw(st.integers(0, 3))):
        lines = [[1] * draw(st.integers(1, 12)) for _ in range(draw(st.integers(1, 3)))]
        boxes = [[draw(_on_page | _box) for _ in line] for line in lines]
        img = draw(st.sampled_from([1e-100, 1.0, 64.0, 1e100]))
        page = SimpleNamespace(page_id=f"p{k}", shape=GridShape(4, 4, img, img),
                               annotation=PageAnnotation(lines=lines, boxes=boxes))
        pages.append(page)
        keys = [(q, n) for q, line in enumerate(lines, 1) for n in range(1, len(line) + 1)]
        for q, n in draw(st.permutations(keys).flatmap(
                lambda ks: st.integers(0, len(ks)).map(lambda m: ks[:m]))):
            gt = boxes[q - 1][n - 1]
            near = st.builds(lambda dx, dy, sw, sh: Box(gt.x + dx, gt.y + dy, gt.w * sw, gt.h * sh),
                             _shift, _shift, _scale, _scale)
            box = draw(st.just(gt) | near | _box)
            store.page(page.page_id)[(q, n)] = PseudoLabel(box, 1.0)
    return store, pages


@settings(max_examples=200, deadline=None)
@given(case=_scored_store())
@example(case=(PseudoLabelStore(), []))
def test_mean_label_iou_matches_reference_loop_exactly(case):
    store, pages = case
    assert mean_label_iou(store, pages) == _mean_label_iou_reference(store, pages)


def test_mixed_treatment_consumes_fewer_updates():
    pages = _pages(n=6)
    full = PseudoLabelStore()
    run_stage(pages, full, StageConfig(stage="initialize", n_passes=1,
                                       real_prob=1.0, seed=9))
    mixed = PseudoLabelStore()
    run_stage(pages, mixed, StageConfig(stage="initialize", n_passes=1,
                                        real_prob=0.5, seed=9))
    assert mixed.n_labels() < full.n_labels()


def test_duplicate_page_ids_rejected():
    pages = _pages(n=2)
    with pytest.raises(ConfigError, match="duplicate page ids"):
        run_stage([pages[0], pages[1], pages[0]], PseudoLabelStore(), StageConfig())


@pytest.mark.parametrize("field, value", [
    ("th_iou", -0.1), ("th_iou", 1.5), ("th_iou", math.nan),
    ("th_ar", math.inf), ("th_ar", -math.inf), ("th_ar", math.nan),
    ("epsilon", -1.0), ("epsilon", 709.5), ("epsilon", 1000.0), ("epsilon", math.nan),
    ("seed", -1), ("halve_every", 0), ("halve_every", -1),
])
def test_stage_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        StageConfig(**{field: value})


def test_stage_config_range_ends_keep_update_weight_finite():
    from gridtext.pseudolabels import update_weight

    for epsilon in (0.0, 709.0):
        StageConfig(th_iou=0.0, th_ar=-5.0, epsilon=epsilon)
        StageConfig(th_iou=1.0, epsilon=epsilon)
        for gamma, score in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.9, 0.8)):
            assert 0.0 <= update_weight(gamma, score, epsilon) <= 1.0
