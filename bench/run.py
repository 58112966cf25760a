#!/usr/bin/env python3
"""gridtext benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Set-up generates the workload's pages from the seed and writes their
prediction maps; it runs several times and ``setup_s`` is the median.  Timed
rounds of the workload then run back to back in this one process, on one
thread, until ``--seconds`` have passed (at least two rounds).  Every round
must produce the same SHA-256 digest of its decoded rows, saved store, pass
reports and scores.  Each unit of work (one page's training stages, one
page's decode, one page's scoring) is timed on its own, corrected for the host's
speed (see ``hostspeed.py``), and its median over the rounds is reported.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics from the traced ones, plus the tracing overhead.  Spans are
written to ``.bench_work/`` when the run ends.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import probe, scaled
from tracer import IN_AR_STAR, TRACED, Tracer, self_times, top_level_ms

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

MIN_ROUNDS = 2

median = statistics.median


class UnitTimer:
    """Times named units of work, probing the host's speed between units."""

    def __init__(self) -> None:
        self._last = probe()
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.probes = [self._last]

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self, key: str) -> None:
        elapsed = time.perf_counter() - self._start
        after = probe()
        self.raw[key] = elapsed
        self.scaled[key] = scaled(elapsed, self._last, after)
        self.probes.append(after)
        self._last = after


def set_up(workload, seed: int, work: Path) -> dict:
    """Generate the pages and write one map file per page."""
    from gridtext import predictions
    from workloads import eval_maps, gen_pages

    timer = UnitTimer()
    timer.start()
    pages = gen_pages(workload, seed)
    maps = eval_maps(workload, seed, pages)
    paths = []
    for page, page_maps in zip(pages, maps):
        path = work / f"{page.page_id}.pgnm"
        predictions.save_maps(page_maps, path)
        paths.append(path)
    timer.stop("setup")

    digest = hashlib.sha256()
    for page, path in zip(pages, paths):
        digest.update(json.dumps(page.annotation.lines).encode())
        digest.update(path.read_bytes())
    return {
        "timer": timer,
        "pages": pages,
        "maps": maps,
        "paths": paths,
        "digest": digest.hexdigest(),
    }


def run_round(workload, seed: int, pages, paths, work: Path) -> dict:
    """One timed round: train each training page, decode every map file,
    score every page."""
    from gridtext import decoder, metrics, predictions, simloop
    from gridtext.decoder import DecodeConfig
    from gridtext.metrics import ErrorCounts
    from gridtext.pseudolabels import PseudoLabelStore

    attempted = failed = 0
    timer = UnitTimer()

    # Pages share nothing in training but the random streams, so each page
    # runs the stages with its own store: one timed unit per page.
    store_rows: list[bytes] = []
    reports = []
    n_labels = n_chars = 0
    iou_sum = 0.0
    for k, page in enumerate(pages[: workload.n_train_pages]):
        store = PseudoLabelStore()
        page_reports = []
        timer.start()
        for config in workload.stage_configs(seed, k):
            attempted += config.n_passes
            try:
                page_reports.extend(simloop.run_stage([page], store, config))
            except Exception:
                traceback.print_exc()
                failed += config.n_passes
        timer.stop(f"train.{k}")
        store_path = work / "store.jsonl"
        store.save(store_path)
        store_rows.append(store_path.read_bytes())
        reports.extend(page_reports)
        n_chars += page.annotation.n_chars()
        if page_reports and page_reports[-1].mean_iou is not None:
            n_labels += store.n_labels()
            iou_sum += page_reports[-1].mean_iou * store.n_labels()

    # What `gridtext decode` does per file.
    rows: list[str] = []
    results = []
    for k, (page, path) in enumerate(zip(pages, paths)):
        attempted += 1
        timer.start()
        try:
            maps = predictions.load_maps(path)
            result = decoder.decode(maps, DecodeConfig())
            decoder.validate_result(result)
            row = {"page_id": page.page_id, "img_w": maps.shape.img_w, "img_h": maps.shape.img_h}
            row.update(result.to_dict())
            rows.append(json.dumps(row, sort_keys=True))
        except Exception:
            traceback.print_exc()
            failed += 1
            result = None
            rows.append(json.dumps({"page_id": page.page_id, "failed": True}))
        timer.stop(f"decode.{k}")
        results.append(result)

    # Every page is scored on its own; detection is never matched across
    # pages.  Error counts and true positives then add up over the set.
    errors = ErrorCounts()
    tp = n_res = n_gt = 0
    for k, (page, result) in enumerate(zip(pages, results)):
        if result is None:
            continue
        attempted += 1
        annot = page.annotation
        timer.start()
        try:
            _, _, counts = metrics.ar_star(
                {page.page_id: result.transcripts()}, {page.page_id: annot.lines}
            )
            res_boxes = [(c.box, c.cls_id, c.score) for ln in result.lines for c in ln.chars]
            gt_boxes = [
                (box, cls_id)
                for line, boxes in zip(annot.lines, annot.boxes)
                for cls_id, box in zip(line, boxes)
            ]
            _, recall, _ = metrics.det_prf(res_boxes, gt_boxes, page.shape, require_class=True)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        finally:
            timer.stop(f"score.{k}")
        errors.add(counts)
        tp += round(recall * len(gt_boxes))
        n_res += len(res_boxes)
        n_gt += len(gt_boxes)

    n = errors.n_total
    nan = float("nan")
    precision = tp / n_res if n_res else 0.0
    recall = tp / n_gt if n_gt else 0.0
    score = {
        "ar_star": (n - errors.n_ie - errors.n_de - errors.n_se) / n if n else nan,
        "cr_star": (n - errors.n_de - errors.n_se) / n if n else nan,
        "det_f": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
        "label_coverage": n_labels / n_chars if n_chars else nan,
        "label_mean_iou": iou_sum / n_labels if n_labels else nan,
    }

    digest = hashlib.sha256()
    digest.update("\n".join(rows).encode())
    digest.update(b"".join(store_rows))
    digest.update(json.dumps([r.to_dict() for r in reports], sort_keys=True).encode())
    digest.update(json.dumps(score, sort_keys=True).encode())
    return {
        "timer": timer,
        "score": score,
        "digest": digest.hexdigest(),
        "attempted": attempted,
        "failed": failed,
    }


def check_quality(workload, score: dict) -> list[str]:
    problems = [f"{key} missing" for key, value in score.items() if value != value]
    if not score["ar_star"] <= score["cr_star"] <= 1.0:
        problems.append("AR* <= CR* <= 1 violated")
    for key in ("det_f", "label_coverage", "label_mean_iou"):
        if not 0.0 <= score[key] <= 1.0:
            problems.append(f"{key} outside [0, 1]")
    if workload.floors is not None:
        min_cov, min_iou = workload.floors
        if not (score["label_coverage"] >= min_cov and score["label_mean_iou"] >= min_iou):
            problems.append(
                f"final pass below floors: coverage {score['label_coverage']:.4f} "
                f"(>= {min_cov}), mean IoU {score['label_mean_iou']:.4f} (>= {min_iou})"
            )
    return problems


def phase_seconds(timers: list[UnitTimer], phase: str) -> float:
    """Sum over the phase's units of each unit's median time over the rounds."""
    keys = [key for key in timers[0].scaled if key.split(".")[0] == phase]
    return sum(median(t.scaled[key] for t in timers if key in t.scaled) for key in keys)


def end_to_end_metrics(workload, setups, rounds, failed: int, attempted: int) -> dict:
    timers = [r["timer"] for r in rounds]
    score = rounds[-1]["score"]
    n_pages = workload.n_pages
    return {
        "setup_s": (median(s["timer"].scaled["setup"] for s in setups), "s"),
        "train_page_passes_per_s": (workload.page_passes() / phase_seconds(timers, "train"), "1/s"),
        "decode_pages_per_s": (n_pages / phase_seconds(timers, "decode"), "1/s"),
        "score_pages_per_s": (n_pages / phase_seconds(timers, "score"), "1/s"),
        "ar_star": (score["ar_star"], "ratio"),
        "cr_star": (score["cr_star"], "ratio"),
        "det_f": (score["det_f"], "ratio"),
        "label_coverage": (score["label_coverage"], "ratio"),
        "label_mean_iou": (score["label_mean_iou"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }


def layer_metrics(setup_tracer, tracers, plain_rounds, traced_rounds) -> tuple[dict, list[str]]:
    """Per-layer metrics of one round; gen_page's are those of one set-up."""
    setup = self_times(setup_tracer.spans)
    per_round = [self_times(t.spans) for t in tracers]
    counts = tracers[-1].counts
    out: dict[str, tuple[float, str]] = {}
    unfired = []
    for name in [f"{m}.{f}" for m, f in TRACED] + [IN_AR_STAR]:
        source = [setup] if name == "synth.gen_page" else per_round
        if name not in source[-1]:
            unfired.append(name)
            continue
        out[f"{name}.calls"] = (source[-1][name]["calls"], "count")
        out[f"{name}.self_ms"] = (median(s[name]["self_ms"] for s in source), "ms")

    outcomes = ("reached", "boundary", "cycle", "max_steps")
    for key in [f"decoder.follow.{o}" for o in outcomes] + sorted(counts):
        out[key] = (counts.get(key, 0), "bytes" if key.endswith(".bytes") else "count")

    follows = sum(counts.get(f"decoder.follow.{o}", 0) for o in outcomes)
    if follows:
        out["decoder.follow.reached_ratio"] = (counts.get("decoder.follow.reached", 0) / follows, "ratio")
    if counts.get("geometry.nms.candidates"):
        out["geometry.nms.keep_ratio"] = (
            counts["geometry.nms.kept"] / counts["geometry.nms.candidates"],
            "ratio",
        )
    if counts.get("matching.spatial_filter.in"):
        out["matching.spatial_filter.kept_ratio"] = (
            counts["matching.spatial_filter.kept"] / counts["matching.spatial_filter.in"],
            "ratio",
        )

    def busy_ms(rnd: dict, raw: bool) -> float:
        timer = rnd["timer"]
        return 1e3 * sum((timer.raw if raw else timer.scaled).values())

    traced_ms = median(busy_ms(r, raw=False) for r in traced_rounds)
    plain_ms = median(busy_ms(r, raw=False) for r in plain_rounds)
    out["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    out["trace.overhead_pct"] = (100.0 * (traced_ms - plain_ms) / plain_ms, "%")
    out["trace.top_level_share"] = (
        median(top_level_ms(t.spans) / busy_ms(r, raw=True) for t, r in zip(tracers, traced_rounds)),
        "ratio",
    )
    return out, unfired


def write_spans(path: Path, setup_tracer, tracers) -> None:
    with open(path, "w") as fh:
        for rnd, tracer in [("setup", setup_tracer)] + list(enumerate(tracers)):
            for name, start, end, parent in tracer.spans:
                doc = {"round": rnd, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                fh.write(json.dumps(doc) + "\n")


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from gridtext import predictions

    work = WORK_ROOT / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems: list[str] = []
        setups = []
        setup_tracer = None
        for k in range(workload.setup_reps):
            setup = None  # let the previous set-up's pages and maps go first
            gc.collect()
            if trace and k == workload.setup_reps - 1:
                with Tracer() as setup_tracer:
                    setup = set_up(workload, seed, work)
            else:
                setup = set_up(workload, seed, work)
            setups.append({"timer": setup["timer"], "digest": setup["digest"]})
        if len({s["digest"] for s in setups}) != 1:
            problems.append("set-up is not deterministic")
        pages, paths = setup["pages"], setup["paths"]
        for path, page_maps in zip(paths, setup.pop("maps")):
            if not predictions.load_maps(path).equals(page_maps):
                problems.append(f"{path.name}: maps do not survive the file round trip")

        rounds: list[dict] = []
        tracers: list[Tracer] = []
        deadline = time.perf_counter() + seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            gc.collect()
            if trace and len(rounds) % 2 == 1:
                with Tracer() as tracer:
                    rnd = run_round(workload, seed, pages, paths, work)
                tracers.append(tracer)
                rnd["traced"] = True
            else:
                rnd = run_round(workload, seed, pages, paths, work)
                rnd["traced"] = False
            rounds.append(rnd)

        digests = {r["digest"] for r in rounds}
        if len(digests) != 1:
            problems.append(f"rounds disagree: {len(digests)} distinct output digests")
        problems.extend(check_quality(workload, rounds[-1]["score"]))
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        plain = [r for r in rounds if not r["traced"]]

        if trace:
            metrics, unfired = layer_metrics(
                setup_tracer, tracers, plain, [r for r in rounds if r["traced"]]
            )
            if unfired:
                print("spans never fired: " + ", ".join(unfired))
            spans_path = WORK_ROOT / f"spans-{workload.name}-seed{seed}.jsonl"
            write_spans(spans_path, setup_tracer, tracers)
            print(f"spans written to {spans_path}")
        else:
            metrics = end_to_end_metrics(workload, setups, plain, failed, attempted)

        probes = [p for r in rounds for p in r["timer"].probes]
        print(
            f"workload {workload.name}, seed {seed}: {len(rounds)} rounds "
            f"({len(tracers)} traced), {len(setups)} set-ups, digest {rounds[0]['digest'][:16]}, "
            f"host probe median {1e3 * median(probes):.2f} ms over {len(probes)}"
        )
        for name, (value, unit) in metrics.items():
            print(f"  {name:44s} {value:14.6g} {unit}")
        for problem in problems:
            print(f"INCORRECT: {problem}")
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridtext" / "__init__.py").is_file():
        print(f"error: no gridtext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
