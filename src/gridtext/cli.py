"""Command-line surface: synth, decode, eval, train-sim, export-labels, viz.

Every command is deterministic under fixed seed and inputs and emits
machine-readable JSON to stdout or ``--out``.  Exit codes: 0 success,
1 usage error, 2 data/format error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import typing
from pathlib import Path

from .decoder import DecodeConfig, InvariantError, PageResult, decode
from .geometry import Box, GridShape
from .jsoncheck import check, expect, read_jsonl
from .matching import load_annotations, save_annotations
from .metrics import ar_star, det_counts, prf
from .predictions import MapFormatError, OracleNoise, load_maps, oracle_predict, save_maps
from .pseudolabels import PseudoLabelStore
from .simloop import ConfigError, StageConfig, export_labels, run_stage
from .synth import GenerationError, Layout, PageConfig, SyntheticPage, gen_dataset

# The decode subcommand's flags, and keys that sit flat in a train-sim stage.
_DECODE_HINTS = typing.get_type_hints(DecodeConfig)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _emit(doc: dict | list, out: str | Path | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _write_jsonl(rows: typing.Iterable[dict], out: str | Path | None) -> None:
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    # Only the flags given reach DecodeConfig, so its defaults stay the only ones.
    defaults = ", ".join(f"{f.name}={f.default}" for f in dataclasses.fields(DecodeConfig))
    group = p.add_argument_group(
        "decode options", f"defaults: {defaults}", argument_default=argparse.SUPPRESS
    )
    group.add_argument("--dis-threshold", type=float)
    group.add_argument("--nms-iou", type=float)
    group.add_argument("--sol-eol-threshold", type=float)
    group.add_argument("--max-steps", type=int)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    # --amplitude and --period shape only the sine layout.
    sine = args.layout == "sine"
    layout = Layout("sine", args.amplitude, args.period) if sine else Layout(args.layout)
    config = PageConfig(
        n_lines=args.lines,
        chars_per_line=(args.chars, args.chars_max or args.chars),
        n_cls=args.n_cls,
        layout=layout,
        w_g=args.grid_w,
        h_g=args.grid_h,
        cell_px=args.cell_px,
        seed=args.seed,
    )
    noise = OracleNoise(
        jitter_sigma=args.jitter_sigma,
        size_sigma=args.size_sigma,
        label_swap_p=args.label_swap,
        drop_p=args.drop,
        spurious_p=args.spurious,
        dir_flip_p=args.dir_flip,
        seed=args.noise_seed,
    )
    pages = list(gen_dataset(config, args.pages))
    manifest: dict = {
        "pages": [p.page_id for p in pages],
        "config": {
            "n_lines": config.n_lines,
            "chars_per_line": list(config.chars_per_line),
            "n_cls": config.n_cls,
            "layout": dataclasses.asdict(config.layout),
            "grid": [config.w_g, config.h_g],
            "cell_px": config.cell_px,
            "seed": config.seed,
        },
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_annotations([p.annotation for p in pages], out / "annotations.jsonl")
        manifest["annotations"] = str(out / "annotations.jsonl")
        if args.emit_maps:
            maps_dir = out / "maps"
            maps_dir.mkdir(exist_ok=True)
            for idx, page in enumerate(pages):
                per_page = dataclasses.replace(noise, seed=args.noise_seed + idx)
                maps = oracle_predict(page, per_page)
                save_maps(maps, maps_dir / f"{page.page_id}.pgnm")
            manifest["maps"] = str(maps_dir)
        _emit(manifest, out / "manifest.json")
    _emit(manifest, None)
    return 0


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _result_row(page_id: str, result: PageResult, img_w: float, img_h: float) -> dict:
    row = {"page_id": page_id, "img_w": img_w, "img_h": img_h}
    row.update(result.to_dict())
    return row


def cmd_decode(args: argparse.Namespace) -> int:
    paths: list[Path] = [Path(p) for p in args.maps or []]
    if args.maps_dir:
        paths.extend(sorted(Path(args.maps_dir).iterdir()))
    if not paths:
        raise ValueError("decode needs --maps or --maps-dir")
    config = DecodeConfig(**{k: v for k, v in vars(args).items() if k in _DECODE_HINTS})
    rows = []
    for path in paths:
        maps = load_maps(path)
        result = decode(maps, config)
        rows.append(_result_row(path.stem, result, maps.shape.img_w, maps.shape.img_h))
    _write_jsonl(rows, args.out)
    return 0


_RESULT_CHAR = {"x": float, "y": float, "w": float, "h": float, "cls": int, "score": float}
_RESULT_ROW = {
    "page_id": str, "img_w": float, "img_h": float, "lines": [{"chars": [_RESULT_CHAR]}]
}


def load_results(path: str | Path) -> dict[str, dict]:
    rows = read_jsonl(path, lambda doc: check(doc, _RESULT_ROW))
    return {doc["page_id"]: doc for doc in rows}


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    results = load_results(args.results)
    annots = load_annotations(args.annotations)
    if not annots:
        raise ValueError(f"no annotations in {args.annotations}")

    res_seqs = {
        pid: [[c["cls"] for c in ln["chars"]] for ln in doc["lines"]]
        for pid, doc in results.items()
    }
    ann_seqs = {pid: a.lines for pid, a in annots.items()}
    ar, cr, counts = ar_star(res_seqs, ann_seqs)

    report: dict = {
        "ar_star": ar,
        "cr_star": cr,
        "errors": {
            "ie": counts.n_ie,
            "de": counts.n_de,
            "se": counts.n_se,
            "total": counts.n_total,
        },
        "per_page": [],
    }
    for pid in sorted(set(res_seqs) | set(ann_seqs)):
        try:
            p_ar, p_cr, _ = ar_star(
                {pid: res_seqs.get(pid, [])}, {pid: ann_seqs.get(pid, [])}
            )
        except ValueError:
            p_ar = p_cr = None
        report["per_page"].append({"page_id": pid, "ar_star": p_ar, "cr_star": p_cr})

    if all(a.boxes is not None for a in annots.values()):
        # Detection is matched page by page, each at its own image size,
        # and (tp, fp, fn) add up over pages.  Keyed by require_class.
        totals = {False: (0, 0, 0), True: (0, 0, 0)}
        for pid in sorted(set(annots) | set(results)):
            annot, doc = annots.get(pid), results.get(pid)
            gts = [] if annot is None else [
                (b, c)
                for line, boxes in zip(annot.lines, annot.boxes)
                for c, b in zip(line, boxes)
            ]
            if doc is None:  # every ground-truth box is missed
                page_counts = dict.fromkeys(totals, (0, 0, len(gts)))
            else:
                dets = [
                    (Box(c["x"], c["y"], c["w"], c["h"]), c["cls"], c["score"])
                    for ln in doc["lines"]
                    for c in ln["chars"]
                ]
                shape = GridShape(1, 1, doc["img_w"], doc["img_h"])
                page_counts = {
                    rc: det_counts(dets, gts, shape, args.iou_th, require_class=rc)
                    for rc in totals
                }
            for rc, page in page_counts.items():
                totals[rc] = tuple(a + b for a, b in zip(totals[rc], page))
        p, r, f = prf(*totals[False])
        report["det_only"] = {"p": p, "r": r, "f": f}
        p, r, f = prf(*totals[True])
        report["det_cls"] = {"p": p, "r": r, "f": f}
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# train-sim
# ---------------------------------------------------------------------------


def _from_doc(cls, doc: object, where: str):
    """``cls`` built from the JSON object ``doc``, whose keys are its fields.

    The defaults and the range checks are the dataclass's own; an unknown
    key or a value of the wrong type raises ConfigError naming its path.
    """
    return cls(**_fields(doc, typing.get_type_hints(cls), where))


def _fields(doc: object, hints: dict, where: str) -> dict:
    """The keys of JSON object ``doc``, each checked against its type in ``hints``."""
    expect(doc, dict, where or "config", ConfigError)
    out = {}
    for key, value in doc.items():
        path = f"{where}.{key}" if where else key
        if key not in hints:
            raise ConfigError(f"{path}: unknown key")
        out[key] = _typed(hints[key], value, path)
    return out


def _typed(tp, value: object, where: str):
    if dataclasses.is_dataclass(tp):
        return _from_doc(tp, value, where)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # given as a JSON list
        if len(expect(value, list, where, ConfigError)) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} items, got {len(value)}")
        return tuple(_typed(t, v, f"{where}[{k}]") for k, (t, v) in enumerate(zip(args, value)))
    if args:  # X | None
        if value is None:
            return None
        (tp,) = set(args) - {type(None)}
    return expect(value, tp, where, ConfigError)


_CONFIG_KEYS = {"seed": int, "pages": int, "dataset": dict, "stages": list}
_STAGE_KEYS = {**typing.get_type_hints(StageConfig), **_DECODE_HINTS}
del _STAGE_KEYS["decode"]


def _read_config(path: str, seed: int) -> tuple[list[SyntheticPage], list[StageConfig]]:
    """A train-sim config is a JSON object with these keys, all optional:

      seed     integer (default: --seed), the default seed of the dataset and
               of every stage
      pages    integer (default 10), the number of generated pages
      dataset  an object of PageConfig fields: n_lines, chars_per_line, n_cls,
               layout, w_g, h_g, cell_px, seed; "layout" is an object of
               Layout fields (kind, amplitude, period) or a kind alone, and
               "chars_per_line" is [min, max] or one integer for both
      stages   a list of objects of StageConfig fields, run in order: stage,
               n_passes, noise, halve_every, real_prob, seed, th_ar, th_iou,
               epsilon; "noise" is an object of OracleNoise fields, and the
               DecodeConfig fields (dis_threshold, nms_iou, sol_eol_threshold,
               max_steps) sit flat in the stage object (default: one stage
               with every default)

    Every other default is the dataclass field's.  An unknown key or a
    value of the wrong type is an error that names its path, such as
    stages[0].nms_iou.
    """
    doc = _fields(json.loads(Path(path).read_text()), _CONFIG_KEYS, "")
    seed = doc.get("seed", seed)
    stages = []
    for k, stage_doc in enumerate(doc.get("stages", [{}])):
        fields = _fields(stage_doc, _STAGE_KEYS, f"stages[{k}]")
        decode_fields = {name: fields.pop(name) for name in _DECODE_HINTS if name in fields}
        decode = DecodeConfig(**decode_fields)
        stages.append(StageConfig(**{"seed": seed, **fields}, decode=decode))
    dataset = {"seed": seed, **doc.get("dataset", {})}
    if isinstance(dataset.get("layout"), str):
        dataset["layout"] = {"kind": dataset["layout"]}
    if isinstance(dataset.get("chars_per_line"), int):
        dataset["chars_per_line"] = [dataset["chars_per_line"]] * 2
    pages = list(gen_dataset(_from_doc(PageConfig, dataset, "dataset"), doc.get("pages", 10)))
    return pages, stages


def cmd_train_sim(args: argparse.Namespace) -> int:
    pages, stages = _read_config(args.config, args.seed)
    store = PseudoLabelStore()
    all_reports = []
    for config in stages:
        all_reports.extend(run_stage(pages, store, config))

    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl((rep.to_dict() for rep in all_reports), out / "pass_reports.jsonl")
    store.save(out / "store.jsonl")
    rows, quality = export_labels(store, pages)
    _write_jsonl(rows, out / "labels.jsonl")
    _emit(quality, out / "quality.json")
    _emit(quality, None)
    return 0


def cmd_export_labels(args: argparse.Namespace) -> int:
    pages, _ = _read_config(args.config, args.seed)
    store = PseudoLabelStore.load(args.store)
    rows, quality = export_labels(store, pages)
    if args.out:
        _write_jsonl(rows, args.out)
    _emit(quality, None)
    return 0


# ---------------------------------------------------------------------------
# viz
# ---------------------------------------------------------------------------


def render_page_svg(doc: dict) -> str:
    """SVG overlay: per-character rectangles, a polyline per line through the
    character centers, and distinct start/end-of-line markers."""
    img_w = float(doc.get("img_w", 512))
    img_h = float(doc.get("img_h", 512))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{img_w:.0f}" '
        f'height="{img_h:.0f}" viewBox="0 0 {img_w:.0f} {img_h:.0f}">'
    ]
    for ln in doc.get("lines", []):
        chars = ln["chars"]
        if not chars:
            continue
        for c in chars:
            w = c["w"] * img_w
            h = c["h"] * img_h
            parts.append(
                f'<rect x="{c["x"] - w / 2:.2f}" y="{c["y"] - h / 2:.2f}" '
                f'width="{w:.2f}" height="{h:.2f}" fill="none" stroke="#1f77b4"/>'
            )
        pts = " ".join(f'{c["x"]:.2f},{c["y"]:.2f}' for c in chars)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#555555"/>')
        first, last = chars[0], chars[-1]
        parts.append(
            f'<circle cx="{first["x"]:.2f}" cy="{first["y"]:.2f}" r="4" fill="orange"/>'
        )
        parts.append(
            f'<circle cx="{last["x"]:.2f}" cy="{last["y"]:.2f}" r="4" fill="green"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_viz(args: argparse.Namespace) -> int:
    results = load_results(args.results)
    if not results:
        raise ValueError(f"no results in {args.results}")
    page_id = args.page or sorted(results)[0]
    if page_id not in results:
        raise ValueError(f"page {page_id!r} not in {args.results}")
    svg = render_page_svg(results[page_id])
    if args.out:
        Path(args.out).write_text(svg + "\n")
    else:
        print(svg)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gridtext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate synthetic pages and oracle maps")
    _add_common(p)
    p.add_argument("--pages", type=int, default=5)
    p.add_argument("--lines", type=int, default=5)
    p.add_argument("--chars", type=int, default=10)
    p.add_argument("--chars-max", type=int, default=None)
    p.add_argument("--n-cls", type=int, default=100)
    p.add_argument("--layout", choices=["horizontal", "rot90", "rot180", "rot270", "sine"],
                   default="horizontal")
    p.add_argument("--amplitude", type=float, default=1.5)
    p.add_argument("--period", type=float, default=12.0)
    p.add_argument("--grid-w", type=int, default=32)
    p.add_argument("--grid-h", type=int, default=32)
    p.add_argument("--cell-px", type=int, default=16)
    p.add_argument("--emit-maps", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--jitter-sigma", type=float, default=0.0)
    p.add_argument("--size-sigma", type=float, default=0.0)
    p.add_argument("--label-swap", type=float, default=0.0)
    p.add_argument("--drop", type=float, default=0.0)
    p.add_argument("--spurious", type=float, default=0.0)
    p.add_argument("--dir-flip", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decode", help="decode prediction maps into line results")
    _add_common(p)
    _add_decode_flags(p)
    p.add_argument("--maps", nargs="*", default=None)
    p.add_argument("--maps-dir", type=str, default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score results against annotations")
    _add_common(p)
    p.add_argument("--results", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--iou-th", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    config_help = dict(
        epilog=inspect.cleandoc(_read_config.__doc__),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p = sub.add_parser("train-sim", help="run the weak-supervision simulation", **config_help)
    _add_common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train_sim)

    p = sub.add_parser(
        "export-labels", help="export pseudo-labels with quality stats", **config_help
    )
    _add_common(p)
    p.add_argument("--store", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_export_labels)

    p = sub.add_parser("viz", help="render a decoded page as SVG")
    _add_common(p)
    p.add_argument("--results", required=True)
    p.add_argument("--page", type=str, default=None)
    p.set_defaults(func=cmd_viz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except (
        MapFormatError,
        GenerationError,
        ConfigError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
