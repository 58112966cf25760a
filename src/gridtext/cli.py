"""Command-line surface: synth, decode, eval, train-sim, export-labels, viz.

Every command is deterministic under fixed seed and inputs and emits
machine-readable JSON to stdout or ``--out``.  Exit codes: 0 success,
1 usage error, 2 data/format error, 3 internal invariant violation.

``--out`` names a file for decode, eval and viz, which write to stdout
without it; the labels file for export-labels, which writes no labels
without it; the directory synth writes its pages to, which writes no file
without it; and the directory train-sim writes its run to, the current
directory without it.  An empty ``--out`` or ``--maps-dir`` is a data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import typing
from itertools import chain
from pathlib import Path

from .decoder import DecodeConfig, InvariantError, PageResult, decode
from .geometry import Box, GridShape
from .jsoncheck import BOX, by_page_id, check, expect, finite, image_size, read_jsonl
from .matching import ErrorCounts, PageAnnotation, load_annotations, save_annotations
from .metrics import det_counts, page_counts, prf
from .predictions import MapFormatError, OracleNoise, load_maps, oracle_predict, save_maps
from .pseudolabels import PseudoLabelStore
from .simloop import ConfigError, StageConfig, export_labels, run_stage
from .synth import LAYOUT_KINDS, Layout, PageConfig, SyntheticPage, gen_dataset

# Keys that sit flat in a train-sim stage and belong to its DecodeConfig.
_DECODE_HINTS = typing.get_type_hints(DecodeConfig)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _write(text: str, out: str | Path | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is unset."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict | list, out: str | Path | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _write_jsonl(rows: typing.Iterable[dict], out: str | Path | None) -> None:
    _write("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), out)


def _add_fields(
    p: argparse.ArgumentParser, cls, prefix: str, flags: dict[str, str]
) -> argparse._ArgumentGroup:
    """An argument group for the dataclass ``cls``; ``flags`` maps each flag
    to its field, whose type it takes.

    A flag given lands in the namespace as ``prefix`` + field and a flag not
    given does not land at all, so the dataclass holds the only defaults;
    :func:`_given` reads the group back.
    """
    shown = ", ".join(f"{k}={v}" for k, v in vars(cls()).items() if not dataclasses.is_dataclass(v))
    group = p.add_argument_group(
        f"{cls.__name__} fields", f"defaults: {shown}", argument_default=argparse.SUPPRESS
    )
    hints = typing.get_type_hints(cls)
    for flag, name in flags.items():
        (tp,) = set(typing.get_args(hints[name])) - {type(None)} or {hints[name]}  # X | None: X
        group.add_argument(flag, dest=prefix + name, type=tp, metavar=name.upper())
    return group


def _given(args: argparse.Namespace, prefix: str) -> dict:
    """The flags given in a group of :func:`_add_fields`, keyed by field."""
    return {k[len(prefix):]: v for k, v in vars(args).items() if k.startswith(prefix)}


def _add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    given = _given(args, "page.")
    if "chars" in given or "chars_max" in given:  # N, M: (N, N), (default, M), (N, M)
        lo = given.pop("chars", PageConfig().chars_per_line[0])
        given["chars_per_line"] = (lo, given.pop("chars_max", lo))
    layout = Layout(**_given(args, "layout."))
    config = PageConfig(**given, layout=layout, seed=args.seed)
    noise = OracleNoise(**_given(args, "noise."))
    pages = list(gen_dataset(config, args.pages))
    manifest: dict = {"pages": [p.page_id for p in pages], "config": dataclasses.asdict(config)}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_annotations([p.annotation for p in pages], out / "annotations.jsonl")
        manifest["annotations"] = str(out / "annotations.jsonl")
        if args.emit_maps:
            maps_dir = out / "maps"
            maps_dir.mkdir(exist_ok=True)
            for idx, page in enumerate(pages):
                per_page = dataclasses.replace(noise, seed=noise.seed + idx)
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
        if args.maps_dir:
            raise ValueError(f"--maps-dir {args.maps_dir} holds no map files")
        if args.maps is not None:
            raise ValueError("--maps names no map files")
        raise ValueError("decode needs --maps or --maps-dir")
    by_page_id("map files", paths, lambda path: path.stem)  # each stem names a page
    config = DecodeConfig(**_given(args, "decode."))
    rows = []
    for path in paths:
        try:
            maps = load_maps(path)
        except MapFormatError as exc:
            raise MapFormatError(f"{path}: {exc}") from None
        result = decode(maps, config)
        rows.append(_result_row(path.stem, result, maps.shape.img_w, maps.shape.img_h))
    _write_jsonl(rows, args.out)
    return 0


_RESULT_CHAR = {**dict(zip("xywh", BOX)), "cls": int, "score": finite}
_RESULT_ROW = {
    "page_id": str, "img_w": image_size, "img_h": image_size, "lines": [{"chars": [_RESULT_CHAR]}]
}


def load_results(path: str | Path) -> dict[str, dict]:
    rows = read_jsonl(path, lambda doc: check(doc, _RESULT_ROW))
    return by_page_id(path, rows, lambda doc: doc["page_id"])


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    if not 0.0 <= args.iou_th <= 1.0:
        raise ValueError(f"--iou-th must be in [0, 1], got {args.iou_th}")
    results = load_results(args.results)
    annots = load_annotations(args.annotations)
    if not annots:
        raise ValueError(f"no annotations in {args.annotations}")

    # Every page is matched on its own, for AR* and for detection at its
    # own image size; error counts and (tp, fp, fn) add up over pages.  A
    # page on one side only is matched against an empty one of any size.
    with_boxes = all(a.boxes is not None for a in annots.values())
    errors = ErrorCounts()
    det_totals = {False: [0, 0, 0], True: [0, 0, 0]}  # keyed by require_class
    per_page = []
    for pid in sorted(set(annots) | set(results)):
        annot = annots.get(pid, PageAnnotation([], []))
        doc = results.get(pid, {"img_w": 1.0, "img_h": 1.0, "lines": []})
        counts = page_counts([[c["cls"] for c in ln["chars"]] for ln in doc["lines"]], annot.lines)
        errors.add(counts)
        p_ar, p_cr = counts.rates() if counts.n_total else (None, None)
        per_page.append({"page_id": pid, "ar_star": p_ar, "cr_star": p_cr})
        if with_boxes:
            chars = [c for ln in doc["lines"] for c in ln["chars"]]
            dets = [(Box(c["x"], c["y"], c["w"], c["h"]), c["cls"], c["score"]) for c in chars]
            gts = list(zip(chain(*annot.boxes), chain(*annot.lines)))
            shape = GridShape(1, 1, doc["img_w"], doc["img_h"])
            for rc, total in det_totals.items():
                for k, n in enumerate(det_counts(dets, gts, shape, args.iou_th, require_class=rc)):
                    total[k] += n

    ar, cr = errors.rates()
    report: dict = {
        "ar_star": ar,
        "cr_star": cr,
        "errors": {
            "ie": errors.n_ie,
            "de": errors.n_de,
            "se": errors.n_se,
            "total": errors.n_total,
        },
        "per_page": per_page,
    }
    if with_boxes:
        for key, rc in (("det_only", False), ("det_cls", True)):
            p, r, f = prf(*det_totals[rc])
            report[key] = {"p": p, "r": r, "f": f}
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# train-sim
# ---------------------------------------------------------------------------


def _from_doc(cls, doc: object, where: str):
    """``cls`` built from the JSON object ``doc``, whose keys are its fields.

    The defaults and the range checks are the dataclass's own; an unknown
    key, a value of the wrong type or one out of range raises ConfigError
    naming its path.
    """
    return _build(cls, _fields(doc, typing.get_type_hints(cls), where), where)


def _build(cls, fields: dict, where: str):
    """``cls(**fields)``, its range error prefixed with the config path ``where``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
               epsilon; "noise" is an object of OracleNoise fields
               (jitter_sigma, size_sigma, label_swap_p, drop_p, spurious_p,
               dir_flip_p, seed), and the DecodeConfig fields (dis_threshold,
               nms_iou, sol_eol_threshold, max_steps) sit flat in the stage
               object (default: one stage with every default)

    Every other default is the dataclass field's.  An unknown key, a value
    of the wrong type or one out of range is an error that names its path,
    such as stages[0].nms_iou or stages[0].noise.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ConfigError(f"{path}: {exc}") from None
    doc = _fields(raw, _CONFIG_KEYS, "")
    # Checked here, before the dataset and every stage copy it.
    name, seed = ("seed", doc["seed"]) if "seed" in doc else ("--seed", seed)
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")
    stages = []
    for k, stage_doc in enumerate(doc.get("stages", [{}])):
        where = f"stages[{k}]"
        fields = _fields(stage_doc, _STAGE_KEYS, where)
        decode_fields = {name: fields.pop(name) for name in _DECODE_HINTS if name in fields}
        decode = _build(DecodeConfig, decode_fields, where)
        stages.append(_build(StageConfig, {"seed": seed, **fields, "decode": decode}, where))
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
    img_w = float(doc["img_w"])
    img_h = float(doc["img_h"])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{img_w:.0f}" '
        f'height="{img_h:.0f}" viewBox="0 0 {img_w:.0f} {img_h:.0f}">'
    ]
    for ln in doc["lines"]:
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
    page_id = sorted(results)[0] if args.page is None else args.page
    if page_id not in results:
        raise ValueError(f"page {page_id!r} not in {args.results}")
    _write(render_page_svg(results[page_id]) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gridtext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "synth",
        help="generate synthetic pages and oracle maps",
        description="The manifest's config is a train-sim dataset object.",
    )
    _add_common(p, seed=True)
    p.add_argument("--pages", type=int, default=5)
    p.add_argument("--emit-maps", action=argparse.BooleanOptionalAction, default=True)
    group = _add_fields(p, PageConfig, "page.", {
        "--lines": "n_lines", "--n-cls": "n_cls", "--grid-w": "w_g", "--grid-h": "h_g",
        "--cell-px": "cell_px",
    })
    group.add_argument("--chars", dest="page.chars", type=int, metavar="N",
                       help="chars_per_line (N, N), or (N, M) with --chars-max")
    group.add_argument("--chars-max", dest="page.chars_max", type=int, metavar="M",
                       help="chars_per_line (default, M), or (N, M) with --chars")
    group = _add_fields(p, Layout, "layout.", {"--amplitude": "amplitude", "--period": "period"})
    group.add_argument("--layout", dest="layout.kind", choices=LAYOUT_KINDS, metavar="KIND",
                       help=f"one of {', '.join(LAYOUT_KINDS)}")
    _add_fields(p, OracleNoise, "noise.", {
        "--jitter-sigma": "jitter_sigma", "--size-sigma": "size_sigma",
        "--label-swap": "label_swap_p", "--drop": "drop_p", "--spurious": "spurious_p",
        "--dir-flip": "dir_flip_p", "--noise-seed": "seed",
    })
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decode", help="decode prediction maps into line results")
    _add_common(p)
    _add_fields(p, DecodeConfig, "decode.", {
        "--dis-threshold": "dis_threshold", "--nms-iou": "nms_iou",
        "--sol-eol-threshold": "sol_eol_threshold", "--max-steps": "max_steps",
    })
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
    _add_common(p, seed=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train_sim)

    p = sub.add_parser(
        "export-labels", help="export pseudo-labels with quality stats", **config_help
    )
    _add_common(p, seed=True)
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
        for flag in ("--out", "--maps-dir"):  # "" would read as no path given
            if getattr(args, flag[2:].replace("-", "_"), None) == "":
                raise ValueError(f"{flag}: empty path")
        return args.func(args)
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    # Every data error is a ValueError (MapFormatError, GenerationError,
    # ConfigError, json.JSONDecodeError); a MemoryError is a config whose
    # maps cannot be allocated.
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
