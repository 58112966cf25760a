"""Per-page prediction maps and the noisy oracle that synthesizes them.

The six maps mirror a grid-detector's output heads: a cell-relative box,
a character-presence confidence, class probabilities, start/end-of-line
confidences, and a 4-direction reading-order distribution per grid cell.
Arrays are indexed ``arr[i-1, j-1]`` for grid (i, j), stored float32 so the
on-disk format round-trips losslessly.

The oracle stands in for a trained predictor: it renders exact maps from a
synthetic page's ground truth, planned once per page, then corrupts them
according to :class:`OracleNoise`.  With all-zero noise the maps decode
back to the ground truth exactly.

A reading-order path is an origin and a run of :class:`Direction` moves:
:func:`path_rows` turns moves into the grids they land on, and
:func:`staircase_rows` builds monotone paths on it.  Every one-hot row the
oracle writes, clean or noisy, direction or class, goes through ``_set_rows``.

A map is valid when its class and direction rows sum to 1 within
``ROW_SUM_TOL``, summed in float64.  :meth:`PredictionMaps.validate` first
sums each row in float32, which is about five times cheaper.  Once every
value is known to be finite and in [0, 1], a sum of n of them, added in
any order, is within gamma_n = n*u / (1 - n*u) times the exact sum S of S,
where u is the unit roundoff: 2**-24 in float32, 2**-53 in float64
(Higham, *Accuracy and Stability of Numerical Algorithms*, section 4.2).
A row's float32 sum s and float64 sum f are each that close to S, and
S <= (1 + ROW_SUM_TOL) / (1 - gamma32_n) once |s - 1| <= ROW_SUM_TOL.  So
|s - 1| <= ROW_SUM_TOL - (gamma32_n + gamma64_n) * (1 + ROW_SUM_TOL) /
(1 - gamma32_n) puts f within ROW_SUM_TOL of 1.  Rows the float32 sums
cannot clear, and every row once n is 168 or more, where the bound leaves
no margin, are summed in float64; so every map gets the float64 check's
decision.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import stat
import struct
from dataclasses import dataclass, field, fields, replace
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

import numpy as np

from .geometry import Box, GridShape, abs_to_rel, box_rows, grid_rows
from .jsoncheck import check_ranges, expect, ranged

if TYPE_CHECKING:
    from .synth import SyntheticPage

EPS = 1e-6  # probability floor/ceiling written by the oracle
# A box's size factor is exp(size_sigma * z) for a standard normal z, which
# numpy never draws beyond |z| < 14: up to this bound the factor stays
# within e^+-70, so every noisy box keeps a positive, finite extent.
MAX_SIZE_SIGMA = 5.0

ROW_SUM_TOL = 1e-5  # how far a class or direction row's float64 sum may be from 1

MAGIC = b"PGNM"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIII dd")


class Direction(IntEnum):
    """The four reading-order directions with their (di, dj) grid deltas."""

    UP = 0
    RIGHT = 1
    DOWN = 2
    LEFT = 3


DIR_DELTAS: tuple[tuple[int, int], ...] = ((0, -1), (1, 0), (0, 1), (-1, 0))
_DELTAS = np.array(DIR_DELTAS, dtype=np.intp)


def path_rows(origins: np.ndarray, lengths: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """The grid each move lands on, as ``(n, 2)`` intp rows.

    Path k starts at the ``origins`` row k and takes the next ``lengths[k]``
    of ``moves``, a flat array of :class:`Direction` indices, paths one
    after another; a path of length 0 lands nowhere.
    """
    walked = np.cumsum(_DELTAS[moves], axis=0)
    # Each path's grids are its origin plus its own moves so far.
    starts = np.cumsum(lengths) - lengths
    walked_before = np.vstack([np.zeros((1, 2), np.intp), walked])[starts]
    return walked + np.repeat(origins - walked_before, lengths, axis=0)


def staircase_rows(src: np.ndarray, delta: np.ndarray, vert: np.ndarray) -> np.ndarray:
    """Monotone grid paths as ``(n, 3)`` intp (i, j, d) rows, one per step:
    the grid a move leaves and its :class:`Direction` index d.

    Staircase k leaves ``src[k]`` and takes the |di| horizontal and |dj|
    vertical unit moves of ``delta[k]`` = (di, dj); ``vert`` flags the
    vertical steps, staircases one after another, |dj| in each.
    """
    lengths = np.abs(delta).sum(axis=1)
    # RIGHT 1 or LEFT 3 across, DOWN 2 or UP 0 down the page.
    code = np.repeat(np.where(delta > 0, (1, 2), (3, 0)), lengths, axis=0)
    moves = np.where(vert, code[:, 1], code[:, 0])
    return np.column_stack([path_rows(src, lengths, moves) - _DELTAS[moves], moves])


class MapFormatError(ValueError):
    """Raised when a prediction-map file or payload is malformed."""


class GridCollisionError(ValueError):
    """Two characters (or a character and an inter-character path) share a grid."""


@dataclass
class OracleNoise:
    """Corruption model applied to otherwise exact oracle maps.

    jitter_sigma is the standard deviation of a character's centre shift,
    relative to the page's mean character size.  size_sigma is the standard
    deviation of the log of a per-axis size factor: a width w becomes
    min(w * exp(size_sigma * z), 1) for a standard normal z, and a height
    likewise.  The *_p fields are per-character (or per-grid, for spurious
    and dir_flip) probabilities.
    """

    jitter_sigma: float = ranged(0.0, 0)
    size_sigma: float = ranged(0.0, 0, MAX_SIZE_SIGMA)
    label_swap_p: float = ranged(0.0, 0, 1)
    drop_p: float = ranged(0.0, 0, 1)
    spurious_p: float = ranged(0.0, 0, 1)
    dir_flip_p: float = ranged(0.0, 0, 1)
    seed: int = ranged(0, 0)

    def __post_init__(self) -> None:
        check_ranges(self)

    def scaled(self, factor: float) -> "OracleNoise":
        """All magnitudes multiplied by ``factor`` (seed unchanged)."""
        return replace(self, **{
            f.name: getattr(self, f.name) * factor for f in fields(self) if f.name != "seed"
        })


@dataclass
class PredictionMaps:
    """The six per-grid output tensors for one page."""

    shape: GridShape
    n_cls: int
    box: np.ndarray  # (w_g, h_g, 4) cell-relative boxes
    dis: np.ndarray  # (w_g, h_g) presence confidence
    cls: np.ndarray  # (w_g, h_g, n_cls) class probabilities
    sol: np.ndarray  # (w_g, h_g) start-of-line confidence
    eol: np.ndarray  # (w_g, h_g) end-of-line confidence
    rd: np.ndarray  # (w_g, h_g, 4) direction probabilities

    def validate(self) -> None:
        """Check every tensor's shape, finiteness and probability range, and
        that class and direction rows sum to 1, reading each tensor's
        extremes once: ``min`` and ``max`` propagate NaN, and an infinite
        value is an extreme, so both extremes are finite exactly when every
        element is.  A float32 probability tensor whose bit patterns prove
        it finite and in [+0, 1] (:func:`_in_unit_interval`) skips that
        read, as its extremes could fail no check; any other tensor takes
        it, so a failing map raises the message its extremes give.

        The row sums come from one float32 pass when its error bound, the
        module docstring's gamma_n, proves every float64 row sum within
        ``ROW_SUM_TOL`` of 1; otherwise the rows are summed in float64 and
        each sum is checked against ``ROW_SUM_TOL``.  The float32 pass
        accepts only what the float64 check accepts, so which maps pass and
        which message a failing map raises do not depend on it."""
        extremes = {}
        for name, want in _tensor_shapes(self.shape, self.n_cls).items():
            arr = getattr(self, name)
            if arr.shape != want:
                raise MapFormatError(f"{name}: expected shape {want}, got {arr.shape}")
            if name != "box" and _in_unit_interval(arr):
                continue
            lo, hi = float(arr.min()), float(arr.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise MapFormatError(f"{name}: non-finite payload (NaN or inf)")
            extremes[name] = lo, hi
        for name, (lo, hi) in extremes.items():
            if name != "box" and (lo < 0.0 or hi > 1.0):
                raise MapFormatError(f"{name}: probability outside [0, 1]")
        for name in ("cls", "rd"):
            arr = getattr(self, name)
            if not _rows_sum_to_one(arr):
                sums = arr.sum(axis=-1, dtype=np.float64)
                if np.abs(sums - 1.0).max() > ROW_SUM_TOL:
                    raise MapFormatError(f"{name}: rows not normalized")

    def equals(self, other: "PredictionMaps") -> bool:
        return (
            self.shape == other.shape
            and self.n_cls == other.n_cls
            and all(
                np.array_equal(getattr(self, f), getattr(other, f))
                for f in _tensor_shapes(self.shape, self.n_cls)
            )
        )


_FLOAT32_ONE_BITS = 0x3F800000  # the bit pattern of float32 1.0


def _in_unit_interval(arr: np.ndarray) -> bool:
    """True when ``arr`` is float32 and every element is +0 or a positive
    float at most 1; False when it cannot tell.

    Read as uint32 in the array's own byte order, the float32 values from
    +0 through 1.0 are exactly the patterns 0 through ``0x3F800000``, in
    order: -0.0, negatives, NaN and every value above 1, +inf included, lie
    above it.  So one ``max`` over the patterns decides, where ``min`` and
    ``max`` over the floats take two passes."""
    if arr.dtype.kind != "f" or arr.itemsize != 4:
        return False
    return int(arr.view(arr.dtype.byteorder + "u4").max()) <= _FLOAT32_ONE_BITS


def _rows_sum_to_one(arr: np.ndarray) -> bool:
    """True when a float32 sum of each last-axis row of ``arr`` proves that
    every row's float64 sum is within ``ROW_SUM_TOL`` of 1; False when it
    cannot tell.  Every element must be finite and in [0, 1]."""
    n = arr.shape[-1]
    if arr.dtype != np.float32 or n >= 2**24:  # the bound is for float32 sums of n < 1/u terms
        return False
    limit = _row_sum_limit(n)
    if limit <= 0:
        return False
    # numpy's own reduction: a BLAS call might start threads.
    sums = np.einsum("...k->...", arr)
    # Both extremes lie in [0.5, 2] when accepted, where ``s - 1.0`` is exact.
    return abs(float(sums.min()) - 1.0) <= limit and abs(float(sums.max()) - 1.0) <= limit


@functools.lru_cache(maxsize=8)
def _row_sum_limit(n: int) -> float:
    """The largest float at most ROW_SUM_TOL - (gamma32_n + gamma64_n) *
    (1 + ROW_SUM_TOL) / (1 - gamma32_n), the module docstring's bound on
    |s - 1| for a float32 row sum s of n terms; at most 0 from n = 168.
    Worked in exact rationals, so no rounding of its own moves the bound."""
    gamma32, gamma64 = Fraction(n, 2**24 - n), Fraction(n, 2**53 - n)  # n*u / (1 - n*u)
    tol = Fraction(ROW_SUM_TOL)
    limit = tol - (gamma32 + gamma64) * (1 + tol) / (1 - gamma32)
    nearest = float(limit)
    return nearest if Fraction(nearest) <= limit else math.nextafter(nearest, -math.inf)


@functools.lru_cache(maxsize=8)
def _boundary_rd(w: int, h: int) -> np.ndarray:
    """The blank ``(w, h, 4)`` direction field of a w x h lattice, read-only:
    every grid points at its nearest boundary, so a stray search exits the
    lattice instead of wandering; ties resolve in direction-index order."""
    rd = np.full((w, h, 4), EPS, dtype=np.float32)
    ii = np.arange(1, w + 1, dtype=np.float32)[:, None]
    jj = np.arange(1, h + 1, dtype=np.float32)[None, :]
    dist = np.stack(
        [
            np.broadcast_to(jj - 1, (w, h)),
            np.broadcast_to(w - ii, (w, h)),
            np.broadcast_to(h - jj, (w, h)),
            np.broadcast_to(ii - 1, (w, h)),
        ],
        axis=-1,
    )
    outward = np.argmin(dist, axis=-1)
    np.put_along_axis(rd, outward[..., None], 1.0 - 3 * EPS, axis=-1)
    rd.flags.writeable = False
    return rd


def _blank_maps(shape: GridShape, n_cls: int) -> PredictionMaps:
    """Maps with no character: every grid's direction row is a copy of the
    cached :func:`_boundary_rd` field."""
    w, h = shape.w_g, shape.h_g
    return PredictionMaps(
        shape=shape,
        n_cls=n_cls,
        box=np.full((w, h, 4), 0.5, dtype=np.float32),
        dis=np.full((w, h), EPS, dtype=np.float32),
        cls=np.full((w, h, n_cls), 1.0 / n_cls, dtype=np.float32),
        sol=np.full((w, h), EPS, dtype=np.float32),
        eol=np.full((w, h), EPS, dtype=np.float32),
        rd=_boundary_rd(w, h).copy(),
    )


def _set_rows(arr: np.ndarray, at: tuple, idx: int | np.ndarray, on: float, off: float) -> None:
    """Make each row ``arr[at]`` ``off`` but for ``on`` at its index ``idx``;
    ``at`` and ``idx`` are scalars or parallel index arrays."""
    arr[at] = off
    arr[at + (idx,)] = on


@dataclass(frozen=True, eq=False)
class RenderPlan:
    """A page's exact oracle maps, as index and value arrays to scatter.

    Each ``*_at`` field is a pair of 0-based (i - 1, j - 1) index arrays:
    the staircase grids with their directions, the character grids with
    their 0-based classes and absolute (x, y, w, h) boxes, and the line
    starts and ends.  Characters go line by line in reading order; they
    are the noise model's only description of the page.  ``rd_at`` holds
    each staircase grid once, in grid order, with the direction written
    last: numpy does not say which of a fancy assignment's repeats wins.
    A plan holds O(characters + path grids) and is only read, so one plan,
    kept by its page as ``SyntheticPage.plan``, serves every use of that
    page.
    """

    rd_at: tuple[np.ndarray, np.ndarray]
    rd_dir: np.ndarray
    char_at: tuple[np.ndarray, np.ndarray]
    char_cls: np.ndarray
    char_box: np.ndarray  # (n, 4) float64
    sol_at: tuple[np.ndarray, np.ndarray]
    eol_at: tuple[np.ndarray, np.ndarray]


def _at(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based (i - 1, j - 1) index arrays of 1-based ``(n, 2+)`` grid rows."""
    return rows[:, 0] - 1, rows[:, 1] - 1


def render_plan(page: "SyntheticPage") -> RenderPlan:
    """Plan the exact maps of a page from its annotation, its ground truth.

    Presence, one-hot class and relative box go at every character grid,
    start/end-of-line flags at line endpoints, and reading-order rows along
    the staircase between consecutive characters with every horizontal
    move first.  Raises GridCollisionError, naming the first such pair, when
    two characters share a grid or a staircase crosses a character.
    """
    shape, annot = page.shape, page.annotation
    boxes = box_rows([box for line in annot.boxes for box in line])
    grids = grid_rows(boxes, shape)
    occupied = np.zeros((shape.w_g, shape.h_g), dtype=bool)
    cell = np.ravel_multi_index(_at(grids), occupied.shape)
    _, first, which = np.unique(cell, return_index=True, return_inverse=True)
    owner = first[which]  # the first character on each character's grid
    shared = owner != np.arange(len(grids))
    if shared.any():
        k = int(np.argmax(shared))
        g = tuple(grids[k].tolist())
        raise GridCollisionError(f"characters {owner[k]} and {k} share grid {g}")

    lens = np.fromiter(map(len, annot.boxes), np.intp, len(annot.boxes))
    line_end = np.cumsum(lens) - 1
    not_last = np.ones(len(grids), dtype=bool)
    not_last[line_end] = False
    a = np.flatnonzero(not_last)  # pair k runs from character a[k] to a[k] + 1
    delta = grids[a + 1] - grids[a]
    total = np.abs(delta).sum(axis=1)
    pair_of = np.repeat(np.arange(len(a)), total)
    pos = np.arange(len(pair_of)) - (np.cumsum(total) - total)[pair_of]
    steps = staircase_rows(grids[a], delta, pos >= np.abs(delta[pair_of, 0]))
    occupied.flat[cell] = True
    crosses = occupied[_at(steps)] & (pos > 0)  # a staircase leaves its own grid first
    if crosses.any():
        s = int(np.argmax(crosses))
        k = a[pair_of[s]]
        ga, gb, g = (tuple(r.tolist()) for r in (grids[k], grids[k + 1], steps[s, :2]))
        raise GridCollisionError(f"inter-character path {ga}->{gb} crosses character at {g}")

    # Lines go in reading order: where two staircases cross, the later
    # line's row, the last one written, wins.
    _, from_end = np.unique(np.ravel_multi_index(_at(steps), occupied.shape)[::-1],
                            return_index=True)
    rd = steps[len(steps) - 1 - from_end]
    return RenderPlan(
        rd_at=_at(rd),
        rd_dir=rd[:, 2],
        char_at=_at(grids),
        char_cls=np.array([c - 1 for line in annot.lines for c in line], dtype=np.intp),
        char_box=boxes,
        sol_at=_at(grids[line_end - lens + 1]),
        eol_at=_at(grids[line_end]),
    )


def oracle_predict(page: "SyntheticPage", noise: OracleNoise) -> PredictionMaps:
    """Synthesize prediction maps from a page's annotation, its ground truth,
    then apply the noise model.

    The exact maps come from ``page.plan``, which serves every use of the
    page: its rows are scattered onto blank maps, which the plan never
    shares, with each character box made cell-relative.  The noise is then
    drawn, in a fixed order, from a generator seeded with ``noise.seed`` and
    applied to the plan's arrays, so equal seeds give bit-identical maps.
    """
    plan = page.plan
    maps = _blank_maps(page.shape, page.n_cls)
    rng = np.random.default_rng(noise.seed)
    _set_rows(maps.rd, plan.rd_at, plan.rd_dir, 1.0 - 3 * EPS, EPS)
    maps.dis[plan.char_at] = 1.0 - EPS
    _set_rows(maps.cls, plan.char_at, plan.char_cls, 1.0, 0.0)
    maps.box[plan.char_at] = abs_to_rel(plan.char_box, plan.char_at, page.shape)
    maps.sol[plan.sol_at] = 1.0 - EPS
    maps.eol[plan.eol_at] = 1.0 - EPS
    _apply_noise(maps, plan, noise, rng)
    return maps


def _apply_noise(
    maps: PredictionMaps, plan: RenderPlan, noise: OracleNoise, rng: np.random.Generator
) -> None:
    shape = maps.shape
    boxes = plan.char_box
    n = len(boxes)
    if n:
        mean_size = float(np.mean(0.5 * (boxes[:, 2] * shape.img_w + boxes[:, 3] * shape.img_h)))
    else:
        mean_size = min(shape.cell_w, shape.cell_h)

    drop = rng.random(n) < noise.drop_p
    swap = rng.random(n) < noise.label_swap_p
    swap_to = rng.integers(0, max(maps.n_cls - 1, 1), size=n)
    # A jitter that overflows to +-inf lands on the cell edge, as any jitter
    # past the edge does.
    with np.errstate(over="ignore"):
        jitter = rng.normal(0.0, 1.0, size=(n, 2)) * noise.jitter_sigma * mean_size
    size_fac = np.exp(rng.normal(0.0, 1.0, size=(n, 2)) * noise.size_sigma)

    i0, j0 = plan.char_at
    maps.dis[i0[drop], j0[drop]] = EPS
    keep = ~drop
    swap &= keep
    wrong = swap_to[swap] + (swap_to[swap] >= plan.char_cls[swap])  # skip the true class
    _set_rows(maps.cls, (i0[swap], j0[swap]), wrong % maps.n_cls, 1.0, 0.0)
    if noise.jitter_sigma > 0 or noise.size_sigma > 0:
        at = (i0[keep], j0[keep])
        # Valid centres for a cell lie in (lo, hi]; nudge off the open edge
        # so the jittered box keeps its grid under the ceil mapping.
        ij, cell = np.stack(at, axis=1), np.array([shape.cell_w, shape.cell_h])
        lo, hi = ij * cell, (ij + 1) * cell
        noisy = np.concatenate([
            np.minimum(np.maximum(boxes[keep, :2] + jitter[keep], lo + 1e-9 * (hi - lo)), hi),
            np.minimum(boxes[keep, 2:] * size_fac[keep], 1.0),
        ], axis=1)
        bad = ~np.isfinite(noisy[:, :2]).all(axis=1) | (noisy[:, 2:] <= 0).any(axis=1)
        if bad.any():
            Box(*noisy[np.argmax(bad)].tolist())  # raises Box's error for the first bad box
        maps.box[at] = abs_to_rel(noisy, at, shape)

    if noise.spurious_p > 0:
        hits = rng.random((shape.w_g, shape.h_g)) < noise.spurious_p
        hits[plan.char_at] = False
        at = np.nonzero(hits)
        # One call draws each of dis, the class, (x_o, y_o) and scale for
        # every hit, hits in row-major order.  The hits are distinct cells,
        # so one scatter per tensor writes them.
        n_hits = len(at[0])
        dis = rng.uniform(0.55, 0.9, n_hits)
        cls = rng.integers(0, maps.n_cls, size=n_hits)
        x_o, y_o = rng.uniform(0.3, 0.7, (n_hits, 2)).T
        scale = rng.uniform(0.8, 1.2, n_hits)
        size_frac_w = mean_size / shape.img_w
        size_frac_h = mean_size / shape.img_h
        maps.dis[at] = dis
        _set_rows(maps.cls, at, cls, 1.0, 0.0)
        maps.box[at] = np.stack(
            [x_o, y_o, np.minimum(size_frac_w * scale, 1.0), np.minimum(size_frac_h * scale, 1.0)],
            axis=1,
        )

    # One call draws the same directions as one draw per flip.
    if noise.dir_flip_p > 0:
        flips = np.nonzero(rng.random((shape.w_g, shape.h_g)) < noise.dir_flip_p)
        _set_rows(maps.rd, flips, rng.integers(0, 4, size=len(flips[0])), 1.0 - 3 * EPS, EPS)


# ---------------------------------------------------------------------------
# Serialization: binary with a "PGNM" header, plus a JSON mirror accepted for
# hand-written fixtures.  Tensors are little-endian float32, row-major,
# written in the fixed order of _tensor_shapes: box, dis, cls, sol, eol, rd.
# ---------------------------------------------------------------------------


def _tensor_shapes(shape: GridShape, n_cls: int) -> dict[str, tuple[int, ...]]:
    w_g, h_g = shape.w_g, shape.h_g
    return {
        "box": (w_g, h_g, 4),
        "dis": (w_g, h_g),
        "cls": (w_g, h_g, n_cls),
        "sol": (w_g, h_g),
        "eol": (w_g, h_g),
        "rd": (w_g, h_g, 4),
    }


def save_maps(maps: PredictionMaps, path: str | Path) -> None:
    """Write maps to ``path``; ``.json`` selects the JSON mirror format."""
    path = Path(path)
    names = _tensor_shapes(maps.shape, maps.n_cls)
    shape = maps.shape
    header = (shape.w_g, shape.h_g, maps.n_cls, shape.img_w, shape.img_h)
    if path.suffix == ".json":
        doc = {"version": FORMAT_VERSION, **dict(zip(_JSON_HEADER, header))}
        for name in names:
            doc[name] = getattr(maps, name).astype(np.float32).tolist()
        path.write_text(json.dumps(doc))
        return
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, *header))
        for name in names:  # little-endian on any host, as _load_binary reads
            fh.write(np.ascontiguousarray(getattr(maps, name), dtype="<f4"))


def load_maps(path: str | Path) -> PredictionMaps:
    """Read maps saved by :func:`save_maps` (binary or JSON, sniffed).

    A binary file's tensors are read straight into their arrays, each once
    the bytes left in the file are known to hold it.  A regular file's size
    tells that; any other file, such as a pipe, is read whole first.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            stream, size = fh, info.st_size
        else:
            raw = fh.read()
            stream, size = io.BytesIO(raw), len(raw)
        head = stream.read(_HEADER.size)
        if head[:4] == MAGIC:
            shape, n_cls, tensors = _load_binary(head, stream, size)
        else:
            raw = head + stream.read()
            if raw.lstrip()[:1] != b"{":
                raise MapFormatError("header: not a prediction-map file")
            shape, n_cls, tensors = _load_json(raw)
    maps = PredictionMaps(shape=shape, n_cls=n_cls, **tensors)
    maps.validate()
    return maps


def _header(w_g, h_g, n_cls, img_w, img_h) -> tuple[GridShape, int]:
    """The grid shape and class count of a map file's header fields: integer
    grid dims and class count, and a numeric image size."""
    if n_cls < 1:
        raise MapFormatError(f"header: n_cls must be >= 1, got {n_cls}")
    try:
        return GridShape(w_g, h_g, float(img_w), float(img_h)), n_cls
    except (ValueError, OverflowError) as exc:  # an integer past the float range
        raise MapFormatError(f"header: {exc}") from exc


def _check_version(version: int) -> None:
    if version != FORMAT_VERSION:
        raise MapFormatError(f"header: unsupported version {version}")


def _load_binary(
    head: bytes, stream: BinaryIO, size: int
) -> tuple[GridShape, int, dict[str, np.ndarray]]:
    """Parse a PGNM file of ``size`` bytes: ``head`` is what was read of its
    header, whose magic :func:`load_maps` has checked, and ``stream`` is
    positioned just after it."""
    if len(head) < _HEADER.size:
        raise MapFormatError("header: truncated file")
    _, version, *fields = _HEADER.unpack(head)
    _check_version(version)
    shape, n_cls = _header(*fields)
    left = size - _HEADER.size
    tensors: dict[str, np.ndarray] = {}
    for name, dims in _tensor_shapes(shape, n_cls).items():
        nbytes = 4 * math.prod(dims)
        # A header's dims are not trusted with an allocation the file cannot
        # fill; a file that shrank since its size was read reads short.
        if nbytes > left or stream.readinto(arr := np.empty(dims, dtype="<f4")) != nbytes:
            raise MapFormatError(f"{name}: truncated tensor payload")
        tensors[name] = arr
        left -= nbytes
    if stream.read(1):
        raise MapFormatError("payload: trailing bytes after tensors")
    return shape, n_cls, tensors


def _check_numbers(tensor: object, name: str) -> None:
    """Raise MapFormatError naming ``name`` unless every element of the
    nested JSON lists ``tensor`` is a number: numpy would read a string or a
    boolean as one."""
    stack = [tensor]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        else:
            expect(item, float, name, MapFormatError)


# The JSON kind of each header field; the binary header's struct types its own.
_JSON_HEADER = {"w_g": int, "h_g": int, "n_cls": int, "img_w": float, "img_h": float}


def _load_json(raw: bytes) -> tuple[GridShape, int, dict[str, np.ndarray]]:
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise MapFormatError(f"header: invalid JSON ({exc})") from exc
    if "version" in doc:  # a hand-written map may leave it out
        _check_version(expect(doc["version"], int, "header.version", MapFormatError))
    fields = []
    for key, kind in _JSON_HEADER.items():
        if key not in doc:
            raise MapFormatError(f"header: missing field {key!r}")
        fields.append(expect(doc[key], kind, f"header.{key}", MapFormatError))
    shape, n_cls = _header(*fields)
    tensors: dict[str, np.ndarray] = {}
    for name in _tensor_shapes(shape, n_cls):
        if name not in doc:
            raise MapFormatError(f"{name}: missing tensor")
        _check_numbers(doc[name], name)
        try:
            # A number past the float32 range becomes inf, which validate()
            # rejects as non-finite.
            with np.errstate(over="ignore"):
                arr = np.asarray(doc[name], dtype=np.float32)
        except (TypeError, ValueError, OverflowError) as exc:  # ragged or not numbers
            raise MapFormatError(f"{name}: not a numeric tensor ({exc})") from exc
        tensors[name] = arr
    return shape, n_cls, tensors
