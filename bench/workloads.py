"""The benchmark's three workloads and the inputs they generate from a seed.

Every workload runs the same user flow, sized differently: set-up generates
synthetic pages and writes one prediction-map file per page; a timed round
then runs the weakly supervised training stages on each training page from
an empty pseudo-label store, decodes every map file the way
``gridtext decode`` does, and scores each page with AR*/CR* and detection
P/R/F.  All inputs are functions of the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gridtext import predictions, synth
from gridtext.predictions import OracleNoise
from gridtext.simloop import INITIALIZE, TRAIN, StageConfig
from gridtext.synth import Layout, PageConfig, SyntheticPage

N_CLS = 100

# Acceptance criterion 4's oracle noise.
CRITERION_4_NOISE = OracleNoise(
    jitter_sigma=0.10, label_swap_p=0.05, drop_p=0.02, spurious_p=0.01
)

HORIZONTAL = Layout("horizontal")
ROT90 = Layout("rot90")
ROT180 = Layout("rot180")
ROT270 = Layout("rot270")
# Amplitude 1 keeps twelve 64-cell or twenty-seven 128-cell lines feasible.
SINE = Layout("sine", amplitude=1.0, period=12.0)


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int  # w_g = h_g
    n_lines: tuple[int, int]  # inclusive range, drawn per page
    chars_per_line: tuple[int, int]
    layouts: tuple[Layout, ...]  # page k uses layouts[k % len(layouts)]
    n_pages: int
    n_train_pages: int  # the first pages of the set go through training
    stages: tuple[StageConfig, ...]  # run in order on each training page
    eval_noise: OracleNoise  # noise of the decoded map files
    setup_reps: int  # set-up runs whose median is setup_s
    floors: tuple[float, float] | None = None  # (coverage, mean IoU) at the end

    def stage_configs(self, seed: int, page: int) -> list[StageConfig]:
        return [replace(s, seed=derived_seed(seed, page, k)) for k, s in enumerate(self.stages)]

    def page_passes(self) -> int:
        return self.n_train_pages * sum(s.n_passes for s in self.stages)


# Training noise everywhere, and the decode noise of train-dense.
_TRAIN_NOISE = replace(CRITERION_4_NOISE, dir_flip_p=0.01)

_TRAIN_SMALL_STAGE = StageConfig(
    stage=TRAIN, n_passes=10, noise=_TRAIN_NOISE, halve_every=5, real_prob=0.7
)

_LARGE_NOISE = OracleNoise(size_sigma=0.1, spurious_p=0.02, dir_flip_p=0.02)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="train-small",
            grid=32,
            n_lines=(5, 5),
            chars_per_line=(10, 10),
            layouts=(HORIZONTAL,),
            n_pages=40,
            n_train_pages=10,
            stages=(_TRAIN_SMALL_STAGE,),
            eval_noise=_TRAIN_SMALL_STAGE.noise_for_pass(_TRAIN_SMALL_STAGE.n_passes - 1),
            setup_reps=5,
            floors=(0.98, 0.85),
        ),
        Workload(
            name="train-dense",
            grid=64,
            n_lines=(11, 12),
            chars_per_line=(16, 20),
            layouts=(HORIZONTAL, ROT90, ROT270, SINE),
            n_pages=24,
            n_train_pages=4,
            stages=(
                StageConfig(stage=INITIALIZE, n_passes=1, noise=_TRAIN_NOISE, real_prob=1.0),
                StageConfig(stage=TRAIN, n_passes=2, noise=_TRAIN_NOISE, real_prob=1.0),
            ),
            eval_noise=_TRAIN_NOISE,
            setup_reps=3,
        ),
        Workload(
            name="decode-large",
            grid=128,
            n_lines=(27, 27),
            chars_per_line=(30, 36),
            layouts=(HORIZONTAL, ROT90, ROT180, ROT270, SINE),
            n_pages=15,
            n_train_pages=3,
            stages=(StageConfig(stage=TRAIN, n_passes=1, noise=_TRAIN_NOISE, real_prob=1.0),),
            eval_noise=_LARGE_NOISE,
            setup_reps=3,
        ),
    )
}


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def gen_pages(workload: Workload, seed: int) -> list[SyntheticPage]:
    """The workload's pages; page k has page_index k, so ids never repeat."""
    pages = []
    for k in range(workload.n_pages):
        rng = np.random.default_rng([seed, k])
        config = PageConfig(
            n_lines=int(rng.integers(workload.n_lines[0], workload.n_lines[1] + 1)),
            chars_per_line=workload.chars_per_line,
            n_cls=N_CLS,
            layout=workload.layouts[k % len(workload.layouts)],
            w_g=workload.grid,
            h_g=workload.grid,
            seed=seed,
        )
        pages.append(synth.gen_page(config, page_index=k))
    return pages


def eval_maps(workload: Workload, seed: int, pages: list[SyntheticPage]):
    """Oracle maps for the decode phase, one per page."""
    return [
        predictions.oracle_predict(
            page, replace(workload.eval_noise, seed=derived_seed(seed, 7, k))
        )
        for k, page in enumerate(pages)
    ]
