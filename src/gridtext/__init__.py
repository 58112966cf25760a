"""Grid-based page text decoding with a weakly supervised training loop.

Each public name lives in one submodule: ``geometry`` (boxes, IoU, NMS),
``predictions`` (maps, oracle, map files), ``decoder`` (maps to lines),
``matching`` (lines to transcripts), ``pseudolabels`` (label store, loss
targets), ``losses``, ``metrics`` (AR*/CR*), ``synth`` (pages), ``simloop``
(training stages), ``jsoncheck`` (strict JSON input) and ``cli``.
"""

from . import decoder, geometry, jsoncheck, losses, matching, metrics, predictions, pseudolabels, simloop, synth

__version__ = "0.1.0"
