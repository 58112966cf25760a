"""Every numeric field of a config dataclass declares its range, and the
dataclass enforces exactly that range."""

import dataclasses
import math
import typing

import pytest

from gridtext.decoder import DecodeConfig
from gridtext.predictions import OracleNoise
from gridtext.simloop import ConfigError, StageConfig
from gridtext.synth import Layout, PageConfig

CONFIGS = (DecodeConfig, OracleNoise, StageConfig, PageConfig, Layout)


def _numeric_fields():
    for cls in CONFIGS:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kind = {int: int, float: float, int | None: int, float | None: float}.get(hints[f.name])
            if kind:
                yield pytest.param(cls, f, kind, id=f"{cls.__name__}.{f.name}")


@pytest.mark.parametrize("cls, f, kind", _numeric_fields())
def test_numeric_field_accepts_exactly_its_declared_range(cls, f, kind):
    assert "range" in f.metadata, f"{cls.__name__}.{f.name} declares no range"
    lo, hi = f.metadata["range"]
    error = ConfigError if cls is StageConfig else ValueError
    name = f.name

    def rejects(value):
        with pytest.raises(error, match=f"^{name} must be"):
            cls(**{name: value})

    for edge, outward in ((lo, -1), (hi, 1)):
        if math.isfinite(edge):
            cls(**{name: edge})
            rejects(edge + outward if kind is int else math.nextafter(edge, outward * math.inf))
    for value in (math.nan, math.inf, -math.inf):
        rejects(value)
    if hi == math.inf:
        try:
            cls(**{name: 10**400})
        except ValueError as exc:  # PageConfig.cell_px: the image size bound, not the field's
            assert not str(exc).startswith(f"{name} must be")
    else:
        rejects(10**400)
    if f.default is None:
        cls(**{name: None})
    else:
        rejects(None)
