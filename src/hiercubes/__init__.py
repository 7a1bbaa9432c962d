"""Hierarchical-cubes hard-core gas: exact analytics, sampling, enumeration."""

from .blocks import Block, Geometry, block, parse_block, format_block
from .activities import (ActivityModel, Homogeneous, Parametric, Explicit,
                         EffectiveDesign, Formula, VolumeTruncated,
                         ScaleTruncated, load_model)
from .logreal import LogReal

__all__ = [
    "Block", "Geometry", "block", "parse_block", "format_block",
    "ActivityModel", "Homogeneous", "Parametric", "Explicit",
    "EffectiveDesign", "Formula", "VolumeTruncated", "ScaleTruncated",
    "load_model", "LogReal",
]

__version__ = "0.1.0"
