"""Measurement utilities: load-sweep saturation metrics and text reports."""

from .report import format_heading, format_percentage, format_table
from .saturation import LoadPointSummary, SweepSummary

__all__ = [
    "LoadPointSummary",
    "SweepSummary",
    "format_heading",
    "format_percentage",
    "format_table",
]
