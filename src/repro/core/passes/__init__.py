"""Optimization passes run after MoMA legalization."""

from repro.core.passes.constant_fold import fold_constants
from repro.core.passes.copy_propagation import propagate_copies
from repro.core.passes.cse import eliminate_common_subexpressions
from repro.core.passes.dce import eliminate_dead_code
from repro.core.passes.pipeline import DEFAULT_MAX_ROUNDS, DEFAULT_PIPELINE, optimize, run_pipeline
from repro.core.passes.simplify import simplify

__all__ = [
    "fold_constants",
    "propagate_copies",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_PIPELINE",
    "optimize",
    "run_pipeline",
    "simplify",
]
