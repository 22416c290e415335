"""
Constructive spectral analysis of H = -Laplacian + V with complex-valued V:
threshold classification, resolvent expansions at the zero threshold and at
embedded positive resonances, and contour representations of the propagator
with quantitative large-time decay checks.

The package namespace holds the stages a script runs on one
`Discretization`; everything else is reached through its module
(`specthresh.models`, `specthresh.propagator`, `specthresh.cli`, ...).
"""
from .birman_schwinger import (Discretization, classify_zero,
                               scan_positive_resonances)
from .grushin import (resonance_resolvent_expansion,
                      threshold_resolvent_expansion)
from .propagator import verify_large_time

__version__ = "0.1.0"
