"""
Constructive spectral analysis of H = -Laplacian + V with complex-valued V:
threshold classification, resolvent expansions at the zero threshold and at
embedded positive resonances, and contour representations of the propagator
with quantitative large-time decay checks.
"""
from .model import (Model, Potential, QuadratureGrid, build_grid,
                    sample_potential, weighted_operator_norm)
from .kernels import (BranchPoint, assemble_gj, assemble_gj_plus, assemble_r0,
                      verify_threshold_expansion)
from .birman_schwinger import (Discretization, ZeroClassification, b_form,
                               check_hypotheses, classify_zero,
                               detect_minus_one, riesz_projection,
                               scan_positive_resonances, tune_coupling)
from .jordan import (JordanBasis, build_jordan_chains,
                     complex_symmetric_cholesky, dual_basis,
                     projector_from_chains, verify_jordan_form)
from .series import ExpansionSeries
from .grushin import (GrushinReduction, LidskiiScaling,
                      ResonanceCoefficients, ThresholdCoefficients,
                      invert_E_minus_plus, lidskii_determinant,
                      resonance_resolvent_expansion,
                      threshold_resolvent_expansion, verify_grushin_identity)
from .propagator import (CutPropagator, DecayReport, check_high_energy,
                         free_propagator, generalized_integral,
                         resolvent_taylor, verify_large_time)
from .models import (default_grid, first_kind_model, free_model,
                     regular_model, resonance_model, second_kind_model,
                     third_kind_model)
from .cli import RunConfig, RunReport, emit_plot_data, load_config, run_pipeline

__version__ = "0.1.0"
