"""Numerical laboratory for the Landau-Pekar equations, the Gross dressing
transform, and their finite-dimensional quantum counterpart."""

from .spectral import (
    FormFactorSet,
    GridMismatchError,
    PhasePoint,
    SpectralGrid,
    build_form_factors,
    build_grid,
    field_A,
)
from .hamiltonians import (
    EnergyBreakdown,
    GradientPair,
    grad_dressed,
    grad_undressed,
    h_dressed,
    h_undressed,
)
from .dynamics import (
    BlowUpError,
    EvolutionConfig,
    SubstepConvergenceError,
    Trajectory,
    dressed_evolve,
    dressed_step,
    free_flow,
    interaction_field_X,
    lp_evolve,
    lp_step,
)
from .dressing import (
    cancellation_residual,
    dressing_apply,
    verify_conjugation,
    verify_dressed_identity,
)
from .picard import (
    PicardConvergenceError,
    PicardDivergenceError,
    duhamel_map,
    find_contraction_time,
    picard_solve,
    strichartz_report,
)
from .diagnostics import convergence_order, diagnostics_row

__version__ = "0.1.0"
