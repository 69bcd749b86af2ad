"""noisecalc: a numerical laboratory for the three interpretations of
multiplicative white noise (left/Ito, midpoint/Stratonovich,
right/Hanggi-Klimontovich) and the boundary phenomena that tell them apart.
"""

from .paths import SeedSpec, TimeGrid, SamplePath, VectorPath, generate_brownian, generate_brownian_vector, refine_bridge
from .integrals import (
    EvaluationRule,
    ConvergenceTable,
    StepProcess,
    stochastic_sum,
    convergence_table,
    hk_integral,
    hk_correction,
    multidim_hk_sum,
    multidim_correction,
    realized_variation,
    realized_cross_variation,
    backward_regularized,
    strong_convergence_order,
)
from .sde import Interpretation, SdeModel, finite_diff_gprime, to_ito, from_ito
from .solvers import (
    SolverScheme,
    Reflect,
    STOP_ON_VIOLATION,
    PathResult,
    HittingStats,
    McConfig,
    simulate_path,
    simulate_ensemble,
    hitting_time,
    exact_ou_path,
    exact_kinetic_oracle,
    exact_kinetic_terminal,
    kinetic_oracle_hitting,
    besq_time_change,
    scheme_for,
)
from .fokker_planck import (
    GridDensity,
    FpeProblem,
    stationary_density,
    stationary_log_density,
    evolve_fpe,
    propagate_fpe,
    probability_flux,
    relative_entropy,
    analyze_fixed_points,
    compare_modes,
)
from .physics import (
    LangevinParams,
    RelativisticParams,
    InterpretationTriple,
    kinetic_models,
    two_particle_models,
    relativistic_models,
    langevin_velocity_pair,
    levy_composite_brownian,
    rest_start_diagnostics,
)

__version__ = "0.15.0"
