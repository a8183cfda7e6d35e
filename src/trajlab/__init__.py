"""Trajectory ensembles, measures on them, and worked physical systems.

The package treats a dynamical theory as a set of allowed trajectories and
a statistical theory as a measure on that set. ``core`` holds the shared
vocabulary (trajectories, outcome rates, measures); the remaining
modules each realize one worked system on top of it.
"""

from .errors import (
    TrajlabError,
    NoTrialsError,
    EmptyEnsembleError,
    IntegrationError,
    NoSolutionError,
    ZeroFieldError,
    UnconditionedSettingError,
    UnsupportedInputError,
    SchemaError,
)
from .core import (
    Segment,
    PiecewiseTrajectory,
    RateResult,
    RateStatistics,
    outcome_rates,
    evaluate_rates,
    ensemble_statistics,
    is_well_defined,
    MeasureSpec,
    check_determinism,
)
from .rng import stream, trajectory_stream
from .bernoulli import (
    orbit_bits,
    orbit_rate,
    BernoulliTrajectory,
    biased_measure,
    lebesgue_ensemble_rate,
)
from .scattering import (
    Potential,
    HardSphere,
    RepulsivePower,
    ScreenedCoulomb,
    DeflectionFunction,
    transfer_density,
    solid_angle_mass,
    EncounterRecord,
    FlipperScene,
    random_scene,
    FlipperTrajectory,
    trace_flipper,
    bin_edges,
    angle_bins,
    entry_measure,
    flipper_outcome_builder,
    FlipperResult,
    flipper_cross_section,
)
from .decay import (
    DecayMasses,
    DecayBoundary,
    DecayVertex,
    decay_action,
    action_gradient,
    action_hessian,
    solve_decay_vertex,
    conservation_residuals,
    symmetric_decay_time,
    sample_boundary,
    exponential_life_measure,
    uniform_life_measure,
    mean_life,
    decay_trajectory,
    rest_decay_family,
)
from .spin_epr import (
    SpinVariable,
    PhysicalConstants,
    SGDevice,
    align_spin,
    branch_weights,
    propagate_sg,
    planar_setting,
    chsh_optimal_angles,
    singlet_measure,
    global_epr_measure,
    epr_conditional_probabilities,
    correlator,
    chsh_value,
    sample_epr_counts,
    chsh_estimate,
    deterministic_strategies,
    chsh_of_strategy,
)
from .interference import (
    BiprismScene,
    standard_bench,
    ScreenDensity,
    fringe_target_density,
    envelope_target_density,
    EmissionMeasure,
    emission_measure_from_screen,
    screen_density_from_emission,
    fringe_visibility,
    estimate_fringe_spacing,
    emission_tv_distance,
    GaussianPairPotential,
    CompactBumpPotential,
    NBodySystem,
    AsymptoticVelocityResult,
    asymptotic_velocity,
    free_quantum_momentum_measure,
    InterferenceDecomposition,
    interference_decomposition,
)

__version__ = "0.1.0"
