"""Continuum failure-wave toolkit: a coupled hyperbolic elastic / parabolic
damage system with energy bookkeeping, deflagration-style front metrics, and
a discrete variational verifier."""

from .analysis import (
    MATERIAL_PRESETS,
    ConvergenceStudy,
    FrontTrack,
    LimitRow,
    LimitStudyResult,
    MaterialPreset,
    TableReport,
    TableRow,
    WaveMetrics,
    budget_imbalance,
    clifton_limit_study,
    measure_rise_time,
    predict_tau,
    predict_width,
    refinement_study,
    table_report,
    track_front,
    variance_growth_slope,
    wave_metrics,
)
from .constitutive import (
    damage_force,
    damage_potential,
    dissipation_rate,
    elastic_energy_density,
    elastic_wave_speed,
    entropy_production,
    free_energy,
    internal_forces,
    stress,
    total_free_energy,
)
from .errors import (
    AdmissibilityViolation,
    CflViolation,
    ConfigConflict,
    ConfigError,
    FailwaveError,
    InvalidValue,
    MissingKey,
    NoFrontDetected,
    NonFiniteState,
    NonpositiveSpeed,
    NoPlateau,
    PicardNotConverged,
    RuntimeViolation,
    ShapeMismatch,
    SingularBasis,
    TooFewLevels,
)
from .model import (
    FieldState,
    Grid,
    MaterialParams,
    ScenarioConfig,
    build_scenario,
    config_hash,
    initialize_state,
    refine,
    scenario_to_dict,
    scenario_to_yaml,
)
from .solver import (
    GaugeTrace,
    RunResult,
    Snapshot,
    lateral_stress_proxy,
    run,
)
from .variational import (
    Basis,
    DiscreteTrajectory,
    GeneralizedResidual,
    GeneralizedSystem,
    LagrangeResidual,
    action_first_variation,
    discrete_action,
    free_energy_gradient,
    generalized_residual,
    lagrange_residual,
    nodal_basis,
    record_trajectory,
    reduce_to_generalized,
    sine_basis,
)

__version__ = "0.1.0"
