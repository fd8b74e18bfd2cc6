"""Pointer-reading statistics of sequential measurements on finite quantum
systems: exact path-amplitude calculus, accurate and inaccurate meter limits,
Monte-Carlo sampling, and a classical comparator network."""

from .classical import (
    ClassicalConnector,
    ClassicalNetwork,
    ClassicalPath,
    chain_comparator,
    classical_mean,
    classical_paths,
    classical_sample,
    comparator_path_key,
    label_values,
    two_layer_network,
    uniform_two_layer_network,
)
from .config import ConfigError, RunSettings, ScenarioConfig, export_config, load_config, parse_config
from .core import (
    Observable,
    Propagator,
    StateVector,
    basis_state,
    disturbance_gap,
    evolve,
    orthonormal_completion,
    robertson_check,
)
from .meter import (
    Grid,
    GridCapError,
    JointDistribution,
    MeterSpec,
    PointerDistribution,
    PointerProfile,
    WeakLimitReport,
    conditional_state,
    final_pointer_state,
    joint_reading_distribution,
    mean_reading,
    pointer_distribution,
    reading_distribution,
    strong_limit_bins,
    strong_limit_probabilities,
    total_reading_distribution,
    weak_limit_report,
    window_masses,
)
from .paths import (
    AmplitudeDistribution,
    ForbiddenTransitionError,
    MeasurementChain,
    MeasurementStep,
    PathBundle,
    PathCapError,
    PathFunctional,
    amplitude_distribution,
    combine_paths,
    enumerate_paths,
    grouped_amplitudes,
    path_amplitude,
    path_amplitudes,
    relative_amplitudes,
    strong_mean,
    weak_value,
)
from .sampling import TrialRecord, TrialSet, TrialSummary, sample_trials
from .scenarios import (
    PRESETS,
    ScenarioPreset,
    build_difference_meter,
    build_minus_hundred,
    build_preset,
    build_projector_postselected,
    build_three_box,
    states_for_target_weak_value,
    verify_preset,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
