"""vergescope: objective depth estimates from binocular gaze vergence.

Converts binocular eye-tracker streams into per-trial vergence angles with
one array kernel (``vergence_angle`` is its one-pair form), calibrates the
angle-to-diopter mapping per participant, inverts it to metric depth, and
ships the statistical machinery (OLS, F tests of nested models on their
R-squared summaries, stepwise refinement) plus a ground-truth oculomotor
simulator used to validate the whole chain.
"""

from .calibration import (
    DepthStream,
    GvaObservation,
    ParticipantModel,
    environment_offsets,
    estimate_depth,
    fit_participant,
    fit_participants,
    normalize_gva,
)
from .geometry import ideal_vergence, to_diopters, vergence_angle
from .pipeline import (
    PipelineConfig,
    ProcessedTrial,
    ValidityReport,
    analysis_window,
    cascade_validity,
    confidence_filter,
    detect_fixation_onset,
    outlier_filter,
    preprocess_dataset,
    trial_mean_gva,
    trial_validity,
    velocity_filter,
)
from .recording import GazeSeries, SampleStatus, TrialRecord
from .synth import (
    CohortConfig,
    EnvironmentEffect,
    ExperimentDesign,
    NoiseModel,
    PhysiologyParams,
    generate_sequence,
    simulate_cohort,
    simulate_trial,
)

__version__ = "0.1.0"
