"""flowlab: training-free flow editing on analytic Gaussian velocity fields
and small trained velocity models, with a reproducible benchmark harness."""

__version__ = "0.1.0"

from .core import (
    Condition,
    TensorState,
    VelocityField,
)
from .errors import (
    FlowLabError,
    InsufficientSamplesError,
    InvalidConfigError,
    ModelFormatError,
    NumericalError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from .gaussian import (
    AnalyticDualField,
    GaussianConditionalField,
    GaussianSpec,
    marginal_velocity,
    mc_conditional_velocity,
    ot_map,
    sample_array,
    w2_gaussian,
)
from .metrics import MetricReport, empirical_moments, smoothness, structure_distance, truncation_bias
from .mlp import (
    MlpDualField,
    MlpModel,
    MlpVelocityField,
    TrainConfig,
    TrainReport,
    grad_check,
    load_model,
    mlp_init,
    save_model,
    train,
)
from .data import AvSynthParams, CoupledAvDataset, synth_av_dataset
from .rng import RNG_ALGORITHM, CounterRng, derive_seed
from .samplers import (
    DualState,
    EditConfig,
    StepRecord,
    Trajectory,
    flowedit,
    generate,
    omniedit_av,
    omniedit_sync,
)

__all__ = [name for name in dir() if not name.startswith("_")]
