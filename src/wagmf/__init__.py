"""Weighted adaptive gradient methods with projected steps, named baseline
presets, regret/bound analysis, and a reproducible experiment runner."""

from .analysis import (
    BoundReport,
    RegretSeries,
    RunTrace,
    adagrad_dd_term,
    corollary1_bound,
    fd_gradient_check,
    lemma3_check,
    ratio_violations,
    regret,
    students_t_test,
    thm1_bound,
    weighted_dd_term,
)
from .feasible import FeasibleSet, diameter_inf, project
from .presets import make_preset, preset_names
from .problems import (
    Dataset,
    LossOracle,
    MinibatchOracle,
    Quadratic,
    ReddiOnline,
    ReddiStochastic,
    RoundRng,
    SoftmaxObjective,
    gaussian_blobs,
    load_dataset,
    softmax_objective,
)
from .runner import (
    ExperimentConfig,
    ProblemSetup,
    build_problem,
    parse_config,
    run,
    run_rounds,
)
from .schedules import (
    MomentumSchedule,
    StepSizeSchedule,
    WeightSchedule,
    alpha,
    beta1_at,
    gamma,
)
from .steps import OptimizerConfig, OptimizerState, init_state, step

__version__ = "0.1.0"
