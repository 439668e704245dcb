"""Double machine learning with support-points sample splitting.

Library layout:

- ``data``: dataset container, standardization, CSV I/O
- ``support_points``: energy distance, support-points solver, splitting
- ``learners``: ridge/lasso/kernel/MLP regressors and the super learner
- ``stacked``: many fits of one spec in one loop (loaded on first use)
- ``dml``: orthogonal scores, cross-fitted estimation, inference
- ``simulate``: synthetic scenarios and the Monte Carlo harness
- ``cli``: the ``dmlspss`` command-line tool
"""

from .data import ColumnSchema, Dataset, StandardizationReport, load_csv, standardize, subset_rows
from .dml import (
    ALG_DML1,
    ALG_DML2,
    SCORE_IV_TYPE,
    SCORE_PARTIALLING_OUT,
    DmlEstimate,
    NuisanceFit,
    confidence_interval,
    dml1_estimate,
    dml2_estimate,
    fit_nuisances_crossfit,
    orthogonality_diagnostic,
    score_components,
)
from .learners import (
    CvRiskReport,
    EpsilonInsensitiveLoss,
    KernelMachine,
    Lasso,
    Mlp,
    Oracle,
    Ridge,
    SquaredLoss,
    SuperLearner,
    fit,
    fit_many,
)
from .simulate import (
    McConfig,
    ScenarioConfig,
    SimulationRow,
    ar1_covariance,
    draw_dataset,
    emit_report,
    mix_seed,
    oracle_learner_specs,
    run_monte_carlo,
)
from .support_points import (
    FoldPlan,
    PolishStats,
    SpConfig,
    SplitResult,
    SpResult,
    compute_support_points,
    energy_two_sample,
    random_kfold,
    snap_to_rows,
    spss_kfold,
    spss_split,
)

__version__ = "0.1.0"
