"""Joint multi-task regression and sparse task-graph learning.

Fits one linear model per task while learning a weighted task-adjacency
matrix that says which tasks inform each other.  The two are estimated
together by alternating exact block minimizations of a single bi-convex
objective: a graph-regularized least-squares solve for the weights and an
accelerated dual proximal-gradient solve with a log-degree barrier for the
graph.  An optional shared RBF feature lift handles nonlinear tasks.
"""

from .data import (
    CsvSchema,
    SynSpec,
    WienerNetworkSpec,
    gen_syn1,
    gen_syn2,
    gen_wiener_network,
    load_csv_tasks,
    save_tasks_csv,
    train_test_split,
)
from .evaluate import (
    BenchmarkReport,
    IndependentRidgeModel,
    benchmark,
    export_graph,
    fit_independent_ridge,
    graph_recovery_score,
    import_graph,
    outlier_candidates,
    rmse,
)
from .graph import (
    laplacian,
    matrixform,
    pairwise_sq_distances,
    smoothness,
    validate_adjacency,
    vectorform,
)
from .graph_learning import (
    GraphLearningParams,
    GraphSolveReport,
    default_initial_graph,
    graph_objective,
    learn_graph,
)
from .model import (
    FitTrace,
    GamtlConfig,
    GamtlModel,
    fit,
    joint_objective,
    load_model,
    save_model,
)
from .rbf import (
    RbfFeatureMap,
    fit_rbf,
    kmeans_centers,
    optimal_widths,
    transform,
)
from .weight_solver import (
    TaskDataset,
    ridge_independent,
    solve_weights,
    validate_tasks,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "CsvSchema",
    "FitTrace",
    "GamtlConfig",
    "GamtlModel",
    "GraphLearningParams",
    "GraphSolveReport",
    "IndependentRidgeModel",
    "RbfFeatureMap",
    "SynSpec",
    "TaskDataset",
    "WienerNetworkSpec",
    "benchmark",
    "default_initial_graph",
    "export_graph",
    "fit",
    "fit_independent_ridge",
    "fit_rbf",
    "gen_syn1",
    "gen_syn2",
    "gen_wiener_network",
    "graph_objective",
    "graph_recovery_score",
    "import_graph",
    "joint_objective",
    "kmeans_centers",
    "laplacian",
    "learn_graph",
    "load_csv_tasks",
    "load_model",
    "matrixform",
    "optimal_widths",
    "outlier_candidates",
    "pairwise_sq_distances",
    "ridge_independent",
    "rmse",
    "save_model",
    "save_tasks_csv",
    "smoothness",
    "solve_weights",
    "train_test_split",
    "transform",
    "validate_adjacency",
    "validate_tasks",
    "vectorform",
]
