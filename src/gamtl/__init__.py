"""Joint multi-task regression and sparse task-graph learning.

Fits one linear model per task while learning a weighted task-adjacency
matrix that says which tasks inform each other.  The two are estimated
together by alternating exact block minimizations of a single bi-convex
objective: a graph-regularized least-squares solve for the weights and a
damped Newton solve of the log-degree-barrier graph problem's dual for the
graph.  An optional shared RBF feature lift handles nonlinear tasks.

Every name exported here checks its arguments; the helpers a fit calls on
trusted arrays are imported from their modules.
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
    benchmark,
    export_graph,
    fit_independent_ridge,
    graph_recovery_score,
    import_graph,
    outlier_candidates,
    rmse,
)
from .graph import matrixform, smoothness, validate_adjacency, vectorform
from .graph_learning import GraphLearningParams, GraphSolveReport, learn_graph
from .model import FitTrace, GamtlConfig, GamtlModel, fit, load_model, save_model
from .rbf import RbfFeatureMap, fit_rbf, kmeans_centers, transform
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
    "RbfFeatureMap",
    "SynSpec",
    "TaskDataset",
    "WienerNetworkSpec",
    "benchmark",
    "export_graph",
    "fit",
    "fit_independent_ridge",
    "fit_rbf",
    "gen_syn1",
    "gen_syn2",
    "gen_wiener_network",
    "graph_recovery_score",
    "import_graph",
    "kmeans_centers",
    "learn_graph",
    "load_csv_tasks",
    "load_model",
    "matrixform",
    "outlier_candidates",
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
