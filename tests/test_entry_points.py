"""Every entry point rejects a malformed graph, task set or config with ValueError.

The helpers a fit calls on every half step trust their arrays (see
``gamtl.graph``), so these checks are all that stands between a caller's
input and the solvers.
"""

import json

import numpy as np
import pytest

from gamtl.cli import main
from gamtl.evaluate import export_graph, import_graph
from gamtl.graph import vectorform
from gamtl.graph_learning import GraphLearningParams, learn_graph
from gamtl.model import FitTrace, GamtlConfig, GamtlModel, fit, grid_search_cv, load_model, model_to_dict
from gamtl.rbf import fit_rbf
from gamtl.weight_solver import TaskDataset, solve_weights

GOOD = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
CASES = ("asymmetric", "nonfinite", "negative", "1x1", "size_mismatch")


def malformed(case):
    M = GOOD.copy()
    if case == "asymmetric":
        M[0, 1] = 5.0
    elif case == "nonfinite":
        M[0, 1] = M[1, 0] = np.nan
    elif case == "negative":
        M[0, 1] = M[1, 0] = -1.0
    elif case == "1x1":
        M = np.zeros((1, 1))
    else:  # one node more than the three tasks
        M = np.ones((4, 4)) - np.eye(4)
    return M


def make_tasks(dims):
    rng = np.random.default_rng(0)
    return [
        TaskDataset(t, rng.standard_normal((d, 5)), rng.standard_normal(5))
        for t, d in enumerate(dims)
    ]


def import_graph_document(case, _):
    M = malformed(case)
    edges = [[i, j, M[i, j]] for i in range(len(M)) for j in range(i + 1, len(M))]
    import_graph(json.dumps({"n": len(M), "edges": edges, "isolated": []}))


def load_model_with_graph(case, tmp_path):
    model = GamtlModel(
        W=np.zeros((2, 3)), A=GOOD, task_ids=(0, 1, 2), config=GamtlConfig(), trace=FitTrace()
    )
    payload = model_to_dict(model)
    payload["A"] = vectorform(malformed(case)).tolist()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    # eval rejects the model before it reads the data path
    assert main(["eval", "--model", str(path), "--data", str(path)]) == 1
    load_model(path)


# For fit, "1x1" is a single task and "size_mismatch" a task of another
# feature dimension.  A model file and an exported document store each edge
# once, so neither can hold an asymmetric graph; export_graph and
# import_graph take no second size to mismatch.
ENTRY_POINTS = {
    "fit": (
        lambda case, _: fit(make_tasks((2,) if case == "1x1" else (2, 2, 3)), GamtlConfig()),
        ("1x1", "size_mismatch"),
    ),
    "learn_graph.Z": (
        lambda case, _: learn_graph(malformed(case), GraphLearningParams(), A0=GOOD),
        CASES,
    ),
    "learn_graph.A0": (
        lambda case, _: learn_graph(GOOD, GraphLearningParams(), A0=malformed(case)),
        CASES,
    ),
    "solve_weights": (
        lambda case, _: solve_weights(make_tasks((2, 2, 2)), malformed(case), gamma=1.0),
        CASES,
    ),
    "export_graph": (lambda case, _: export_graph(malformed(case)), CASES[:4]),
    "import_graph": (import_graph_document, CASES[1:4]),
    "load_model": (load_model_with_graph, CASES[1:]),
}


@pytest.mark.parametrize(
    "entry,case", [(entry, case) for entry, (_, cases) in ENTRY_POINTS.items() for case in cases]
)
def test_entry_point_rejects_malformed_input(entry, case, tmp_path):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError):
        call(case, tmp_path)


class UnreadTasks:
    """A task list that fails the test when it is read."""

    def __iter__(self):
        raise AssertionError("the tasks were read before the config was checked")


@pytest.mark.parametrize("config", [{"gamma": 0.1}, None], ids=["dict", "None"])
@pytest.mark.parametrize("entry", [fit, fit_rbf, grid_search_cv])
def test_fit_rejects_a_config_of_another_type_before_reading_tasks(entry, config):
    with pytest.raises(ValueError, match=f"config must be a GamtlConfig, got {type(config).__name__}"):
        entry(UnreadTasks(), config)
