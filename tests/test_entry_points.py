"""Every entry point rejects a malformed graph, task set, config or model file with ValueError.

The helpers a fit calls on every half step trust their arrays (see
``gamtl.graph``), so these checks are all that stands between a caller's
input and the solvers.
"""

import json

import numpy as np
import pytest

from gamtl.cli import main
from gamtl.data import Standardizer
from gamtl.evaluate import export_graph, import_graph
from gamtl.graph import vectorform
from gamtl.graph_learning import GraphLearningParams, learn_graph
from gamtl.model import FitTrace, GamtlConfig, GamtlModel, fit, grid_search_cv, load_model, model_to_dict
from gamtl.rbf import RbfFeatureMap, fit_rbf
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


def drop(key):
    return lambda payload: payload.pop(key)


# Each edit of a model file's JSON used to raise KeyError, TypeError or, for
# an int beyond float range, OverflowError, or to load: a note of another
# type, a number written as a string (parsed), true (read as 1.0) and a stage
# of another JSON type (turned into its repr).
MALFORMED_MODEL_FILES = {
    "no_W": (drop("W"), "model file has no W"),
    "no_A": (drop("A"), "model file has no A"),
    "no_task_ids": (drop("task_ids"), "model file has no task_ids"),
    "no_config": (drop("config"), "model file has no config"),
    "feature_map_without_widths": (lambda p: p["feature_map"].pop("widths"), "feature_map.widths is missing"),
    "feature_map_not_object": (lambda p: p.update(feature_map=5), "feature_map must be a JSON object"),
    "standardizer_without_std": (lambda p: p["standardizer"].pop("feature_std"), "standardizer.feature_std is missing"),
    "config_unknown_key": (lambda p: p["config"].update(surprise=1), "config.surprise is not a GamtlConfig field"),
    "config_gamma_string": (lambda p: p["config"].update(gamma="x"), "config.gamma must be a JSON number"),
    "trace_report_not_object": (
        lambda p: p["trace"].update(weight_reports=[5]), "trace.weight_reports item must be a JSON object"
    ),
    "note_not_string": (lambda p: p.update(notes=[1]), "note 1 is not a str"),
    "W_number_as_string": (lambda p: p["W"][0].__setitem__(0, "0.5"), "W item must be a JSON number, got str"),
    "W_bool": (lambda p: p["W"][1].__setitem__(2, True), "W item must be a JSON number, got bool"),
    "W_ragged": (lambda p: p.update(W=[[1.0, 2.0], [3.0]]), "W must be an array of numbers"),
    "A_number_as_string": (lambda p: p["A"].__setitem__(0, "1"), "A item must be a JSON number, got str"),
    "feature_map_center_as_string": (
        lambda p: p["feature_map"]["centers"][0].__setitem__(0, "0"),
        "feature_map.centers item must be a JSON number, got str",
    ),
    "feature_map_width_bool": (
        lambda p: p["feature_map"]["widths"].__setitem__(0, True),
        "feature_map.widths item must be a JSON number, got bool",
    ),
    "standardizer_mean_as_string": (
        lambda p: p["standardizer"]["feature_mean"].__setitem__(0, "0"),
        "standardizer.feature_mean item must be a JSON number, got str",
    ),
    "W_int_beyond_float": (lambda p: p["W"][0].__setitem__(0, 10**400), "W item is beyond float range"),
    "target_std_int_beyond_float": (
        lambda p: p["standardizer"].update(target_std=10**400), "standardizer.target_std is beyond float range"
    ),
    "stage_not_string": (
        lambda p: p["trace"].update(stages=[[1]]), "trace.stages item must be a JSON string, got list"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODEL_FILES))
def test_malformed_model_file_is_a_value_error_naming_the_field(case, tmp_path, capsys):
    model = GamtlModel(
        W=np.zeros((3, 3)), A=GOOD, task_ids=(0, 1, 2), config=GamtlConfig(), trace=FitTrace(),
        feature_map=RbfFeatureMap(centers=np.zeros((2, 1)), widths=np.ones(2)),
        standardizer=Standardizer(feature_mean=np.zeros(1), feature_std=np.ones(1)),
    )
    payload = json.loads(json.dumps(model_to_dict(model)))
    edit, message = MALFORMED_MODEL_FILES[case]
    edit(payload)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_model(path)
    # eval rejects the model before it reads the data path
    assert main(["eval", "--model", str(path), "--data", str(path)]) == 1
    assert f"malformed model file: {message}" in capsys.readouterr().err
