"""Benchmark of gamtl: three workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout (no install needed, the package is loaded
from ``src/``):

    python3 perfbench/run.py --workload {syn1,wiener_rbf,cli} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  perfbench/README.md says what each metric should move.
"""

import time

START = time.perf_counter()  # set-up is timed from here to the first timed op

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy loads, here and in every child process.
os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"  # scratch space of the CLI workload, removed at the end
WORKLOADS = ("syn1", "wiener_rbf", "cli")
FRESH_SETUPS = 2  # set-ups per run besides this process's own; one per core
IMPORT_SAMPLES = 3
REFERENCE_ITERS = 20000
REFERENCE_S = 0.27  # the reference loop's mean time on the reference machine
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def make_workload(name, runs_dir):
    import workloads

    if name == "syn1":
        return workloads.Syn1()
    if name == "wiener_rbf":
        return workloads.WienerRbf()
    return workloads.Cli(child_env(), runs_dir)


class Tally:
    """Ops attempted and failed, their outcomes, and every failed check."""

    def __init__(self, workload_name):
        self.name = workload_name
        self.attempted = 0
        self.failed = 0
        self.outcomes = []
        self.problems = []

    def problem(self, where, exc):
        self.problems.append(f"{self.name} {where}: {type(exc).__name__}: {exc}")


def reference_loop_s():
    """Wall time of a fixed loop of small numpy and interpreter work.

    The loop uses numpy alone, never gamtl, so no change to the package
    moves it. Like the package's inner loops it makes many calls on small
    vectors, so it slows down with the machine the way they do.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    S, z = rng.random((20, 190)), rng.random(190)
    w = np.ones(190)
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERS):
        d = S @ w
        w = np.maximum(w - 0.01 * (0.02 * w + z - S.T @ (1.0 / np.maximum(d, 1e-10))), 0.0)
    return time.perf_counter() - start


def timed_rounds(workload, items, seconds, tally):
    """Run whole rounds of ops until ``seconds`` have passed.

    For a workload that runs in this process, the reference loop runs, timed
    apart, before every op. Returns the op times and the reference loop's
    times.
    """
    import workloads

    times, reference = [], []
    start = time.perf_counter()
    while True:
        outcomes = []
        for item in items:
            if workload.in_process:
                reference.append(reference_loop_s())
            t = time.perf_counter()
            try:
                outcome, payload = workload.run_op(item)
            except Exception as exc:  # noqa: BLE001 -- a crashing op is reported, not fatal
                outcome, payload = workloads.Outcome(), None
                tally.problem(f"op on data seed {item.seed} raised", exc)
            times.append(time.perf_counter() - t)
            if payload is not None:
                try:
                    workload.check_op(item, outcome, payload)
                except Exception as exc:  # noqa: BLE001
                    tally.problem(f"check of data seed {item.seed}", exc)
            outcomes.append(outcome)
        try:
            workload.check_round(items, outcomes)
        except Exception as exc:  # noqa: BLE001
            tally.problem("round check", exc)
        workload.end_round(items)
        tally.attempted += len(outcomes)
        tally.failed += sum(not o.converged for o in outcomes)
        tally.outcomes.extend(outcomes)
        if time.perf_counter() - start >= seconds:
            return times, reference


def op_seconds(times, reference):
    """Mean op time, rescaled from this machine's speed to the reference speed.

    The speed of the shared machine drifts by a third within minutes, for
    this process as a whole. The mean of the reference loop's times over the
    same minutes follows that drift, and dividing by it takes it out;
    multiplying by REFERENCE_S, the loop's time on the reference machine,
    keeps the figure in seconds. Whole rounds repeat the same ops, so the
    mean weighs every data seed alike.

    Without reference times, for ops run in child processes that the
    scheduler may put on another core than the loop's, it is the plain mean.
    """
    if not reference:
        return statistics.fmean(times)
    return REFERENCE_S * statistics.fmean(times) / statistics.fmean(reference)


def check_against_ridge(tally):
    gamtl_rmse = statistics.fmean(o.test_rmse for o in tally.outcomes)
    ridge_rmse = statistics.fmean(o.ridge_rmse for o in tally.outcomes)
    if not gamtl_rmse < ridge_rmse:
        tally.problems.append(
            f"{tally.name}: mean test RMSE {gamtl_rmse} is not below independent ridge {ridge_rmse}"
        )


def fresh_setups_s(args):
    """Set-up times of fresh processes running this workload's set-up.

    They run side by side, one per core on a 2-core machine, so a run pays
    for one set-up instead of two; each is slowed a little by the other.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(FRESH_SETUPS)]
    try:
        outputs = [proc.communicate(timeout=CHILD_TIMEOUT_S) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for proc, (stdout, stderr) in zip(procs, outputs):
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, argv, stdout, stderr)
    return [json.loads(stdout.strip().splitlines()[-1])["setup_s"] for stdout, _ in outputs]


def bare_import_s():
    """Wall time of `python -c "import gamtl.cli"` in a fresh process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gamtl.cli"], env=child_env(),
                   timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload, items, warm_item, ready_s):
    tally = Tally(args.workload)
    times, reference = timed_rounds(workload, items, args.seconds, tally)
    if reference:
        print(f"raw: mean op {statistics.fmean(times):.4f} s, mean reference loop "
              f"{statistics.fmean(reference):.4f} s over {len(times)} ops", file=sys.stderr)
    peak_mb = workload.peak_mem_mb(warm_item, tally.outcomes)
    setups = [ready_s]
    try:
        setups += fresh_setups_s(args)
    except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
        tally.problem("fresh set-up", exc)
    check_against_ridge(tally)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_s": metric(op_seconds(times, reference), "s"),
        "test_rmse": metric(statistics.fmean(o.test_rmse for o in tally.outcomes), "target"),
        "peak_mem_mb": metric(peak_mb, "MB"),
    }
    return tally, metrics


def per_layer(args, workload, items, warm_item, order):
    import tracing

    tally = Tally(args.workload)
    untraced = timed_rounds(workload, items, args.seconds, tally)
    tracer = tracing.Tracer()
    items, n_inputs = workload.start_tracing(tracer, order)
    start = len(tally.outcomes)
    traced = timed_rounds(workload, items, args.seconds, tally)
    outcomes = tally.outcomes[start:]
    n_ops = len(outcomes)
    summary = tracing.summarize(tracer.spans)
    kmeans_peak = 0
    if workload.uses_rbf:
        first = len(tracer.spans)
        workload.peak_mem_mb(warm_item, outcomes)  # under tracemalloc, spans record their peak
        kmeans_peak = max(s["peak_bytes"] for s in tracer.spans[first:] if s["name"] == "rbf.kmeans")
    tracer.uninstall()
    check_against_ridge(tally)
    import_s = statistics.median(bare_import_s() for _ in range(IMPORT_SAMPLES))
    return tally, layer_metrics(summary, n_ops, n_inputs or n_ops, outcomes, kmeans_peak,
                                import_s, op_seconds(*traced) - op_seconds(*untraced))


def layer_metrics(summary, n_ops, n_inputs, outcomes, kmeans_peak_bytes, import_s, overhead_s):
    """Per-op layer figures from the traced ops' spans."""

    def total(name, key="self_s"):
        return summary.get(name, {}).get(key, 0)

    def per_op(name, key="self_s"):
        return total(name, key) / n_ops

    def ratio_us(name, key):
        return 1e6 * total(name) / total(name, key) if total(name, key) else 0.0

    def mean_of(getter):
        return statistics.fmean(getter(o) for o in outcomes)

    s, count = "s", "count"
    return {
        "graph_learning.time_s": metric(per_op("graph_learning"), s),
        "graph_learning.calls": metric(per_op("graph_learning", "calls"), count),
        "graph_learning.iters": metric(per_op("graph_learning", "iters"), count),
        "graph_learning.us_per_iter": metric(ratio_us("graph_learning", "iters"), "us"),
        "graph_learning.capped": metric(per_op("graph_learning", "capped"), count),
        "weight_solver.time_s": metric(per_op("weight_solver"), s),
        "weight_solver.cg_iters": metric(per_op("weight_solver", "cg_iters"), count),
        "weight_solver.us_per_cg_iter": metric(ratio_us("weight_solver", "cg_iters"), "us"),
        "weight_solver.ridge_time_s": metric(per_op("weight_solver.ridge"), s),
        "rbf.kmeans_time_s": metric(per_op("rbf.kmeans"), s),
        "rbf.kmeans_peak_mb": metric(kmeans_peak_bytes / 2**20, "MB"),
        "rbf.widths_time_s": metric(per_op("rbf.widths"), s),
        "rbf.lift_time_s": metric(per_op("rbf.lift"), s),
        "model.self_s": metric(per_op("model.fit") + per_op("model.fit_rbf"), s),
        "model.outer_iters": metric(per_op("model.fit", "outer_iters"), count),
        "model.objective_time_s": metric(per_op("model.objective"), s),
        "model.objective_calls": metric(per_op("model.objective", "calls"), count),
        "graph.distances_time_s": metric(per_op("graph.distances"), s),
        "graph.distances_calls": metric(per_op("graph.distances", "calls"), count),
        "data.generate_time_s": metric(total("data.generate") / n_inputs, s),
        "data.write_time_s": metric(per_op("data.write"), s),
        "data.load_time_s": metric(per_op("data.load"), s),
        "data.csv_bytes": metric(mean_of(lambda o: o.sizes.get("csv_bytes", 0)), "bytes"),
        "evaluate.rmse_time_s": metric(per_op("evaluate.rmse"), s),
        "cli.import_s": metric(import_s, s),
        "cli.synth_s": metric(mean_of(lambda o: o.command_s.get("synth", 0.0)), s),
        "cli.fit_s": metric(mean_of(lambda o: o.command_s.get("fit", 0.0)), s),
        "cli.eval_s": metric(mean_of(lambda o: o.command_s.get("eval", 0.0)), s),
        "cli.export_s": metric(mean_of(lambda o: o.command_s.get("export", 0.0)), s),
        "cli.model_json_bytes": metric(mean_of(lambda o: o.sizes.get("model_json_bytes", 0)), "bytes"),
        "trace.overhead_s": metric(overhead_s, s),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="sets the order of a round's ops")
    parser.add_argument("--seconds", type=float, required=True, help="measure whole rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print per-layer metrics of a traced run instead")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gamtl" / "cli.py").is_file():
        print(f"error: no gamtl sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    runs_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS))
    workload = make_workload(args.workload, runs_dir)
    try:
        order = list(workload.seeds)
        random.Random(args.seed).shuffle(order)
        items = workload.prepare(order)
        warm_item = next(i for i in items if i.seed == workload.seeds[0])
        workload.warm_up(warm_item)
        ready_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": ready_s}))
            return 0
        if args.trace:
            tally, metrics = per_layer(args, workload, items, warm_item, order)
        else:
            tally, metrics = end_to_end(args, workload, items, warm_item, ready_s)
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass  # another run still uses it
    for line in tally.problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
