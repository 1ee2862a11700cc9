"""Run the 10-seed synthetic benchmarks and report RMSE plus graph recovery.

Reproduces the two 20-task regression benchmarks with the pinned tuned
configurations, compares against the independent ridge baseline on the same
seeds, and summarizes how well the learned graphs match the planted
structure (group recovery and outlier flagging for the clustered generator,
ring-neighbor recovery for the rotating one).

Usage:
    python3 scripts/run_synthetic_benchmarks.py --out results/synthetic
"""

import argparse
import json
from pathlib import Path

import numpy as np

from gamtl.data import SYN1_GROUPS, benchmark_splits
from gamtl.evaluate import (
    benchmark,
    fit_independent_ridge,
    graph_recovery_score,
    outlier_candidates,
    report_to_dict,
)
from gamtl.model import PINNED_CONFIGS, GamtlConfig, fit

OUTLIER_SCALE = 0.02


def ring_top3_fraction(A):
    T = A.shape[0]
    hits = 0
    for t in range(T):
        row = A[t].copy()
        row[t] = -np.inf
        top3 = set(np.argsort(-row)[:3].tolist())
        hits += {(t - 1) % T, (t + 1) % T} <= top3
    return hits / T


def run_family(name, args):
    config = PINNED_CONFIGS[name]
    options = {
        k: getattr(args, k) for k in ("n_train", "n_test", "noise_std") if getattr(args, k) is not None
    }

    def make_data(seed):
        return benchmark_splits(name, seed, **options)

    models = []

    def make_model(train, seed):
        model = fit(train, config)
        models.append(model)
        return model

    echo = {
        "gamma": config.gamma,
        "alpha": config.graph_params.alpha,
        "beta": config.graph_params.beta,
    }
    ours = benchmark(make_data, make_model, "gamtl", args.runs, args.base_seed, echo)
    ridge = benchmark(
        make_data,
        lambda train, seed: fit_independent_ridge(train, args.ridge),
        "independent-ridge",
        args.runs,
        args.base_seed,
        {"ridge_lambda": args.ridge},
    )

    print(f"=== {name} ({args.runs} runs, seeds {args.base_seed}..{args.base_seed + args.runs - 1}) ===")
    print(f"  gamtl             RMSE {ours.mean:.3f} +/- {ours.std:.3f}")
    print(f"  independent-ridge RMSE {ridge.mean:.3f} +/- {ridge.std:.3f}")

    diagnostics = {}
    if name == "syn1":
        scores = [graph_recovery_score(m.A, SYN1_GROUPS) for m in models]
        flagged = [
            sorted(outlier_candidates(m.A, OUTLIER_SCALE * m.A.max())) for m in models
        ]
        hits = sum({18, 19} <= set(f) for f in flagged)
        print(f"  group recovery    mean {np.mean(scores):.3f}, per-seed {[round(s, 2) for s in scores]}")
        print(f"  outliers 18,19 flagged in {hits}/{len(models)} runs")
        diagnostics = {"recovery_scores": scores, "outlier_candidates": flagged}
    else:
        fractions = [ring_top3_fraction(m.A) for m in models]
        print(f"  ring top-3        mean {np.mean(fractions):.3f}, per-seed {[round(f, 2) for f in fractions]}")
        diagnostics = {"ring_top3_fractions": fractions}

    return {
        "reports": [report_to_dict(ours), report_to_dict(ridge)],
        "diagnostics": diagnostics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--n-train", type=int, help="default: SynSpec's")
    parser.add_argument("--n-test", type=int, help="default: SynSpec's")
    parser.add_argument("--noise-std", type=float, help="default: SynSpec's")
    parser.add_argument(
        "--ridge", type=float, default=GamtlConfig.ridge_lambda, help="baseline ridge strength"
    )
    parser.add_argument("--out", type=Path, default=None, help="directory for JSON reports")
    args = parser.parse_args(argv)

    payload = {name: run_family(name, args) for name in ("syn1", "syn2")}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "synthetic_benchmarks.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
