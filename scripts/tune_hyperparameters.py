"""Grid-search gamma/alpha/beta by cross-validation on a chosen benchmark.

Draws one seeded training set from the requested generator and scores every
grid point by k-fold cross-validated pooled RMSE, printing the best
configuration and the top of the leaderboard.  Use this to re-derive or
extend ``gamtl.model.PINNED_CONFIGS``.

Usage:
    python3 scripts/tune_hyperparameters.py syn1 --folds 5 --top 10
"""

import argparse
import json
from pathlib import Path

from gamtl.data import BENCHMARKS, benchmark_splits
from gamtl.model import GamtlConfig, grid_search_cv


def parse_grid(text):
    return tuple(float(v) for v in text.split(","))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmark", choices=BENCHMARKS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--gammas", type=parse_grid, default=(1e-3, 1e-2, 1e-1, 1.0, 1e1))
    parser.add_argument("--alphas", type=parse_grid, default=(1e-1, 1.0, 1e1))
    parser.add_argument("--betas", type=parse_grid, default=(1e-2, 1e-1, 1.0))
    parser.add_argument("--top", type=int, default=10, help="leaderboard rows to print")
    parser.add_argument("--out", type=Path, default=None, help="file for the full JSON leaderboard")
    args = parser.parse_args(argv)

    tasks, _ = benchmark_splits(args.benchmark, args.seed)
    best, results = grid_search_cv(
        tasks,
        GamtlConfig(),
        gammas=args.gammas,
        alphas=args.alphas,
        betas=args.betas,
        n_folds=args.folds,
        seed=args.seed,
    )

    print(f"=== {args.benchmark} grid search ({len(results)} points, {args.folds} folds) ===")
    print(
        f"best: gamma {best.gamma:g}, alpha {best.graph_params.alpha:g}, "
        f"beta {best.graph_params.beta:g}"
    )
    print(f"{'gamma':>10} {'alpha':>10} {'beta':>10} {'cv_rmse':>10}")
    for row in results[: args.top]:
        print(f"{row['gamma']:>10g} {row['alpha']:>10g} {row['beta']:>10g} {row['cv_rmse']:>10.4f}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
