"""Compare linear and RBF-lifted fits on the nonlinear agent-network benchmark.

Simulates the 10-agent Wiener network, splits each agent's stream into
train/test halves, and fits the graph-regularized model twice per seed: once
on the raw features and once through the radial-basis lift.  Reports per-seed
and aggregate RMSE, the RBF win count, and optionally an independent ridge
baseline.

Usage:
    python3 scripts/run_wiener_comparison.py --out results/wiener
"""

import argparse
import json
from pathlib import Path

from gamtl.data import WIENER_SPLIT_RATIO, benchmark_splits
from gamtl.evaluate import benchmark, fit_independent_ridge, report_to_dict
from gamtl.model import PINNED_CONFIGS, fit
from gamtl.rbf import fit_rbf

PINNED = PINNED_CONFIGS["wiener"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--samples", type=int, help="samples per agent (default: WienerNetworkSpec's)")
    parser.add_argument("--split", type=float, default=WIENER_SPLIT_RATIO)
    parser.add_argument("--centers", type=int, default=None, help="RBF centers (default sqrt rule)")
    parser.add_argument("--with-ridge", action="store_true", help="also run the ridge baseline")
    parser.add_argument("--out", type=Path, default=None, help="directory for the JSON report")
    args = parser.parse_args(argv)
    options = {"split_ratio": args.split}
    if args.samples is not None:
        options["n_samples"] = args.samples

    def make_data(seed):
        return benchmark_splits("wiener", seed, **options)

    echo = {
        "gamma": PINNED.gamma,
        "alpha": PINNED.graph_params.alpha,
        "beta": PINNED.graph_params.beta,
        "split_ratio": args.split,
    }
    linear = benchmark(
        make_data, lambda train, seed: fit(train, PINNED), "gamtl", args.runs, args.base_seed, echo
    )
    lifted = benchmark(
        make_data,
        lambda train, seed: fit_rbf(train, PINNED, P=args.centers),
        "rbf-gamtl",
        args.runs,
        args.base_seed,
        dict(echo, num_centers=args.centers),
    )
    reports = [linear, lifted]
    if args.with_ridge:
        reports.append(
            benchmark(
                make_data,
                lambda train, seed: fit_independent_ridge(train, PINNED.ridge_lambda),
                "independent-ridge",
                args.runs,
                args.base_seed,
                {"ridge_lambda": PINNED.ridge_lambda},
            )
        )

    print(f"=== wiener network ({args.runs} runs, split {args.split}) ===")
    for rep in reports:
        print(f"  {rep.method:<18} RMSE {rep.mean:.4f} +/- {rep.std:.4f}")
    wins = sum(
        r < l for r, l in zip(lifted.rmse_values, linear.rmse_values)
    )
    print(f"  rbf-gamtl beats gamtl in {wins}/{len(linear.rmse_values)} replicates")
    for seed, lin_v, rbf_v in zip(linear.seeds, linear.rmse_values, lifted.rmse_values):
        print(f"    seed {seed}: linear {lin_v:.4f}  rbf {rbf_v:.4f}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "wiener_comparison.json"
        payload = {"reports": [report_to_dict(r) for r in reports], "rbf_wins": wins}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
