"""Command-line surface.

Subcommands: simulate, fit, cv-groups, evaluate, oracle.  Exit codes: 0 on
success, 2 on validation errors and on files that cannot be read or
written, 3 on solver non-convergence or infeasible programs.  All randomness
flows from --seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io, oracle, simulate
from .estimator import fit_with_config
from .exceptions import IoError, SolverError, ValidationError
from .grouping import consecutive_blocks, sample_groups
from .model import (
    MODE_CONSTRAINED,
    MODE_MAXIMAL,
    MODE_PENALIZED,
    Dataset,
    GroupSpec,
    PenaltyConfig,
    SupportSet,
    validate,
)
from .select import DEFAULT_G_TEST, DEFAULT_MIN_BLOCK, DEFAULT_SPLITS, cv_group_count
from .variance import cumulative_cross_product

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _default_support(p: int, scenario: str) -> SupportSet:
    """A small built-in coefficient support with a nonzero worst-case signal:
    a shared first component plus scenario-specific second components."""
    def vec(second):
        b = np.zeros(p)
        b[0] = 1.0
        if p > 1:
            b[1] = second
        return b

    if scenario == "jump":
        points = [vec(-0.8), vec(0.0), vec(0.8)]
    else:
        points = [vec(-0.5), vec(0.5)]
    return SupportSet(points=np.vstack(points), sigma=np.eye(p))


def _cmd_simulate(args) -> int:
    n, p, seed = args.n, args.p, args.seed
    if args.scenario != "figure2" and p < 1:  # figure2 has p = 2 built in
        raise ValidationError("p must be >= 1")
    if args.scenario == "figure2":
        out = simulate.gen_figure2(n, seed=seed, sigma_noise=args.sigma_noise)
        essential = out.support
    elif args.scenario == "mixture":
        support = _default_support(p, "mixture")
        out = simulate.gen_finite_mixture(n, p, support, sigma_noise=args.sigma_noise,
                                          seed=seed)
        essential = out.support
    elif args.scenario == "jump":
        support = _default_support(p, "jump")
        out = simulate.gen_jump_process(n, p, support, delta=args.delta,
                                        sigma_noise=args.sigma_noise, seed=seed)
        essential = out.support
    else:  # contaminated
        b_star = np.zeros(p)
        b_star[0] = 1.0
        out = simulate.gen_contaminated(n, p, b_star, [2.0 * b_star],
                                        epsilon=args.epsilon,
                                        sigma_noise=args.sigma_noise, seed=seed)
        essential = out.support
    io.write_csv_dataset(out.dataset, args.out)
    if args.truth_out:
        io.write_support(essential, args.truth_out, extra={
            "scenario": args.scenario,
            "seed": seed,
            "sigma_noise": args.sigma_noise,
            "assignments": [int(a) + 1 for a in out.assignments],
            "aligned": out.aligned,
        })
    print(f"wrote {out.dataset.n} observations with {out.dataset.p} predictors to {args.out}")
    return EXIT_OK


def _parse_groups(spec_text: str, dataset: Dataset, labels_spec, seed: int) -> GroupSpec:
    kind, _, rest = spec_text.partition(":")
    if kind == "labels":
        if labels_spec is None:
            raise ValidationError(
                "--groups labels:<col> needs the group column present in the data "
                "(pass the column name after 'labels:')")
        return labels_spec
    if kind == "blocks":
        try:
            G = int(rest)
        except ValueError:
            raise ValidationError(f"--groups blocks:<G> needs an integer, got {rest!r}") from None
        return consecutive_blocks(dataset.n, G)
    if kind == "random":
        parts = rest.split(",")
        usage = f"--groups random:<G>,<m>[,replacement], got {spec_text!r}"
        if len(parts) < 2 or parts[2:] not in ([], ["replacement"]):
            raise ValidationError(usage)
        try:
            G, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValidationError(usage) from None
        replacement = len(parts) == 3
        return sample_groups(dataset.n, G, m, replacement=replacement, seed=seed)
    raise ValidationError(f"unknown group spec {spec_text!r}")


def _parse_mode(mode_text: str):
    kind, _, rest = mode_text.partition(":")
    if kind == "maximal":
        return MODE_MAXIMAL, 0.0, None
    if kind not in ("lambda", "kappa"):
        raise ValidationError(f"unknown mode {mode_text!r}")
    try:
        value = float(rest)
    except ValueError:
        raise ValidationError(f"--mode {mode_text!r} needs a number after "
                              f"'{kind}:'") from None
    if kind == "lambda":
        return MODE_PENALIZED, value, None
    return MODE_CONSTRAINED, 0.0, value


def _load_data(args) -> tuple[Dataset, GroupSpec | None]:
    group_col = None
    if getattr(args, "groups", "").startswith("labels:"):
        group_col = args.groups.partition(":")[2]
    return io.read_csv(args.data, has_header=True, y_column=args.y_col,
                       group_column=group_col,
                       standardize=getattr(args, "standardize", False))


def _cmd_fit(args) -> int:
    dataset, label_spec = _load_data(args)
    spec = _parse_groups(args.groups, dataset, label_spec, args.seed)
    mode, lam, kappa = _parse_mode(args.mode)
    config = PenaltyConfig(q=args.penalty, mode=mode, lam=lam, kappa=kappa,
                           max_iter=args.max_iter, tol=args.tol)
    fit = fit_with_config(dataset, spec, config)
    io.write_fit(fit, args.out, groups=spec)
    print(f"fit written to {args.out} "
          f"(iterations {fit.iterations}, converged {fit.converged}, "
          f"worst group V {fit.group_V.min():.6g})")
    return EXIT_OK


def _cmd_cv_groups(args) -> int:
    dataset, _ = io.read_csv(args.data, has_header=True, y_column=args.y_col)
    if args.time_ordered:
        dataset = Dataset(X=dataset.X, Y=dataset.Y, time_ordered=True)
    try:
        candidates = [int(v) for v in args.candidates.split(",") if v]
    except ValueError:
        raise ValidationError(
            f"--candidates needs comma-separated integers, got {args.candidates!r}") from None
    mode, lam, kappa = _parse_mode(args.mode)
    config = PenaltyConfig(q=args.penalty, mode=mode, lam=lam, kappa=kappa)
    result = cv_group_count(dataset, candidates, splits=args.splits,
                            g_test=args.g_test, config=config, seed=args.seed,
                            min_block=args.min_block)
    print("G,score,stderr")
    for G, s, se in zip(result.candidates, result.scores, result.std_errors):
        print(f"{G},{s:.6g},{se:.6g}")
    print(f"chosen G: {result.chosen}")
    for G, k in zip(result.candidates, result.vanished):
        if k:
            print(f"G={G}: training fit vanished on {k} of {args.splits} splits")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    dataset, _ = io.read_csv(args.data, has_header=True, y_column=args.y_col)
    fit, spec = io.read_fit(args.fit)
    coef = fit.coefficients
    if coef.shape[0] != dataset.p:
        raise ValidationError(
            f"fit has {coef.shape[0]} coefficients but the data has p={dataset.p}")
    predictions = dataset.X @ coef
    if spec is not None:
        validate(dataset, spec)
        explained = predictions * (2.0 * dataset.Y - predictions)
        for g, idx in enumerate(spec.groups, start=1):
            print(f"group {g}: V {explained[idx].mean():.6g}")
    report = cumulative_cross_product(dataset.Y, predictions, standardize=True)
    print(f"overall standardized cross-product: {report.cumsum[-1]:.6g}")
    if args.emit_series:
        io.write_series(report, args.emit_series)
        print(f"series written to {args.emit_series}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    sigma = io.read_matrix_csv(args.sigma) if args.sigma else None
    support = io.read_support(args.support, sigma=sigma)
    if args.which == "pooled":
        beta = oracle.pooled_effect(support)
    elif args.which == "maximin":
        beta = oracle.maximin_effect(support)
    else:
        beta = oracle.pred_maximin_effect(support)
    print(io.canonical_json({"which": args.which, "beta": list(beta)}), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maximin",
        description="Worst-group (maximin) effects estimation for inhomogeneous data")
    sub = parser.add_subparsers(dest="command", required=True)
    default = PenaltyConfig()

    sim = sub.add_parser("simulate", help="generate a synthetic scenario")
    sim.add_argument("--scenario", required=True,
                     choices=["mixture", "jump", "contaminated", "figure2"])
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p", type=int, default=2)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--truth-out", default=None)
    sim.add_argument("--delta", type=float, default=0.01)
    sim.add_argument("--epsilon", type=float, default=0.1)
    sim.add_argument("--sigma-noise", type=float, default=0.1)
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit the worst-group estimator")
    fit.add_argument("--data", required=True)
    fit.add_argument("--y-col", default="y")
    fit.add_argument("--groups", required=True,
                     help="labels:<col> | blocks:<G> | random:<G>,<m>[,replacement]")
    fit.add_argument("--penalty", choices=["l1", "l2"], default=default.q)
    fit.add_argument("--mode", default="lambda:0",
                     help="lambda:<v> | kappa:<v> | maximal")
    fit.add_argument("--max-iter", type=int, default=default.max_iter)
    fit.add_argument("--tol", type=float, default=default.tol)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--standardize", action="store_true")
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=_cmd_fit)

    cv = sub.add_parser("cv-groups", help="cross-validate the number of groups")
    cv.add_argument("--data", required=True)
    cv.add_argument("--y-col", default="y")
    cv.add_argument("--candidates", default="2,3,5,10,20")
    cv.add_argument("--splits", type=int, default=DEFAULT_SPLITS)
    cv.add_argument("--g-test", type=int, default=DEFAULT_G_TEST)
    cv.add_argument("--min-block", type=int, default=DEFAULT_MIN_BLOCK)
    cv.add_argument("--penalty", choices=["l1", "l2"], default=default.q)
    cv.add_argument("--mode", default="maximal")
    cv.add_argument("--time-ordered", action="store_true")
    cv.add_argument("--seed", type=int, default=0)
    cv.set_defaults(func=_cmd_cv_groups)

    ev = sub.add_parser("evaluate", help="score a stored fit on a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--y-col", default="y")
    ev.add_argument("--fit", required=True)
    ev.add_argument("--emit-series", default=None)
    ev.set_defaults(func=_cmd_evaluate)

    orc = sub.add_parser("oracle", help="population effects for a known support")
    orc.add_argument("--support", required=True)
    orc.add_argument("--sigma", default=None)
    orc.add_argument("--which", required=True,
                     choices=["pooled", "maximin", "pred-maximin"])
    orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
