"""Command-line interface.

Subcommands: ``strategies`` (closed-form report for an ensemble file),
``sweep`` (failure-probability curve to CSV), ``boolean`` (the biased-vs-
balanced application), ``simulate`` (Monte Carlo outcome statistics).

Exit codes: 0 success, 2 invalid input (including an ensemble too large for
the available memory, reported as ``error: out of memory``), 3 infeasible
construction, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .boolfn import (
    ComplementVariant,
    PriorMode,
    approximate_povm_window,
    boolean_problem,
    classical_query_count,
    povm_advantage,
    wk_spec,
)
from .ensemble import FilteringProblem
from .ensemble_io import load_problem, save_problem
from .errors import InfeasibleError, InvalidInputError, NumericalError
from .neumark import (
    Outcome,
    SchemeKind,
    build_neumark,
    failure_allocations,
    povm_elements,
    projective_scheme,
)
from .simulate import aggregate_failure, simulate
from .strategies import CURVE_REGIMES, StrategyReport, failure_curve, optimal_filtering

SWEEP_HEADER = "S,Q_sqm1,Q_sqm2,Q_povm,Q_opt,regime"
# CSV rows in _fmt's format; the Q_povm cell is empty outside the POVM window.
_SWEEP_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g,POVM\n"
_SWEEP_ROW_NO_POVM = "%.12g,%.12g,%.12g,,%.12g,%s\n"
_SWEEP_CHUNK = 4096


def _fmt(x: float) -> str:
    """12 significant decimal digits: below analytic tolerances, above binary noise."""
    return f"{x:.12g}"


def _round12(value):
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round12(v) for v in value]
    return value


def _emit_json(payload: dict) -> None:
    print(json.dumps(_round12(payload), indent=2))


def _print_report_table(report: StrategyReport, priors) -> None:
    rows = [
        ("regime", report.regime.value),
        ("optimal_Q", _fmt(report.optimal_Q)),
        ("optimal_q1", _fmt(report.optimal_q1)),
        ("average_success", _fmt(report.average_success)),
        ("q_sqm1", _fmt(report.q_sqm1)),
        ("q_sqm2", _fmt(report.q_sqm2)),
        ("q_povm", _fmt(report.q_povm) if report.q_povm is not None else "-"),
        ("overlap_S", _fmt(report.overlap_S)),
        ("parallel_norm_f", _fmt(report.parallel_norm_f)),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    print(f"{'state':>5}  {'prior':>16}  {'q_fail':>16}  {'p_success':>16}")
    for i, (eta, q, p) in enumerate(
        zip(priors, report.per_state_failure, report.per_state_success)
    ):
        print(f"{i:>5}  {_fmt(eta):>16}  {_fmt(q):>16}  {_fmt(p):>16}")


def _cmd_strategies(args) -> int:
    problem = load_problem(args.input)
    report = optimal_filtering(problem)
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        _print_report_table(report, problem.priors)
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise InvalidInputError("steps must be >= 2")
    if not 0.0 <= args.smin < args.smax:
        raise InvalidInputError("need 0 <= smin < smax")
    grid = np.linspace(args.smin, args.smax, args.steps)
    curve = failure_curve(args.eta1, args.f, grid)
    names = np.array([r.value for r in CURVE_REGIMES])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for start in range(0, len(curve), _SWEEP_CHUNK):
            part = slice(start, start + _SWEEP_CHUNK)
            fh.write("".join(
                _SWEEP_ROW % (s, q1, q2, qp, qo) if regime == "POVM"
                else _SWEEP_ROW_NO_POVM % (s, q1, q2, qo, regime)
                for s, q1, q2, qp, qo, regime in zip(
                    curve.s[part].tolist(),
                    curve.q_sqm1[part].tolist(),
                    curve.q_sqm2[part].tolist(),
                    curve.q_povm[part].tolist(),
                    curve.q_opt[part].tolist(),
                    names[curve.regime_codes[part]].tolist(),
                )
            ))
    print(f"wrote {len(curve)} rows to {args.out}")
    return 0


def _cmd_boolean(args) -> int:
    mode = PriorMode(args.prior_mode)
    variant = ComplementVariant(args.variant)
    if mode == PriorMode.CUSTOM and args.eta1 is None:
        raise InvalidInputError("--prior-mode custom requires --eta1")
    problem = boolean_problem(args.n, args.k, mode, variant, eta1=args.eta1)
    report = optimal_filtering(problem)
    spec = wk_spec(args.n, args.k)
    advantage = povm_advantage(args.n, args.k)
    dj_queries, biased_queries = classical_query_count(args.n, args.k)
    eta1 = float(problem.priors[0])
    window_low, window_high, window_inside = approximate_povm_window(args.n, args.k, eta1)

    if args.export:
        save_problem(problem, args.export)

    payload = {
        "n": args.n,
        "k": args.k,
        "variant": variant.value,
        "prior_mode": mode.value,
        "eta1": eta1,
        "n_states": problem.n_states,
        "f_k": spec.f_k,
        "flip_boundary": spec.boundary,
        "overlap_S": report.overlap_S,
        "q_sqm1": report.q_sqm1,
        "q_sqm2": report.q_sqm2,
        "q_povm": report.q_povm,
        "regime": report.regime.value,
        "optimal_q1": report.optimal_q1,
        "optimal_Q": report.optimal_Q,
        "povm_advantage": {
            "exact_ratio": advantage.exact_ratio,
            "approx_ratio": advantage.approx_ratio,
            "relative_gap": advantage.relative_gap,
        },
        "classical_queries": {
            "balanced_vs_constant": dj_queries,
            "biased_vs_balanced": biased_queries,
        },
        "approx_povm_window": {
            "low": window_low,
            "high": window_high,
            "scaled_prior": 2**args.n * eta1,
            "inside": window_inside,
        },
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        flat = dict(payload)
        for group in ("povm_advantage", "classical_queries", "approx_povm_window"):
            sub = flat.pop(group)
            for key, value in sub.items():
                flat[f"{group}.{key}"] = value
        width = max(len(k) for k in flat)
        for key, value in flat.items():
            shown = _fmt(value) if isinstance(value, float) else value
            print(f"{key:<{width}}  {shown}")
    if args.export:
        print(f"exported ensemble to {args.export}", file=sys.stderr)
    return 0


def _build_scheme(problem: FilteringProblem, strategy: str):
    if strategy == "povm":
        report = optimal_filtering(problem)
        allocation = failure_allocations(problem, report.optimal_q1)
        model = build_neumark(problem, allocation)
        return povm_elements(model)
    kind = SchemeKind.SQM1 if strategy == "sqm1" else SchemeKind.SQM2
    return projective_scheme(problem, kind)


def _cmd_simulate(args) -> int:
    if args.trials < 1:
        raise InvalidInputError("trials must be >= 1")
    problem = load_problem(args.input)
    scheme = _build_scheme(problem, args.strategy)
    stats = simulate(scheme, problem, args.trials, args.seed)
    report = optimal_filtering(problem)
    fail_col = stats.outcomes.index(Outcome.FAIL)
    analytic_q = float(problem.priors @ stats.analytic_rates[:, fail_col])
    empirical_q = aggregate_failure(stats, problem.priors)

    if args.format == "json":
        payload = {
            "scheme": stats.scheme_kind.value,
            "trials_per_state": stats.trials_per_state,
            "seed": stats.seed,
            "outcomes": [o.value for o in stats.outcomes],
            "per_state": [
                {
                    "state": i,
                    "prior": float(problem.priors[i]),
                    "counts": {
                        o.value: int(stats.counts[i, j]) for j, o in enumerate(stats.outcomes)
                    },
                    "empirical": {
                        o.value: float(stats.empirical_rates[i, j])
                        for j, o in enumerate(stats.outcomes)
                    },
                    "analytic": {
                        o.value: float(stats.analytic_rates[i, j])
                        for j, o in enumerate(stats.outcomes)
                    },
                    "z": {
                        o.value: float(stats.z_scores[i, j])
                        for j, o in enumerate(stats.outcomes)
                    },
                }
                for i in range(problem.n_states)
            ],
            "misidentifications": stats.misidentifications,
            "aggregate": {
                "empirical_Q": empirical_q,
                "analytic_Q": analytic_q,
                "optimal_Q": report.optimal_Q,
            },
        }
        _emit_json(payload)
    else:
        print(
            f"scheme {stats.scheme_kind.value}  trials {stats.trials_per_state}  "
            f"seed {stats.seed}"
        )
        print(f"{'state':>5}  {'outcome':<13} {'count':>9}  {'empirical':>14}  "
              f"{'analytic':>14}  {'z':>8}")
        for i in range(problem.n_states):
            for j, outcome in enumerate(stats.outcomes):
                print(
                    f"{i:>5}  {outcome.value:<13} {int(stats.counts[i, j]):>9}  "
                    f"{stats.empirical_rates[i, j]:>14.6g}  "
                    f"{stats.analytic_rates[i, j]:>14.6g}  "
                    f"{stats.z_scores[i, j]:>8.3f}"
                )
        print(
            f"aggregate empirical Q {_fmt(empirical_q)}  analytic Q {_fmt(analytic_q)}  "
            f"misidentifications {stats.misidentifications}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfilter",
        description="Optimal unambiguous quantum state filtering toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("strategies", help="closed-form strategy report for an ensemble file")
    p.add_argument("--input", required=True, help="ensemble JSON file")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_strategies)

    p = sub.add_parser("sweep", help="failure-probability curve over the average overlap")
    p.add_argument("--eta1", type=float, required=True, help="target prior")
    p.add_argument("--f", type=float, required=True, help="target parallel squared norm")
    p.add_argument("--smin", type=float, required=True)
    p.add_argument("--smax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("boolean", help="biased-vs-balanced Boolean function discrimination")
    p.add_argument("--n", type=int, required=True, help="bit count")
    p.add_argument("--k", type=int, required=True, help="bias level")
    p.add_argument(
        "--prior-mode",
        choices=[m.value for m in PriorMode],
        default=PriorMode.EQUAL_STATES_BASIS.value,
    )
    p.add_argument("--eta1", type=float, default=None, help="target prior for custom mode")
    p.add_argument(
        "--variant",
        choices=[v.value for v in ComplementVariant],
        default=ComplementVariant.BASIS.value,
    )
    p.add_argument("--export", default=None, help="write the constructed ensemble file here")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_boolean)

    p = sub.add_parser("simulate", help="Monte Carlo simulation of one strategy")
    p.add_argument("--input", required=True, help="ensemble JSON file")
    p.add_argument("--strategy", choices=("sqm1", "sqm2", "povm"), required=True)
    p.add_argument("--trials", type=int, required=True, help="trials per true state")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())
