"""Command-line interface.

Subcommands: ``strategies`` (closed-form report for an ensemble file),
``sweep`` (failure-probability curve to CSV), ``boolean`` (the biased-vs-
balanced application), ``simulate`` (Monte Carlo outcome statistics).

Exit codes: 0 success, 2 invalid input (including an ensemble too large for
the available memory, reported as ``error: out of memory``), 3 infeasible
construction, 4 numerical failure.

Each handler imports the modules it uses when it runs, so a subcommand loads
only its own modules and ``--help`` loads no numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import InfeasibleError, InvalidInputError, NumericalError

SWEEP_HEADER = "S,Q_sqm1,Q_sqm2,Q_povm,Q_opt,regime"
_SWEEP_CHUNK = 4096
# The values of boolfn's PriorMode and ComplementVariant, default first, spelled
# out so that the parser needs no boolfn; tests/test_cli.py pins them to the enums.
PRIOR_MODES = ("equal-states-basis", "equal-sets", "equal-states-full", "custom")
VARIANTS = ("basis", "full")


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


def _print_report_table(report, priors) -> None:
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
    from .ensemble_io import load_problem
    from .strategies import optimal_filtering

    problem = load_problem(args.input)
    report = optimal_filtering(problem)
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        _print_report_table(report, problem.priors)
    return 0


def _cmd_sweep(args) -> int:
    import numpy as np

    from .strategies import CURVE_REGIMES, Regime, failure_curve

    if args.steps < 2:
        raise InvalidInputError("steps must be >= 2")
    if not (0.0 <= args.smin < args.smax and math.isfinite(args.smax)):
        raise InvalidInputError(
            f"need finite 0 <= smin < smax, got smin={args.smin!r}, smax={args.smax!r}"
        )
    # Per CURVE_REGIMES code, a CSV row in _fmt's format and the curve columns it
    # prints; the Q_povm cell is empty outside the POVM window.
    sweep_rows = tuple(
        ("%.12g,%.12g,%.12g,%.12g,%.12g,POVM\n", ("s", "q_sqm1", "q_sqm2", "q_povm", "q_opt"))
        if r is Regime.POVM
        else (f"%.12g,%.12g,%.12g,,%.12g,{r.value}\n", ("s", "q_sqm1", "q_sqm2", "q_opt"))
        for r in CURVE_REGIMES
    )
    grid = np.linspace(args.smin, args.smax, args.steps)
    curve = failure_curve(args.eta1, args.f, grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for start in range(0, len(curve), _SWEEP_CHUNK):
            codes = curve.regime_codes[start:start + _SWEEP_CHUNK]
            cuts = [0, *(np.flatnonzero(np.diff(codes)) + 1).tolist(), len(codes)]
            for lo, hi in zip(cuts, cuts[1:]):  # one % call per run of one regime
                row, names = sweep_rows[codes[lo]]
                rows = slice(start + lo, start + hi)
                values = np.column_stack([getattr(curve, n)[rows] for n in names]).ravel()
                fh.write((row * (hi - lo)) % tuple(values.tolist()))
    print(f"wrote {len(curve)} rows to {args.out}")
    return 0


def _cmd_boolean(args) -> int:
    from .boolfn import approximate_povm_window, boolean_problem, classical_query_count
    from .boolfn import povm_advantage, wk_spec
    from .ensemble_io import save_problem
    from .strategies import optimal_filtering

    problem = boolean_problem(args.n, args.k, args.prior_mode, args.variant, eta1=args.eta1)
    report = optimal_filtering(problem)
    spec = wk_spec(args.n, args.k)
    advantage = povm_advantage(args.n, args.k)
    dj_queries, biased_queries = classical_query_count(args.n, args.k)
    eta1 = float(problem.priors[0])
    window = approximate_povm_window(args.n, args.k, eta1)

    if args.export:
        save_problem(problem, args.export)

    payload = {
        "n": args.n,
        "k": args.k,
        "variant": args.variant,
        "prior_mode": args.prior_mode,
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
        "povm_advantage": advantage._asdict(),
        "classical_queries": {
            "balanced_vs_constant": dj_queries,
            "biased_vs_balanced": biased_queries,
        },
        "approx_povm_window": window._asdict(),
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


def _build_scheme(problem, strategy: str):
    from .neumark import SchemeKind, build_neumark, failure_allocations, povm_elements
    from .neumark import projective_scheme
    from .strategies import optimal_filtering

    if strategy == "povm":
        report = optimal_filtering(problem)
        allocation = failure_allocations(problem, report.optimal_q1)
        model = build_neumark(problem, allocation)
        return povm_elements(model)
    kind = SchemeKind.SQM1 if strategy == "sqm1" else SchemeKind.SQM2
    return projective_scheme(problem, kind)


def _json_float(x: float) -> str:
    """``x`` as ``_emit_json`` spells it: rounded to 12 digits, non-finite as ``json`` does."""
    r = float(_fmt(x))
    return repr(r) if math.isfinite(r) else json.dumps(r)


def _simulate_json(stats, priors, empirical_q: float, analytic_q: float, optimal_q: float):
    """Head, per-state entries and end of the report ``_emit_json`` would print.

    The keys before and after ``per_state`` are encoded by ``json`` itself;
    each state's entry fills a fixed template at the same indentation, so no
    whole-report payload or string is built.
    """
    names = [o.value for o in stats.outcomes]
    head = {
        "scheme": stats.scheme_kind.value,
        "trials_per_state": stats.trials_per_state,
        "seed": stats.seed,
        "outcomes": names,
    }
    cells = ",\n".join(f"        {json.dumps(n)}: %s" for n in names)
    template = '    {\n      "state": %d,\n      "prior": %s,\n' + ",\n".join(
        f'      "{key}": {{\n{cells}\n      }}' for key in ("counts", "empirical", "analytic", "z")
    ) + "\n    }"
    rates = (stats.empirical_rates, stats.analytic_rates, stats.z_scores)
    tail = {
        "misidentifications": stats.misidentifications,
        "aggregate": {
            "empirical_Q": empirical_q,
            "analytic_Q": analytic_q,
            "optimal_Q": optimal_q,
        },
    }

    def state(i: int) -> str:
        values = [i, _json_float(priors[i]), *stats.counts[i].tolist()]
        for column in rates:
            values += map(_json_float, column[i].tolist())
        return (",\n" if i else "") + template % tuple(values)

    # A top-level dict dumps as "{\n" + its keys + "\n}"; the report splices the
    # per_state list between the two halves.
    return (
        json.dumps(_round12(head), indent=2)[:-2] + ',\n  "per_state": [\n',
        state,
        "\n  ],\n" + json.dumps(_round12(tail), indent=2)[2:] + "\n",
    )


def _simulate_table(stats, empirical_q: float, analytic_q: float):
    """Head, per-state rows and end of the ``--format table`` report."""
    head = (
        f"scheme {stats.scheme_kind.value}  trials {stats.trials_per_state}  "
        f"seed {stats.seed}\n"
        f"{'state':>5}  {'outcome':<13} {'count':>9}  {'empirical':>14}  "
        f"{'analytic':>14}  {'z':>8}\n"
    )

    def state(i: int) -> str:
        return "".join(
            f"{i:>5}  {outcome.value:<13} {int(stats.counts[i, j]):>9}  "
            f"{stats.empirical_rates[i, j]:>14.6g}  "
            f"{stats.analytic_rates[i, j]:>14.6g}  "
            f"{stats.z_scores[i, j]:>8.3f}\n"
            for j, outcome in enumerate(stats.outcomes)
        )

    tail = (
        f"aggregate empirical Q {_fmt(empirical_q)}  analytic Q {_fmt(analytic_q)}  "
        f"misidentifications {stats.misidentifications}\n"
    )
    return head, state, tail


def _cmd_simulate(args) -> int:
    from .ensemble_io import load_problem
    from .neumark import Outcome
    from .simulate import _run_arguments, aggregate_failure, simulate
    from .strategies import optimal_filtering

    # Bad --trials or --seed exits before the file is read or the scheme built.
    trials, seed = _run_arguments(args.trials, args.seed)
    problem = load_problem(args.input)
    scheme = _build_scheme(problem, args.strategy)
    stats = simulate(scheme, problem, trials, seed)
    fail_col = stats.outcomes.index(Outcome.FAIL)
    analytic_q = float(problem.priors @ stats.analytic_rates[:, fail_col])
    empirical_q = aggregate_failure(stats, problem.priors)

    if args.format == "json":
        optimal_q = optimal_filtering(problem).optimal_Q  # only the JSON report prints it
        head, state, end = _simulate_json(
            stats, problem.priors, empirical_q, analytic_q, optimal_q
        )
    else:
        head, state, end = _simulate_table(stats, empirical_q, analytic_q)
    # The report is written as it is produced, one state at a time.
    write = sys.stdout.write
    write(head)
    for i in range(problem.n_states):
        write(state(i))
    write(end)
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
        choices=PRIOR_MODES,
        default=PRIOR_MODES[0],
    )
    p.add_argument(
        "--eta1", type=float, default=None, help="target prior; only used with --prior-mode custom"
    )
    p.add_argument(
        "--variant",
        choices=VARIANTS,
        default=VARIANTS[0],
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
