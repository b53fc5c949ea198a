"""The benchmark's three workloads, each stressing different qfilter layers.

``boolean-cli``  the user's path through the paper's Boolean study: four CLI
                 children per op on n = 8, k = 3 (N = D = 256), so process
                 start, ``boolfn``, Gram-Schmidt at N = D, the sweep's CSV
                 formatting and ensemble file I/O dominate.
``random-lib``   in-process pipeline on one random ensemble (D, N <= 16) per
                 op at 10^5 trials per state, so per-draw sampling dominates.
``tall-cli``     ``strategies`` and ``simulate`` children on a set-up file
                 with N = 1025 states in D = 16, so the N x N Gram check and
                 success Gram dominate time and peak memory. Run by hand; not
                 gated in ``BENCHMARK.json`` (see ``run.py``).

Inputs come only from the workload seed. Output checks are invariants (exit
status, zero misidentifications, analytic FAIL rate equal to the optimum,
regime, sweep shape), never golden counts, so a change of RNG stream keeps
them valid.
"""
from __future__ import annotations

import io
import json
import random
import resource
import shutil
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qfilter
from qfilter import cli

from harness import ChildRunner, OpFailed

#: Address-space limit of every CLI child. A correct child here peaks near
#: 250 MB of address space (tall-cli simulate); a path that grows as N^2 or
#: N^3 hits this limit and fails the op instead of exhausting the machine.
CHILD_AS_LIMIT = 2 << 30
#: Wall-clock limit of every CLI child: several times the slowest child's
#: time (tall-cli simulate, 2-4 s on a shared 2-core host), and small enough
#: that a 55 s run whose last op times out on all four boolean-cli children
#: still ends within 180 s.
CHILD_TIMEOUT_S = 20.0
Q_TOL = 1e-9
SWEEP_HEADER = "S,Q_sqm1,Q_sqm2,Q_povm,Q_opt,regime"


@dataclass(frozen=True)
class Scale:
    """Problem sizes of all workloads; FULL is measured, TINY is for the self-test."""

    bool_n: int
    bool_k: int
    bool_trials: int
    sweep_eta1: float
    sweep_f: float
    sweep_smax: float
    sweep_steps: int
    tall_functions: int
    tall_trials: int
    random_trials: int


FULL = Scale(
    bool_n=8, bool_k=3, bool_trials=10_000,
    sweep_eta1=0.00390625, sweep_f=0.4375, sweep_smax=0.01, sweep_steps=100_001,
    tall_functions=1024, tall_trials=1000,
    random_trials=100_000,
)
TINY = Scale(
    bool_n=3, bool_k=3, bool_trials=200,
    sweep_eta1=0.125, sweep_f=0.4375, sweep_smax=0.2, sweep_steps=101,
    tall_functions=32, tall_trials=100,
    random_trials=1000,
)


@dataclass
class TraceLog:
    """What a traced run measures outside the spans."""

    child_wall: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    child_rss: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    import_walls: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    untraced_s: list[float] = field(default_factory=list)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class Workload:
    """Set-up, one op and its output check; subclasses fill these in."""

    name = ""

    def __init__(self, root: Path, work_dir: Path, seed: int, scale: Scale = FULL):
        self.work_dir = work_dir
        self.seed = seed
        self.scale = scale
        self.runner = ChildRunner(root / "src", work_dir, CHILD_TIMEOUT_S, CHILD_AS_LIMIT)
        self.n_states = 0
        self.dimension = 0

    def reset_work_dir(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int):
        raise NotImplementedError

    def run_op(self, inputs):
        raise NotImplementedError

    def check(self, output) -> None:
        raise NotImplementedError

    def traced_op(self, inputs, tracer, log: TraceLog):
        raise NotImplementedError


def _replay(args: list[str]) -> None:
    """Run one CLI subcommand in this process, discarding its output."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(args)
    if code != 0:
        raise OpFailed(f"replayed qfilter {args[0]} exited {code}: {err.getvalue()[-300:]}")


def _strategies_report(stdout: str) -> dict:
    report = json.loads(stdout)
    if report["regime"] != "POVM":
        raise OpFailed(f"strategies regime {report['regime']}, expected POVM")
    return report


def _check_simulation(stdout: str, optimal_q: float) -> None:
    payload = json.loads(stdout)
    if payload["misidentifications"] != 0:
        raise OpFailed(f"{payload['misidentifications']} misidentifications")
    analytic_q = sum(s["prior"] * s["analytic"]["FAIL"] for s in payload["per_state"])
    if abs(analytic_q - optimal_q) > Q_TOL:
        raise OpFailed(f"analytic FAIL rate {analytic_q!r} != optimal_Q {optimal_q!r}")


class CliSession(Workload):
    """An op is a fixed sequence of ``python -m qfilter`` children.

    A traced op also replays the same subcommands in this process under the
    tracer, and once more untraced, to give library spans and the tracing
    overhead.
    """

    peak_rss_mb = 0.0  # largest child RSS seen

    def commands(self, ensemble: Path, curve: Path | None, sim_seed: int) -> list[list[str]]:
        raise NotImplementedError

    def replay_paths(self) -> tuple[Path, Path | None]:
        """Files the in-process replay reads or writes, apart from the children's."""
        raise NotImplementedError

    def prepare(self, index: int) -> int:
        return random.Random(f"{self.seed}:{index}").randrange(2**31)

    def run_op(self, sim_seed: int) -> dict:
        results = {}
        for args in self.commands(self.ensemble, self.curve, sim_seed):
            results[args[0]] = self.runner.cli(args)
        self.peak_rss_mb = max([self.peak_rss_mb] + [r.maxrss_mb for r in results.values()])
        return results

    def traced_op(self, sim_seed: int, tracer, log: TraceLog) -> dict:
        results = self.run_op(sim_seed)
        for sub, result in results.items():
            log.child_wall[sub] += result.wall_s
            log.child_rss[sub] = max(log.child_rss[sub], result.maxrss_mb)
        log.import_walls.append(self.runner.bare_import().wall_s)
        replay = self.commands(*self.replay_paths(), sim_seed)

        def traced():
            with tracer.instrument():
                for args in replay:
                    with tracer.span(f"cli.{args[0]}"):
                        _replay(args)

        def untraced():
            for args in replay:
                _replay(args)

        _traced_and_untraced(tracer.op, traced, untraced, log)
        return results


def _traced_and_untraced(index: int, traced, untraced, log: TraceLog) -> None:
    """Time both variants, alternating which goes first so neither gets warmer caches."""
    if index % 2:
        log.untraced_s.append(_timed(untraced))
        log.traced_s.append(_timed(traced))
    else:
        log.traced_s.append(_timed(traced))
        log.untraced_s.append(_timed(untraced))


class BooleanCli(CliSession):
    name = "boolean-cli"

    def setup(self) -> None:
        self.reset_work_dir()
        self.ensemble = self.work_dir / "boolean.json"
        self.curve = self.work_dir / "curve.csv"
        self.n_states = self.dimension = 2**self.scale.bool_n
        self.runner.bare_import()

    def replay_paths(self):
        return self.work_dir / "replay.json", self.work_dir / "replay.csv"

    def commands(self, ensemble, curve, sim_seed):
        s = self.scale
        return [
            ["boolean", "--n", str(s.bool_n), "--k", str(s.bool_k), "--export", str(ensemble)],
            ["strategies", "--input", str(ensemble)],
            ["simulate", "--input", str(ensemble), "--strategy", "povm",
             "--trials", str(s.bool_trials), "--seed", str(sim_seed), "--format", "json"],
            ["sweep", "--eta1", repr(s.sweep_eta1), "--f", repr(s.sweep_f), "--smin", "0",
             "--smax", repr(s.sweep_smax), "--steps", str(s.sweep_steps), "--out", str(curve)],
        ]

    def check(self, results: dict) -> None:
        report = _strategies_report(results["strategies"].stdout)
        exported = json.loads(results["boolean"].stdout)
        if abs(exported["optimal_Q"] - report["optimal_Q"]) > Q_TOL:
            raise OpFailed("boolean and strategies disagree on optimal_Q")
        _check_simulation(results["simulate"].stdout, report["optimal_Q"])
        with open(self.curve, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            rows = sum(1 for _ in fh)
        if header != SWEEP_HEADER or rows != self.scale.sweep_steps:
            raise OpFailed(f"sweep CSV header {header!r} with {rows} rows")


def tall_problem(seed: int, n_functions: int) -> qfilter.FilteringProblem:
    """The n = 4, k = 3 biased target against distinct balanced functions.

    The functions are drawn with the seed from all 12,870 balanced functions
    at n = 4; complement priors are uniform and the target prior is 0.1,
    which puts the ensemble in the POVM regime.
    """
    spec = qfilter.wk_spec(4, 3)
    balanced = qfilter.enumerate_balanced(4)
    picks = np.random.default_rng(seed).choice(len(balanced), size=n_functions, replace=False)
    states = [spec.vector] + [qfilter.dj_encode(balanced[i]) for i in sorted(picks)]
    priors = np.full(n_functions + 1, 0.9 / n_functions)
    priors[0] = 0.1
    return qfilter.FilteringProblem(states=tuple(states), priors=priors)


class TallCli(CliSession):
    name = "tall-cli"

    def setup(self) -> None:
        self.reset_work_dir()
        self.ensemble = self.work_dir / "tall.json"
        self.curve = None
        problem = tall_problem(self.seed, self.scale.tall_functions)
        qfilter.save_problem(problem, self.ensemble)
        self.n_states, self.dimension = problem.n_states, problem.dimension
        self.runner.bare_import()

    def replay_paths(self):
        return self.ensemble, None  # an input only: the replay reads the same file

    def commands(self, ensemble, curve, sim_seed):
        return [
            ["strategies", "--input", str(ensemble)],
            ["simulate", "--input", str(ensemble), "--strategy", "povm",
             "--trials", str(self.scale.tall_trials), "--seed", str(sim_seed),
             "--format", "json"],
        ]

    def check(self, results: dict) -> None:
        report = _strategies_report(results["strategies"].stdout)
        _check_simulation(results["simulate"].stdout, report["optimal_Q"])


def random_problem(rng, max_dim: int = 16, max_states: int = 16) -> qfilter.FilteringProblem:
    """A random complex ensemble with priors drawn from [0.1, 1], normalized.

    Same distribution as ``random_problem`` in the test suite's conftest.
    """
    d = int(rng.integers(2, max_dim + 1))
    n = int(rng.integers(2, max_states + 1))
    raw = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    priors = rng.uniform(0.1, 1.0, size=n)
    priors /= priors.sum()
    return qfilter.FilteringProblem(
        states=tuple(qfilter.StateVector(row) for row in raw), priors=priors
    )


class RandomLib(Workload):
    name = "random-lib"

    def setup(self) -> None:
        self.reset_work_dir()
        self.rng = np.random.default_rng(self.seed)
        self.n_total = self.d_total = self.ops = 0
        self.runner.bare_import()
        warm = random_problem(np.random.default_rng([self.seed, 1]))
        self.check(self.run_op((warm, 0)))  # warm-up op, outside the op stream

    def prepare(self, index: int):
        problem = random_problem(self.rng)
        self.ops += 1
        self.n_total += problem.n_states
        self.d_total += problem.dimension
        self.n_states, self.dimension = self.n_total / self.ops, self.d_total / self.ops
        return problem, index

    def run_op(self, inputs):
        problem, sim_seed = inputs
        report = qfilter.optimal_filtering(problem)
        allocation = qfilter.failure_allocations(problem, report.optimal_q1)
        scheme = qfilter.povm_elements(qfilter.build_neumark(problem, allocation))
        stats = qfilter.simulate(scheme, problem, self.scale.random_trials, sim_seed)
        return problem, report, stats

    @property
    def peak_rss_mb(self) -> float:
        """Peak RSS of this process, which runs every op."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, output) -> None:
        problem, report, stats = output
        if stats.misidentifications != 0:
            raise OpFailed(f"{stats.misidentifications} misidentifications")
        fail = stats.outcomes.index(qfilter.Outcome.FAIL)
        analytic_q = float(problem.priors @ stats.analytic_rates[:, fail])
        if abs(analytic_q - report.optimal_Q) > Q_TOL:
            raise OpFailed(f"analytic FAIL rate {analytic_q!r} != optimal_Q {report.optimal_Q!r}")

    def traced_op(self, inputs, tracer, log: TraceLog):
        outputs = []

        def traced():
            with tracer.instrument():
                outputs.append(self.run_op(inputs))

        _traced_and_untraced(tracer.op, traced, lambda: self.run_op(inputs), log)
        return outputs[0]


WORKLOADS = {w.name: w for w in (BooleanCli, RandomLib, TallCli)}
