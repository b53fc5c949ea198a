"""Catalogue of every metric the benchmark emits.

``BENCHMARK.json`` lists the same names, units and directions; the self-test
checks that the two agree. For each per-layer metric, ``moves`` names the
end-to-end metric it should move and ``on`` the workloads where it should.
Bounds live only in ``BENCHMARK.json``.

End-to-end times are host-adjusted: wall seconds scaled by ``REF_S`` over the
run's median time of a fixed reference task that does no qfilter work (see
``HostSpeed`` in ``harness.py``). Between runs minutes apart on a shared host
the wall times move by up to a quarter with other tenants' load; the adjusted
times move with the program only. The wall times are printed as ``*.wall``.

Per-layer metrics come from a traced run and are per op. ``<module>.<function>.s``
is self time: the function's span durations minus the time their child spans
(calls into other traced functions) cover, so layers do not count each other's
work. Counts are computed from sizes and repeat exactly for the same inputs
(on random-lib, whose ensembles differ per op, they are means over the ops run).
``cli.*`` figures come from the CLI child processes; ``cli.self_s`` is their
wall time minus one bare ``import qfilter`` per child minus the library time
of an in-process replay of the same subcommands. A layer a workload does not
reach reports 0. ``tall-cli`` is run by hand, not gated in ``BENCHMARK.json``;
the neumark layers it stresses also run, at N = D = 256, on ``boolean-cli``.
"""
from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""
    on: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("op_s.p50", "s", "lower"),
    Metric("ops_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

#: Printed beside END_TO_END but not compared between runs. ``ops`` is the
#: sample count and ``error_rate`` is 0 on a correct program, so neither can
#: carry a relative bound; ``attempted`` and ``failed`` in the result line
#: carry both. ``op_s.tail`` equals ``op_s.p50`` on the CLI workloads (fewer
#: than 100 ops a run), and on random-lib its ten-run spread reached 0.37 of
#: its median on a shared 2-core host, beyond any bound the gate allows.
#: The ``*.wall`` times and ``host.ref_s`` show what the host adjustment did.
REPORTED_ONLY = (
    Metric("op_s.tail", "s", "lower"),
    Metric("ops", "count", "higher"),
    Metric("error_rate", "ratio", "lower"),
    Metric("setup_s.wall", "s", "lower"),
    Metric("op_s.p50.wall", "s", "lower"),
    Metric("ops_per_s.wall", "1/s", "higher"),
    Metric("host.ref_s", "s", "lower"),
)

_P50 = "op_s.p50"
_CLI = "boolean-cli, tall-cli"

PER_LAYER = (
    Metric("boolfn.boolean_problem.s", "s", "lower", _P50, "boolean-cli"),
    Metric("boolfn.povm_advantage.s", "s", "lower", _P50, "boolean-cli"),
    Metric("ensemble.FilteringProblem.s", "s", "lower", _P50, _CLI),
    Metric("ensemble.decompose_target.s", "s", "lower", _P50, _CLI),
    Metric("strategies.optimal_filtering.s", "s", "lower", _P50, "boolean-cli"),
    Metric("strategies.optimal_filtering.calls", "count", "lower", _P50, "boolean-cli"),
    Metric("strategies.failure_curve.s", "s", "lower", _P50, "boolean-cli"),
    Metric("strategies.failure_curve.points", "count", "higher", _P50, "boolean-cli"),
    Metric("neumark.failure_allocations.s", "s", "lower", _P50, "boolean-cli"),
    Metric("neumark.povm_elements.s", "s", "lower", _P50, "boolean-cli"),
    Metric("neumark.success_gram.s", "s", "lower", f"{_P50}, peak_rss_mb", _CLI),
    Metric("neumark.build_neumark.s", "s", "lower", f"{_P50}, peak_rss_mb", _CLI),
    Metric("neumark.success_gram.bytes", "B", "lower", f"{_P50}, peak_rss_mb", _CLI),
    Metric("simulate.simulate.s", "s", "lower", "ops_per_s", "random-lib"),
    Metric("simulate.draws", "count", "higher", "ops_per_s", "random-lib"),
    Metric("simulate.draws_per_s", "1/s", "higher", "ops_per_s", "random-lib"),
    Metric("ensemble_io.load_problem.s", "s", "lower", _P50, _CLI),
    Metric("ensemble_io.save_problem.s", "s", "lower", _P50, "boolean-cli"),
    Metric("ensemble_io.bytes_read", "B", "lower", _P50, _CLI),
    Metric("ensemble_io.bytes_written", "B", "lower", _P50, "boolean-cli"),
    Metric("cli.import_s", "s", "lower", _P50, _CLI),
    Metric("cli.boolean.s", "s", "lower", _P50, "boolean-cli"),
    Metric("cli.strategies.s", "s", "lower", f"{_P50}, peak_rss_mb", _CLI),
    Metric("cli.simulate.s", "s", "lower", f"{_P50}, peak_rss_mb", _CLI),
    Metric("cli.sweep.s", "s", "lower", _P50, "boolean-cli"),
    Metric("cli.boolean.rss_mb", "MB", "lower", "peak_rss_mb", "boolean-cli"),
    Metric("cli.strategies.rss_mb", "MB", "lower", "peak_rss_mb", _CLI),
    Metric("cli.simulate.rss_mb", "MB", "lower", "peak_rss_mb", _CLI),
    Metric("cli.sweep.rss_mb", "MB", "lower", "peak_rss_mb", "boolean-cli"),
    Metric("cli.self_s", "s", "lower", _P50, _CLI),
    Metric("op.n_states", "count", "higher", "", "all"),
    Metric("op.dimension", "count", "higher", "", "all"),
    Metric("trace.overhead_s", "s", "lower", "", "all"),
)
