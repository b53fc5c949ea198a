"""qfilter benchmark: one workload per run, timed end to end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload boolean-cli --seed 1 --seconds 55 --trace 0

``--trace 0`` sets the workload up several times (reporting the median as
``setup_s``), then runs a closed loop of ops for ``--seconds`` and reports the
end-to-end metrics. Their times are host-adjusted (see ``HostSpeed`` in
``harness.py``); the wall times they come from are printed beside them.
``--trace 1`` runs the same loop with spans recorded around calls into
qfilter and reports the per-layer metrics, in wall time; the spans are
written to ``perfbench/.work/<workload>/trace.json``. Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``metrics.py`` names every metric.

The program under test is the ``src/qfilter`` tree of the current directory;
without one the benchmark exits with code 2 and prints no result.
``python3 perfbench/selftest.py`` checks the harness itself at tiny sizes.

``BENCHMARK.json`` gates ``boolean-cli`` and ``random-lib``. ``tall-cli``
(N >> D, where the N x N success Gram dominates) runs the same way but is not
gated, so that the two gated workloads get 55 s runs: a CLI workload's 3-4 s
ops give too few samples a run for a steady median in less.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from harness import REF_WARM_SAMPLES, HostSpeed, closed_loop, environment, pin_threads, tail
from metrics import END_TO_END, PER_LAYER, REPORTED_ONLY

#: BLAS/OpenMP threads in the bench process and every child (at most nproc).
#: Ops run one at a time, and one thread keeps each timing on one core.
BLAS_THREADS = 1
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("boolean-cli", "random-lib", "tall-cli")


def positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program(root: Path):
    """Import qfilter from ``root/src`` only; None when that tree is absent."""
    src = root / "src"
    if not (src / "qfilter" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import qfilter

    if Path(qfilter.__file__).resolve().parent != (src / "qfilter").resolve():
        return None
    return qfilter


def timed_setups(workload) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def end_to_end(workload, seconds: float, max_ops: int | None = None):
    host = HostSpeed()
    for _ in range(REF_WARM_SAMPLES):
        host.sample()
    setups = timed_setups(workload)
    loop = closed_loop(
        workload.prepare, workload.run_op, workload.check, seconds, max_ops, host.between_ops
    )
    durations = loop.durations
    tail_value, tail_label = tail(durations)
    setup_s = statistics.median(setups)
    p50_s = statistics.median(durations)
    busy_s = sum(durations)
    values = {
        "setup_s": host.adjust(setup_s),
        "op_s.p50": host.adjust(p50_s),
        "op_s.tail": host.adjust(tail_value),
        "ops_per_s": loop.succeeded / host.adjust(busy_s),
        "peak_rss_mb": workload.peak_rss_mb,
        "ops": loop.attempted,
        "error_rate": len(loop.failures) / loop.attempted,
        "setup_s.wall": setup_s,
        "op_s.p50.wall": p50_s,
        "ops_per_s.wall": loop.succeeded / busy_s,
        "host.ref_s": host.ref_s,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_s.p50": f"{loop.attempted} samples",
        "op_s.tail": f"{tail_label}, {loop.attempted} samples",
        "ops_per_s": f"{loop.succeeded} ops in {busy_s:.3f} s busy",
        "error_rate": f"{len(loop.failures)} failed of {loop.attempted}",
        "host.ref_s": f"median of {len(host.samples)} reference tasks",
    }
    return loop, values, notes, END_TO_END + REPORTED_ONLY


def per_layer(workload, seconds: float, trace_path: Path, max_ops: int | None = None):
    from spans import TARGETS, Tracer, span_name
    from workloads import TraceLog

    workload.setup()
    tracer, log = Tracer(), TraceLog()

    def prepare(index):
        tracer.op = index
        with tracer.instrument():
            return workload.prepare(index)

    loop = closed_loop(
        prepare, lambda inputs: workload.traced_op(inputs, tracer, log), workload.check,
        seconds, max_ops,
    )
    tracer.dump(trace_path)
    ops = loop.attempted
    self_times = tracer.self_times()
    values = {}
    for module, attribute, counts in TARGETS:
        name = span_name(module, attribute)
        values[f"{name}.s"] = self_times.get(name, 0.0) / ops
        for count_name, _ in counts:
            values[count_name] = tracer.counts.get(count_name, 0.0) / ops
    sim_s = self_times.get("simulate.simulate", 0.0)
    values["simulate.draws_per_s"] = tracer.counts["simulate.draws"] / sim_s if sim_s else 0.0

    # CLI layer: child processes measured from outside, library spans replayed.
    import_s = statistics.mean(log.import_walls) if log.import_walls else 0.0
    for sub in ("boolean", "strategies", "simulate", "sweep"):
        values[f"cli.{sub}.s"] = log.child_wall.get(sub, 0.0) / ops
        values[f"cli.{sub}.rss_mb"] = log.child_rss.get(sub, 0.0)
    values["cli.import_s"] = import_s
    covered = tracer.child_time()
    library = sum(c for s, c in zip(tracer.spans, covered) if s.name.startswith("cli."))
    children = sum(log.child_wall.values())
    starts = len(log.child_wall) * len(log.import_walls)
    values["cli.self_s"] = (children - starts * import_s - library) / ops if children else 0.0
    values["op.n_states"] = float(workload.n_states)
    values["op.dimension"] = float(workload.dimension)
    # Paired per op, so a host slowdown between ops does not show as overhead.
    pairs = [t - u for t, u in zip(log.traced_s, log.untraced_s)]
    values["trace.overhead_s"] = statistics.median(pairs) if pairs else 0.0
    notes = {"trace.overhead_s": "median over ops of traced minus untraced in-process time"}
    return loop, values, notes, PER_LAYER


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    pin_threads(BLAS_THREADS)
    if load_program(root) is None:
        print(f"error: no qfilter source tree at {root / 'src'}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    work_dir = root / "perfbench" / ".work" / args.workload
    workload = WORKLOADS[args.workload](root, work_dir, args.seed)
    env = environment(root, args.seed)
    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload} seconds {args.seconds:g} trace {args.trace}")

    if args.trace:
        loop, values, notes, catalogue = per_layer(workload, args.seconds, work_dir / "trace.json")
    else:
        loop, values, notes, catalogue = end_to_end(workload, args.seconds)
    for metric in catalogue:
        print(f"{metric.name:<36} {values[metric.name]:>14.6g} {metric.unit:<6} "
              f"{notes.get(metric.name, '')}")
    print(f"# ops attempted {loop.attempted} failed {len(loop.failures)}")
    for failure in loop.failures[:5]:
        print(f"# failed op:\n{failure}", file=sys.stderr)

    print(json.dumps(result_line(loop, values, PER_LAYER if args.trace else END_TO_END)))
    return 0


def result_line(loop, values: dict, catalogue) -> dict:
    """The last stdout line: op counts and every catalogued metric with its unit."""
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue},
    }


if __name__ == "__main__":
    sys.exit(main())
