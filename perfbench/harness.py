"""Closed-loop measurement, bounded CLI child processes and summary statistics.

Nothing here imports numpy or qfilter, so ``run.py`` can pin the BLAS thread
count in the environment before either is loaded.
"""
from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Tail percentiles tried from the highest down; the first with at least
#: TAIL_MIN_BEYOND samples above it is reported. The ladder is coarse so that
#: runs of one workload, whose op counts vary with machine speed, report the
#: same percentile: random-lib always reaches p95, CLI sessions never p90.
TAIL_LADDER = (95.0, 90.0)
TAIL_MIN_BEYOND = 10


#: Between ops, a run times the reference task once per this many seconds
#: passed since it last did (at most REF_MAX_BURST times in a row), so its
#: samples are spread evenly over the run, whatever an op's length.
REF_INTERVAL_S = 0.5
REF_MAX_BURST = 10
#: Reference-task samples taken before set-up, so short runs have some.
REF_WARM_SAMPLES = 5
#: Median reference-task time on the host the benchmark was written on
#: (2-vCPU Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread) in a quiet
#: phase. Host-adjusted times are wall times scaled to that speed.
REF_S = 0.020


class OpFailed(Exception):
    """An op exited nonzero, timed out or produced output that fails a check."""


def pin_threads(count: int) -> None:
    """Pin BLAS/OpenMP pools in this process and every child it starts.

    Must run before numpy is first imported.
    """
    for key in THREAD_ENV:
        os.environ[key] = str(count)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    """Read HEAD without running git; checkouts without .git give None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    """Machine and toolchain facts recorded beside every result."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cpu_model": _cpu_model(),
        "nproc": usable_cpus(),
        "blas_threads": int(os.environ.get(THREAD_ENV[0], "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "git_sha": _git_sha(root),
        "seed": seed,
    }


@dataclass
class ChildResult:
    argv: list[str]
    returncode: int
    timed_out: bool
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class ChildRunner:
    """Runs ``python -m qfilter`` children against one source tree.

    Each child gets a wall-clock timeout and an address-space limit set with
    ``resource`` inside the child, so a path that grows out of bounds ends as
    a failed op instead of exhausting the machine. Peak RSS comes from the
    child's own rusage via ``wait4``.
    """

    def __init__(self, src: Path, work_dir: Path, timeout_s: float, as_limit_bytes: int):
        self.work_dir = work_dir
        self.timeout_s = timeout_s
        self.as_limit_bytes = as_limit_bytes
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def _limit(self) -> None:
        resource.setrlimit(resource.RLIMIT_AS, (self.as_limit_bytes, self.as_limit_bytes))

    def run(self, argv: list[str]) -> ChildResult:
        out_path = self.work_dir / "child.stdout"
        err_path = self.work_dir / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=self.work_dir,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                preexec_fn=self._limit,
            )
            timed_out = threading.Event()

            def expire():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(self.timeout_s, expire)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(
            argv=argv,
            returncode=proc.returncode,
            timed_out=timed_out.is_set(),
            wall_s=wall,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def cli(self, args: list[str]) -> ChildResult:
        """Run one qfilter subcommand; a nonzero exit fails the op."""
        result = self.run(["-m", "qfilter", *args])
        if result.returncode != 0:
            reason = f"timed out after {self.timeout_s:g} s" if result.timed_out else "failed"
            raise OpFailed(
                f"qfilter {args[0]} {reason} with exit code {result.returncode}: "
                f"{result.stderr.strip()[-300:]}"
            )
        return result

    def bare_import(self) -> ChildResult:
        result = self.run(["-c", "import qfilter"])
        if result.returncode != 0:
            raise OpFailed(f"import qfilter failed: {result.stderr.strip()[-300:]}")
        return result


class HostSpeed:
    """The host's current speed, from a fixed reference task timed between ops.

    On a shared host, other tenants' load slows every process by up to a
    quarter for minutes at a time, longer than one run. Wall times then move
    with the host between runs, which no amount of samples within a run can
    average out. The reference task does no qfilter work, so a change to the
    program cannot move it; timed in the same run as the ops, it measures
    the slowdown those ops saw, and ``adjust`` takes it out. It runs in the
    bench process: on the host the benchmark was written on, its median time
    was the same (within 4%) alone, between random-lib ops and after idling.
    Adjustment steadies in-process ops most; CLI children, which spend much
    of their time starting up, follow the task less closely.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(20030905)
        matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._gram = matrix @ matrix.conj().T
        self._probs = rng.dirichlet(np.ones(4))
        self.samples: list[float] = []
        self._last = -math.inf

    def _task(self) -> None:
        """Small dense eigensolves, seeded sampling and an interpreter loop:
        the kinds of work qfilter's ops spend their time in."""
        rng = self._np.random.default_rng(1)
        for _ in range(40):
            self._np.linalg.eigh(self._gram)
            rng.choice(4, size=20_000, p=self._probs)
            sum(i * i for i in range(2_000))

    def sample(self) -> None:
        start = time.perf_counter()
        self._task()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def between_ops(self) -> None:
        due = int((time.perf_counter() - self._last) / REF_INTERVAL_S)
        for _ in range(min(due, REF_MAX_BURST)):
            self.sample()

    @property
    def ref_s(self) -> float:
        return statistics.median(self.samples)

    def adjust(self, seconds: float) -> float:
        """``seconds`` of wall time expressed at the speed where the task takes REF_S."""
        return seconds * REF_S / self.ref_s


@dataclass
class LoopResult:
    durations: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def succeeded(self) -> int:
        return self.attempted - len(self.failures)


def closed_loop(
    prepare, run_op, check, seconds: float, max_ops: int | None = None, between_ops=None
) -> LoopResult:
    """Start op i+1 only when op i has finished, until ``seconds`` have passed.

    Only ``run_op(prepare(i))`` is timed; ``check(output)`` and
    ``between_ops()`` run after the timed region. Every exception from
    ``run_op`` or ``check`` is recorded as a failed op, never dropped.
    """
    loop = LoopResult()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds and (max_ops is None or loop.attempted < max_ops):
        inputs = prepare(loop.attempted)
        start = time.perf_counter()
        try:
            output = run_op(inputs)
        except Exception:  # boundary: a failed op is recorded and the run goes on
            loop.durations.append(time.perf_counter() - start)
            loop.failures.append(traceback.format_exc(limit=4))
            continue
        loop.durations.append(time.perf_counter() - start)
        try:
            check(output)
        except Exception:  # boundary: a failed check is recorded and the run goes on
            loop.failures.append(traceback.format_exc(limit=4))
        if between_ops is not None:
            between_ops()
    return loop


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest ladder percentile with at least ten samples beyond it.

    Nearest-rank. With fewer than ten samples beyond even p90 the median is
    reported instead, labelled ``p50``.
    """
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            rank = math.ceil(n * pct / 100.0)
            return ordered[rank - 1], f"p{pct:g}"
    return statistics.median(ordered), "p50"
