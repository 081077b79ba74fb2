"""Cold claim-verification benchmark for spcthecke.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A workload is a fixed list of
(claim, bound) pairs from ``bench/workloads.json``.  Each claim runs the way
a user runs it: one cold ``spcthecke verify CLAIM --max-n N --jobs J``
process, started from this single parent, with at most ``nproc // J`` claim
processes at once.  The seed only permutes the launch order; the inputs are
exhaustive sweeps fixed by claim and bound, and the CLI never sees the seed.

``--trace 0`` runs whole passes over the workload until ``--seconds`` have
passed (every claim runs at least once), and prints the end-to-end metrics:

* ``setup_s``: median wall time of several cold ``verify --list`` processes;
* ``wall_s``: sum over claims of the fastest cold wall time, spawn to exit;
* ``cases_per_s``: sum of reported cases over ``wall_s``;
* ``cpu_s``: sum over claims of the least user+system time, pool workers
  included;
* ``peak_rss_mb``: largest resident set of any claim process;
* ``ok_frac``: claim runs that passed the output check over claim runs
  attempted (``1 - failed_frac``; ``failed`` and ``attempted`` are printed
  too).

``--trace 1`` runs every claim once under ``bench/layertrace.py`` (``--jobs 1``),
once untraced at ``--jobs 1`` for the tracing overhead, and, for a pooled
workload, once untraced at its own ``--jobs`` for the pool's CPU use, and
prints the per-layer metrics.

A claim run passes the output check when it exits 0 within the timeout and
its report says ``status: pass`` with the case count recorded for that claim
and bound.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
CLI = "import sys; from spcthecke.cli import main; sys.exit(main())"
SETUP_REPS = 11
CLAIM_TIMEOUT_S = 60.0
NPROC = len(os.sched_getaffinity(0))
_SERIAL = itertools.count()


@dataclass(frozen=True)
class Task:
    """One cold claim process."""

    claim: str
    max_n: int
    jobs: int
    trace: bool = False


@dataclass
class Result:
    task: Task
    ok: bool
    why: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    cases: int = 0
    trace_path: Path | None = None


@dataclass
class Spec:
    """A workload: its claims with their bounds, ``--jobs``, and the case
    count recorded for each claim and bound."""

    name: str
    claims: list[tuple[str, int]]
    jobs: int
    expected: dict[str, int]

    def expected_cases(self, claim: str, max_n: int) -> int:
        return self.expected[f"{claim}/{max_n}"]


def load_spec(name: str) -> Spec:
    data = json.loads((HERE / "workloads.json").read_text())
    w = data["workloads"][name]
    return Spec(name, [(c, n) for c, n in w["claims"]], w["jobs"], data["expected_cases"])


def check_report(stdout: str, exit_code: int, expected_cases: int) -> tuple[bool, str, int]:
    """The output check for one claim run: (passed, reason, reported cases)."""
    if exit_code != 0:
        return False, f"exit code {exit_code}", 0
    try:
        report = json.loads(stdout)
    except ValueError:
        return False, "report is not JSON", 0
    if not isinstance(report, dict):
        return False, "report is not a JSON object", 0
    cases = report.get("cases")
    if report.get("status") != "pass":
        return False, f"status {report.get('status')!r}", 0
    if cases != expected_cases:
        return False, f"{cases} cases, expected {expected_cases}", 0
    return True, "", cases


def failed_frac(results: list[Result]) -> float:
    return sum(not r.ok for r in results) / len(results)


@dataclass
class _Proc:
    task: Task
    pid: int
    t0: float
    out: Path
    trace_path: Path | None


class Launcher:
    """Runs claim processes, at most ``slots`` at a time, and times each one.

    Each process is started with ``posix_spawn`` in its own process group and
    watched through a pidfd, so its wall time runs from spawn to the moment it
    exits, and ``wait4`` gives its rusage, which includes the pool workers it
    waited for.
    """

    def __init__(self, spec: Spec, slots: int, env: dict[str, str], scratch: Path):
        self.spec = spec
        self.slots = max(1, slots)
        self.env = env
        self.scratch = scratch
        self.results: list[Result] = []

    def run(self, tasks) -> list[Result]:
        """Run every task the iterable yields; it is advanced as slots free up.

        Finished runs are appended to ``self.results`` as they end, which is
        also the list returned.
        """
        tasks = iter(tasks)
        running: dict[int, _Proc] = {}
        poller = select.poll()
        try:
            while True:
                while len(running) < self.slots and (task := next(tasks, None)) is not None:
                    pidfd, proc = self._spawn(task)
                    poller.register(pidfd, select.POLLIN)
                    running[pidfd] = proc
                if not running:
                    return self.results
                timeout = min(p.t0 for p in running.values()) + CLAIM_TIMEOUT_S - time.perf_counter()
                ready = [fd for fd, _ in poller.poll(max(0.0, timeout) * 1e3)]
                now = time.perf_counter()
                if not ready:
                    ready = [fd for fd, p in running.items() if now - p.t0 >= CLAIM_TIMEOUT_S]
                    for fd in ready:
                        os.killpg(running[fd].pid, signal.SIGKILL)
                for fd in ready:
                    proc = running.pop(fd)
                    poller.unregister(fd)
                    os.close(fd)
                    _, status, ru = os.wait4(proc.pid, 0)
                    self.results.append(self._result(proc, now - proc.t0, status, ru))
        finally:
            for pidfd, proc in running.items():
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                os.close(pidfd)

    def _spawn(self, task: Task) -> tuple[int, _Proc]:
        serial = next(_SERIAL)
        out = self.scratch / f"out-{serial}.json"
        args = ["verify", task.claim, "--max-n", str(task.max_n), "--jobs", str(task.jobs)]
        if task.trace:
            trace_path = self.scratch / f"trace-{serial}.pkl"
            argv = [sys.executable, str(HERE / "layertrace.py"), str(trace_path), task.claim, *args]
        else:
            trace_path = None
            argv = [sys.executable, "-c", CLI, *args]
        fd_out = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(
                sys.executable, argv, self.env, file_actions=[(os.POSIX_SPAWN_DUP2, fd_out, 1)], setpgroup=0
            )
        finally:
            os.close(fd_out)
        return os.pidfd_open(pid), _Proc(task, pid, t0, out, trace_path)

    def _result(self, proc: _Proc, wall: float, status: int, ru) -> Result:
        stdout = proc.out.read_text()
        proc.out.unlink()
        code = os.waitstatus_to_exitcode(status)
        if code == -signal.SIGKILL:
            ok, why, cases = False, f"timed out after {CLAIM_TIMEOUT_S:.0f} s", 0
        else:
            expected = self.spec.expected_cases(proc.task.claim, proc.task.max_n)
            ok, why, cases = check_report(stdout, code, expected)
        return Result(proc.task, ok, why, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, cases, proc.trace_path)


def timed_passes(claims: list[Task], seed: int, seconds: float, finished: list[Result]):
    """Yield passes over the claims, each in a seeded random order, for
    ``seconds``.

    Every claim starts at least once.  After that a claim starts only if its
    median wall time so far, read from ``finished``, lets it end before the
    deadline, so a run ends close to ``seconds`` whatever the claims' lengths.
    """
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    started: set[Task] = set()
    while True:
        launched = False
        for task in rng.sample(claims, len(claims)):
            walls = [r.wall_s for r in finished if r.task == task]
            expected_end = time.perf_counter() + (statistics.median(walls) if walls else 0.0)
            if task not in started or expected_end < deadline:
                started.add(task)
                launched = True
                yield task
        if not launched:
            return


def one_pass(claims: list[Task], seed: int) -> list[Task]:
    return random.Random(seed).sample(claims, len(claims))


@dataclass
class ClaimStats:
    best_wall_s: float
    median_wall_s: float
    best_cpu_s: float
    cases: int
    runs: int


def per_claim(results: list[Result]) -> dict[Task, ClaimStats]:
    by: dict[Task, list[Result]] = {}
    for r in results:
        by.setdefault(r.task, []).append(r)
    return {
        task: ClaimStats(
            min(r.wall_s for r in rs),
            statistics.median(r.wall_s for r in rs),
            min(r.cpu_s for r in rs),
            max(r.cases for r in rs),
            len(rs),
        )
        for task, rs in by.items()
    }


def end_to_end(results: list[Result], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of one run.

    A claim's time is its fastest cold run in the window.  On a shared
    2-core machine other tenants slowed single runs by up to 2x for seconds at
    a time; over the same runs, sums of per-claim medians spread 19% from run
    to run and sums of per-claim minima 5% (IQR over median, six seeds of
    ``combinatorial``).
    """
    stats = per_claim(results).values()
    wall = sum(c.best_wall_s for c in stats)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cases_per_s": sum(c.cases for c in stats) / wall,
        "cpu_s": sum(c.best_cpu_s for c in stats),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "ok_frac": 1.0 - failed_frac(results),
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "cases_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "share", "cpu_per_wall")):
        return "ratio"
    return "count"


def measure_setup(env: dict[str, str], reps: int) -> float:
    """Median wall time of cold ``verify --list`` processes (after one warm-up
    that also writes the bytecode cache)."""
    times = []
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, "-c", CLI, "verify", "--list"], env,
            file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
        )
        _, status = os.waitpid(pid, 0)
        times.append(time.perf_counter() - t0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit("error: `spcthecke verify --list` failed; is this a source checkout?")
    return statistics.median(times[1:])


def report_lines(results: list[Result]) -> list[str]:
    lines = []
    for task, c in sorted(per_claim(results).items(), key=repr):
        how = f"jobs {task.jobs}{' traced' if task.trace else ''}"
        lines.append(
            f"  {task.claim:20s} n={task.max_n} {how:14s} runs {c.runs:2d}  wall best {c.best_wall_s:7.3f} s"
            f"  median {c.median_wall_s:7.3f} s  cpu best {c.best_cpu_s:7.3f} s  cases {c.cases}"
        )
    lines += [f"  FAILED {r.task.claim} n={r.task.max_n}: {r.why}" for r in results if not r.ok]
    return lines


def trace_metrics(spec: Spec, seed: int, env: dict[str, str], scratch: Path) -> tuple[dict, list[Result]]:
    traced = [Task(c, n, 1, trace=True) for c, n in spec.claims]
    plain = [Task(c, n, 1) for c, n in spec.claims]
    results_traced = Launcher(spec, NPROC, env, scratch).run(one_pass(traced, seed))
    results_plain = Launcher(spec, NPROC, env, scratch).run(one_pass(plain, seed))
    all_results = results_traced + results_plain
    pool_results = results_plain
    if spec.jobs > 1:
        pooled = Launcher(spec, NPROC // spec.jobs, env, scratch)
        pool_results = pooled.run(one_pass([Task(c, n, spec.jobs) for c, n in spec.claims], seed))
        all_results += pool_results
    summary = layertrace.Summary()
    for r in results_traced:
        if r.ok:
            summary.add(layertrace.load(str(r.trace_path)))
    metrics = summary.metrics()
    metrics["verify.cases"] = sum(r.cases for r in results_traced)
    metrics["verify.pool.cpu_per_wall"] = sum(r.cpu_s for r in pool_results) / sum(r.wall_s for r in pool_results)
    metrics["trace.overhead_s"] = sum(r.wall_s for r in results_traced) - sum(r.wall_s for r in results_plain)
    return metrics, all_results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that running claim processes are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "spcthecke" / "cli.py").is_file():
        print(f"error: no spcthecke sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        spec = load_spec(args.workload)
    except KeyError:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # claim processes import from cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.trace:
            # fixed hashing so that the traced counts repeat exactly
            env["PYTHONHASHSEED"] = "0"
            measure_setup(env, 1)
            metrics, results = trace_metrics(spec, args.seed, env, SCRATCH)
            units = {name: layer_unit(name) for name in metrics}
        else:
            setup_s = measure_setup(env, SETUP_REPS)
            launcher = Launcher(spec, NPROC // spec.jobs, env, SCRATCH)
            tasks = [Task(c, n, spec.jobs) for c, n in spec.claims]
            results = launcher.run(timed_passes(tasks, args.seed, args.seconds, launcher.results))
            metrics = end_to_end(results, setup_s)
            units = UNITS
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    print(
        f"workload {spec.name} seed {args.seed} trace {args.trace}: python {platform.python_version()}, "
        f"nproc {NPROC}, {len(results)} claim runs, {failed} failed"
    )
    print("\n".join(report_lines(results)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
