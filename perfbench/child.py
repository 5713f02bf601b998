"""Child processes of the benchmark (``python -m perfbench.child``).

``setup``    a fresh interpreter times ``import repro``, plan building,
             opening the store and readying the backend, and prints the
             phase times as one JSON line.
``measure``  runs one workload for ``--seconds`` and prints its
             measurements as one JSON line (``--trace 1``: the per-layer
             ledger instead of the end-to-end metrics).  With
             ``--probes N`` it also asks ``run.py`` for N set-up probes,
             spread between its repetitions (see :class:`Probes`).
``record``   runs every workload once at the default seed and rewrites
             ``perfbench/expected.json`` from the verdicts.

Run from the repository root with ``src`` and the root on
``PYTHONPATH``; ``perfbench/run.py`` does that.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter


def setup(args) -> dict:
    """Time the set-up phases in this fresh interpreter."""
    start = perf_counter()
    from perfbench import workloads  # imports repro
    imported = perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.jobs,
                                                  Path(args.workdir))
    workload.build_plans()
    planned = perf_counter()
    if workload.uses_store:
        store = workload.open_store(f"probe-{os.getpid()}")
        store.close()
        (workload.workdir / f"probe-{os.getpid()}.sqlite").unlink()
    opened = perf_counter()
    # A pool starts with its first submission; a no-op map over one
    # item per worker brings the workers up and down once.
    list(workload.runner.map(abs, range(args.jobs)))
    ready = perf_counter()
    return {
        "cli.import_s": imported - start,
        "runtime.plan.build_s": planned - imported,
        "campaigns.store.open_s": opened - planned,
        "runtime.backends.start_s": ready - opened,
        "setup_s": ready - start,
    }


#: The line a measuring child prints to ask ``run.py`` for one set-up
#: probe; ``run.py`` answers with one line on the child's stdin once the
#: probe has ended.
PROBE_REQUEST = "perfbench:probe"


class Probes:
    """Set-up probes spread through the measuring loop.

    The machine's speed drifts over seconds, so probes taken back to
    back all see the same speed.  Here they are taken between
    repetitions, in step with the measured time: once ``t`` of
    ``seconds`` is measured, ``count * t / seconds`` probes are done.
    Probes run in ``run.py`` (a sibling, not a child, so the measuring
    child's peak-memory figure never sees them) while this process
    waits, and the time waited is not measured time.
    """

    def __init__(self, count: int, seconds: float) -> None:
        self.count = count
        self.seconds = seconds
        self.done = 0
        self.start = perf_counter()
        self.waited = 0.0

    def measured(self) -> float:
        """Seconds since the start, less the time waited for probes."""
        return perf_counter() - self.start - self.waited

    def due(self) -> None:
        """Take every probe that is due by now."""
        share = min(1.0, self.measured() / self.seconds) if self.seconds else 1.0
        while self.done < int(self.count * share):
            self._take()

    def finish(self) -> None:
        """Take the probes still left."""
        while self.done < self.count:
            self._take()

    def _take(self) -> None:
        start = perf_counter()
        print(PROBE_REQUEST, flush=True)
        if not sys.stdin.readline():
            raise SystemExit("perfbench: run.py went away")
        self.done += 1
        self.waited += perf_counter() - start


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest pool
    worker, in MB (``ru_maxrss`` is in KiB on Linux)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def _machine(jobs: int) -> dict:
    import multiprocessing
    import platform

    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "jobs": jobs,
        "machine": platform.machine(),
    }


def measure(args) -> dict:
    """Run one workload for ``args.seconds`` and account every cell."""
    import multiprocessing
    import statistics

    # Pool workers inherit the tracing shims only by forking after they
    # are installed; under another start method their figures would
    # silently read 0.
    method = multiprocessing.get_start_method()
    if args.trace and method != "fork":
        raise SystemExit(f"perfbench: --trace 1 needs the fork start method, "
                         f"not {method}")

    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.jobs,
                                                  Path(args.workdir))
    workload.prepare()
    verdicts = workloads.Verdicts(
        workload, workloads.expected_for(args.workload)
        if args.seed == workloads.DEFAULT_SEED else None)
    walls: list[float] = []
    traced: list[tuple[float, dict]] = []

    # One untimed repetition first: lazy imports and first-call caches
    # in the parent (and so in every worker it forks) settle there.  Its
    # verdicts are checked and counted like any other.
    verdicts.add(workload.rep())
    index = 1
    probes = Probes(args.probes, args.seconds)
    if not args.trace:
        while not walls or probes.measured() < args.seconds:
            rep = workload.rep()
            index += 1
            verdicts.add(rep)
            walls.append(rep.seconds)
            probes.due()
        probes.finish()
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        from perfbench import ledger

        spool = Path(args.workdir) / "spool"
        spool.mkdir(exist_ok=True)
        tracer = ledger.Tracer(spool)
        # Alternate untraced and traced repetitions, so both see the
        # same machine; the shims are in place only for traced ones.
        while not traced or probes.measured() < args.seconds:
            rep = workload.rep()
            index += 1
            verdicts.add(rep)
            walls.append(rep.seconds)
            undo = ledger.install(tracer)
            tracer.reset()
            workload.wrap = lambda fn: tracer.span(ledger.PARENT_ROOT, fn)
            workload.traced = True
            try:
                rep = workload.rep()
            finally:
                workload.wrap = lambda fn: fn
                workload.traced = False
                undo()
            index += 1
            verdicts.add(rep)
            snapshot = tracer.snapshot()
            traced.append((rep.seconds, ledger.ledger_metrics(
                snapshot, tracer.drain_workers(), rep.seconds, args.jobs,
                rep.kernel)))
            probes.due()
        probes.finish()
        wall_traced = statistics.median(wall for wall, _ in traced)
        metrics = {
            name: statistics.median(layers[name] for _, layers in traced)
            for name in traced[0][1]
        }
        metrics["trace.wall_s"] = wall_traced
        metrics["trace.overhead"] = wall_traced / statistics.median(walls)
    return {
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "errors": verdicts.errors[:20],
        "reps": index,
        "walls": walls,
        "work": workload.work(verdicts.first),
        "machine": _machine(args.jobs),
        "metrics": metrics,
    }


def record(args) -> dict:
    """Expected-verdict records of every workload at the default seed."""
    from perfbench import workloads

    out = {}
    for name in ("exhaustive", "search", "campaign"):
        workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, args.jobs,
                                             Path(args.workdir))
        workload.prepare()
        rep = workload.rep()
        bad = [c for c in rep.cells if c.error is not None]
        if bad:
            raise SystemExit(f"{name}: {bad[0].name} raised {bad[0].error}")
        problems = workload.check(rep, first=True)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        out[name] = {c.name: workloads.verdict_record(c.report)
                     for c in rep.cells}
    workloads.EXPECTED_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return {"recorded": {k: len(v) for k, v in out.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.child")
    parser.add_argument("role", choices=("setup", "measure", "record"))
    parser.add_argument("--workload", default="exhaustive")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--probes", type=int, default=0,
                        help="set-up probes to ask run.py for (measure)")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    result = {"setup": setup, "measure": measure, "record": record}[args.role](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
