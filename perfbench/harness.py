"""Closed-loop timing of a workload, set-up timing, and run metadata.

One caller runs the operations back to back; the next starts only after the
previous one and its check are done.  A run covers whole rounds, so every run
of a workload holds the same mix of operations, and stops before a round that
would, at the run's average pace, end after ``seconds`` of wall time.  Every
round of a workload holds the same operations in the same order, so each
operation repeats once per round.  Between operations, at most every
``PROBE_GAP_S``, the loop times the host-speed probe of ``hostspeed``.
"""

import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed

SETUP_REPEATS = 25
SETUP_PROBES = 6
PROBE_GAP_S = 0.05
PROBE_WINDOW_S = 0.5


@dataclass
class Phase:
    """What one timed loop over a workload's rounds produced."""

    latencies: list = field(default_factory=list)  # seconds, every attempted op
    slot_ids: list = field(default_factory=list)  # for each latency, the op's place in its round
    labels: list = field(default_factory=list)  # labels[i]: label of the i-th op of each round
    marks: list = field(default_factory=list)  # for each latency, the middle of the op
    probe_at: list = field(default_factory=list)  # when each host-speed probe ran
    probe_s: list = field(default_factory=list)  # and how long it took
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    counts: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return float(sum(self.latencies))

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    def probe(self):
        self.probe_at.append(time.perf_counter())
        self.probe_s.append(hostspeed.probe())

    def host_probe_s(self) -> np.ndarray:
        """For each latency, the probe's time around the op: the median of
        the probes within ``PROBE_WINDOW_S`` of its middle, and always of
        the last probe before it and the first after it."""
        at, took = np.array(self.probe_at), np.array(self.probe_s)
        out = np.empty(len(self.marks))
        for j, mid in enumerate(self.marks):
            after = int(np.searchsorted(at, mid))
            lo = min(int(np.searchsorted(at, mid - PROBE_WINDOW_S)), after - 1)
            hi = max(int(np.searchsorted(at, mid + PROBE_WINDOW_S)), after + 1)
            out[j] = np.median(took[max(lo, 0) : hi])
        return out


MAX_ERRORS_KEPT = 5


def run_phase(workload, seconds=None, *, rounds=None, tracer=None, between_rounds=None) -> Phase:
    """Run whole rounds for about ``seconds`` of wall time (at least one
    round), or exactly ``rounds`` rounds.  ``between_rounds(elapsed)``, if
    given, runs after each round, outside every operation."""
    phase = Phase()
    before = Counter(workload.counts)
    t_start, cpu_start = time.perf_counter(), time.process_time()
    op_id = 0
    for ops in workload.rounds():
        if rounds is not None and phase.rounds >= rounds:
            break
        for slot, op in enumerate(ops):
            if not phase.probe_at or time.perf_counter() - phase.probe_at[-1] >= PROBE_GAP_S:
                phase.probe()
            span = tracer.begin_op(op_id) if tracer else None
            error = None
            t0 = time.perf_counter()
            try:
                outcome = op.call()
            except op.expected as exc:
                outcome = exc
            except Exception:  # an unexpected failure of the program: count it
                outcome, error = None, traceback.format_exc(limit=4)
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op(span)
            if error is None:
                try:
                    error = op.check(outcome)
                except Exception:  # a malformed result the check could not read
                    error = traceback.format_exc(limit=4)
            phase.latencies.append(t1 - t0)
            phase.slot_ids.append(slot)
            if slot == len(phase.labels):
                phase.labels.append(op.label)
            phase.marks.append((t0 + t1) / 2)
            phase.attempted += 1
            op_id += 1
            if error is not None:
                phase.failed += 1
                if len(phase.errors) < MAX_ERRORS_KEPT:
                    phase.errors.append(f"{op.label}: {error}")
        phase.rounds += 1
        if between_rounds is not None:
            between_rounds(time.perf_counter() - t_start)
        elapsed = time.perf_counter() - t_start
        if rounds is None and elapsed * (phase.rounds + 1) / phase.rounds > seconds:
            break
    phase.probe()
    phase.wall_s = time.perf_counter() - t_start
    phase.cpu_s = time.process_time() - cpu_start
    phase.counts = Counter(workload.counts)
    phase.counts.subtract(before)
    return phase


def latency_metrics(per_op, passed_share) -> dict:
    """``per_op``: one latency in seconds for each operation of a round."""
    per_op = np.asarray(per_op)
    return {
        "ops_per_s": passed_share / float(per_op.mean()),
        "op_p50_ms": 1e3 * float(np.percentile(per_op, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(per_op, 90)),
    }


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    """Metrics a user sees, from an untraced phase, and each operation's
    latency in ms by label.

    Each repetition of an operation (one per round) is scaled by the host
    speed around it (``hostspeed``), and an operation's latency is the
    median of its scaled repetitions.  ``op_p50_ms`` and ``op_p90_ms`` are
    percentiles of these latencies over a round's operations.  ``ops_per_s``
    is the share of attempted operations that passed their check over their
    mean, which leaves out the benchmark's own input generation and
    checking.  The ``unscaled_`` metrics are the same without the scaling,
    and ``host_probe_ms`` is the probe's median time.
    """
    slot_ids = np.array(phase.slot_ids)
    raw = np.array(phase.latencies)
    scaled = hostspeed.scale(raw, phase.host_probe_s())
    share = phase.passed / phase.attempted
    slots = range(slot_ids.max() + 1)
    per_op = [np.median(scaled[slot_ids == i]) for i in slots]
    metrics = latency_metrics(per_op, share)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unscaled = latency_metrics([np.median(raw[slot_ids == i]) for i in slots], share)
    metrics.update({f"unscaled_{name}": value for name, value in unscaled.items()})
    metrics["host_probe_ms"] = 1e3 * float(np.median(phase.probe_s))
    return metrics, {label: 1e3 * float(v) for label, v in zip(phase.labels, per_op)}


class SetupSampler:
    """Times fresh interpreters importing ``modules``, spread over a run.

    Called between rounds, it starts one interpreter at a time, waits for
    it, and keeps pace so that the ``SETUP_REPEATS`` samples span the run.
    Each interpreter times the host-speed probe ``SETUP_PROBES`` times
    around the imports, and its import time is scaled by the median of
    those probes, as the operations' latencies are.  The run reports the
    median of its scaled samples.

    The interpreters run with one BLAS/OpenMP thread.  With more, OpenBLAS
    starts a worker at import that spin-waits for about 0.1 s; on 2 CPUs the
    import then takes about 0.1 s or 0.2 s depending on whether another
    process holds the second CPU, which says nothing about the program.
    """

    def __init__(self, root, modules, seconds, thread_vars):
        probes = "probes.append(hostspeed.probe())\n" * (SETUP_PROBES // 2)
        self.code = (
            "import time\n"
            "import hostspeed\n"
            "probes = []\n"
            + probes
            + "t0 = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "took = time.perf_counter() - t0\n"
            + probes
            + "print(repr(took), *map(repr, probes))\n"
        )
        self.root = root
        self.seconds = seconds
        pythonpath = os.pathsep.join([str(root / "src"), str(Path(hostspeed.__file__).parent)])
        self.env = dict(os.environ, PYTHONPATH=pythonpath, **{var: "1" for var in thread_vars})
        self.samples = []  # (import seconds, probe seconds)

    def _sample(self):
        done = subprocess.run(
            [sys.executable, "-c", self.code], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        took, *probes = map(float, done.stdout.split())
        self.samples.append((took, float(np.median(probes))))

    def __call__(self, elapsed):
        due = min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * elapsed / self.seconds))
        while len(self.samples) < due:
            self._sample()

    def result(self) -> dict:
        while len(self.samples) < SETUP_REPEATS:
            self._sample()
        took = np.array([t for t, _ in self.samples])
        scaled = hostspeed.scale(took, np.array([p for _, p in self.samples]))
        return {"setup_s": float(np.median(scaled)), "unscaled_setup_s": float(np.median(took))}


def src_lines(root) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src" / "muculants").glob("*.py"))
    )


def metadata(root, args, thread_vars) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": {var: os.environ.get(var) for var in thread_vars},
        "src_lines": src_lines(root),
        "machine": platform.machine(),
    }
