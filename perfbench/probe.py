"""Host-speed probe: a fixed pure-Python kernel that scales timed intervals.

The benchmark host's vCPUs change speed from second to second (a fixed
loop pinned to one vCPU takes anywhere from 0.6 to 1.7 ms), so raw
wall-clock and CPU times of identical code move by 10-20% between runs.
Every timed interval is therefore measured beside a probe that runs on the
same vCPU(s) while no operation is in flight, and scaled to what it would
have taken on a host whose probe unit takes exactly ``REF_UNIT_MS``:

    corrected_time = raw_time * REF_UNIT_MS / probe_unit_ms

This module imports nothing from ``repro``: the probe must not move when
the program changes.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time

#: Frozenset intersections per probe unit (about 1 ms on this host's
#: vCPUs, which run it in 0.6 to 1.7 ms depending on the second).  The
#: sets are small enough to stay in a core's private cache; a variant
#: whose large set spilled out of it tracked the e1t-words work worse
#: (2.4% against 4.4% run-to-run CV in a paired test, perfbench/NOTES.md).
UNIT_REPS = 32
#: The reference duration of one probe unit; corrected values are reported
#: as if every probe unit had taken exactly this long.
REF_UNIT_MS = 1.0
#: Largest share of the probes' wall time the program may spend on CPU
#: while they run (see :func:`idle_cpu_share`).
IDLE_CPU_SHARE_MAX = 0.05

_LEFT = frozenset(range(0, 4096, 2))
_RIGHT = frozenset(range(0, 6144, 3))


def probe_unit() -> float:
    """Run one probe unit; returns its duration in milliseconds."""
    left, right = _LEFT, _RIGHT
    start = time.perf_counter()
    for _ in range(UNIT_REPS):
        left & right
    return (time.perf_counter() - start) * 1000.0


def probe(units: int = 5) -> list[float]:
    """Durations (ms) of *units* back-to-back probe units."""
    return [probe_unit() for _ in range(units)]


def usable_cpus() -> list[int]:
    """The vCPUs this process may run on, in ascending order."""
    return sorted(os.sched_getaffinity(0))


def probe_each_cpu(cpus: list[int], units: int = 5) -> list[float]:
    """Probe every vCPU in *cpus* in turn from the calling thread; returns
    the unit durations of all of them.

    The thread is pinned to each vCPU for its probe and then given back
    its previous affinity, so the load it drives stays unpinned.
    """
    saved = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.extend(probe(units))
        return times
    finally:
        os.sched_setaffinity(0, saved)


def other_threads_cpu() -> float:
    """CPU time of this process's threads other than the calling one: the
    ``idle_cpu`` of a load that the probing thread drives itself."""
    return time.process_time() - time.thread_time()


def factor(probe_ms: float) -> float:
    """Multiplier that turns a raw time into a corrected time."""
    return REF_UNIT_MS / probe_ms


def _set_process_affinity(cpus: set[int]) -> None:
    """Apply *cpus* to every running thread of this process."""
    for thread in threading.enumerate():
        try:
            os.sched_setaffinity(thread.native_id, cpus)
        except (ProcessLookupError, TypeError):
            pass  # the thread exited, or has not started yet


class PinnedSampler:
    """Pin the whole process to one vCPU and sample its speed meanwhile.

    Set-up is one long call (``QATK.train`` alone takes seconds), so no
    probe can run beside it the way probes run between the windows of a
    steady load.  Inside this context every thread of the process (and
    every thread it starts) runs on *cpu*, and a sampler thread on the
    same vCPU runs one ~1 ms probe unit every *period* seconds.  The
    interval is corrected by the mean of the samples taken inside it.
    Probes taken just before and after the interval, or a sampler on an
    unpinned process, do not correct it (see perfbench/NOTES.md).

    On exit every thread, including those started inside the context,
    gets back the affinity the process had before.
    """

    def __init__(self, cpu: int, period: float = 0.1) -> None:
        self.cpu = cpu
        self.period = period
        self.samples: list[float] = []
        self.raw_s = 0.0
        self._stop = threading.Event()
        self._saved: set[int] = set()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self.samples.append(probe_unit())

    def __enter__(self) -> "PinnedSampler":
        self._saved = os.sched_getaffinity(0)
        _set_process_affinity({self.cpu})
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.raw_s = time.perf_counter() - self._start
        self._stop.set()
        self._thread.join()
        _set_process_affinity(self._saved)
        if not self.samples:  # an interval shorter than one period
            self.samples.append(probe_unit())

    @property
    def probe_ms(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def corrected_s(self) -> float:
        return self.raw_s * factor(self.probe_ms)

    def record(self) -> dict:
        return {"cpu": self.cpu, "raw_s": self.raw_s,
                "corrected_s": self.corrected_s, "probe_ms": self.probe_ms,
                "samples_ms": self.samples}


class Window:
    """One timed window of a steady load, with the probe units taken on
    its two sides."""

    __slots__ = ("raw_s", "cpu_s", "ops", "probe_before", "probe_after",
                 "idle_s", "idle_cpu_s")

    def __init__(self, raw_s: float, cpu_s: float, ops: int,
                 probe_before: list[float], probe_after: list[float],
                 idle_s: float = 0.0, idle_cpu_s: float = 0.0) -> None:
        self.raw_s = raw_s
        self.cpu_s = cpu_s
        self.ops = ops
        self.probe_before = probe_before
        self.probe_after = probe_after
        #: Wall time of the probe after the window, and the program's CPU
        #: time meanwhile (the probing thread's own excluded).
        self.idle_s = idle_s
        self.idle_cpu_s = idle_cpu_s

    @property
    def probe_ms(self) -> float:
        """Mean probe unit around the window, the stand-in for wall time.

        A vCPU the hypervisor deschedules (steal) stretches the units it
        hits; the mean counts that, as wall time does.  In a steal-heavy
        phase the median ignored it and corrected serve-mixed throughput
        fell 40% (perfbench/NOTES.md).
        """
        return statistics.fmean(self.probe_before + self.probe_after)

    @property
    def factor(self) -> float:
        """Multiplier for wall times measured in this window."""
        return factor(self.probe_ms)

    @property
    def cpu_factor(self) -> float:
        """Multiplier for CPU times: CPU time excludes steal, so it is
        scaled by the running speed, the median probe unit."""
        return factor(statistics.median(self.probe_before + self.probe_after))

    def record(self) -> dict:
        return {"raw_s": self.raw_s, "cpu_s": self.cpu_s, "ops": self.ops,
                "probe_before_ms": self.probe_before,
                "probe_after_ms": self.probe_after, "factor": self.factor,
                "cpu_factor": self.cpu_factor, "idle_s": self.idle_s,
                "idle_cpu_s": self.idle_cpu_s}


def run_windows(seconds: float, window_s: float, run_window, take_probe,
                min_ops: int = 0, idle_cpu=None) -> list[Window]:
    """Alternate probes and windows of load for *seconds* of load time.

    *run_window(deadline)* drives operations until ``time.perf_counter()``
    passes *deadline*, lets every operation in flight finish, and returns
    ``(ops, cpu_seconds)``; zero operations ends the load early.
    *take_probe()* returns probe unit times in ms and is only called
    between windows, while nothing is in flight.  *idle_cpu()*, if given,
    returns the program's CPU time so far, the probe's own excluded; it
    is read on both sides of every probe after a window (see
    :func:`idle_cpu_share`).  Load continues past *seconds* until at
    least *min_ops* operations ran.
    """
    windows: list[Window] = []
    before = take_probe()
    spent, ops_total = 0.0, 0
    while spent < seconds or ops_total < min_ops:
        start = time.perf_counter()
        ops, cpu_s = run_window(start + window_s)
        raw = time.perf_counter() - start
        if not ops:  # the load ran out of work
            break
        cpu_before = idle_cpu() if idle_cpu else 0.0
        probe_start = time.perf_counter()
        after = take_probe()
        idle_s = time.perf_counter() - probe_start
        idle_cpu_s = idle_cpu() - cpu_before if idle_cpu else 0.0
        windows.append(Window(raw, cpu_s, ops, before, after, idle_s,
                              idle_cpu_s))
        before = after
        spent += raw
        ops_total += ops
    return windows


def idle_cpu_share(windows: list[Window]) -> float:
    """The program's CPU time during the probes as a share of their wall
    time.

    The probes run while no operation is in flight, so an idle program
    uses next to none.  A program that works while idle slows the probe,
    and so makes every corrected time smaller than the work was: a run
    whose share exceeds ``IDLE_CPU_SHARE_MAX`` is not correct.
    """
    idle_s = sum(w.idle_s for w in windows)
    return sum(w.idle_cpu_s for w in windows) / idle_s if idle_s else 0.0


def summarize_windows(windows: list[Window]) -> dict:
    """Raw and corrected throughput and CPU per operation over *windows*."""
    ops = sum(w.ops for w in windows)
    raw_s = sum(w.raw_s for w in windows)
    corr_s = sum(w.raw_s * w.factor for w in windows)
    raw_cpu = sum(w.cpu_s for w in windows)
    corr_cpu = sum(w.cpu_s * w.cpu_factor for w in windows)
    return {
        "ops": ops,
        "throughput_ops_s": {"raw": ops / raw_s, "corrected": ops / corr_s},
        "cpu_ms_per_op": {"raw": raw_cpu * 1000.0 / ops,
                          "corrected": corr_cpu * 1000.0 / ops},
    }


def timed_setups(build, teardown, repeats: int):
    """Build the system *repeats* times, each under a :class:`PinnedSampler`.

    Set-up *i* runs pinned to vCPU ``i mod n``; every system but the last
    is torn down, and the last is returned for the timed phase.  Returns
    ``(sampler records, system)``.
    """
    cpus = usable_cpus()
    records, system = [], None
    for index in range(repeats):
        if system is not None:
            teardown(system)
            system = None
        gc.collect()
        with PinnedSampler(cpus[index % len(cpus)]) as sampler:
            system = build()
        records.append(sampler.record())
    return records, system
