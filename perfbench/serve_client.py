"""Client side of the serve-mixed workload.

The server runs in a child process (``server.py``); this process drives a
closed loop from two threads, each with its own keep-alive connection
(stdlib ``http.client``).  Load runs in windows; between windows, with no
request in flight, the driving thread probes each vCPU in turn (pinned
for the probe only) and the window is corrected by the probe units taken
on both sides of it.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path

import harness
import probe
import server
import system

HERE = Path(__file__).resolve().parent
CLIENT_THREADS = 2
#: serve-mixed: every DECISION_EVERY-th operation is an engineer decision.
DECISION_EVERY = 20
#: Upper bound on waiting for the server process (set-ups included).
SERVER_TIMEOUT_S = 150.0
#: Upper bound on one load window, requests in flight included.
BARRIER_TIMEOUT_S = 60.0


class ServerProcess:
    """The server subprocess and its framed pickle pipe."""

    def __init__(self, repeats: int, workdir: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(repeats), workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self.stopped = False

    def send(self, message) -> None:
        server.send(self.process.stdin.fileno(), message)

    def receive(self):
        return server.receive(self.process.stdout.fileno(), SERVER_TIMEOUT_S)

    def call(self, *command):
        self.send(command)
        return self.receive()

    def stop(self) -> float:
        """Stop serving; returns the server's peak RSS in MiB."""
        self.stopped = True
        return self.call("stop")

    def close(self) -> None:
        """Ask a server that was not stopped to stop, and wait briefly for
        it to exit; a server that does not is killed."""
        if not self.stopped and self.process.poll() is None:
            try:
                self.send(("stop",))
            except OSError:
                pass
        self.process.stdin.close()
        try:
            self.process.wait(15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Client:
    """One keep-alive connection; every call returns success and sizes."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def _exchange(self, method: str, path: str, body=None, headers=None):
        try:
            self.conn.request(method, path, body=body, headers=headers or {})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnects on the next request
            return 0, b""

    def suggest(self, ref: str):
        """``(ok, payload, body bytes)`` of ``GET /api/suggest/<ref>``."""
        status, body = self._exchange(
            "GET", "/api/suggest/" + urllib.parse.quote(ref))
        if status != 200:
            return False, None, len(body)
        try:
            payload = json.loads(body)
        except ValueError:
            return False, None, len(body)
        # An answer from the degraded chain (stored suggestion, fallback
        # classifier or frequency baseline) is a 200 but not a success.
        ok = (payload.get("ref_no") == ref
              and bool(payload.get("suggestions"))
              and payload.get("degraded") is None)
        return ok, payload, len(body)

    def assign(self, ref: str, code: str):
        """``(ok, body bytes)`` of ``POST /api/assign``."""
        form = urllib.parse.urlencode({"ref_no": ref, "error_code": code})
        status, body = self._exchange(
            "POST", "/api/assign", body=form.encode(),
            headers={"Content-Type": "application/x-www-form-urlencoded"})
        return status == 200, len(body)

    def close(self) -> None:
        self.conn.close()


def decision_code(payload: dict, truth: str) -> str:
    """The engineer's pick: the true code when the part offers it (it is
    in ``all_codes``), otherwise the top suggestion."""
    return truth if truth in payload["all_codes"] else payload["top10"][0]


class Load:
    """Closed-loop load from client threads, driven window by window.

    ``samples`` holds ``(window, kind, seconds, ok, body bytes)`` per
    request, kind being ``"read"`` or ``"write"``.
    """

    def __init__(self, clients: list[Client], make_ops, server_cpu) -> None:
        self.samples: list[tuple] = []
        self.window = 0
        self._deadline = 0.0
        self._stopping = False
        self._server_cpu = server_cpu
        self._lock = threading.Lock()
        self._barrier = threading.Barrier(len(clients) + 1)
        self._threads = [threading.Thread(target=self._drive,
                                          args=(client, make_ops(index)),
                                          daemon=True)
                         for index, client in enumerate(clients)]
        for thread in self._threads:
            thread.start()

    def _drive(self, client: Client, ops) -> None:
        while True:
            self._barrier.wait()
            if self._stopping:
                return
            local = []
            while time.perf_counter() < self._deadline:
                local.extend(next(ops)(client, self.window))
            with self._lock:
                self.samples.extend(local)
            self._barrier.wait()

    def run_window(self, deadline: float):
        cpu_start = self._server_cpu()
        before = len(self.samples)
        self._deadline = deadline
        # A client thread that died breaks the barrier instead of hanging.
        self._barrier.wait(BARRIER_TIMEOUT_S)   # start
        self._barrier.wait(BARRIER_TIMEOUT_S)   # every request returned
        self.window += 1
        return len(self.samples) - before, self._server_cpu() - cpu_start

    def stop(self) -> None:
        self._stopping = True
        try:
            self._barrier.wait(BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            pass  # a thread already died; the others see the broken barrier
        for thread in self._threads:
            thread.join(10)


def timed_read(client: Client, window: int, ref: str):
    start = time.perf_counter()
    ok, payload, size = client.suggest(ref)
    return (window, "read", time.perf_counter() - start, ok, size), payload


def timed_decision(client: Client, window: int, ref: str, truth: str):
    sample, payload = timed_read(client, window, ref)
    if payload is None:
        return [sample]
    code = decision_code(payload, truth)
    start = time.perf_counter()
    ok, size = client.assign(ref, code)
    return [sample, (window, "write", time.perf_counter() - start, ok, size)]


def gate(child: ServerProcess, client: Client, read_refs: list[str],
         labels: dict, result: dict, record: dict) -> dict:
    """The correctness gate, run before timing, and the accuracy pass.

    Every read-set ref's ranked codes and scores over HTTP must equal the
    server model's direct ``RankedKnnClassifier.classify_bundle`` answer.
    No write has happened yet, so these answers, and the accuracies
    scored on them against the labels kept here, cannot depend on timing.
    """
    expected = child.call("oracle", read_refs)
    hits1 = hits10 = 0
    mismatches = []
    for ref in read_refs:
        ok, payload, _ = client.suggest(ref)
        result["attempted"] += 1
        if not ok:
            result["failed"] += 1
            mismatches.append(ref)
            continue
        answer = [[scored["error_code"], scored["score"]]
                  for scored in payload["suggestions"]]
        if answer != expected[ref]:
            mismatches.append(ref)
        top = payload["top10"]
        hits1 += top[0] == labels[ref]
        hits10 += labels[ref] in top
    if mismatches:
        result["correct"] = False
        record["gate_mismatches"] = mismatches
    return {"accuracy_at_1": harness.exact(hits1 / len(read_refs)),
            "accuracy_at_10": harness.exact(hits10 / len(read_refs))}


def mixed_ops(seed: int, read_refs: list[str], write_set, labels):
    """Per-thread op streams of serve-mixed: uniform reads, and every
    20th operation a decision on the thread's next write bundle.  The
    decisions follow the write set's fixed order, the same on every seed,
    so the knowledge base grows the same way in every run."""
    def make(index: int):
        rng = random.Random(seed * 1009 + index)
        mine = [bundle.ref_no for bundle in write_set[index::CLIENT_THREADS]]

        def stream():
            count = 0
            while True:
                count += 1
                if count % DECISION_EVERY == 0:
                    # Past the end of the write set a ref is decided again;
                    # at today's rates one run uses about a third of it.
                    ref = mine[(count // DECISION_EVERY - 1) % len(mine)]
                    yield lambda client, window, ref=ref: timed_decision(
                        client, window, ref, labels[ref])
                else:
                    ref = rng.choice(read_refs)
                    yield lambda client, window, ref=ref: [
                        timed_read(client, window, ref)[0]]
        return stream()
    return make


def traced_phases(child: ServerProcess, load: Load, timed, seconds: float,
                  record: dict):
    """Half the time untraced, half traced; returns both window lists and
    the per-layer metrics the server computes from its spans."""
    untraced = timed(seconds / 2.0)
    first_traced = len(load.samples)
    child.call("trace_on")
    before = child.call("stats")
    traced = timed(seconds / 2.0)
    after = child.call("stats")
    samples = load.samples[first_traced:]
    delta = {key: after[key] - value for key, value in before.items()
             if isinstance(value, int) and not isinstance(value, bool)}
    metrics = child.call(
        "trace_off", str(record["path"].with_suffix(".spans.jsonl")),
        sum(1 for sample in samples if sample[1] == "read"),
        sum(1 for sample in samples if sample[1] == "write"),
        statistics.fmean(sample[2] for sample in samples) * 1000.0,
        statistics.fmean(sample[4] for sample in samples), delta)
    return untraced, traced, metrics


def run_serve(args, record: dict) -> dict:
    """Run one serving workload; returns the result with raw/corrected
    metrics in *record*."""
    train, held_out = system.make_inputs()
    labels = {bundle.ref_no: bundle.error_code for bundle in held_out}
    read_set, write_set = system.split_held_out(held_out)
    read_refs = [bundle.ref_no for bundle in read_set]
    workdir = HERE / ".work" / str(os.getpid())
    repeats = 1 if args.trace else harness.SETUP_REPEATS
    child = ServerProcess(repeats, str(workdir))
    clients: list[Client] = []
    load = None
    try:
        child.send((train, [bundle.without_label() for bundle in held_out]))
        hello = child.receive()
        record["setups"] = hello["setups"]
        clients = [Client(hello["port"]) for _ in range(CLIENT_THREADS)]
        result = {"attempted": 0, "failed": 0, "correct": True}
        accuracy = gate(child, clients[0], read_refs, labels, result, record)

        cpus = probe.usable_cpus()

        def take_probe() -> list[float]:
            return probe.probe_each_cpu(cpus)

        make = mixed_ops(args.seed, read_refs, write_set, labels)
        load = Load(clients, make, lambda: child.call("cpu"))

        def timed(seconds: float):
            return probe.run_windows(seconds, harness.WINDOW_S,
                                     load.run_window, take_probe,
                                     idle_cpu=lambda: child.call("cpu"))

        if args.trace:
            untraced, traced, metrics = traced_phases(child, load, timed,
                                                      args.seconds, record)
            windows = untraced + traced
        else:
            windows = timed(args.seconds)
        load.stop()
        samples, load = load.samples, None
        record["windows"] = [w.record() for w in windows]
        harness.check_idle(result, record, windows)
        record["samples"] = [(window, kind, round(seconds * 1e3, 4), ok)
                             for window, kind, seconds, ok, _ in samples]
        result["attempted"] += len(samples)
        result["failed"] += sum(1 for s in samples if not s[3])
        if args.trace:
            return harness.finish_trace(result, record, metrics, untraced,
                                        traced)

        summary = probe.summarize_windows(windows)
        metrics = {
            "throughput_ops_s": summary["throughput_ops_s"],
            "cpu_ms_per_op": summary["cpu_ms_per_op"],
            "setup_s": harness.setup_metric(hello["setups"]),
            **accuracy,
        }
        metrics.update(harness.latency_metrics(
            [(s[0], s[2]) for s in samples if s[1] == "read"], windows,
            "read", (0.5, 0.95)))
        metrics.update(harness.latency_metrics(
            [(s[0], s[2]) for s in samples if s[1] == "write"], windows,
            "write", (0.5,)))
        metrics["ok_share"] = harness.exact(
            1.0 - result["failed"] / result["attempted"])
        metrics["peak_rss_mb"] = harness.exact(child.stop())
        return harness.finish(result, record, metrics)
    finally:
        if load is not None:
            load.stop()
        for client in clients:
            client.close()
        child.close()
        shutil.rmtree(workdir, ignore_errors=True)
