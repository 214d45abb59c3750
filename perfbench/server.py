"""The QUEST server process of the serving workloads.

Usage: python3 perfbench/server.py <set-up repeats> <workdir>

Started by ``serve_client`` as a plain subprocess; the two talk over the
child's stdin and stdout in length-prefixed pickle frames (each side only
unpickles frames the other wrote).  The child receives the training
bundles and the unlabelled held-out bundles, times its set-ups, serves
HTTP on an ephemeral localhost port and answers control commands between
load windows, never while a request is in flight: the classifier's direct
answers for the correctness gate, its own CPU time, gateway counters, and
the tracer switch.
"""

from __future__ import annotations

import itertools
import os
import pickle
import resource
import select
import shutil
import sys
import time
from pathlib import Path


def send(fd: int, message) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "big") + data)
    while view:
        view = view[os.write(fd, view):]


def receive(fd: int, timeout: float | None = None):
    """The next frame on *fd*; ``TimeoutError`` after *timeout* seconds
    without data, ``EOFError`` when the other side has gone."""
    def read_exactly(size: int) -> bytes:
        chunks = []
        while size:
            if timeout is not None and not select.select([fd], [], [],
                                                         timeout)[0]:
                raise TimeoutError("no answer from the other process")
            chunk = os.read(fd, min(size, 1 << 20))
            if not chunk:
                raise EOFError("the other process closed the pipe")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    return pickle.loads(read_exactly(int.from_bytes(read_exactly(8), "big")))


def serve(inbox: int, outbox: int, repeats: int, workdir: str) -> None:
    import probe
    import spans
    import system

    train, unlabelled = receive(inbox)
    by_ref = {bundle.ref_no: bundle for bundle in unlabelled}
    numbers = itertools.count()

    def build():
        return system.Server(train, unlabelled,
                             os.path.join(workdir, f"db{next(numbers)}"))

    setups, server = probe.timed_setups(build, lambda s: s.stop(), repeats)
    send(outbox, {"setups": setups, "port": server.port})
    tracer = None
    while True:
        command, *params = receive(inbox)
        if command == "oracle":
            classify = server.service.classifier.classify_bundle
            send(outbox, {ref: [[scored.error_code, round(scored.score, 6)]
                                for scored in classify(by_ref[ref]).top(10)]
                          for ref in params[0]})
        elif command == "cpu":
            send(outbox, time.process_time())
        elif command == "stats":
            send(outbox, server.gateway.stats_snapshot())
        elif command == "trace_on":
            tracer = spans.Tracer()
            spans.install_server(tracer, server)
            tracer.enabled = True
            send(outbox, True)
        elif command == "trace_off":
            spans_path, reads, writes, client_ms, size, delta = params
            tracer.enabled = False
            tracer.restore()
            metrics = spans.server_metrics(tracer, reads, writes, client_ms,
                                           size, delta)
            tracer.write(spans_path)
            send(outbox, metrics)
        elif command == "stop":
            server.stop()
            send(outbox, resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            return


def main() -> int:
    repeats, workdir = int(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    # The protocol owns the original stdout; stray prints go to stderr.
    outbox = os.dup(1)
    os.dup2(2, 1)
    try:
        serve(0, outbox, repeats, workdir)
    except EOFError:
        return 1  # the client went away; nothing left to serve
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
