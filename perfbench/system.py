"""Inputs and set-up of the system under test (imports ``repro``).

The corpus comes from the generator at its fixed default seed (42), so
every run trains the same model and the accuracies repeat exactly; the
benchmark's ``--seed`` only drives the request and chunk traces.  The
program receives labelled bundles for training and unlabelled bundles to
answer; the labels of the held-out bundles stay with the benchmark.
"""

from __future__ import annotations

from repro.core import QATK, QatkConfig
from repro.data.generator import generate_corpus
from repro.relstore import Database
from repro.relstore.persist import open_database
from repro.taxonomy.builder import build_taxonomy

#: Training share of the experiment bundles (the paper's 80/20 split).
TRAIN_SHARE = 0.8


def make_inputs():
    """``(train bundles, held-out bundles)`` of the fixed corpus."""
    bundles = generate_corpus().experiment_bundles()
    split = int(len(bundles) * TRAIN_SHARE)
    return bundles[:split], bundles[split:]


def split_held_out(held_out):
    """The serving read set (two thirds) and write set (the rest)."""
    cut = len(held_out) * 2 // 3
    return held_out[:cut], held_out[cut:]


def build_qatk(train, feature_mode: str) -> QATK:
    """QATK construction plus ``train``: the set-up of e1t-words."""
    qatk = QATK(build_taxonomy(), QatkConfig(feature_mode=feature_mode),
                database=Database("bench-kb"))
    qatk.train(train)
    return qatk


class Server:
    """QUEST served over HTTP: service, gateway, app and threaded server,
    all with default settings, in concepts mode, on a service database
    opened with write-ahead logging in *durable_dir*."""

    def __init__(self, train, unlabelled, durable_dir: str) -> None:
        from repro.quest import QuestApp, QuestServer, Role, User, UserStore
        from repro.serve import ServeGateway
        self.qatk = build_qatk(train, "concepts")
        database, _ = open_database(durable_dir)
        self.database = database
        self.service = self.qatk.make_service(database)
        self.gateway = ServeGateway(self.service)
        users = UserStore()
        users.add(User("bench", Role.POWER_EXPERT, "Benchmark"))
        self.app = QuestApp(self.service, users, users.get("bench"),
                            gateway=self.gateway)
        self.gateway.register_bundles(unlabelled)
        self.server = QuestServer(self.app)
        self.server.start()

    @property
    def port(self) -> int:
        return self.server.address[1]

    def wal_counters(self) -> tuple[int, int]:
        wal = self.database._wal
        return wal.batches, wal.fsyncs

    def stop(self) -> None:
        self.server.stop()
        self.database._wal.close()
