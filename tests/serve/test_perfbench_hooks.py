"""perfbench's tracer against the served system.

The tracer (``perfbench/spans.py``) wraps attributes of the served system
by name: ``registry.bump``, ``gateway._queue``, ``service.custom_codes``,
the gateway module's ``store_recommendations`` and more.  A rename or a
deletion of any of them must fail here, in the fast suite, and not only
in a traced benchmark run.  The tracer is stdlib-only and is loaded by
path; nothing under ``perfbench/`` is imported as a package.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

from repro.quest import QuestApp, UserStore

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_install_trace_and_restore(gateway, power_user):
    gw, quest, held_out = gateway
    users = UserStore()
    users.add(power_user)
    app = QuestApp(quest, users, power_user, gateway=gw)
    server = SimpleNamespace(app=app, gateway=gw, service=quest,
                             wal_counters=lambda: (0, 0))
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install_server(tracer, server)
    tracer.enabled = True
    try:
        ref = held_out[0].ref_no
        status, body = app.get(f"/api/suggest/{ref}")
        assert status == 200
        code = json.loads(body)["top10"][0]
        status, _ = app.post("/api/assign",
                             {"ref_no": ref, "error_code": code})
        assert status == 200
    finally:
        tracer.enabled = False
        tracer.restore()
    names = {span.name for span in tracer.spans}
    assert {"webapp.get", "webapp.post", "gateway.suggest", "gateway.assign",
            "registry.bump", "service.bundle", "service.assign_code",
            "service.code_list",
            "knowledge.candidates", "classify.rank_codes", "extract.text",
            "triage.confidence"} <= names
    # every wrapper came off again
    assert not {"get", "post"} & set(vars(app))
    assert not {"suggest", "assign"} & set(vars(gw))
    assert "bump" not in vars(gw.registry)
    assert "get_batch" not in vars(gw._queue)
    metrics = spans.server_metrics(tracer, reads=1, writes=1,
                                   client_ms_mean=1.0, response_bytes=1.0,
                                   stats_delta=gw.stats_snapshot())
    assert set(metrics) == set(spans.PER_LAYER)
