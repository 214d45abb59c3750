"""Tests for the QUEST views and the HTTP wrapper."""

import urllib.request

from repro.data import generate_complaints
from repro.quest import (QuestApp, QuestServer, Role, User, UserStore,
                         compare_sources)
from repro.quest.views import (render_bundle_list, render_comparison,
                               render_message, render_suggestions,
                               render_users)


def make_app(service_pair, taxonomy, small_corpus, trained_qatk):
    quest, _ = service_pair
    users = UserStore()
    users.add(User("expert", Role.EXPERT, "Test Expert"))
    qatk, _ = trained_qatk
    complaints = generate_complaints(taxonomy, small_corpus.plan,
                                     count=80, seed=9)
    part_of_code = {code.code: code.part_id
                    for code in small_corpus.plan.all_codes()}
    comparison = compare_sources(small_corpus.bundles, qatk.classifier,
                                 complaints, part_id_of_code=part_of_code)
    return QuestApp(quest, users, users.get("expert"), comparison)


class TestViews:
    def test_bundle_list(self, service):
        quest, held_out = service
        html = render_bundle_list([quest.bundle(b.ref_no) for b in held_out[:3]])
        assert held_out[0].ref_no in html
        assert "<table>" in html

    def test_suggestions_screen(self, service):
        quest, held_out = service
        view = quest.suggest(held_out[0].ref_no, persist=False)
        html = render_suggestions(view)
        assert held_out[0].ref_no in html
        for code in view.top10[:3]:
            assert code in html
        assert "All codes for this part" in html

    def test_comparison_screen(self, trained_qatk, small_corpus, taxonomy,
                               service):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        html = render_comparison(app.comparison)
        assert "svg" in html
        assert "Proprietary Data Set" in html
        assert "NHTSA Data" in html

    def test_users_screen(self):
        html = render_users([User("a", Role.ADMIN, "Alice & Bob")])
        assert "Alice &amp; Bob" in html  # HTML-escaped

    def test_message(self):
        html = render_message("Oops", "<script>")
        assert "&lt;script&gt;" in html


class TestAppRouting:
    def test_get_routes(self, service, taxonomy, small_corpus, trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        _, held_out = service
        assert app.get("/")[0] == 200
        assert app.get(f"/bundle/{held_out[0].ref_no}")[0] == 200
        assert app.get("/compare")[0] == 200
        assert app.get("/users")[0] == 200
        assert app.get("/nonsense")[0] == 404
        assert app.get("/bundle/R404")[0] == 404

    def test_post_assign(self, service, taxonomy, small_corpus, trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        quest, held_out = service
        bundle = held_out[0]
        view = quest.suggest(bundle.ref_no)
        status, body = app.post("/assign", {"ref_no": bundle.ref_no,
                                            "error_code": view.top10[0]})
        assert status == 200
        assert quest.bundle(bundle.ref_no).error_code == view.top10[0]

    def test_post_assign_bad_code(self, service, taxonomy, small_corpus,
                                  trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        _, held_out = service
        status, _ = app.post("/assign", {"ref_no": held_out[0].ref_no,
                                         "error_code": "BOGUS"})
        assert status == 400

    def test_post_forbidden(self, service, taxonomy, small_corpus,
                            trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        app.current_user = User("viewer", Role.VIEWER)
        _, held_out = service
        status, _ = app.post("/assign", {"ref_no": held_out[0].ref_no,
                                         "error_code": "E0000"})
        assert status == 403

    def test_post_unknown_action(self, service, taxonomy, small_corpus,
                                 trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        assert app.post("/nope", {})[0] == 404


class TestHttpServer:
    def test_serves_over_http(self, service, taxonomy, small_corpus,
                              trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        with QuestServer(app) as server:
            host, port = server.address
            with urllib.request.urlopen(f"http://{host}:{port}/") as response:
                assert response.status == 200
                body = response.read().decode("utf-8")
                assert "QUEST" in body
            with urllib.request.urlopen(
                    f"http://{host}:{port}/compare") as response:
                assert "svg" in response.read().decode("utf-8")

    def test_post_over_http(self, service, taxonomy, small_corpus,
                            trained_qatk):
        import urllib.parse
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        quest, held_out = service
        bundle = held_out[1]
        view = quest.suggest(bundle.ref_no)
        with QuestServer(app) as server:
            host, port = server.address
            data = urllib.parse.urlencode({
                "ref_no": bundle.ref_no,
                "error_code": view.top10[0]}).encode("ascii")
            with urllib.request.urlopen(f"http://{host}:{port}/assign",
                                        data=data) as response:
                assert response.status == 200
        assert quest.bundle(bundle.ref_no).error_code == view.top10[0]


class TestStatsRoute:
    def test_stats_json(self, service, taxonomy, small_corpus, trained_qatk):
        import json
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        _, held_out = service
        app.get(f"/bundle/{held_out[0].ref_no}")
        status, body = app.get("/stats")
        assert status == 200
        payload = json.loads(body)
        assert payload["completed"] >= 1
        for key in ("p50_ms", "p95_ms", "p99_ms", "queue_depth",
                    "rejected", "model_version"):
            assert key in payload

    def test_stats_over_http(self, service, taxonomy, small_corpus,
                             trained_qatk):
        import json
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        with QuestServer(app) as server:
            host, port = server.address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/stats") as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "application/json")
                payload = json.loads(response.read().decode("utf-8"))
        assert "submitted" in payload


class TestCleanShutdown:
    def test_stop_drains_in_flight_requests(self, service, taxonomy,
                                            small_corpus, trained_qatk):
        """Satellite regression: stop() under in-flight traffic returns a
        drain report, closes the socket and joins the server thread."""
        import socket
        import threading

        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        _, held_out = service
        server = QuestServer(app)
        server.start()
        host, port = server.address
        statuses = []

        def client(ref):
            try:
                with urllib.request.urlopen(
                        f"http://{host}:{port}/bundle/{ref}") as response:
                    statuses.append(response.status)
            except Exception as exc:
                statuses.append(exc)

        threads = [threading.Thread(target=client,
                                    args=(bundle.ref_no,))
                   for bundle in held_out[:4]]
        for thread in threads:
            thread.start()
        report = server.stop(grace=5.0)
        for thread in threads:
            thread.join()
        assert report.cancelled == 0
        assert server._thread is None  # serve thread joined
        # the listening socket is really gone
        with socket.socket() as probe:
            assert probe.connect_ex((host, port)) != 0
        # requests that got through were served fine
        assert all(status == 200 for status in statuses
                   if isinstance(status, int))

    def test_stop_returns_gateway_drain_report(self, service, taxonomy,
                                               small_corpus, trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        server = QuestServer(app)
        server.start()
        report = server.stop(grace=1.0)
        assert report.clean
        assert "drain" in report.summary()


class TestTriageRoutes:
    def test_review_and_profiles_screens(self, service, taxonomy,
                                         small_corpus, trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        quest, held_out = service
        quest.review_threshold = 1.1
        try:
            quest.suggest(held_out[0].ref_no)
        finally:
            quest.review_threshold = 0.35
        status, body = app.get("/review")
        assert status == 200
        assert held_out[0].ref_no in body
        status, body = app.get("/profiles")
        assert status == 200
        assert held_out[0].part_id in body

    def test_api_suggest_carries_confidence_and_source(
            self, service, taxonomy, small_corpus, trained_qatk):
        import json
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        _, held_out = service
        status, body = app.get(f"/api/suggest/{held_out[0].ref_no}")
        assert status == 200
        payload = json.loads(body)
        assert payload["source"] == "classifier"
        assert set(payload["confidence"]) == {"score", "margin", "agreement",
                                              "pool_size", "part_known"}

    def test_api_override_pins_and_resuggests(self, service, taxonomy,
                                              small_corpus, trained_qatk):
        import json
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        quest, held_out = service
        ref_no = held_out[1].ref_no
        view = quest.suggest(ref_no, persist=False)
        pinned = next(code for code in view.all_codes
                      if code != view.suggestions.codes[0].error_code)
        status, body = app.post("/api/override",
                                {"ref_no": ref_no, "error_code": pinned,
                                 "reason": "field feedback"})
        assert status == 200
        assert json.loads(body)["status"] == "overridden"
        status, body = app.get(f"/api/suggest/{ref_no}")
        payload = json.loads(body)
        assert payload["source"] == "override"
        assert payload["suggestions"][0]["error_code"] == pinned
        assert payload["confidence"]["score"] == 1.0
        # and the HTML screen shows the pin banner
        _, html = app.get(f"/bundle/{ref_no}")
        assert "override" in html

    def test_api_override_errors(self, service, taxonomy, small_corpus,
                                 trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        _, held_out = service
        assert app.post("/api/override",
                        {"ref_no": "R404", "error_code": "E1"})[0] == 404
        assert app.post("/api/override",
                        {"ref_no": held_out[0].ref_no,
                         "error_code": "BOGUS"})[0] == 400
        app.current_user = User("viewer", Role.VIEWER)
        assert app.post("/api/override",
                        {"ref_no": held_out[0].ref_no,
                         "error_code": "E1"})[0] == 403

    def test_api_review_claim_conflict_is_409(self, service, taxonomy,
                                              small_corpus, trained_qatk):
        import json
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        quest, held_out = service
        ref_no = held_out[2].ref_no
        quest.review_threshold = 1.1
        try:
            quest.suggest(ref_no)
        finally:
            quest.review_threshold = 0.35
        status, body = app.post("/api/review",
                                {"action": "claim", "ref_no": ref_no})
        assert status == 200
        assert json.loads(body)["status"] == "claimed"
        app.current_user = User("rival", Role.EXPERT)
        status, _ = app.post("/api/review",
                             {"action": "claim", "ref_no": ref_no})
        assert status == 409

    def test_api_review_resolve_and_errors(self, service, taxonomy,
                                           small_corpus, trained_qatk):
        import json
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        quest, held_out = service
        ref_no = held_out[3].ref_no
        quest.review_threshold = 1.1
        try:
            quest.suggest(ref_no)
        finally:
            quest.review_threshold = 0.35
        status, body = app.post("/api/review",
                                {"action": "resolve", "ref_no": ref_no,
                                 "resolution": "accept"})
        assert status == 200
        assert json.loads(body)["status"] == "resolved"
        # no open entry any more -> 404; bad action -> 400
        assert app.post("/api/review",
                        {"action": "resolve", "ref_no": ref_no,
                         "resolution": "accept"})[0] == 404
        assert app.post("/api/review", {"action": "dance"})[0] == 400
        # claim with no pending entries answers cleanly
        status, body = app.post("/api/review", {"action": "claim"})
        assert status == 200
        assert json.loads(body)["ref_no"] is None

    def test_api_review_and_profiles_json(self, service, taxonomy,
                                          small_corpus, trained_qatk):
        import json
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        quest, held_out = service
        quest.review_threshold = 1.1
        try:
            quest.suggest(held_out[4].ref_no)
        finally:
            quest.review_threshold = 0.35
        status, body = app.get("/api/review")
        assert status == 200
        payload = json.loads(body)
        assert payload["counts"]["pending"] >= 1
        assert any(entry["ref_no"] == held_out[4].ref_no
                   for entry in payload["pending"])
        status, body = app.get("/api/profiles")
        assert status == 200
        profiles = json.loads(body)["profiles"]
        assert profiles
        assert {"part_id", "override_rate", "hit_rate"} <= set(profiles[0])


class TestSearchRoute:
    def test_search_route(self, service, taxonomy, small_corpus, trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        _, held_out = service
        needle = held_out[0].reports[0].text.split()[1]
        import urllib.parse
        status, body = app.get("/search?q=" + urllib.parse.quote(needle))
        assert status == 200
        assert held_out[0].ref_no in body or "<table>" in body

    def test_search_empty(self, service, taxonomy, small_corpus, trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        status, body = app.get("/search?q=")
        assert status == 200


class TestHistoryRoute:
    def test_history_after_assignment(self, service, taxonomy, small_corpus,
                                      trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        quest, held_out = service
        bundle = held_out[2]
        view = quest.suggest(bundle.ref_no)
        app.post("/assign", {"ref_no": bundle.ref_no,
                             "error_code": view.top10[0]})
        status, body = app.get(f"/history/{bundle.ref_no}")
        assert status == 200
        assert view.top10[0] in body
        assert "shortlist" in body

    def test_history_empty(self, service, taxonomy, small_corpus,
                           trained_qatk):
        app = make_app(service, taxonomy, small_corpus, trained_qatk)
        status, body = app.get("/history/R-unknown")
        assert status == 200
        assert "No assignments" in body
