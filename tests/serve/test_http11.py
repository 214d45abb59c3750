"""The sans-IO HTTP/1.1 core (`repro.serve.http11`), with no sockets.

Bytes go in through ``receive_data``, events come out of ``next_event``
and responses are framed by ``send``; the wire suite in
``tests/quest/test_keepalive.py`` drives the same core through both
transports.
"""

import time

import pytest

from repro.serve import http11
from repro.serve.http11 import (CLOSED, CONTINUE, NEED_DATA, Connection,
                                ProtocolError, Request, Response)

OK = Response(200, "ok", "text/plain")


def parse(data):
    """(status, lower-cased headers, body) of one framed response."""
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith("HTTP/1.1 ")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


def refusal(data, **kwargs):
    """A fresh connection fed *data*, and its next event."""
    conn = Connection(**kwargs)
    conn.receive_data(data)
    return conn, conn.next_event()


class TestFeeding:
    def test_request_fed_one_byte_at_a_time(self):
        raw = (b"POST /api/assign?x=1 HTTP/1.1\r\nHost: h\r\n"
               b"X-Twice: a\r\nx-twice: b\r\nContent-Length: 9\r\n\r\n"
               b"ref_no=R1")
        conn = Connection()
        for index in range(len(raw)):
            assert conn.next_event() is NEED_DATA
            conn.receive_data(raw[index:index + 1])
        event = conn.next_event()
        assert event == Request(
            "POST", "/api/assign?x=1", "HTTP/1.1",
            {"host": "h", "x-twice": "a, b", "content-length": "9"},
            "ref_no=R1")
        status, headers, body = parse(conn.send(OK))
        assert (status, body) == (200, b"ok")
        assert headers["content-length"] == "2"
        assert headers["connection"] == "keep-alive"
        assert conn.phase == "idle"

    def test_body_split_across_feeds(self):
        conn = Connection()
        conn.receive_data(b"POST /assign HTTP/1.1\r\nContent-Length: 10\r\n"
                          b"\r\nref_")
        assert conn.next_event() is NEED_DATA
        assert conn.phase == "body"
        conn.receive_data(b"no=")
        assert conn.next_event() is NEED_DATA
        conn.receive_data(b"R12")
        assert conn.next_event().body == "ref_no=R12"

    def test_two_pipelined_requests_in_one_feed(self):
        conn = Connection()
        conn.receive_data(b"GET /a HTTP/1.1\r\n\r\n"
                          b"HEAD /b HTTP/1.1\r\n\r\n")
        assert conn.next_event().target == "/a"
        conn.send(OK)
        # the second head is already buffered: its deadline is running
        assert conn.phase == "head"
        second = conn.next_event()
        assert (second.method, second.target) == ("HEAD", "/b")
        status, headers, body = parse(conn.send(OK))
        assert headers["content-length"] == "2" and body == b""
        assert conn.next_event() is NEED_DATA

    def test_empty_lines_before_a_request_line_are_skipped(self):
        _, event = refusal(b"\r\n\r\nGET /a HTTP/1.1\r\n\r\n")
        assert event.target == "/a"

    def test_eof_between_requests_and_mid_head_closes(self):
        conn = Connection()
        conn.receive_data(b"")
        assert conn.next_event() is CLOSED
        conn = Connection()
        conn.receive_data(b"GET /a HT")
        conn.receive_data(b"")
        assert conn.next_event() is CLOSED

    def test_next_event_and_send_out_of_turn_raise(self):
        conn = Connection()
        with pytest.raises(RuntimeError):
            conn.send(OK)
        conn.receive_data(b"GET / HTTP/1.1\r\n\r\n")
        conn.next_event()
        with pytest.raises(RuntimeError):
            conn.next_event()


class TestConnectionHeader:
    def test_cap_flips_connection_close(self):
        conn = Connection(max_requests=2)
        conn.receive_data(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
        conn.next_event()
        assert parse(conn.send(OK))[1]["connection"] == "keep-alive"
        conn.next_event()
        assert parse(conn.send(OK))[1]["connection"] == "close"
        assert conn.next_event() is CLOSED

    def test_drain_flips_connection_close(self):
        conn = Connection()
        conn.receive_data(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
        conn.next_event()
        assert parse(conn.send(OK, draining=True))[1]["connection"] \
            == "close"
        assert conn.next_event() is CLOSED

    @pytest.mark.parametrize("version,header,expected", [
        ("HTTP/1.1", "", "keep-alive"),
        ("HTTP/1.1", "Connection: close\r\n", "close"),
        ("HTTP/1.0", "", "close"),
        ("HTTP/1.0", "Connection: Keep-Alive\r\n", "keep-alive"),
    ])
    def test_version_and_connection_header(self, version, header, expected):
        conn, _ = refusal(f"GET / {version}\r\n{header}\r\n".encode())
        assert parse(conn.send(OK))[1]["connection"] == expected

    def test_response_close_and_status_headers(self):
        for status, header, value in ((503, "retry-after", "1"),
                                      (504, "retry-after", "1"),
                                      (405, "allow", "GET")):
            conn, _ = refusal(b"GET / HTTP/1.1\r\n\r\n")
            _, headers, _ = parse(conn.send(Response(status, b"x",
                                                     "text/plain")))
            assert headers[header] == value
        conn, _ = refusal(b"GET / HTTP/1.1\r\n\r\n")
        data = conn.send(Response(500, "boom", "text/plain", close=True))
        assert parse(data)[1]["connection"] == "close"
        assert conn.next_event() is CLOSED


class TestRefusals:
    @pytest.mark.parametrize("data,status", [
        (b"NONSENSE\r\n\r\n", 400),
        (b"GET /stats\r\n\r\n", 400),
        (b"GET /stats HTTX/1.1\r\n\r\n", 400),
        (b"GET /stats HTTP/2.0\r\n\r\n", 505),
        (b"GET /" + b"a" * http11.MAX_LINE_BYTES, 414),
        (b"GET / HTTP/1.1\r\nX: " + b"a" * http11.MAX_LINE_BYTES, 431),
        (b"GET / HTTP/1.1\r\n" + b"X: v\r\n" * (http11.MAX_HEADERS + 1),
         431),
        (b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\n folded\r\n\r\n", 400),
        (b"PUT /stats HTTP/1.1\r\n\r\n", 501),
        (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
        (b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n"
         b"\r\nabcd", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: 3, 4\r\n\r\nabcd", 400),
        (b"POST / HTTP/1.1\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (http11.MAX_BODY_BYTES + 1), 413),
    ])
    def test_refused_and_closed(self, data, status):
        conn, event = refusal(data)
        assert isinstance(event, ProtocolError)
        assert (event.status, event.close) == (status, True)
        sent, headers, _ = parse(conn.send(Response(event.status, "no",
                                                    "text/plain")))
        assert sent == status and headers["connection"] == "close"
        assert conn.next_event() is CLOSED

    def test_refusal_carries_the_target(self):
        _, event = refusal(b"PUT /api/stats HTTP/1.1\r\n\r\n")
        assert event.target == "/api/stats"
        assert event.message == "method 'PUT' is not supported"

    def test_a_line_of_exactly_the_limit_is_accepted(self):
        line = (b"GET /" + b"a" * (http11.MAX_LINE_BYTES - 16)
                + b" HTTP/1.1\r\n")
        assert len(line) == http11.MAX_LINE_BYTES
        _, event = refusal(line + b"\r\n")
        assert isinstance(event, Request)

    def test_identical_content_lengths_are_one(self):
        _, event = refusal(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                           b"Content-Length: 2\r\n\r\nab")
        assert event.body == "ab"

    def test_short_body_at_eof(self):
        conn, event = refusal(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                              b"\r\nab")
        assert event is NEED_DATA
        conn.receive_data(b"")
        event = conn.next_event()
        assert (event.status, event.close) == (400, True)

    def test_bad_utf8_keeps_the_connection(self):
        conn, event = refusal(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                              b"\r\n\xff\xfeGET /next HTTP/1.1\r\n\r\n")
        assert (event.status, event.close) == (400, False)
        assert parse(conn.send(Response(400, "bad", "text/plain")))[1][
            "connection"] == "keep-alive"
        assert conn.next_event().target == "/next"

    def test_expect_100_continue(self):
        conn, event = refusal(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                              b"Expect: 100-continue\r\n\r\n")
        assert event is CONTINUE
        assert conn.next_event() is NEED_DATA
        conn.receive_data(b"ab")
        assert conn.next_event().body == "ab"
        # a body that already arrived needs no interim response
        _, event = refusal(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                           b"Expect: 100-continue\r\n\r\nab")
        assert event.body == "ab"
        # nor does a refused one: the final status answers it
        _, event = refusal(b"POST / HTTP/1.1\r\nContent-Length: %d\r\n"
                           b"Expect: 100-continue\r\n\r\n"
                           % (http11.MAX_BODY_BYTES + 1))
        assert event.status == 413


class TestDeadlines:
    def make(self):
        sheds = []
        conn = Connection(idle_timeout=30.0, header_timeout=5.0,
                          on_slow_shed=lambda: sheds.append(1))
        return conn, sheds

    def test_idle_phase_times_out_without_a_shed(self):
        conn, sheds = self.make()
        assert conn.next_event() is NEED_DATA
        assert conn.phase == "idle"
        assert conn.read_timeout() == 30.0
        conn.timed_out()
        assert conn.next_event() is CLOSED and sheds == []

    def test_head_phase_times_out_as_a_shed(self):
        conn, sheds = self.make()
        conn.receive_data(b"GET /sta")
        assert conn.next_event() is NEED_DATA
        assert conn.phase == "head"
        assert 0 < conn.read_timeout() <= 5.0
        conn.timed_out()
        assert conn.next_event() is CLOSED and sheds == [1]

    def test_body_phase_times_out_without_a_shed(self):
        conn, sheds = self.make()
        conn.receive_data(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nab")
        assert conn.next_event() is NEED_DATA
        assert conn.phase == "body"
        assert conn.read_timeout() == 30.0
        conn.timed_out()
        assert conn.next_event() is CLOSED and sheds == []

    def test_head_deadline_holds_against_a_steady_dribble(self):
        """Each byte arriving in time does not extend the deadline: the
        core sheds on its own clock, not on a read timing out."""
        sheds = []
        conn = Connection(header_timeout=0.05,
                          on_slow_shed=lambda: sheds.append(1))
        conn.receive_data(b"G")
        time.sleep(0.06)
        conn.receive_data(b"E")
        assert conn.next_event() is CLOSED and sheds == [1]
