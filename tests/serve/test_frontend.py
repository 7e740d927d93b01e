"""TCP/HTTP serving frontends: protocol round-trips, bad input, shutdown.

All sockets bind port 0 (ephemeral) and talk over loopback; every test
tears its frontend down, so the suite is safe to run anywhere.  Malformed
traffic must surface as counted, per-stream error events and ``ERR``/400
replies — never as a dropped connection or a crashed serving loop.
"""

import json
import socket
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.eval import make_detector
from repro.serve import (
    FrontendEngine,
    HttpFrontend,
    StreamRouter,
    TcpFrontend,
)
from repro.serve.frontend import MAX_LINE_BYTES

POISON = -86486486.0


class AbsDetector:
    """score = |x| summed per row: cheap, deterministic, stateless."""

    stateless_scoring = True

    def fit(self, X):
        return self

    def score(self, X):
        X = np.asarray(X, dtype=np.float64)
        if np.any(X == POISON):
            raise RuntimeError("tripwire: poison value in window")
        return np.abs(X).sum(axis=1)


def make_engine(drain_every=100, **router_kwargs):
    router = StreamRouter(AbsDetector(), window=16, min_points=2,
                          **router_kwargs)
    return FrontendEngine(router, drain_every=drain_every)


def wait_pending(engine, n, timeout=5.0):
    """Block until ``n`` arrivals are queued (cross-connection ordering)."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if engine.router.stats()["queue_depth"] >= n:
            return
        time.sleep(0.01)
    raise AssertionError("queue never reached %d arrivals" % n)


# ---------------------------------------------------------------------- #
# FrontendEngine


def test_engine_routes_each_origin_its_own_scores():
    engine = make_engine()
    got_a, got_b = [], []
    engine.register("a", got_a.extend)
    engine.register("b", got_b.extend)
    # Interleaved submissions to one stream: attribution must follow the
    # submission order, and indices are global per stream.
    engine.submit_rows("a", "s", [[1.0], [2.0]])
    engine.submit_rows("b", "s", [[3.0]])
    engine.submit_rows("a", "s", [[4.0]])
    engine.submit_rows("b", "t", [[5.0], [6.0]])
    engine.drain()
    assert got_a == [("s", 0, 1.0), ("s", 1, 2.0), ("s", 3, 4.0)]
    assert got_b == [("s", 2, 3.0), ("t", 0, 5.0), ("t", 1, 6.0)]

    # Indices continue across drains.
    engine.submit_rows("b", "s", [[7.0]])
    engine.drain()
    assert got_b[-1] == ("s", 4, 7.0)
    assert engine.stats()["frontend"]["pending"] == 0


def test_engine_maybe_drain_honours_threshold():
    engine = make_engine(drain_every=3)
    got = []
    engine.register("o", got.extend)
    engine.submit_rows("o", "s", [[1.0], [2.0]])
    assert engine.maybe_drain() == {}
    assert got == []
    engine.submit_rows("o", "s", [[3.0]])
    delivered = engine.maybe_drain()
    assert [row[2] for row in delivered["o"]] == [1.0, 2.0, 3.0]


def test_engine_drain_keeps_a_submit_that_races_its_reconcile(monkeypatch):
    """A submit landing while a drain reconciles must stay counted.

    The drain once read the queue depth through router.stats() before
    taking the engine lock, so a submit in between was lost: the engine
    reported 0 pending with 1 queued, and maybe_drain() then missed its
    threshold.  The racer submits from a second origin right after the
    router read; if that read holds the engine lock, the racer waits."""
    engine = make_engine(drain_every=3)
    router = engine.router
    engine.register("a", lambda rows: None)
    engine.register("b", lambda rows: None)
    engine.submit_rows("a", "s", [[1.0]])
    racers = []

    def racing(read):
        def wrapper(*args, **kwargs):
            result = read(*args, **kwargs)
            if not racers:
                racer = threading.Thread(target=engine.submit_rows,
                                         args=("b", "t", [[2.0]]))
                racers.append(racer)
                racer.start()
                racer.join(0.2)
            return result
        return wrapper

    for name in ("stats", "queue_counters"):
        if hasattr(router, name):
            monkeypatch.setattr(router, name, racing(getattr(router, name)))
    engine.drain()
    racers[0].join(5.0)
    assert not racers[0].is_alive()
    monkeypatch.undo()
    assert router.stats()["queue_depth"] == 1
    assert engine.stats()["frontend"]["pending"] == 1
    engine.submit_rows("a", "s", [[3.0]])
    assert engine.maybe_drain() == {}
    engine.submit_rows("a", "s", [[4.0]])
    delivered = engine.maybe_drain()  # 3 queued == drain_every
    assert [row[:2] for row in delivered["a"]] == [("s", 1), ("s", 2)]
    assert [row[:2] for row in delivered["b"]] == [("t", 0)]


def test_engine_pending_survives_concurrent_submits_and_drains():
    """Stress: 4 producers and 2 draining threads on a 2-core host with a
    short switch interval.  Once all stop, the engine's pending count must
    equal the router's queue depth (a lost update breaks it) and every
    arrival reaches its own origin exactly once."""
    engine = make_engine(drain_every=5, queue_limit=100_000)
    got = {origin: [] for origin in range(4)}
    for origin, rows in got.items():
        engine.register(origin, rows.extend)
    stop = threading.Event()

    def produce(origin):
        for i in range(150):
            engine.submit_rows(origin, "s%d" % (i % 3), [[origin + 1.0]])

    def drain_loop():
        while not stop.is_set():
            engine.maybe_drain()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        drainers = [threading.Thread(target=drain_loop) for __ in range(2)]
        producers = [threading.Thread(target=produce, args=(origin,))
                     for origin in got]
        for thread in drainers + producers:
            thread.start()
        for thread in producers:
            thread.join(30.0)
        stop.set()
        for thread in drainers:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in drainers + producers)
    assert (engine.stats()["frontend"]["pending"]
            == engine.router.stats()["queue_depth"])
    engine.drain()
    indices = {}
    for origin, rows in got.items():
        assert len(rows) == 150
        # A stream's first arrival scores 0 (min_points=2); every other
        # score is |x|, which names the origin that submitted it.
        assert {row[2] for row in rows} <= {0.0, origin + 1.0}
        for stream_id, index, __ in rows:
            indices.setdefault(stream_id, []).append(index)
    for stream_id, seen in indices.items():
        assert sorted(seen) == list(range(200))


def test_engine_drain_reads_router_counters_in_constant_time(monkeypatch):
    """Steady drains read the O(1) queue counters only: no stats() walk,
    even when drop_oldest evicted an arrival."""
    engine = make_engine(queue_limit=3, on_full="drop_oldest")
    router = engine.router
    got_a, got_b = [], []
    engine.register("a", got_a.extend)
    engine.register("b", got_b.extend)
    monkeypatch.setattr(router, "stats", None)  # any call raises
    engine.submit_rows("a", "s", [[1.0], [2.0]])
    engine.submit_rows("b", "s", [[3.0], [4.0]])  # evicts a's 1.0
    engine.drain()
    assert got_a == [("s", 0, 2.0)]
    assert got_b == [("s", 1, 3.0), ("s", 2, 4.0)]
    for value in (5.0, 6.0):
        engine.submit_rows("a", "s", [[value]])
        engine.drain()
    assert [row[2] for row in got_a] == [2.0, 5.0, 6.0]


def test_engine_leaves_a_drop_after_the_pop_to_the_next_drain(monkeypatch):
    """A drop_oldest eviction landing after the router popped the queue,
    before the engine attributes, evicts an arrival queued behind this
    drain's: it must not trim this drain's segments (origin ``a`` would
    lose a score to ``b``), and the next drain reconciles it."""
    engine = make_engine(queue_limit=3, on_full="drop_oldest")
    router = engine.router
    got_a, got_b = [], []
    engine.register("a", got_a.extend)
    engine.register("b", got_b.extend)
    drain = router.drain

    def racing_drain(*args, **kwargs):
        results = drain(*args, **kwargs)  # the real pop and scoring
        if not got_a:
            engine.submit_rows("b", "s", [[3.0], [4.0], [5.0], [6.0]])
        return results

    monkeypatch.setattr(router, "drain", racing_drain)
    engine.submit_rows("a", "s", [[1.0], [2.0]])
    engine.drain()
    assert got_a == [("s", 0, 1.0), ("s", 1, 2.0)]
    assert got_b == []
    assert router.stream_stats("s")["dropped"] == 1  # b's 3.0
    engine.drain()
    assert got_a == [("s", 0, 1.0), ("s", 1, 2.0)]
    assert got_b == [("s", 2, 4.0), ("s", 3, 5.0), ("s", 4, 6.0)]
    assert engine.stats()["frontend"]["pending"] == 0


def test_engine_counts_malformed_lines_instead_of_raising():
    engine = make_engine()
    engine.register("o", lambda rows: None)
    assert engine.submit_line("o", "s,1.5,2.5") is None
    assert "malformed" in engine.submit_line("o", "garbage")
    assert "non-numeric" in engine.submit_line("o", "s,notafloat")
    assert engine.submit_line("o", "   ") is None  # blank lines are no-ops
    front = engine.stats()["frontend"]
    assert front["errors"] == {"garbage": 1, "s": 1}
    assert front["error_total"] == 2
    # The well-formed arrival still scores.
    delivered = engine.drain()
    assert [row[:2] for row in delivered["o"]] == [("s", 0)]


def test_engine_keeps_segments_of_failed_streams_for_the_retry():
    engine = make_engine()
    got = []
    engine.register("o", got.extend)
    engine.submit_rows("o", "bad", [[1.0], [POISON]])
    engine.submit_rows("o", "good", [[2.0], [3.0]])
    delivered = engine.drain()  # DrainError is absorbed, not raised
    assert [row[0] for row in delivered["o"]] == ["good", "good"]
    front = engine.stats()["frontend"]
    assert "tripwire" in front["failed_streams"]["bad"]
    assert front["pending"] == 2  # the re-queued arrivals

    # Flush the poison out of the window: the retry delivers the whole
    # re-queued chunk to the same origin, attribution intact.
    engine.submit_rows("o", "bad", np.full((16, 1), 4.0))
    engine.drain()
    bad_rows = [row for row in got if row[0] == "bad"]
    assert len(bad_rows) == 18
    assert [row[1] for row in bad_rows] == list(range(18))
    assert engine.stats()["frontend"]["failed_streams"] == {}


def restored_router(tmp_path, drained, queued=(), **router_kwargs):
    """A router that scored ``drained`` and then queued ``queued`` (both
    ``[(stream, value)]``), saved and restored."""
    router = StreamRouter(make_detector("EMA"), window=16, min_points=2,
                          **router_kwargs)
    for stream_id, value in drained:
        router.submit(stream_id, [value])
    router.drain()
    for stream_id, value in queued:
        router.submit(stream_id, [value])
    router.save(tmp_path)
    return StreamRouter.restore(tmp_path)


def test_engine_gives_a_restored_backlog_no_clients_scores(tmp_path):
    """A restored backlog is scored ahead of a client's arrivals: its
    scores go to origin None, and the client gets exactly its own row."""
    router = restored_router(
        tmp_path, [("web", float(i % 5)) for i in range(40)],
        queued=[("web", 1.0), ("web", 2.0), ("web", 3.0)],
    )
    engine = FrontendEngine(router)
    got = []
    engine.register("c", got.extend)
    engine.submit_rows("c", "web", [[0.5]])
    delivered = engine.drain()
    assert [row[1] for row in delivered[None]] == [40, 41, 42]
    assert [row[:2] for row in got] == [("web", 43)]
    assert engine.stats()["frontend"]["unrouted_scores"] == 3


def test_engine_does_not_trim_drops_from_before_a_restore(tmp_path):
    """Drops the router counted before the engine existed must not be
    trimmed from a new client's segments."""
    router = restored_router(tmp_path, [("web", float(i)) for i in range(6)],
                             queue_limit=4, on_full="drop_oldest")
    assert router.stream_stats("web")["dropped"] == 2
    engine = FrontendEngine(router)
    got = []
    engine.register("c", got.extend)
    engine.submit_rows("c", "web", [[1.0], [2.0], [3.0]])
    engine.drain()
    assert [row[:2] for row in got] == [("web", 4), ("web", 5), ("web", 6)]
    assert engine.stats()["frontend"]["unrouted_scores"] == 0


class AttributionMachine(RuleBasedStateMachine):
    """Random submit/evict/fail/drain/restore sequences against a model.

    The model mirrors the router queue as ``[stream, value, origin]``
    entries and replays the ring scorer's window rules, so it predicts
    every score and the origin that must receive it.  Values are unique
    and AbsDetector scores ``|x|``, so a score names its arrival.  Origins
    a/b/c submit through the engine to s/t/p (p also takes POISON, which
    fails its drains until the window no longer holds it); arrivals
    submitted to the router directly, with no origin, go to x.
    """

    WINDOW, QUEUE_LIMIT = 4, 6
    ORIGINS = ("a", "b", "c")
    ENGINE_STREAMS = ("s", "t", "p")

    def __init__(self):
        super().__init__()
        self.received = {origin: [] for origin in self.ORIGINS}
        self.expected = {origin: [] for origin in self.ORIGINS}
        self.delivered = {}  # (stream, index) -> (origin, score)
        self.predicted = {}  # (stream, index) -> (origin, score)
        self.queue = []  # model of the router queue: [stream, value, origin]
        self.window = {}  # stream -> last WINDOW ingested values
        self.total, self.scored, self.dropped, self.submitted = {}, {}, {}, {}
        self.unrouted = 0  # origin-None scores since the engine was built
        self.next_value = 1.0
        router = StreamRouter(AbsDetector(), window=self.WINDOW, min_points=2,
                              queue_limit=self.QUEUE_LIMIT,
                              on_full="drop_oldest")
        self._attach(router)

    def _attach(self, router):
        self.engine = FrontendEngine(router)
        for origin, rows in self.received.items():
            self.engine.register(origin, rows.extend)

    def _fresh(self):
        value, self.next_value = self.next_value, self.next_value + 1.0
        return value

    def _enqueue(self, stream_id, value, origin):
        for counts in (self.total, self.scored, self.dropped, self.submitted):
            counts.setdefault(stream_id, 0)
        if len(self.queue) >= self.QUEUE_LIMIT:
            self.dropped[self.queue.pop(0)[0]] += 1
        self.queue.append([stream_id, value, origin])
        self.submitted[stream_id] += 1

    @rule(origin=st.sampled_from(ORIGINS),
          stream_id=st.sampled_from(ENGINE_STREAMS),
          n=st.integers(1, 4),
          bad_at=st.none() | st.integers(0, 3),
          bad=st.sampled_from([float("nan"), float("inf")]))
    def submit_rows(self, origin, stream_id, n, bad_at, bad):
        values = [self._fresh() for __ in range(n)]
        if bad_at is not None and bad_at < n:
            values[bad_at] = bad
            with pytest.raises(ValueError, match="finite"):
                self.engine.submit_rows(origin, stream_id,
                                        [[v] for v in values])
            values = values[:bad_at]
        else:
            assert self.engine.submit_rows(
                origin, stream_id, [[v] for v in values]) == n
        for value in values:
            self._enqueue(stream_id, value, origin)

    @rule(origin=st.sampled_from(ORIGINS))
    def poison(self, origin):
        assert self.engine.submit_rows(origin, "p", [[POISON]]) == 1
        self._enqueue("p", POISON, origin)

    @rule()
    def submit_direct(self):
        value = self._fresh()
        self.engine.router.submit("x", [value])
        self._enqueue("x", value, None)

    @rule()
    def drain(self):
        deliveries = self.engine.drain()
        for origin, rows in deliveries.items():
            for stream_id, index, score in rows:
                assert (stream_id, index) not in self.delivered
                self.delivered[stream_id, index] = (origin, score)
        chunks = {}
        for stream_id, value, origin in self.queue:
            chunks.setdefault(stream_id, []).append((value, origin))
        self.queue = []
        failed = []
        for stream_id, chunk in chunks.items():
            values = [value for value, __ in chunk]
            total = self.total[stream_id] + len(values)
            window = (self.window.get(stream_id, []) + values)[-self.WINDOW:]
            if total < 2:  # min_points warmup: scored 0, no forward
                scores = [0.0] * len(values)
            elif POISON in window:
                failed.append((stream_id, chunk))
                continue
            else:  # chunk rows older than the window score 0
                tail = min(len(values), self.WINDOW)
                scores = ([0.0] * (len(values) - tail)
                          + [abs(v) for v in values[-tail:]])
            self.total[stream_id], self.window[stream_id] = total, window
            for (__, origin), score in zip(chunk, scores):
                index = self.scored[stream_id]
                self.scored[stream_id] += 1
                self.predicted[stream_id, index] = (origin, score)
                if origin is None:
                    self.unrouted += 1
                else:
                    self.expected[origin].append((stream_id, index, score))
        for stream_id, chunk in failed:  # re-queued at the front
            self.queue[:0] = [[stream_id, value, origin]
                              for value, origin in chunk]

    @rule()
    def save_and_restore(self):
        # AbsDetector is not a registry method; persist it as the router
        # default with neither spec nor weights, and pass it back to
        # restore() as the default override.
        def unsaved(*args):
            return {"spec": None, "weights": None}

        with tempfile.TemporaryDirectory() as directory:
            with mock.patch.object(StreamRouter, "_persistable_detector",
                                   unsaved):
                self.engine.router.save(directory)
            router = StreamRouter.restore(directory, detector=AbsDetector())
        self._attach(router)
        # A restored backlog has no owner in the new engine.
        for entry in self.queue:
            entry[2] = None
        self.unrouted = 0

    @invariant()
    def each_origin_gets_exactly_its_own_scores(self):
        for origin in self.ORIGINS:
            assert self.received[origin] == self.expected[origin]
        for key, delivered in self.delivered.items():
            assert delivered == self.predicted[key]
        for stream_id in self.ENGINE_STREAMS:
            indices = sorted(index for sid, index in self.delivered
                             if sid == stream_id)
            assert indices == list(range(self.scored.get(stream_id, 0)))

    @invariant()
    def counters_balance(self):
        stats = self.engine.stats()
        assert stats["frontend"]["unrouted_scores"] == self.unrouted
        for stream_id, per in stats["per_stream"].items():
            assert per["submitted"] == (per["scored"] + per["dropped"]
                                        + per["lag"])
            assert (per["submitted"], per["scored"], per["dropped"]) == (
                self.submitted[stream_id], self.scored[stream_id],
                self.dropped[stream_id])


AttributionMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineAttributionMachine = AttributionMachine.TestCase


# ---------------------------------------------------------------------- #
# TCP


class LineClient:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, line):
        self.sock.sendall(("%s\n" % line).encode())

    def readline(self):
        return self.reader.readline().rstrip("\n")

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture()
def tcp_frontend():
    engine = make_engine()
    frontend = TcpFrontend(engine, port=0).start()
    yield frontend
    frontend.stop()


def test_tcp_round_trip_scores_own_submissions(tcp_frontend):
    client = LineClient(tcp_frontend.address)
    try:
        client.send("s,1.5")
        client.send("s,2.5")
        client.send("t,3.0")
        client.send("t,4.0")
        client.send("?drain")
        lines = [client.readline() for __ in range(5)]
        assert lines[-1] == "OK"
        assert set(lines[:4]) == {"s,0,1.5", "s,1,2.5", "t,0,3", "t,1,4"}
    finally:
        client.close()


def test_tcp_malformed_lines_get_err_replies_not_disconnects(tcp_frontend):
    client = LineClient(tcp_frontend.address)
    try:
        client.send("garbage")
        assert client.readline().startswith("ERR malformed line")
        client.send("s,notafloat")
        assert "non-numeric" in client.readline()
        client.send("?bogus")
        assert client.readline().startswith("ERR unknown command")
        # The connection survived all three; a real round-trip still works.
        client.send("s,4.0")
        client.send("s,5.0")
        client.send("?drain")
        assert client.readline() == "s,0,4"
        assert client.readline() == "s,1,5"
        assert client.readline() == "OK"
        client.send("?stats")
        stats = json.loads(client.readline())
        assert stats["frontend"]["errors"] == {"garbage": 1, "s": 1}
        assert stats["per_stream"]["s"]["scored"] == 2
    finally:
        client.close()


def test_tcp_non_finite_value_is_an_err_reply_not_a_poisoned_window(
        tcp_frontend):
    client = LineClient(tcp_frontend.address)
    try:
        client.send("s,1.0")
        client.send("s,nan")
        assert "must be finite" in client.readline()
        client.send("s,-inf")
        assert "must be finite" in client.readline()
        client.send("s,2.0")
        client.send("?drain")
        assert client.readline() == "s,0,1"
        assert client.readline() == "s,1,2"
        assert client.readline() == "OK"
        client.send("?stats")
        stats = json.loads(client.readline())
        assert stats["frontend"]["errors"] == {"s": 2}
        assert stats["per_stream"]["s"]["submitted"] == 2
    finally:
        client.close()


def test_tcp_overlong_line_closes_only_its_connection(tcp_frontend):
    hog = LineClient(tcp_frontend.address)
    other = LineClient(tcp_frontend.address)
    try:
        other.send("s,1.0")
        # A line at the limit (newline included) is still an arrival.
        edge = "s," + " " * (MAX_LINE_BYTES - len("s,2.0\n")) + "2.0"
        other.send(edge)
        wait_pending(tcp_frontend.engine, 2)
        # One byte past the limit, and no newline ever: the server stops
        # reading, answers, and closes this connection only.
        hog.sock.sendall(b"x" * (MAX_LINE_BYTES + 1))
        assert hog.readline() == "ERR line too long"
        assert hog.reader.readline() == ""  # EOF
        other.send("s,3.0")
        other.send("?drain")
        assert other.readline() == "s,0,1"
        assert other.readline() == "s,1,2"
        assert other.readline() == "s,2,3"
        assert other.readline() == "OK"
    finally:
        hog.close()
        other.close()


def test_tcp_second_client_never_sees_first_clients_scores(tcp_frontend):
    one = LineClient(tcp_frontend.address)
    two = LineClient(tcp_frontend.address)
    try:
        one.send("s,1.0")
        one.send("s,2.0")
        # Each connection has its own server thread: without this wait,
        # two's row may be queued first and take index 0.
        wait_pending(tcp_frontend.engine, 2)
        two.send("s,3.0")
        wait_pending(tcp_frontend.engine, 3)
        one.send("?drain")
        # Client one gets exactly its own rows (indices 0 and 1) ...
        assert one.readline() == "s,0,1"
        assert one.readline() == "s,1,2"
        assert one.readline() == "OK"
        # ... and client two got index 2, delivered by the same drain.
        assert two.readline() == "s,2,3"
    finally:
        one.close()
        two.close()


def test_tcp_stop_mid_connection_delivers_tail_then_eof(tcp_frontend):
    client = LineClient(tcp_frontend.address)
    try:
        client.send("s,1.0")
        client.send("s,2.0")
        client.send("s,9.0")
        # No ?drain: the arrivals are still buffered when stop() begins.
        # Graceful shutdown must score them and deliver before EOF.  (Wait
        # until the handler has queued all three — SHUT_RD resets a
        # connection with data still in flight.)
        wait_pending(tcp_frontend.engine, 3)
        tcp_frontend.stop()
        lines = []
        while True:
            line = client.reader.readline()
            if not line:
                break  # clean EOF, not a reset
            lines.append(line.rstrip("\n"))
        assert lines == ["s,0,1", "s,1,2", "s,2,9"]
    finally:
        client.close()


# ---------------------------------------------------------------------- #
# HTTP


@pytest.fixture()
def http_frontend():
    engine = make_engine()
    frontend = HttpFrontend(engine, port=0).start()
    yield frontend
    frontend.stop()


def http_open(request):
    """``(status, json body)``; an ``HTTPError`` is closed, then re-raised,
    so a failing request leaks no socket."""
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        exc.close()
        raise


def http_post(address, path, body, headers=None):
    return http_open(urllib.request.Request(
        "http://%s:%d%s" % (address[0], address[1], path),
        data=body, method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    ))


def http_get(address, path):
    return http_open("http://%s:%d%s" % (address[0], address[1], path))


def test_http_submit_batch_returns_scores_and_per_arrival_errors(
        http_frontend):
    body = json.dumps({"arrivals": [
        {"stream": "web", "values": [1.0, 2.0]},
        {"stream": "db", "values": 3.0},
        {"values": [4.0]},                       # missing stream
        {"stream": "db", "values": "notanumber"},  # rejected by the router
    ]}).encode()
    status, reply = http_post(http_frontend.address, "/submit", body)
    assert status == 200
    assert reply["accepted"] == 3
    # "db" got a single arrival, still inside the min_points=2 warmup —
    # context-only, scored 0.0 by the streaming contract.
    assert reply["scores"] == [
        {"stream": "web", "index": 0, "score": 1.0},
        {"stream": "web", "index": 1, "score": 2.0},
        {"stream": "db", "index": 0, "score": 0.0},
    ]
    assert len(reply["errors"]) == 2
    assert reply["errors"][0]["arrival"] == 2
    assert reply["errors"][1]["stream"] == "db"

    status, stats = http_get(http_frontend.address, "/stats")
    assert status == 200
    assert stats["per_stream"]["web"]["scored"] == 2
    assert stats["frontend"]["error_total"] == 2


def test_http_non_finite_values_are_per_arrival_errors(http_frontend):
    # json.dumps writes NaN/Infinity literals and the server's json.loads
    # accepts them, so they reach the router as floats.
    body = json.dumps({"arrivals": [
        {"stream": "s", "values": [1.0]},
        {"stream": "s", "values": [float("nan")]},
        {"stream": "s", "values": [float("inf")]},
        {"stream": "s", "values": [2.0]},
    ]}).encode()
    assert b"NaN" in body
    status, reply = http_post(http_frontend.address, "/submit", body)
    assert status == 200
    assert reply["accepted"] == 2
    assert [error["arrival"] for error in reply["errors"]] == [1, 2]
    assert reply["scores"] == [
        {"stream": "s", "index": 0, "score": 1.0},
        {"stream": "s", "index": 1, "score": 2.0},
    ]
    body = json.dumps({"arrivals": [{"stream": "s", "values": [3.0]}]})
    __, reply = http_post(http_frontend.address, "/submit", body.encode())
    assert reply["scores"] == [{"stream": "s", "index": 2, "score": 3.0}]
    assert http_frontend.engine.stats()["frontend"]["errors"] == {"s": 2}


def raw_post(address, content_length, body=b""):
    """POST /submit with a hand-written Content-Length; (status, reply)."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: " + content_length.encode()
                     + b"\r\n\r\n" + body)
        reader = sock.makefile("rb")
        status = int(reader.readline().split()[1])
        while reader.readline() not in (b"\r\n", b""):
            pass
        return status, json.loads(reader.read())


def test_http_values_nested_past_rows_are_per_arrival_errors(http_frontend):
    """values of three nesting levels were flattened into 2-dim arrivals
    (two accepted); they must be one counted per-arrival error."""
    body = json.dumps({"arrivals": [
        {"stream": "s", "values": [[[1.0, 2.0]], [[3.0, 4.0]]]},
        {"stream": "s", "values": [[5.0, 6.0]]},
    ]}).encode()
    status, reply = http_post(http_frontend.address, "/submit", body)
    assert status == 200
    assert reply["accepted"] == 1
    assert [error["arrival"] for error in reply["errors"]] == [0]
    assert "3-D" in reply["errors"][0]["error"]
    assert reply["scores"] == [{"stream": "s", "index": 0, "score": 0.0}]
    status, stats = http_get(http_frontend.address, "/stats")
    assert stats["frontend"]["errors"] == {"s": 1}
    assert stats["per_stream"]["s"]["submitted"] == 1


def test_http_bad_content_length_is_refused_without_reading_the_body(
        http_frontend):
    from repro.serve.frontend import MAX_BODY_BYTES

    # Reading a negative length means reading to EOF, which never comes
    # while the client keeps its write side open: no reply, a parked thread.
    status, reply = raw_post(http_frontend.address, "-1", b"{}")
    assert status == 400 and "Content-Length" in reply["error"]
    status, __ = raw_post(http_frontend.address, "lots")
    assert status == 400
    status, reply = raw_post(http_frontend.address, str(MAX_BODY_BYTES + 1))
    assert status == 413 and "limit" in reply["error"]
    status, __ = http_get(http_frontend.address, "/stats")
    assert status == 200


def test_http_drain_false_defers_scoring_to_a_later_drain(http_frontend):
    body = json.dumps({"arrivals": [{"stream": "s", "values": [1.0]}],
                       "drain": False}).encode()
    status, reply = http_post(http_frontend.address, "/submit", body)
    assert status == 200
    assert reply["accepted"] == 1
    assert reply["scores"] == []
    assert http_frontend.engine.stats()["frontend"]["pending"] == 1
    # The next draining batch scores the backlog too, but receives only
    # its own row — the deferred arrival's score belongs to the finished
    # first request (whose sink is gone), never to a later client.
    body = json.dumps({"arrivals": [{"stream": "s", "values": [2.0]}]}).encode()
    __, reply = http_post(http_frontend.address, "/submit", body)
    assert reply["scores"] == [{"stream": "s", "index": 1, "score": 2.0}]
    assert http_frontend.engine.stats()["per_stream"]["s"]["scored"] == 2


def test_http_invalid_json_and_unknown_paths(http_frontend):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_post(http_frontend.address, "/submit", b"{not json")
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_post(http_frontend.address, "/submit",
                  json.dumps({"rows": []}).encode())
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_post(http_frontend.address, "/submit", b"[]")
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_get(http_frontend.address, "/nope")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_post(http_frontend.address, "/nope", b"{}")
    assert excinfo.value.code == 404
    # The server survived every bad request.
    status, __ = http_get(http_frontend.address, "/stats")
    assert status == 200


def test_http_and_tcp_share_one_engine_and_stream_indices():
    engine = make_engine()
    tcp = TcpFrontend(engine, port=0).start()
    http = HttpFrontend(engine, port=0).start()
    client = LineClient(tcp.address)
    try:
        client.send("s,1.0")
        client.send("s,2.0")
        wait_pending(engine, 2)
        body = json.dumps({"arrivals": [
            {"stream": "s", "values": [3.0]}]}).encode()
        __, reply = http_post(http.address, "/submit", body)
        # The HTTP drain scored the TCP rows too — but delivered the HTTP
        # batch only its own row, at the shared stream's next index.
        assert reply["scores"] == [{"stream": "s", "index": 2, "score": 3.0}]
        assert client.readline() == "s,0,1"
        assert client.readline() == "s,1,2"
    finally:
        client.close()
        http.stop()
        tcp.stop()
