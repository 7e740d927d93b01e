"""Network frontends for :class:`repro.serve.StreamRouter`.

The router scores whatever is queued when ``drain()`` runs; a *frontend* is
what stands between remote producers and that queue.  The split here:

:class:`FrontendEngine`
    Transport-agnostic core shared by every frontend and by the CLI's
    stdin producer.  It parses the ``stream_id,value...`` line protocol,
    counts malformed input per stream instead of crashing, triggers
    drains every ``drain_every`` accepted arrivals, and — the part a
    socket server actually needs — *routes scores back to whoever
    submitted the arrivals*: every accepted arrival is queued on the
    router tagged with its ``origin``, and after a drain each origin's
    registered sink receives exactly its own ``(stream, index, score)``
    rows, in order; :meth:`~FrontendEngine.drain` also returns them per
    origin.  The tag rides the router queue with its arrival, so an
    eviction, a failed stream's re-queue or a restart can never pair a
    score with the wrong client.  Indices are the router's per-stream
    ``scored`` counts, so they continue across restarts.  Saves drop the
    tags: a restored backlog's scores go to origin ``None`` (counted as
    unrouted), never to the first client.

:class:`TcpFrontend`
    Line protocol over TCP, one thread per connection: send
    ``stream_id,v1[,v2...]`` lines, receive ``stream,index,score`` lines
    for your own submissions; ``?stats`` returns a JSON stats document,
    ``?drain`` forces a drain; malformed lines get an ``ERR ...`` reply
    and a per-stream error count, never a dropped connection.  Only a line
    longer than ``MAX_LINE_BYTES`` closes its connection.

:class:`HttpFrontend`
    JSON batch API: ``POST /submit`` with ``{"arrivals": [{"stream": id,
    "values": ...}]}`` scores the batch and answers with its scores;
    ``GET /stats`` returns the same stats document.

Both servers bind ``port=0``-style ephemeral ports (``address`` reports
the real one), run in daemon threads, and ``stop()`` drains the buffered
tail — delivering final scores to still-connected clients — before
closing connections.  Signal wiring (SIGTERM → ``stop()``) lives in the
CLI, which owns the main thread.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .router import DrainError

__all__ = ["FrontendEngine", "TcpFrontend", "HttpFrontend"]

#: Largest ``POST /submit`` body accepted, in bytes.  A burst of a few
#: hundred arrivals is a few KiB; the bound only stops one request from
#: buffering without limit.
MAX_BODY_BYTES = 8 << 20

#: Longest TCP protocol line accepted, in bytes, newline included.  A line
#: carries one arrival; a longer one gets ``ERR line too long`` and its
#: connection is closed, so a client that never sends a newline cannot
#: grow server memory without bound.
MAX_LINE_BYTES = 64 << 10


class FrontendEngine:
    """Shared submit/drain/deliver core for every serving frontend.

    Thread-safe throughout: any number of connection threads may submit
    and trigger drains concurrently (drains serialise on the router's own
    drain lock; the engine's counters on the engine lock).
    """

    #: Lock discipline, machine-checked by ``repro lint`` (lock-guarded).
    _GUARDED_BY = {
        "_sinks": "_lock",
        "_errors": "_lock",
        "_failed": "_lock",
        "_pending": "_lock",
        "_unrouted": "_lock",
    }

    def __init__(self, router, drain_every=32):
        self.router = router
        self.drain_every = max(int(drain_every), 1)
        self._lock = threading.Lock()
        self._drain_lock = threading.Lock()  # taken before _lock
        self._sinks = {}  # origin -> callable(rows)
        self._errors = {}  # stream_id -> malformed/rejected submissions
        self._failed = {}  # stream_id -> last drain failure (str)
        # Arrivals submitted since the last drain (a restored backlog is
        # not counted, so it never moves the drain_every boundaries).
        self._pending = 0
        self._unrouted = 0  # scores with no owning origin

    # ------------------------------------------------------------------ #
    # origins
    def register(self, origin, sink):
        """Deliver ``origin``'s future scores to ``sink(rows)``."""
        with self._lock:
            self._sinks[origin] = sink

    def unregister(self, origin):
        with self._lock:
            self._sinks.pop(origin, None)

    # ------------------------------------------------------------------ #
    # ingestion
    def count_error(self, stream_id):
        """Charge one malformed/rejected submission to ``stream_id``."""
        with self._lock:
            self._errors[stream_id] = self._errors.get(stream_id, 0) + 1

    def submit_rows(self, origin, stream_id, rows):
        """Enqueue ``rows`` for ``stream_id``, each tagged with ``origin``.

        ``rows`` is a scalar, a ``(n,)`` sequence (``n`` 1-dim arrivals)
        or a ``(n, dims)`` list of rows; deeper nesting raises
        ``ValueError`` before anything is queued.  Returns the number of
        arrivals accepted.  Rows are submitted one by one, so a mid-chunk
        rejection (queue full, dimension mismatch) leaves the accepted
        prefix queued and counted before the exception propagates.

        The engine lock is held from the first enqueue to the ``pending``
        update, so a concurrent drain (which reads the queue depth under
        the same lock) never counts an arrival twice or loses it.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim > 2:
            raise ValueError(
                "values must be a scalar, a list of scalars or a list of "
                "rows, got a %d-D array" % rows.ndim
            )
        if rows.ndim == 0:
            rows = rows.reshape(1, 1)
        if rows.ndim == 1:
            rows = rows[:, None]
        accepted = 0
        with self._lock:
            try:
                for row in rows:
                    self.router.submit(stream_id, row, origin=origin)
                    accepted += 1
            finally:
                self._pending += accepted
        return accepted

    def submit_line(self, origin, line):
        """Parse one ``stream_id,v1[,v2...]`` line and enqueue it.

        Returns ``None`` on success, else an error message — malformed
        input is a counted, reported event, never an exception (a bad
        producer must not crash the serving loop).
        """
        line = line.strip()
        if not line:
            return None
        cells = line.split(",")
        stream_id = cells[0].strip()
        if not stream_id or len(cells) < 2:
            self.count_error(stream_id or "<blank>")
            return "malformed line: expected 'stream_id,v1[,v2...]'"
        try:
            row = [float(cell) for cell in cells[1:]]
        except ValueError:
            self.count_error(stream_id)
            return ("malformed line for stream %r: non-numeric value"
                    % stream_id)
        try:
            self.submit_rows(origin, stream_id, [row])
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            self.count_error(stream_id)
            return "rejected arrival for stream %r: %s" % (stream_id, exc)
        return None

    # ------------------------------------------------------------------ #
    # draining
    def maybe_drain(self):
        """Drain when ``drain_every`` arrivals have accumulated."""
        with self._lock:
            due = self._pending >= self.drain_every
        return self.drain() if due else {}

    def drain(self):
        """Drain the router and deliver each origin's scores to its sink.

        Returns ``{origin: [(stream_id, index, score), ...]}``; a
        restored backlog's rows, and those of arrivals submitted to the
        router directly, come under origin ``None``.  Shard failures do
        not raise here — the router has already re-queued the failing
        streams' arrivals, tags included, for the retry — and are
        surfaced through :meth:`stats`.
        """
        # One drain at a time from pop to attribution, so a drain that
        # popped earlier never overwrites a later one's failed streams.
        with self._drain_lock:
            try:
                results = self.router.drain()
                failures = {}
            except DrainError as exc:
                results, failures = exc.results, exc.failures
            deliveries, sinks = self._attribute(results, failures)
        # Deliver outside the engine lock: a sink is a socket write and
        # must never block other producers' submissions.
        for origin, rows in deliveries.items():
            sink = sinks.get(origin)
            if sink is None:
                continue
            try:
                sink(rows)
            except Exception:  # noqa: BLE001 - a dead client loses only
                pass  # its own rows; the frontend unregisters it on exit
        return deliveries

    def _attribute(self, results, failures):
        """Split a drain's scores by origin; returns ``(deliveries, sinks)``."""
        deliveries = {}
        for stream_id, scores in results.items():
            tagged = zip(results.origins[stream_id], scores.tolist())
            for index, (origin, score) in enumerate(
                    tagged, results.first_index[stream_id]):
                deliveries.setdefault(origin, []).append(
                    (stream_id, index, score))
        with self._lock:
            # Read the queue depth under the engine lock: submit_rows
            # counts _pending under it too, so an arrival queued while this
            # drain ran is either in the depth read here or counted after.
            self._pending = self.router.queue_counters()[0]
            self._failed = {stream_id: str(exc)
                            for stream_id, exc in failures.items()}
            self._unrouted += len(deliveries.get(None, ()))
            sinks = dict(self._sinks)
        return deliveries, sinks

    # ------------------------------------------------------------------ #
    def stats(self):
        """Router stats plus a ``frontend`` block; JSON-serialisable."""
        stats = self.router.stats()
        with self._lock:
            stats["frontend"] = {
                "pending": self._pending,
                "errors": dict(self._errors),
                "error_total": sum(self._errors.values()),
                "failed_streams": dict(self._failed),
                "unrouted_scores": self._unrouted,
            }
        return stats


# ---------------------------------------------------------------------- #
# TCP: the stdin line protocol, networked


class _TcpHandler(socketserver.StreamRequestHandler):
    def handle(self):
        frontend = self.server.frontend
        engine = frontend.engine
        self._write_lock = threading.Lock()
        engine.register(self, self._deliver)
        frontend._track(self)
        try:
            while True:
                raw = self.rfile.readline(MAX_LINE_BYTES + 1)
                if not raw:
                    break
                if len(raw) > MAX_LINE_BYTES:
                    self._write_lines(["ERR line too long"])
                    break
                line = raw.decode("utf-8", "replace").strip()
                if not line:
                    continue
                if line.startswith("?"):
                    self._command(line, engine)
                    continue
                error = engine.submit_line(self, line)
                if error is not None:
                    self._write_lines(["ERR %s" % error])
                else:
                    engine.maybe_drain()
            # Input exhausted (client half-closed, a graceful stop shut our
            # read side, or an overlong line): score whatever this
            # connection still has in flight and deliver it before the
            # write side goes away.
            engine.drain()
        finally:
            engine.unregister(self)
            frontend._untrack(self)

    def _command(self, line, engine):
        if line == "?stats":
            self._write_lines([json.dumps(engine.stats(), sort_keys=True)])
        elif line == "?drain":
            engine.drain()  # our rows arrive through _deliver
            self._write_lines(["OK"])
        else:
            self._write_lines(["ERR unknown command %r" % line])

    def _deliver(self, rows):
        self._write_lines(
            "%s,%d,%.10g" % (stream_id, index, score)
            for stream_id, index, score in rows
        )

    def _write_lines(self, lines):
        payload = "".join("%s\n" % line for line in lines).encode()
        if not payload:
            return
        with self._write_lock:
            self.wfile.write(payload)
            self.wfile.flush()


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TcpFrontend:
    """Serve the line protocol over TCP; see the module docstring."""

    #: Lock discipline, machine-checked by ``repro lint`` (lock-guarded).
    _GUARDED_BY = {"_clients": "_clients_lock"}

    def __init__(self, engine, host="127.0.0.1", port=0):
        self.engine = engine
        self._server = _TcpServer((host, int(port)), _TcpHandler)
        self._server.frontend = self
        self._clients = set()
        self._clients_lock = threading.Lock()
        self._thread = None

    @property
    def address(self):
        """``(host, port)`` actually bound (port 0 picks an ephemeral one)."""
        return self._server.server_address[:2]

    def _track(self, handler):
        with self._clients_lock:
            self._clients.add(handler)

    def _untrack(self, handler):
        with self._clients_lock:
            self._clients.discard(handler)

    def start(self):
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-tcp-frontend", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout=5.0):
        """Graceful shutdown: drain-and-deliver, then disconnect.

        Connected clients' *read* sides are shut first, so their handler
        threads see EOF, run the final drain, and deliver every score for
        what the client had submitted over the still-open write side —
        then the connections close cleanly.
        """
        self._server.shutdown()  # stop accepting new connections
        with self._clients_lock:
            clients = list(self._clients)
        for handler in clients:
            try:
                handler.connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._clients_lock:
                if not self._clients:
                    break
            time.sleep(0.01)
        # The tail of any producer that is not a TCP connection (HTTP
        # batches with drain=false, direct submit_rows callers).
        self.engine.drain()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)


# ---------------------------------------------------------------------- #
# HTTP: JSON batch submit + stats


class _HttpHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # noqa: D102 - silence default stderr log
        pass

    def _json(self, code, payload):
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path.split("?")[0] == "/stats":
            self._json(200, self.server.frontend.engine.stats())
        else:
            self._json(404, {"error": "unknown path %r; GET /stats or "
                                      "POST /submit" % self.path})

    def do_POST(self):
        if self.path.split("?")[0] != "/submit":
            self._json(404, {"error": "unknown path %r; POST /submit"
                             % self.path})
            return
        engine = self.server.frontend.engine
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        # Refuse bad lengths without reading the body: a negative length
        # would read to EOF and park this thread, a huge one would buffer
        # it all.  The unread body dies with the closed connection.
        if length < 0 or length > MAX_BODY_BYTES:
            self.close_connection = True
            if length < 0:
                self._json(400, {"error": "Content-Length must be a "
                                          "non-negative integer"})
            else:
                self._json(413, {"error": "body of %d bytes exceeds the "
                                          "%d-byte limit"
                                          % (length, MAX_BODY_BYTES)})
            return
        try:
            document = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError):
            self._json(400, {"error": "body is not valid JSON"})
            return
        arrivals = (document.get("arrivals")
                    if isinstance(document, dict) else None)
        if not isinstance(arrivals, list):
            self._json(400, {"error": "body must be {\"arrivals\": "
                                      "[{\"stream\": id, \"values\": ...}]}"})
            return
        origin = object()
        collected = []
        engine.register(origin, collected.extend)
        errors, accepted = [], 0
        try:
            for i, arrival in enumerate(arrivals):
                stream_id = (arrival.get("stream")
                             if isinstance(arrival, dict) else None)
                values = (arrival.get("values")
                          if isinstance(arrival, dict) else None)
                if not isinstance(stream_id, str) or values is None:
                    engine.count_error(str(stream_id) if stream_id
                                       else "<invalid>")
                    errors.append({"arrival": i, "error":
                                   "need {\"stream\": str, \"values\": ...}"})
                    continue
                try:
                    accepted += engine.submit_rows(origin, stream_id, values)
                except Exception as exc:  # noqa: BLE001 - per-arrival report
                    engine.count_error(stream_id)
                    errors.append({"arrival": i, "stream": stream_id,
                                   "error": str(exc)})
            if document.get("drain", True):
                engine.drain()
        finally:
            engine.unregister(origin)
        self._json(200, {
            "accepted": accepted,
            "scores": [{"stream": stream_id, "index": index, "score": score}
                       for stream_id, index, score in collected],
            "errors": errors,
        })


class _HttpServer(ThreadingHTTPServer):
    daemon_threads = True


class HttpFrontend:
    """Serve the JSON batch API over HTTP; see the module docstring."""

    def __init__(self, engine, host="127.0.0.1", port=0):
        self.engine = engine
        self._server = _HttpServer((host, int(port)), _HttpHandler)
        self._server.frontend = self
        self._thread = None

    @property
    def address(self):
        return self._server.server_address[:2]

    def start(self):
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-http-frontend", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self):
        """Graceful shutdown: drain the buffered tail, then close."""
        self.engine.drain()
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
