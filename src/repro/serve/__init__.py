"""Sharded multi-stream serving: many live series, one scoring engine.

The serving layer over the streaming subsystem: :class:`StreamRouter` keys
one :class:`repro.stream.StreamScorer` shard per named stream, buffers
arrivals in a bounded ingestion queue, and drains bursts as micro-batches —
shards that share a fitted RAE/RDAE are refreshed through one grouped
forward pass per drain (:func:`repro.core.batched_session_scores`), each
contributing only the receptive-field-bounded window tail its arrivals can
change.  ``submit``/``stats`` are thread-safe so that every frontend
connection thread can feed one router, and drains run serially on the
calling thread (see the :mod:`.router` concurrency contract).

Remote traffic reaches the router through :mod:`.frontend`: the ``repro
serve`` CLI subcommand speaks a ``stream_id,value...`` line protocol on
stdin, over TCP (``--tcp PORT``), and as a JSON batch API over HTTP
(``--http PORT``: ``POST /submit`` + ``GET /stats``), with graceful
drain-and-shutdown on SIGTERM.
"""

from .frontend import FrontendEngine, HttpFrontend, TcpFrontend
from .router import (
    DrainError,
    QueueFullError,
    StreamRouter,
    score_shard_group,
)

__all__ = [
    "StreamRouter",
    "QueueFullError",
    "DrainError",
    "score_shard_group",
    "FrontendEngine",
    "TcpFrontend",
    "HttpFrontend",
]
