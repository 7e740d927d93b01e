"""What both serve workloads share: server spawns and the output checks."""

from __future__ import annotations

import os
import shutil

from .fixtures import fresh_copy
from .procs import HERE, Child


def spawn_server(fixture_dir, work, label, flags, spans_path=None):
    """``repro serve`` on a fresh copy of ``fixture_dir``; returns
    ``(child, port, state_copy)`` once the server printed its address.

    With ``spans_path`` the server starts through the tracing launcher;
    otherwise it is the plain ``python -m repro`` a user would run.
    """
    state = fresh_copy(fixture_dir, work, label)
    args = ["serve", "--state-dir", state, *flags]
    argv = ([os.path.join(HERE, "launch.py"), spans_path, *args]
            if spans_path else ["-m", "repro", *args])
    child = Child(argv, os.path.join(state, "server.log"))
    try:
        match = child.wait_for(r"serving \S+ \S+ \S+ on [\d.]+:(\d+)", 120.0)
        child.wait_for(r"^ready", 120.0)  # SIGTERM is handled from here on
    except BaseException:
        child.kill()
        shutil.rmtree(state, ignore_errors=True)
        raise
    return child, int(match.group(1)), state


def reference_scores(fixture_dir, sent):
    """Scores a dedicated :class:`repro.stream.StreamScorer` gives each
    stream of ``sent`` (``{stream: [value, ...]}``), one arrival at a time,
    starting from the fixture's saved state of that stream."""
    from repro.serve import StreamRouter
    from repro.stream import StreamScorer

    router = StreamRouter.restore(fixture_dir)
    out = {}
    for stream_id, values in sent.items():
        shard = router.stream(stream_id)
        scorer = StreamScorer(shard.detector, window=shard.window,
                              min_points=shard.min_points, mode=shard.mode)
        scorer.load_state_dict(shard.state_dict())
        out[stream_id] = [scorer.push([value]) for value in values]
    return out


def conservation_errors(stats):
    """Streams (and totals) breaking ``submitted == scored + dropped + lag``."""
    bad = []
    lag_total = 0
    for stream_id, entry in stats["per_stream"].items():
        lag_total += entry["lag"]
        if entry["submitted"] != entry["scored"] + entry["dropped"] + entry["lag"]:
            bad.append(stream_id)
    if stats["submitted"] != stats["scored"] + stats["dropped"] + lag_total:
        bad.append("<totals>")
    return bad
