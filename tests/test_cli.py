"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main, read_series_csv, write_scores_csv


@pytest.fixture
def csv_with_header(tmp_path):
    rng = np.random.default_rng(0)
    t = np.arange(160)
    values = np.sin(2 * np.pi * t / 20) + 0.05 * rng.standard_normal(160)
    labels = np.zeros(160, dtype=int)
    values[50] += 5.0
    labels[50] = 1
    path = tmp_path / "series.csv"
    with open(path, "w") as handle:
        handle.write("value,label\n")
        for v, label in zip(values, labels):
            handle.write("%.6f,%d\n" % (v, label))
    return path


def test_read_csv_with_header(csv_with_header):
    values, labels = read_series_csv(csv_with_header, labels_column="label")
    assert values.shape == (160, 1)
    assert labels.sum() == 1


def test_read_csv_without_labels(csv_with_header):
    values, labels = read_series_csv(csv_with_header)
    assert values.shape == (160, 2)  # label column kept as a dimension
    assert labels is None


def test_read_csv_headerless(tmp_path):
    path = tmp_path / "plain.csv"
    with open(path, "w") as handle:
        for i in range(20):
            handle.write("%d,%d\n" % (i, i * 2))
    values, labels = read_series_csv(path, labels_column="1")
    assert values.shape == (20, 1)
    assert labels is not None


def test_read_csv_missing_column(csv_with_header):
    with pytest.raises(KeyError):
        read_series_csv(csv_with_header, labels_column="nope")


def test_read_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_series_csv(path)


def test_write_scores_roundtrip(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores_csv(path, np.array([1.5, 2.5]))
    content = path.read_text().splitlines()
    assert content[0] == "score"
    assert float(content[1]) == 1.5


def test_list_methods(capsys):
    assert main(["list-methods"]) == 0
    out = capsys.readouterr().out
    assert "RAE" in out and "RDAE" in out and "OCSVM" in out


def test_detect_end_to_end(csv_with_header, tmp_path, capsys):
    out_path = tmp_path / "scores.csv"
    code = main([
        "detect", "--method", "EMA",
        "--input", str(csv_with_header),
        "--output", str(out_path),
        "--labels-column", "label",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "ROC-AUC" in err
    scores = out_path.read_text().splitlines()
    assert len(scores) == 161  # header + 160 scores


def test_detect_stdout(csv_with_header, capsys):
    code = main([
        "detect", "--method", "EMA", "--input", str(csv_with_header),
        "--labels-column", "label",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 160


def test_demo_runs(capsys):
    code = main(["demo", "--method", "EMA", "--dataset", "SYN", "--scale", "0.06"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ROC-AUC" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# --------------------------- repro stream ------------------------------- #

@pytest.fixture
def streaming_csv(tmp_path):
    rng = np.random.default_rng(1)
    t = np.arange(240)
    values = np.sin(2 * np.pi * t / 24) + 0.05 * rng.standard_normal(240)
    values[200] += 6.0  # incident inside the streamed segment
    path = tmp_path / "stream.csv"
    with open(path, "w") as handle:
        handle.write("value\n")
        for v in values:
            handle.write("%.6f\n" % v)
    return path


def test_stream_smoke_stdin(streaming_csv, capsys, monkeypatch):
    """Pipe a synthetic series in, assert one score line per streamed point."""
    with open(streaming_csv) as handle:
        monkeypatch.setattr("sys.stdin", handle)
        code = main([
            "stream", "--method", "EMA", "--input", "-",
            "--train", "120", "--window", "48",
        ])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 120  # 240 points - 120 training head
    indices, scores = zip(*(line.split(",") for line in lines))
    assert [int(i) for i in indices] == list(range(120, 240))
    values = [float(s) for s in scores]
    assert all(np.isfinite(values))
    # The planted incident at t=200 dominates the streamed scores.
    assert indices[int(np.argmax(values))] == "200"
    assert "streamed 120 points" in captured.err


def test_stream_writes_output_csv(streaming_csv, tmp_path, capsys):
    out_path = tmp_path / "scores.csv"
    code = main([
        "stream", "--method", "EMA", "--input", str(streaming_csv),
        "--train", "120", "--window", "48", "--chunk", "16",
        "--output", str(out_path),
    ])
    assert code == 0
    content = out_path.read_text().splitlines()
    assert content[0] == "index,score"
    assert len(content) == 121
    assert "wrote 120 streamed scores" in capsys.readouterr().out


def test_stream_from_saved_model(streaming_csv, tmp_path, capsys):
    from repro.cli import read_series_csv
    from repro.core import RAE, save_detector

    values, __ = read_series_csv(streaming_csv)
    model_path = tmp_path / "rae.npz"
    save_detector(RAE(max_iterations=4).fit(values[:120]), model_path)
    code = main([
        "stream", "--input", str(streaming_csv),
        "--model", str(model_path), "--window", "48",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 240  # no training head: every point is streamed


def test_stream_skips_and_counts_bad_lines(streaming_csv, tmp_path, capsys):
    """Malformed, non-finite and wrong-arity lines mid-stream are skipped
    and counted; the run scores every good line as if they were absent."""
    lines = streaming_csv.read_text().splitlines()
    noisy = tmp_path / "noisy.csv"
    noisy.write_text("\n".join(
        lines[:150] + ["abc", "nan", "inf", "1.0,2.0", "1.0,"] + lines[150:]
    ) + "\n")
    args = ["stream", "--method", "EMA", "--train", "120", "--window", "48"]
    assert main(args + ["--input", str(streaming_csv)]) == 0
    clean = capsys.readouterr()
    assert main(args + ["--input", str(noisy)]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean.out
    assert "rejected 5 malformed, non-finite or wrong-arity line(s)" \
        in captured.err
    assert "rejected" not in clean.err


# --------------------------- repro serve -------------------------------- #

@pytest.fixture
def serve_setup(tmp_path):
    """A saved RAE plus an interleaved 3-stream feed with one incident."""
    from repro.core import RAE, save_detector

    rng = np.random.default_rng(3)
    t = np.arange(200)
    train = (np.sin(2 * np.pi * t / 24) + 0.05 * rng.standard_normal(200))
    model_path = tmp_path / "rae.npz"
    save_detector(RAE(max_iterations=4).fit(train[:, None]), model_path)

    feed_path = tmp_path / "feed.csv"
    per_stream = 60
    with open(feed_path, "w") as handle:
        handle.write("stream,value\n")
        for i in range(per_stream):
            for sid in ("web", "db", "cache"):
                value = float(np.sin(i / 4.0) + 0.05 * rng.standard_normal())
                if sid == "db" and i == 45:
                    value += 8.0  # the incident
                handle.write("%s,%.6f\n" % (sid, value))
    return model_path, feed_path, per_stream


def test_serve_multiplexes_streams(serve_setup, capsys):
    model_path, feed_path, per_stream = serve_setup
    code = main([
        "serve", "--input", str(feed_path), "--model", str(model_path),
        "--window", "32", "--drain-every", "16",
    ])
    assert code == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()]
    assert len(rows) == 3 * per_stream  # every submitted point was scored
    by_stream = {}
    for sid, index, score in rows:
        by_stream.setdefault(sid, []).append((int(index), float(score)))
    assert sorted(by_stream) == ["cache", "db", "web"]
    for sid, pairs in by_stream.items():
        # Per-stream indices are contiguous and scores finite.
        assert [i for i, __ in pairs] == list(range(per_stream))
        assert np.isfinite([s for __, s in pairs]).all()
    # The planted incident dominates its own stream.
    db_scores = [s for __, s in by_stream["db"]]
    assert int(np.argmax(db_scores)) == 45
    assert "served 3 streams: 180 scored" in captured.err


def test_serve_writes_output_csv(serve_setup, tmp_path, capsys):
    model_path, feed_path, per_stream = serve_setup
    out_path = tmp_path / "scores.csv"
    code = main([
        "serve", "--input", str(feed_path), "--model", str(model_path),
        "--window", "32", "--output", str(out_path),
    ])
    assert code == 0
    content = out_path.read_text().splitlines()
    assert content[0] == "stream,index,score"
    assert len(content) == 1 + 3 * per_stream


def test_serve_skips_non_finite_lines_like_malformed_ones(serve_setup,
                                                         tmp_path, capsys):
    model_path, feed_path, per_stream = serve_setup
    lines = feed_path.read_text().splitlines()
    noisy_feed = tmp_path / "noisy.csv"
    noisy_feed.write_text("\n".join(
        lines[:30] + ["web,nan", "db,inf"] + lines[30:]) + "\n")
    assert main(["serve", "--input", str(noisy_feed), "--model",
                 str(model_path), "--window", "32"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 3 * per_stream
    assert np.isfinite([float(score) for __, __i, score in rows]).all()


def test_serve_stdin_with_trained_head(serve_setup, tmp_path, capsys,
                                       monkeypatch):
    __, feed_path, per_stream = serve_setup
    from repro.cli import read_series_csv

    train_path = tmp_path / "train.csv"
    rng = np.random.default_rng(5)
    with open(train_path, "w") as handle:
        handle.write("value\n")
        for i in range(150):
            handle.write("%.6f\n"
                         % (np.sin(i / 4.0) + 0.05 * rng.standard_normal()))
    with open(feed_path) as handle:
        monkeypatch.setattr("sys.stdin", handle)
        code = main([
            "serve", "--input", "-", "--method", "EMA",
            "--train-input", str(train_path), "--window", "32",
        ])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3 * per_stream


def test_serve_queue_limit_below_drain_every(serve_setup, capsys):
    """Regression: drain-every above the queue limit used to crash with an
    unhandled QueueFullError before the first drain; it is clamped now."""
    model_path, feed_path, per_stream = serve_setup
    code = main([
        "serve", "--input", str(feed_path), "--model", str(model_path),
        "--window", "32", "--queue-limit", "8", "--drain-every", "64",
    ])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3 * per_stream


def test_serve_requires_a_detector_source(serve_setup):
    __, feed_path, __n = serve_setup
    with pytest.raises(SystemExit, match="--model or --train-input"):
        main(["serve", "--input", str(feed_path)])


def test_serve_prints_per_stream_stats_on_shutdown(serve_setup, capsys):
    model_path, feed_path, per_stream = serve_setup
    assert main([
        "serve", "--input", str(feed_path), "--model", str(model_path),
        "--window", "32",
    ]) == 0
    err = capsys.readouterr().err
    for sid in ("web", "db", "cache"):
        assert "%s: scored=%d dropped=0 lag=0" % (sid, per_stream) in err


def test_serve_state_dir_round_trip(serve_setup, tmp_path, capsys):
    """Two serve runs over a split feed with --state-dir must produce the
    same scores as one run over the whole feed (shard recovery end-to-end)."""
    model_path, feed_path, per_stream = serve_setup
    lines = feed_path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    # Cut on a drain boundary (default --drain-every 32): scores depend on
    # the window content at drain time, so an off-boundary cut would change
    # micro-batch context, not test recovery.
    half = 96
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("\n".join([header] + rows[:half]) + "\n")
    second.write_text("\n".join(rows[half:]) + "\n")
    state = tmp_path / "state"

    assert main(["serve", "--input", str(feed_path),
                 "--model", str(model_path), "--window", "32"]) == 0
    whole = capsys.readouterr().out.splitlines()

    assert main(["serve", "--input", str(first), "--model", str(model_path),
                 "--window", "32", "--state-dir", str(state)]) == 0
    out_a = capsys.readouterr()
    assert "saved router state" in out_a.err
    assert main(["serve", "--input", str(second), "--model", str(model_path),
                 "--window", "32", "--state-dir", str(state)]) == 0
    out_b = capsys.readouterr()
    assert "restored 3 stream(s)" in out_b.err
    resumed = out_a.out.splitlines() + out_b.out.splitlines()
    # Same scores, same per-stream indices — drain boundaries may differ,
    # so compare as sets of (stream, index, score) rows.
    assert sorted(resumed) == sorted(whole)


# --------------------------- spec-driven flows --------------------------- #

@pytest.fixture
def spec_path(tmp_path):
    from repro.api import DetectorSpec, PipelineSpec

    path = tmp_path / "pipeline.json"
    PipelineSpec(
        DetectorSpec("EMA", {"pattern_size": 10}),
        threshold={"kind": "quantile", "q": 0.95},
    ).save(path)
    return path


def test_detect_threshold_emits_labels(csv_with_header, tmp_path, capsys):
    out_path = tmp_path / "scores.csv"
    code = main([
        "detect", "--method", "EMA", "--input", str(csv_with_header),
        "--labels-column", "label", "--threshold", "quantile",
        "--threshold-param", "0.95", "--output", str(out_path),
    ])
    assert code == 0
    content = out_path.read_text().splitlines()
    assert content[0] == "score,label"
    labels = [int(line.split(",")[1]) for line in content[1:]]
    assert 0 < sum(labels) <= 8  # top 5% of 160 points
    assert labels[50] == 1  # the planted spike
    assert "threshold(quantile)" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["mad", "pot"])
def test_detect_other_threshold_kinds(csv_with_header, kind, capsys):
    code = main([
        "detect", "--method", "EMA", "--input", str(csv_with_header),
        "--labels-column", "label", "--threshold", kind,
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "threshold(%s)" % kind in captured.err
    assert all("," in line for line in captured.out.splitlines())


def test_detect_builds_from_spec(csv_with_header, spec_path, capsys):
    code = main([
        "detect", "--spec", str(spec_path), "--input", str(csv_with_header),
        "--labels-column", "label",
    ])
    assert code == 0
    captured = capsys.readouterr()
    # The spec file's own threshold stage is honoured without --threshold.
    assert "threshold(quantile)" in captured.err
    assert all(line.count(",") == 1 for line in captured.out.splitlines())


def test_stream_warns_when_spec_preprocess_is_dropped(streaming_csv,
                                                      tmp_path, capsys):
    from repro.api import PipelineSpec

    path = tmp_path / "pre.json"
    PipelineSpec("EMA", preprocess=[{"kind": "standardize"}]).save(path)
    code = main([
        "stream", "--spec", str(path), "--input", str(streaming_csv),
        "--train", "120", "--window", "48",
    ])
    assert code == 0
    assert "preprocess stages are ignored" in capsys.readouterr().err


def test_serve_resume_clamps_drain_to_restored_queue_limit(serve_setup,
                                                           tmp_path,
                                                           capsys):
    """A restored router keeps its saved queue_limit; drain-every must be
    clamped against THAT, or the resumed session hits QueueFullError
    before its first drain."""
    model_path, feed_path, per_stream = serve_setup
    state = tmp_path / "state"
    assert main(["serve", "--input", str(feed_path), "--model",
                 str(model_path), "--window", "32", "--queue-limit", "24",
                 "--state-dir", str(state)]) == 0
    capsys.readouterr()
    # Resume with defaults: --queue-limit 4096, --drain-every 32 > 24.
    assert main(["serve", "--input", str(feed_path), "--window", "32",
                 "--state-dir", str(state)]) == 0
    err = capsys.readouterr().err
    assert "restored 3 stream(s)" in err
    # The operator is told the saved configuration governs, and the stats
    # line reports the ROUTER's window, not this run's flag.
    assert "RESTORED configuration" in err
    assert "queue_limit=24" in err
    assert "window=32" in err


def test_serve_restore_takes_model_as_detector_override(serve_setup,
                                                        tmp_path, capsys):
    """OCSVM shards save spec-only (fitted state not persistable); a
    restart with --state-dir alone must fail with the remedy, and passing
    --train-input as the override must resume."""
    rng = np.random.default_rng(9)
    train_path = tmp_path / "train.csv"
    with open(train_path, "w") as handle:
        handle.write("value\n")
        for i in range(150):
            handle.write("%.6f\n"
                         % (np.sin(i / 4.0) + 0.05 * rng.standard_normal()))
    # Single stream so every drain hands OCSVM at least its fit-time
    # window width (it cannot score shorter series).
    feed_path = tmp_path / "feed.csv"
    with open(feed_path, "w") as handle:
        handle.write("stream,value\n")
        for i in range(64):
            handle.write("web,%.6f\n"
                         % (np.sin(i / 4.0) + 0.05 * rng.standard_normal()))
    state = tmp_path / "state"
    ocsvm = ["serve", "--input", str(feed_path), "--method", "OCSVM",
             "--train-input", str(train_path), "--window", "48",
             "--state-dir", str(state)]
    assert main(ocsvm) == 0
    capsys.readouterr()
    with pytest.raises(ValueError, match="Pass detector="):
        main(["serve", "--input", str(feed_path), "--state-dir", str(state)])
    capsys.readouterr()
    # The remedy is reachable from the CLI: --train-input is the override.
    assert main(ocsvm) == 0
    err = capsys.readouterr().err
    assert "restored 1 stream(s)" in err
    assert "scored=128" in err


def test_serve_failed_save_on_clean_shutdown_raises(serve_setup, tmp_path):
    """A clean run whose state save fails must surface the error, not exit
    0 with the state silently lost."""
    model_path, feed_path, __ = serve_setup
    state = tmp_path / "state"
    state.write_text("not a directory")  # makedirs will fail
    with pytest.raises(Exception, match="[Nn]ot a directory|exists"):
        main(["serve", "--input", str(feed_path), "--model",
              str(model_path), "--window", "32", "--state-dir", str(state)])


def test_serve_counts_a_wrong_arity_line_and_keeps_serving(serve_setup,
                                                          tmp_path, capsys):
    """A wrong-arity arrival is a counted rejection, like a malformed
    line: the run scores every other arrival and saves the state-dir."""
    model_path, feed_path, per_stream = serve_setup
    bad_feed = tmp_path / "bad.csv"
    rows = feed_path.read_text().splitlines()[1:]  # a header counts too
    bad_feed.write_text("\n".join(rows[:30] + ["web,1.0,2.0"] + rows[30:])
                        + "\n")
    state = tmp_path / "state"
    assert main(["serve", "--input", str(bad_feed), "--model",
                 str(model_path), "--window", "32",
                 "--state-dir", str(state)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3 * per_stream
    assert "rejected 1 " in captured.err
    assert (state / "router.json").exists()
    assert "saved router state" in captured.err


def test_serve_saves_state_even_when_the_loop_crashes(serve_setup, tmp_path,
                                                      capsys, monkeypatch):
    """A mid-stream crash propagates, and the state-dir is still saved on
    the way out."""
    from repro.serve import FrontendEngine

    model_path, feed_path, __ = serve_setup
    maybe_drain, calls = FrontendEngine.maybe_drain, []

    def crash_on_the_40th_line(self):
        calls.append(1)
        if len(calls) == 40:
            raise RuntimeError("injected crash")
        return maybe_drain(self)

    monkeypatch.setattr(FrontendEngine, "maybe_drain",
                        crash_on_the_40th_line)
    state = tmp_path / "state"
    with pytest.raises(RuntimeError, match="injected crash"):
        main(["serve", "--input", str(feed_path), "--model", str(model_path),
              "--window", "32", "--state-dir", str(state)])
    assert (state / "router.json").exists()
    assert "saved router state" in capsys.readouterr().err


def _saved_router(state, detector, drained, queued, **router_kwargs):
    """Save a router that scored the ``drained`` feed lines and then
    queued the ``queued`` ones."""
    from repro.serve import StreamRouter

    router = StreamRouter(detector, window=32, **router_kwargs)

    def submit(lines):
        for line in lines:
            stream_id, value = line.split(",")
            router.submit(stream_id, [float(value)])

    submit(drained)
    router.drain()
    submit(queued)
    router.save(state)


def _replayed_serve_output(state, lines, drain_every):
    """The rows ``serve --state-dir`` prints for well-formed ``lines``:
    the router restored from ``state``, fed ``lines`` through the API and
    drained every ``drain_every`` submissions and at the end."""
    from repro.serve import StreamRouter

    router = StreamRouter.restore(state)
    emitted = {stream_id: router.stream_stats(stream_id)["scored"]
               for stream_id in router.streams()}
    out = []

    def drain():
        for stream_id, scores in router.drain().items():
            for score in scores:
                index = emitted.setdefault(stream_id, 0)
                out.append("%s,%d,%.10g" % (stream_id, index, score))
                emitted[stream_id] = index + 1

    for n, line in enumerate(lines, 1):
        stream_id, value = line.split(",")
        router.submit(stream_id, [float(value)])
        if n % drain_every == 0:
            drain()
    drain()
    return out


def test_serve_writes_a_restored_backlog_first(serve_setup, tmp_path,
                                               capsys):
    """Arrivals queued when the state was saved are scored first on
    restart, with the indices that continue each stream."""
    from repro.core import load_detector

    model_path, feed_path, __ = serve_setup
    rows = feed_path.read_text().splitlines()[1:]
    state = tmp_path / "state"
    _saved_router(state, load_detector(model_path), rows[:120],
                  ["web,0.1", "web,0.2", "web,0.3", "db,0.4", "db,0.5"])
    rest = tmp_path / "rest.csv"
    rest.write_text("\n".join(rows[120:]) + "\n")
    expected = _replayed_serve_output(state, rows[120:], 32)

    assert main(["serve", "--input", str(rest),
                 "--state-dir", str(state)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.rsplit(",", 1)[0] for line in out[:3]] == [
        "web,40", "web,41", "web,42"]
    assert out == expected


def test_serve_drop_oldest_evicts_the_restored_backlog(serve_setup, tmp_path,
                                                       capsys):
    """With drop-oldest, this run's arrivals evict the restored backlog:
    the output is what the router API gives, and the drops saved before
    the restart are not charged to this run's arrivals."""
    from repro.core import load_detector

    model_path, feed_path, __ = serve_setup
    rows = feed_path.read_text().splitlines()[1:]
    state = tmp_path / "state"
    # 10 queued into 8 slots: 2 drops before the save, 8 backlog arrivals.
    _saved_router(state, load_detector(model_path), rows[:8], rows[8:18],
                  queue_limit=8, on_full="drop_oldest")
    rest = tmp_path / "rest.csv"
    rest.write_text("\n".join(rows[18:]) + "\n")
    expected = _replayed_serve_output(state, rows[18:], 4)

    assert main(["serve", "--input", str(rest), "--state-dir", str(state),
                 "--on-full", "drop-oldest", "--queue-limit", "8",
                 "--drain-every", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == expected
    # The first 4 new arrivals evict 4 of the 8 backlog ones: of all 180,
    # the 2 saved drops and those 4 are counted, and the rest scored.
    assert "174 scored, 6 dropped" in captured.err


def test_serve_state_dir_without_default_detector(serve_setup, tmp_path,
                                                  capsys):
    """A router built with per-stream detectors only (no default) must
    restore, serve, print stats, and re-save — not crash on detector.name."""
    import numpy as np

    from repro.core import load_detector
    from repro.serve import StreamRouter

    model_path, feed_path, __ = serve_setup
    det = load_detector(model_path)
    router = StreamRouter(window=32)
    for sid in ("web", "db", "cache"):
        router.add_stream(sid, detector=det)
    state = tmp_path / "state"
    router.save(state)

    code = main(["serve", "--input", str(feed_path), "--window", "32",
                 "--state-dir", str(state)])
    assert code == 0
    err = capsys.readouterr().err
    assert "method=per-stream" in err
    assert "saved router state" in err


def test_pipeline_load_refuses_explain_on_new_input(csv_with_header,
                                                    tmp_path):
    from repro.api import DetectorSpec, Pipeline, PipelineSpec
    from repro.cli import read_series_csv

    values, __ = read_series_csv(csv_with_header)
    pipeline = Pipeline(PipelineSpec(DetectorSpec("RAE",
                                                  {"max_iterations": 3})))
    pipeline.fit(values[:, :1])
    pipeline.save(tmp_path / "m")
    with pytest.raises(SystemExit, match="fitted on THIS input"):
        main(["pipeline", "--load", str(tmp_path / "m"),
              "--input", str(csv_with_header), "--explain"])


def test_pipeline_subcommand_scores_and_saves(csv_with_header, spec_path,
                                              tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code = main([
        "pipeline", "--spec", str(spec_path), "--input", str(csv_with_header),
        "--labels-column", "label", "--output", str(out_path),
        "--save", str(tmp_path / "saved"),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "threshold = " in err and "flagged" in err
    assert "saved pipeline to" in err
    assert (tmp_path / "saved.json").exists()
    content = out_path.read_text().splitlines()
    assert content[0] == "score,label"
    assert len(content) == 161

    # Reload the saved pipeline and score with it.
    code = main([
        "pipeline", "--load", str(tmp_path / "saved"),
        "--input", str(csv_with_header), "--labels-column", "label",
    ])
    assert code == 0
    assert "loaded EMA pipeline" in capsys.readouterr().err


def test_pipeline_needs_spec_or_load(csv_with_header):
    with pytest.raises(SystemExit, match="--spec or --load"):
        main(["pipeline", "--input", str(csv_with_header)])


def test_pipeline_explain_rejected_up_front_for_unexplainable(
        csv_with_header, tmp_path):
    from repro.api import PipelineSpec

    path = tmp_path / "lof.json"
    PipelineSpec("LOF").save(path)
    with pytest.raises(SystemExit, match="explainable detector"):
        main(["pipeline", "--spec", str(path),
              "--input", str(csv_with_header), "--explain"])


def test_threshold_param_without_threshold_errors(csv_with_header):
    with pytest.raises(SystemExit, match="needs --threshold"):
        main(["detect", "--method", "EMA", "--input", str(csv_with_header),
              "--threshold-param", "4.0"])


def test_stream_builds_from_spec(streaming_csv, spec_path, capsys):
    code = main([
        "stream", "--spec", str(spec_path), "--input", str(streaming_csv),
        "--train", "120", "--window", "48",
    ])
    assert code == 0
    assert "method=EMA" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# serve: network frontends


def _spawn_serve(args, timeout=30.0):
    """Start ``repro serve`` in a subprocess; returns (proc, banners).

    Reads stderr until the readiness line, collecting the ``serving ...``
    banners that carry the ephemeral port numbers.
    """
    import os
    import subprocess
    import sys
    import time

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    banners, deadline = [], time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        banners.append(line.strip())
        if line.startswith("ready"):
            return proc, banners
    proc.kill()
    raise AssertionError("serve never became ready; stderr: %r" % banners)


def _banner_port(banners, needle):
    for line in banners:
        if needle in line:
            return int(line.rsplit(":", 1)[1])
    raise AssertionError("no %r banner in %r" % (needle, banners))


def test_serve_tcp_frontend_scores_then_drains_on_sigterm(serve_setup,
                                                          tmp_path):
    import signal
    import socket

    model_path, __, __n = serve_setup
    state_dir = tmp_path / "state"
    proc, banners = _spawn_serve([
        "serve", "--model", str(model_path), "--window", "32",
        "--tcp", "0", "--drain-every", "4", "--state-dir", str(state_dir),
    ])
    try:
        port = _banner_port(banners, "TCP line protocol")
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            reader = s.makefile("r")
            for value in (0.1, 0.2, 0.3):
                s.sendall(("web,%s\n" % value).encode())
            s.sendall(b"?drain\n")
            lines = [reader.readline().strip() for __ in range(4)]
            assert lines[3] == "OK"
            assert [line.split(",")[:2] for line in lines[:3]] == [
                ["web", "0"], ["web", "1"], ["web", "2"]]
            # Leave one arrival buffered: SIGTERM must drain it before
            # the connection closes.
            s.sendall(b"web,0.4\n")
            proc.send_signal(signal.SIGTERM)
            tail = reader.readline().strip()
            assert tail.split(",")[:2] == ["web", "3"]
            assert reader.readline() == ""  # clean EOF
        out, err = proc.communicate(timeout=30)
    except BaseException:
        proc.kill()
        raise
    assert proc.returncode == 0
    assert "saved router state" in err
    # The SIGTERM shutdown persisted the router.
    from repro.serve import StreamRouter

    restored = StreamRouter.restore(state_dir)
    assert restored.stats()["per_stream"]["web"]["scored"] == 4


def test_serve_http_frontend_round_trip(serve_setup):
    import json as json_mod
    import signal
    import urllib.request

    model_path, __, __n = serve_setup
    proc, banners = _spawn_serve([
        "serve", "--model", str(model_path), "--window", "32",
        "--http", "0",
    ])
    try:
        port = _banner_port(banners, "HTTP batch API")
        body = json_mod.dumps({"arrivals": [
            {"stream": "web", "values": [0.1]},
            {"stream": "web", "values": [0.2]},
            {"stream": "bad"},
        ]}).encode()
        request = urllib.request.Request(
            "http://127.0.0.1:%d/submit" % port, data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            reply = json_mod.loads(response.read())
        assert reply["accepted"] == 2
        assert [s["index"] for s in reply["scores"]] == [0, 1]
        assert len(reply["errors"]) == 1
        with urllib.request.urlopen(
                "http://127.0.0.1:%d/stats" % port, timeout=10) as response:
            stats = json_mod.loads(response.read())
        assert stats["per_stream"]["web"]["scored"] == 2
        assert stats["frontend"]["error_total"] == 1
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    except BaseException:
        proc.kill()
        raise
    assert proc.returncode == 0
