"""Command-line interface: run any method on a CSV time series.

Usage::

    python -m repro list-methods
    python -m repro detect --method RDAE --input series.csv --output scores.csv
    python -m repro detect --method RAE --input series.csv --threshold pot
    python -m repro pipeline --spec pipeline.json --input series.csv --save model
    python -m repro demo --method RAE
    python -m repro stream --method RAE --input - --train 200 --window 128
    python -m repro serve --model rae.npz --input - --state-dir state/
    python -m repro serve --model rae.npz --tcp 9000 --http 9001

``detect`` reads a CSV whose columns are the series dimensions (an optional
header row is auto-detected), computes per-observation outlier scores, and
writes/prints them.  When a labels column is named, PR/ROC AUC are reported;
with ``--threshold`` a binary label column is emitted too.

Every subcommand that builds a detector accepts ``--spec pipeline.json``
instead of ``--method``: the JSON is a :class:`repro.api.PipelineSpec` (or
bare :class:`repro.api.DetectorSpec`), the same document the Python API,
persistence sidecars, and router recovery all share — one construction
surface instead of per-subcommand argparse plumbing.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .datasets import load_dataset
from .eval import available_methods
from .metrics import pr_auc, roc_auc

__all__ = ["main", "build_parser", "read_series_csv", "write_scores_csv"]


def read_series_csv(path, labels_column=None):
    """Load a CSV into ``(values, labels_or_None)``.

    The first row is treated as a header when any of its cells is not
    numeric.  All non-label columns become series dimensions.  ``path`` may
    be ``"-"`` to read from stdin (the streaming idiom).
    """
    if str(path) == "-":
        lines = [line.strip() for line in sys.stdin if line.strip()]
    else:
        with open(path) as handle:
            lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError("empty CSV: %s" % path)
    first = lines[0].split(",")

    def numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    has_header = not all(numeric(cell) for cell in first)
    header = [cell.strip() for cell in first] if has_header else None
    rows = lines[1:] if has_header else lines
    data = np.array([[float(c) for c in row.split(",")] for row in rows])

    labels = None
    if labels_column is not None:
        if header is None:
            index = int(labels_column)
        elif labels_column in header:
            index = header.index(labels_column)
        else:
            raise KeyError("no column %r in header %s" % (labels_column, header))
        labels = data[:, index].astype(int)
        data = np.delete(data, index, axis=1)
    return data, labels


def write_scores_csv(path, scores, labels=None):
    with open(path, "w") as handle:
        if labels is None:
            handle.write("score\n")
            for value in scores:
                handle.write("%.10g\n" % value)
        else:
            handle.write("score,label\n")
            for value, label in zip(scores, labels):
                handle.write("%.10g,%d\n" % (value, label))


def _threshold_stage(args):
    """The spec threshold stage requested by --threshold/--threshold-param."""
    kind = getattr(args, "threshold", None)
    if not kind:
        if getattr(args, "threshold_param", None) is not None:
            raise SystemExit("--threshold-param needs --threshold "
                             "{quantile,mad,pot} to bind to")
        return None
    stage = {"kind": kind}
    param = getattr(args, "threshold_param", None)
    if param is not None:
        from .api import THRESHOLD_KINDS

        # Each kind's primary knob is the first entry of its spec schema.
        stage[THRESHOLD_KINDS[kind][0]] = param
    return stage


def _pipeline_from_args(args):
    """One construction path for every subcommand: spec file or --method.

    ``--spec`` wins when given; otherwise a minimal spec is assembled from
    ``--method``.  A ``--threshold`` flag overrides the spec's threshold
    stage either way.
    """
    from .api import DetectorSpec, Pipeline, PipelineSpec, read_spec

    if getattr(args, "spec", None):
        spec = read_spec(args.spec)
    else:
        spec = PipelineSpec(DetectorSpec(args.method))
    stage = _threshold_stage(args)
    if stage is not None:
        spec.threshold = stage
    return Pipeline(spec)


def _detector_from_args(args):
    """The bare detector for subcommands that stream/fit it themselves."""
    pipeline = _pipeline_from_args(args)
    if pipeline.spec.preprocess:
        print("note: the spec's preprocess stages are ignored by this "
              "subcommand (raw arrivals are scored); they apply in "
              "`detect` and `pipeline`", file=sys.stderr)
    return pipeline.detector


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Robust & explainable time series outlier detection "
                    "(Kieu et al., ICDE 2022 reproduction)",
    )
    parser.add_argument("--eager", action="store_true",
                        help="disable the tape-compiled training fast path "
                             "(repro.nn.tape) and train every fit eagerly; "
                             "results are bit-identical either way")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-methods", help="print the registered method names")

    def add_spec(p):
        p.add_argument("--spec",
                       help="pipeline/detector spec JSON (repro.api); "
                            "overrides --method")

    detect = sub.add_parser("detect", help="score a CSV time series")
    detect.add_argument("--method", default="RDAE",
                        help="method name (see list-methods)")
    add_spec(detect)
    detect.add_argument("--input", required=True, help="input CSV path")
    detect.add_argument("--output", help="output CSV path (default: stdout)")
    detect.add_argument("--labels-column",
                        help="name (or index for headerless CSVs) of a 0/1 "
                             "ground-truth column; enables AUC reporting")
    detect.add_argument("--top", type=int, default=5,
                        help="print the top-K scored positions")
    detect.add_argument("--threshold", choices=("quantile", "mad", "pot"),
                        help="emit binary labels via this "
                             "repro.metrics.thresholds estimator")
    detect.add_argument("--threshold-param", type=float,
                        help="the estimator's knob: quantile q (default "
                             "0.99), MAD k (default 5.0), or POT risk "
                             "(default 1e-3)")

    pipeline = sub.add_parser(
        "pipeline",
        help="run a spec-driven pipeline: score + threshold a CSV, "
             "optionally persisting (or reloading) the fitted pipeline",
    )
    pipeline.add_argument("--spec",
                          help="pipeline spec JSON (required unless --load)")
    pipeline.add_argument("--load",
                          help="reload a pipeline saved by --save (spec "
                               "sidecar + weights) and score with it "
                               "instead of fitting from --spec")
    pipeline.add_argument("--input", required=True, help="input CSV path")
    pipeline.add_argument("--output",
                          help="output CSV path (default: stdout)")
    pipeline.add_argument("--labels-column",
                          help="0/1 ground-truth column; enables AUC "
                               "reporting")
    pipeline.add_argument("--save",
                          help="persist the fitted pipeline to this stem "
                               "(<stem>.json spec sidecar + <stem>.npz "
                               "weights; see repro.core.save_pipeline)")
    pipeline.add_argument("--explain", action="store_true",
                          help="print per-channel attribution of the "
                               "flagged positions (explainable detectors)")

    demo = sub.add_parser("demo", help="run a method on a built-in surrogate")
    demo.add_argument("--method", default="RAE")
    add_spec(demo)
    demo.add_argument("--dataset", default="S5")
    demo.add_argument("--scale", type=float, default=0.15)

    stream = sub.add_parser(
        "stream",
        help="train on the head of a series, then score the rest point by "
             "point over a sliding window",
    )
    stream.add_argument("--method", default="RAE",
                        help="method name (see list-methods)")
    add_spec(stream)
    stream.add_argument("--input", required=True,
                        help="input CSV path, or '-' for stdin")
    stream.add_argument("--train", type=int, default=None,
                        help="observations read from the head of the input "
                             "to fit the detector (default: 200)")
    stream.add_argument("--window", type=int, default=128,
                        help="sliding-window capacity for streamed scoring")
    stream.add_argument("--model",
                        help="load a fitted RAE/RDAE from this .npz instead "
                             "of training on the head (see repro.core"
                             ".save_detector); --train is then ignored")
    stream.add_argument("--chunk", type=int, default=1,
                        help="arrivals scored per engine call (micro-batching)")
    stream.add_argument("--output", help="output CSV path (default: stdout)")

    serve = sub.add_parser(
        "serve",
        help="serve many interleaved streams: read 'stream_id,value...' "
             "lines, score bursts as micro-batched drains",
    )
    serve.add_argument("--input", default="-",
                       help="input path, or '-' (default) for stdin; each "
                            "line is 'stream_id,v1[,v2...]'")
    serve.add_argument("--model",
                       help="fitted RAE/RDAE .npz shared by every stream "
                            "shard (see repro.core.save_detector)")
    serve.add_argument("--method", default="RAE",
                       help="method to fit when --model is not given")
    add_spec(serve)
    serve.add_argument("--train-input",
                       help="CSV series to fit the shared detector on when "
                            "--model is not given")
    serve.add_argument("--state-dir",
                       help="shard-recovery directory: restored from on "
                            "startup when it holds a saved router, and "
                            "saved to on shutdown (see StreamRouter.save/"
                            "restore)")
    serve.add_argument("--window", type=int, default=128,
                       help="sliding-window capacity per stream shard")
    serve.add_argument("--queue-limit", type=int, default=4096,
                       help="bound on queued-but-unscored arrivals")
    serve.add_argument("--on-full", choices=("error", "drop-oldest"),
                       default="error",
                       help="backpressure policy when the queue is full")
    serve.add_argument("--drain-every", type=int, default=32,
                       help="arrivals buffered between scoring drains")
    serve.add_argument("--tcp", type=int, metavar="PORT",
                       help="serve the 'stream_id,value...' line protocol "
                            "on this TCP port (0 picks an ephemeral port); "
                            "replaces the --input loop — the process runs "
                            "until SIGTERM, which drains and shuts down")
    serve.add_argument("--http", type=int, metavar="PORT",
                       help="serve the JSON batch API on this HTTP port "
                            "(POST /submit, GET /stats; 0 picks an "
                            "ephemeral port); combinable with --tcp")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --tcp/--http "
                            "(default: 127.0.0.1)")
    serve.add_argument("--output", help="output CSV path (default: stdout)")
    serve.add_argument("--eager", action="store_true", dest="serve_eager",
                       help="disable the compiled inference path (grad-free "
                            "score tapes + stacked cross-detector programs) "
                            "and run every drain forward eagerly; scores "
                            "are bit-identical either way. REPRO_EAGER=1 "
                            "does the same")

    lint = sub.add_parser(
        "lint",
        help="statically check the codebase's determinism, tape-safety, "
             "lock-discipline and resource contracts (repro.analysis)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the full report as JSON")
    lint.add_argument("--rules",
                      help="comma-separated rule ids to run (default: all), "
                           "or 'list' to print the rule catalog")
    lint.add_argument("--list-suppressions", action="store_true",
                      help="enumerate every '# repro: lint-ok[...]' pragma "
                           "instead of linting; exits non-zero when any "
                           "pragma lacks a reason or names an unknown rule")
    return parser


def _emit_scores(args, scores, flags=None):
    """Write scores (and optional binary labels) per the --output choice."""
    if args.output:
        write_scores_csv(args.output, scores, flags)
        print("wrote %d scores to %s" % (len(scores), args.output))
    elif flags is None:
        for value in scores:
            print("%.10g" % value)
    else:
        for value, flag in zip(scores, flags):
            print("%.10g,%d" % (value, flag))


def _report_aucs(labels, scores):
    if labels is not None and 0 < labels.sum() < labels.size:
        print("PR-AUC  = %.4f" % pr_auc(labels, scores), file=sys.stderr)
        print("ROC-AUC = %.4f" % roc_auc(labels, scores), file=sys.stderr)


def _run_detect(args):
    values, labels = read_series_csv(args.input, args.labels_column)
    pipeline = _pipeline_from_args(args)
    # --threshold was merged into the spec by _pipeline_from_args, so this
    # also honours a threshold stage declared in the --spec file itself.
    if pipeline.spec.threshold is not None:
        result = pipeline.detect(values)
        scores, flags = result["scores"], result["labels"]
        print("threshold(%s) = %.10g, flagged %d/%d"
              % (pipeline.spec.threshold["kind"], result["threshold"],
                 flags.sum(), flags.size), file=sys.stderr)
    else:
        scores, flags = pipeline.fit_score(values), None
    _emit_scores(args, scores, flags)
    top = np.argsort(-scores)[: args.top]
    print("top-%d positions: %s" % (args.top, sorted(top.tolist())),
          file=sys.stderr)
    _report_aucs(labels, scores)
    return 0


def _run_pipeline(args):
    """Spec JSON -> fitted pipeline -> scores/labels (-> saved pipeline)."""
    from .core import load_pipeline

    if (args.spec is None) == (args.load is None):
        raise SystemExit("pipeline needs exactly one of --spec or --load")
    values, labels = read_series_csv(args.input, args.labels_column)
    if args.load:
        pipeline = load_pipeline(args.load)
        if args.explain and pipeline.is_fitted():
            # explain() attributes the fit-time decomposition; a loaded
            # pipeline scores this input warm, so the positions would index
            # a different series.
            raise SystemExit(
                "--explain needs a pipeline fitted on THIS input: it "
                "attributes the fit-time decomposition, which a --load'ed "
                "pipeline computed on its training series — use --spec to "
                "fit-and-explain here"
            )
        print("loaded %s pipeline (capabilities: %s%s)"
              % (pipeline.spec.detector.method,
                 ", ".join(sorted(pipeline.capabilities())),
                 ", fitted" if pipeline.is_fitted() else ""),
              file=sys.stderr)
    else:
        pipeline = _pipeline_from_args(args)
    if args.explain and "explainable" not in pipeline.capabilities():
        # Knowable before any work runs: fail here, not after the fit.
        raise SystemExit(
            "--explain needs an explainable detector (one exposing the "
            "decomposed outlier series), but %s declares only {%s}"
            % (pipeline.spec.detector.method,
               ", ".join(sorted(pipeline.capabilities())))
        )
    result = pipeline.detect(values)
    flags = result["labels"]
    print("threshold = %.10g, flagged %d/%d"
          % (result["threshold"], flags.sum(), flags.size), file=sys.stderr)
    _emit_scores(args, result["scores"], flags)
    _report_aucs(labels, result["scores"])
    if args.explain:
        report = pipeline.explain(np.flatnonzero(flags))
        for pos, channel in zip(np.flatnonzero(flags),
                                report["dominant_channels"]):
            print("position %d: dominant channel %d" % (pos, channel),
                  file=sys.stderr)
    if args.save:
        sidecar = pipeline.save(args.save)
        print("saved pipeline to %s" % sidecar, file=sys.stderr)
    return 0


def _iter_csv_rows(handle, rejected):
    """Yield finite float rows of one arity from a CSV stream lazily.

    A non-numeric first line is a header and is skipped.  Any later line
    that does not parse, holds a NaN/inf, or has another arity than the
    first row is skipped and counted in ``rejected[0]``: one bad line must
    neither end a live run nor poison the scoring window.
    """
    first = True
    arity = None
    for line in handle:
        line = line.strip()
        if not line:
            continue
        header, first = first, False
        try:
            row = np.array([float(c) for c in line.split(",")])
        except ValueError:
            if not header:
                rejected[0] += 1
            continue
        if not np.isfinite(row).all() or arity not in (None, row.shape[0]):
            rejected[0] += 1
            continue
        arity = row.shape[0]
        yield row


def _run_stream(args):
    """Live streaming loop: scores are emitted (and flushed) as arrivals are
    scored, so an open-ended pipe on stdin produces output continuously and
    memory stays bounded by the window — never by the stream length."""
    from .core import load_detector
    from .stream import StreamScorer

    source = sys.stdin if str(args.input) == "-" else open(args.input)
    rejected = [0]
    try:
        rows = _iter_csv_rows(source, rejected)
        if args.model:
            detector = load_detector(args.model)
            head_rows = []
        else:
            head = args.train if args.train is not None else 200
            head_rows = [row for __, row in zip(range(max(head, 2)), rows)]
            if len(head_rows) < 2:
                raise ValueError(
                    "need at least 2 observations to train on; got %d "
                    "(is the input empty?)" % len(head_rows)
                )
            detector = _detector_from_args(args)
            detector.fit(np.stack(head_rows))
        scorer = StreamScorer(detector, window=args.window)
        # Seed the window with the training tail so the first streamed
        # points have context (no scoring pass runs for the seed).
        if head_rows:
            scorer.seed(np.stack(head_rows[-args.window :]))

        out = open(args.output, "w") if args.output else sys.stdout
        streamed = 0
        try:
            if args.output:
                out.write("index,score\n")
            # A chunk larger than the window would evict (and zero-score)
            # its own oldest points; clamp so every line is a real score.
            chunk = int(np.clip(args.chunk, 1, args.window))
            pending = []
            index = len(head_rows)

            def emit(batch):
                nonlocal streamed, index
                for score in scorer.push_many(np.stack(batch)):
                    out.write("%d,%.10g\n" % (index, score))
                    index += 1
                    streamed += 1
                out.flush()

            for row in rows:
                pending.append(row)
                if len(pending) >= chunk:
                    emit(pending)
                    pending = []
            if pending:
                emit(pending)
        finally:
            if args.output:
                out.close()
        if args.output:
            print("wrote %d streamed scores to %s" % (streamed, args.output))
        print("streamed %d points (window=%d, method=%s)"
              % (streamed, args.window, detector.name), file=sys.stderr)
        if rejected[0]:
            print("rejected %d malformed, non-finite or wrong-arity "
                  "line(s)" % rejected[0], file=sys.stderr)
    finally:
        if source is not sys.stdin:
            source.close()
    return 0


def _run_serve(args):
    """Multi-stream serving over a ``stream_id,value...`` line protocol.

    One :class:`~repro.serve.FrontendEngine` serves every transport: stdin
    (or ``--input``) lines, or the ``--tcp``/``--http`` sockets.  Every
    ``--drain-every`` accepted arrivals the router drains the burst as one
    micro-batched scoring pass.  Stream shards are created on first sight
    of a new id, all sharing one fitted detector — which is what lets a
    drain group their forward passes.  Malformed, non-finite and
    wrong-arity lines (a CSV header row too) are counted per stream, and a
    shard that fails to ingest keeps its arrivals queued for the next
    drain.  Every exit path reports the rejections, saves ``--state-dir``
    and prints the per-stream stats.
    """
    from .core import load_detector
    from .serve import FrontendEngine, StreamRouter

    import json as _json

    manifest_path = (os.path.join(args.state_dir, "router.json")
                     if args.state_dir else None)
    restorable = manifest_path is not None and os.path.exists(manifest_path)
    # --model / --train-input double as the restore-time default-detector
    # override: shards whose fitted state could not be persisted (score-
    # mode non-RAE/RDAE detectors save spec-only) are only restartable
    # with a fitted instance supplied here.  Skip the (possibly expensive)
    # load/retrain when the manifest shows restore would discard it anyway
    # because the saved default has its own weights.
    need_override = True
    if restorable:
        with open(manifest_path) as handle:
            manifest = _json.load(handle)
        default = manifest.get("default_detector")
        need_override = (
            default is not None
            and manifest["detectors"][default]["weights"] is None
        )
    override = None
    if need_override:
        if args.model:
            override = load_detector(args.model)
        elif args.train_input:
            values, __ = read_series_csv(args.train_input)
            override = _detector_from_args(args)
            override.fit(values)
    elif restorable and (args.model or args.train_input):
        print("note: --model/--train-input ignored — the saved router's "
              "default detector restores from its own weights (saved "
              "weights always win; start a fresh --state-dir to serve a "
              "new model)", file=sys.stderr)
    if restorable:
        router = StreamRouter.restore(args.state_dir, detector=override)
        detector = router.detector if router.detector is not None else override
        print("restored %d stream(s) from %s"
              % (len(router), args.state_dir), file=sys.stderr)
        print("serving with the RESTORED configuration (window=%d, "
              "queue_limit=%d, on_full=%s); this run's --window/"
              "--queue-limit/--on-full flags do not apply"
              % (router.window, router.queue_limit, router.on_full),
              file=sys.stderr)
    elif override is not None:
        detector = override
        router = StreamRouter(
            detector,
            window=args.window,
            queue_limit=args.queue_limit,
            on_full=args.on_full.replace("-", "_"),
        )
    else:
        raise SystemExit("serve needs --model or --train-input (or a "
                         "--state-dir holding a saved router) — a shared "
                         "detector to serve every stream with")
    # Drain before the queue can fill: with the 'error' policy a
    # drain-every above the queue limit would raise QueueFullError before
    # the first drain was ever reached.  Clamp against the router's OWN
    # limit — a restored router keeps its saved queue_limit, not this
    # invocation's --queue-limit.
    engine = FrontendEngine(
        router,
        drain_every=int(np.clip(args.drain_every, 1, router.queue_limit)),
    )
    try:
        if args.tcp is not None or args.http is not None:
            _serve_network(args, engine)
        else:
            _serve_lines(args, engine)
    finally:
        # One shutdown path for every transport and every exit — EOF,
        # Ctrl-C, SIGTERM or a crash: whatever ends the loop must never
        # cost the session's accumulated shard state (an error still
        # propagates).  Checked before save() runs: inside an except
        # handler exc_info would report the save's own exception.
        unwinding = sys.exc_info()[0] is not None
        front_stats = engine.stats()["frontend"]
        if front_stats["error_total"]:
            print("rejected %d malformed/refused submission(s): %s"
                  % (front_stats["error_total"], front_stats["errors"]),
                  file=sys.stderr)
        if front_stats["failed_streams"]:
            print("streams whose last drain failed (arrivals kept queued): "
                  "%s" % front_stats["failed_streams"], file=sys.stderr)
        if args.state_dir:
            try:
                router.save(args.state_dir)
                print("saved router state to %s (restart with the same "
                      "--state-dir to resume)" % args.state_dir,
                      file=sys.stderr)
            except Exception as exc:
                if not unwinding:
                    raise  # clean shutdown: a failed save IS the error
                # already unwinding: report, don't mask the root cause
                print("warning: could not save router state: %s" % exc,
                      file=sys.stderr)
        _print_router_stats(router, router.window, detector)
    return 0


def _serve_lines(args, engine):
    """Feed stdin (or ``--input``) lines to ``engine`` as one producer.

    Each drain's rows are written to stdout (or ``--output``) as
    ``stream_id,index,score`` lines and flushed.  No sink is registered:
    a sink's exceptions are swallowed, whereas a broken output must raise.
    """
    source = sys.stdin if str(args.input) == "-" else open(args.input)
    out = open(args.output, "w") if args.output else sys.stdout
    origin = "stdin"

    def write(deliveries):
        if not deliveries:
            return
        # A restored backlog (origin None) was queued ahead of this run's
        # arrivals: per stream, its rows come first.
        by_stream = {}
        for row in deliveries.get(None, []) + deliveries.get(origin, []):
            by_stream.setdefault(row[0], []).append(row)
        for rows in by_stream.values():
            out.writelines("%s,%d,%.10g\n" % row for row in rows)
        out.flush()

    try:
        if args.output:
            out.write("stream,index,score\n")
        try:
            for line in source:
                engine.submit_line(origin, line)
                write(engine.maybe_drain())
        except KeyboardInterrupt:
            # An operator's Ctrl-C must still score the buffered tail.
            print("interrupted; draining %d buffered arrival(s)"
                  % engine.router.queue_counters()[0], file=sys.stderr)
        write(engine.drain())
    finally:
        if args.output:
            out.close()
        if source is not sys.stdin:
            source.close()


def _serve_network(args, engine):
    """Serve ``engine`` over TCP/HTTP until SIGTERM (or SIGINT).

    Scores flow back to the submitting connections (see
    :mod:`repro.serve.frontend`), not to stdout.  Stopping a frontend
    drains the buffered tail and delivers it to still-connected clients.
    """
    import signal
    import threading

    from .serve import HttpFrontend, TcpFrontend

    frontends, previous = [], {}
    stop = threading.Event()
    try:
        if args.tcp is not None:
            tcp = TcpFrontend(engine, host=args.host, port=args.tcp).start()
            frontends.append(tcp)
            print("serving TCP line protocol on %s:%d" % tcp.address,
                  file=sys.stderr, flush=True)
        if args.http is not None:
            http = HttpFrontend(engine, host=args.host, port=args.http).start()
            frontends.append(http)
            print("serving HTTP batch API on %s:%d" % http.address,
                  file=sys.stderr, flush=True)
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *__: stop.set()
            )
        print("ready (drain-every=%d); SIGTERM drains and shuts down"
              % engine.drain_every, file=sys.stderr, flush=True)
        stop.wait()
        print("shutting down: draining buffered arrivals", file=sys.stderr)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        for frontend in frontends:
            # stop() drains and delivers the tail before disconnecting.
            try:
                frontend.stop()
            except Exception as exc:  # noqa: BLE001 - keep shutting down
                print("warning: frontend shutdown failed: %s" % exc,
                      file=sys.stderr)


def _print_router_stats(router, window, detector):
    """The shutdown stats surface: router totals + per-stream counters."""
    stats = router.stats()
    # A restored router may have per-stream detectors and no default.
    method = detector.name if detector is not None else "per-stream"
    print("served %d streams: %d scored, %d dropped, %d drains "
          "(window=%d, method=%s)"
          % (stats["streams"], stats["scored"], stats["dropped"],
             stats["drains"], window, method), file=sys.stderr)
    cache = stats.get("program_cache")
    if cache is not None:
        print("program cache: %d hits, %d misses, %d invalidations"
              % (cache["hits"], cache["misses"], cache["invalidations"]),
              file=sys.stderr)
    for stream_id, per in stats["per_stream"].items():
        print("  %s: scored=%d dropped=%d lag=%d window_fill=%d mode=%s"
              % (stream_id, per["scored"], per["dropped"], per["lag"],
                 per["window_fill"], per["mode"]), file=sys.stderr)


def _run_demo(args):
    dataset = load_dataset(args.dataset, scale=args.scale)
    print(dataset.summary())
    ts = dataset[0]
    detector = _detector_from_args(args)
    scores = detector.fit_score(ts)
    print("%s on %s: PR-AUC = %.4f, ROC-AUC = %.4f" % (
        detector.name, ts.name, pr_auc(ts.labels, scores),
        roc_auc(ts.labels, scores),
    ))
    return 0


def _run_lint(args):
    from . import analysis

    if args.rules == "list":
        print(analysis.render_rule_list(analysis.all_rules()))
        return 0
    rules = None
    if args.rules:
        try:
            rules = analysis.rules_by_id(
                [part.strip() for part in args.rules.split(",")
                 if part.strip()]
            )
        except KeyError as exc:
            print("error: %s" % exc.args[0], file=sys.stderr)
            return 2
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    report = analysis.run_lint(paths, rules=rules)
    if args.list_suppressions:
        print(analysis.render_suppressions(report))
        # The audit findings are the gate: a pragma with no reason or an
        # unknown rule id must fail the listing, clean findings pass it.
        bad = [f for f in report.findings
               if f.rule in ("suppression-reason", "parse-error")]
        for finding in bad:
            print("%s:%d: [%s] %s" % (finding.path, finding.line,
                                      finding.rule, finding.message),
                  file=sys.stderr)
        return 1 if bad else 0
    if args.as_json:
        print(analysis.render_json(report))
    else:
        print(analysis.render_text(report))
    return 0 if report.ok else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "eager", False) or getattr(args, "serve_eager", False):
        from . import nn

        nn.tape.set_tape_enabled(False)
    if args.command == "list-methods":
        for name in available_methods():
            print(name)
        return 0
    if args.command == "detect":
        return _run_detect(args)
    if args.command == "pipeline":
        return _run_pipeline(args)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "lint":
        return _run_lint(args)
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
