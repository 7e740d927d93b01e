"""Training throughput: tape-compiled fits must beat eager, bit-identically.

These claims are measured (and the raw numbers recorded under
``bench-results/`` so BENCH trajectories can accumulate across PRs):

1. ``train_reconstruction`` — the unit the tape compiles — replays markedly
   faster than eager graph-rebuilding at paper-default RAE architecture.
2. ``RAE().fit`` end-to-end is faster with the tape and produces
   bit-identical scores, decomposition, and convergence trace.
3. ``RobustEnsemble.fit(n_jobs=N)`` fits members concurrently with
   bit-identical results to serial; wall-clock scaling is asserted only on
   multi-core hosts (member fits are BLAS-bound; one core serialises them).
4. ``RobustEnsemble.fit(compile="batched")`` — tape v2's batched replay —
   fits an identical-spec 8-member group as one leading-axis-batched tape
   program, >=2x faster than the threaded member fits on one core and
   bit-identical to them (the identity is asserted on every host).
5. At the train workload's shape (8 members, 2000 points, 30 iterations)
   the batched fit, split into activation-budget stacks, keeps pace with
   the serial member fits on one core, and is bit-identical to them.
6. ``RDAE().fit`` at paper defaults — the 2D-conv lagged-matrix fit — is
   bit-identical with and without the tape; both times are recorded (no
   ratio is asserted).

Context for the speedup floors: this PR also rewrote the conv1d/conv2d
kernels from im2col einsum to per-tap GEMM, which made *eager* fits ~2-3x
faster than the previous release.  The asserted tape-vs-eager ratios are on
top of that faster eager baseline (combined, a paper-default ``RAE().fit``
on a 10k-point series runs >2x faster than before this PR); asserting
against the shipped eager path keeps the comparison honest.

Timings use CPU time (``time.process_time``) with interleaved A/B rounds
and medians: the ratio assertions must not flake on a loaded CI runner.

``REPRO_BENCH_TINY=1`` shrinks every size so CI smoke runs exercise the
measured paths end-to-end in seconds; wall-clock/CPU ratio assertions are
skipped in tiny mode (the bit-identity assertions are not).
"""

import os
import time

import numpy as np
import pytest
from _records import TINY, record_result

from repro import nn
from repro.core import RAE, RDAE, RobustEnsemble
from repro.core.autoencoders import ConvSeriesAE, train_reconstruction
from repro.nn import tape as nntape

LENGTH = 1_200 if TINY else 10_000
STEP_LENGTH = 800 if TINY else 5_000
RDAE_LENGTH = 120 if TINY else 200
FIT_ITERATIONS = 2 if TINY else 6
ROUNDS = 1 if TINY else 3

RESULTS_FILE = "train_throughput.json"


def make_series(seed, length=LENGTH):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return (np.sin(2 * np.pi * t / 50)
            + 0.1 * rng.standard_normal(length))[:, None]


def _with_tape(enabled, fn):
    previous = nntape.set_tape_enabled(enabled)
    try:
        return fn()
    finally:
        nntape.set_tape_enabled(previous)


@pytest.mark.slow
def test_train_step_tape_replay_beats_eager():
    """The compiled unit: repeated train_reconstruction calls on one model
    (the ADMM pattern) must replay faster than eager graph rebuilding.

    ``slow``-marked like the other thin-margin ratio benchmarks: timing
    ratios this small (1.2-1.5x on an idle 1-core host) flake under the
    allocator/CPU state a full tier-1 run leaves behind.  CI's bench-smoke
    job still runs it tiny (bit-identity asserted, ratios recorded).

    Eager and tape steps alternate call-by-call on two live models, so a
    noisy/contended runner degrades both sides alike and the asserted
    ratio stays meaningful."""
    x = make_series(0, STEP_LENGTH).T[None]  # (1, 1, L)

    def build():
        model = ConvSeriesAE(1, rng=np.random.default_rng(0))
        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        train_reconstruction(model, optimizer, x, epochs=3)  # warm/record
        return model, optimizer

    eager_model, eager_opt = _with_tape(False, build)
    tape_model, tape_opt = _with_tape(True, build)

    def one_step(enabled, model, optimizer):
        def run():
            started = time.process_time()
            train_reconstruction(model, optimizer, x, epochs=3)
            return time.process_time() - started
        return _with_tape(enabled, run)

    eager_s, tape_s = [], []
    for __ in range(4 if TINY else 20 * ROUNDS):
        eager_s.append(one_step(False, eager_model, eager_opt))
        tape_s.append(one_step(True, tape_model, tape_opt))
    eager, tape = float(np.median(eager_s)), float(np.median(tape_s))
    speedup = eager / max(tape, 1e-12)
    print("\ntrain_reconstruction(epochs=3) at L=%d: eager %.2f ms, "
          "tape %.2f ms (%.2fx)" % (STEP_LENGTH, 1e3 * eager, 1e3 * tape, speedup))
    record_result(RESULTS_FILE, "train_step", {
        "length": STEP_LENGTH, "eager_ms": 1e3 * eager, "tape_ms": 1e3 * tape,
        "speedup": speedup,
    })
    if not TINY:
        assert speedup >= 1.2, (
            "tape replay only %.2fx faster than eager graph rebuild" % speedup
        )


@pytest.mark.slow
def test_rae_fit_tape_speedup_and_bit_identity():
    """End-to-end RAE().fit at paper-default architecture on a long series:
    faster with the tape, and bit-identical — scores, clean series, and the
    full convergence trace (asserted, not eyeballed).

    The honest numbers, for the record: the tape replays the fit 1.2-1.35x
    faster than the *shipped* eager path.  The ISSUE's ≥2x target is met
    only against the pre-PR baseline — this PR's per-tap GEMM kernel
    rewrite made eager itself ~2x faster, and asserting against that
    faster eager keeps the comparison honest (see CHANGES.md)."""
    series = make_series(1)

    def fit():
        detector = RAE(max_iterations=FIT_ITERATIONS)
        started = time.process_time()
        detector.fit(series)
        return time.process_time() - started, detector

    _with_tape(True, fit)  # warm caches/BLAS before timing
    eager_s, tape_s = [], []
    for __ in range(ROUNDS):
        elapsed, eager_det = _with_tape(False, fit)
        eager_s.append(elapsed)
        elapsed, tape_det = _with_tape(True, fit)
        tape_s.append(elapsed)

    # The contract, independent of timing: identical fixed-seed results.
    assert np.array_equal(eager_det.score(series), tape_det.score(series))
    assert np.array_equal(eager_det.clean_series, tape_det.clean_series)
    assert np.array_equal(eager_det.outlier_series, tape_det.outlier_series)
    assert eager_det.trace_.rmse == tape_det.trace_.rmse
    assert eager_det.trace_.condition1 == tape_det.trace_.condition1
    assert eager_det.trace_.condition2 == tape_det.trace_.condition2

    eager, tape = float(np.median(eager_s)), float(np.median(tape_s))
    speedup = eager / max(tape, 1e-12)
    print("\nRAE(paper-default).fit on %d points (%d iterations): "
          "eager %.3f s, tape %.3f s (%.2fx, bit-identical)"
          % (LENGTH, FIT_ITERATIONS, eager, tape, speedup))
    record_result(RESULTS_FILE, "rae_fit", {
        "length": LENGTH, "iterations": FIT_ITERATIONS,
        "eager_s": eager, "tape_s": tape, "speedup": speedup,
    })
    if not TINY:
        assert speedup >= 1.1, (
            "tape-compiled RAE fit only %.2fx faster than eager" % speedup
        )


@pytest.mark.slow
def test_rdae_fit_tape_bit_identity_and_seconds():
    """Paper-default RDAE().fit on a short series, tape against eager.

    Most of this fit is conv2d forward and backward over the (window x
    columns) lagged matrix, so its seconds track the conv2d kernel.  The
    fits must agree bit for bit; the seconds are recorded, not asserted."""
    series = make_series(4, RDAE_LENGTH)

    def fit():
        detector = RDAE(max_outer=2) if TINY else RDAE()
        started = time.perf_counter()
        detector.fit(series)
        return time.perf_counter() - started, detector

    _with_tape(True, fit)  # warm caches/BLAS before timing
    eager_s, tape_s = [], []
    for __ in range(ROUNDS):
        elapsed, eager_det = _with_tape(False, fit)
        eager_s.append(elapsed)
        elapsed, tape_det = _with_tape(True, fit)
        tape_s.append(elapsed)

    assert np.array_equal(eager_det.score(series), tape_det.score(series))
    assert np.array_equal(eager_det.clean_series, tape_det.clean_series)
    assert np.array_equal(eager_det.outlier_series, tape_det.outlier_series)
    assert eager_det.trace_.rmse == tape_det.trace_.rmse

    eager, tape = float(np.median(eager_s)), float(np.median(tape_s))
    print("\nRDAE(paper-default).fit on %d points: eager %.3f s, tape %.3f s "
          "(bit-identical)" % (RDAE_LENGTH, eager, tape))
    record_result(RESULTS_FILE, "rdae_fit", {
        "length": RDAE_LENGTH, "eager_s": eager, "tape_s": tape,
        "speedup": eager / max(tape, 1e-12),
    })


def _time_ensemble_pair(length, members, iterations):
    series = make_series(2, length)
    kwargs = dict(base="rae", n_members=members, seed=0,
                  max_iterations=iterations)
    started = time.perf_counter()
    serial = RobustEnsemble(n_jobs=1, **kwargs).fit(series)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    threaded = RobustEnsemble(n_jobs=-1, **kwargs).fit(series)
    threaded_s = time.perf_counter() - started
    return series, serial, threaded, serial_s, threaded_s


def test_ensemble_n_jobs_determinism():
    """Threaded member fits are bit-identical to serial — the part of the
    n_jobs contract that must hold on every host, every run."""
    series, serial, threaded, serial_s, threaded_s = _time_ensemble_pair(
        900 if TINY else 3_000, 3 if TINY else 5, 1 if TINY else 3
    )
    assert np.array_equal(serial.score(series), threaded.score(series))
    assert np.array_equal(serial.clean_series, threaded.clean_series)
    for a, b in zip(serial.members_, threaded.members_):
        assert np.array_equal(a.score(series), b.score(series))

    cores = os.cpu_count() or 1
    speedup = serial_s / max(threaded_s, 1e-12)
    print("\n%d-member ensemble fit on %d points: serial %.2f s, "
          "n_jobs=-1 %.2f s (%.2fx on %d cores, bit-identical)"
          % (serial.n_members, series.shape[0], serial_s, threaded_s,
             speedup, cores))
    if TINY:
        reason = "tiny mode: sizes too small for a meaningful ratio"
    elif cores < 2:
        reason = ("single-core host: threaded fits cannot overlap, "
                  "ratio not meaningful")
    else:
        reason = None
    record_result(RESULTS_FILE, "ensemble_n_jobs", {
        "members": serial.n_members, "length": int(series.shape[0]),
        "serial_s": serial_s, "threaded_s": threaded_s, "speedup": speedup,
    }, skipped_reason=reason)


def _time_batched_pair(length, iterations, rounds):
    """Interleaved threaded-vs-batched ensemble fits, median of rounds."""
    series = make_series(3, length)
    kwargs = dict(base="rae", n_members=8, jitter=False, kernels=8, seed=0,
                  max_iterations=iterations, epochs_per_iteration=3)
    threaded_s, batched_s = [], []
    threaded = batched = None
    for __ in range(rounds):
        started = time.perf_counter()
        threaded = RobustEnsemble(n_jobs=-1, **kwargs).fit(series)
        threaded_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        batched = RobustEnsemble(compile="batched", **kwargs).fit(series)
        batched_s.append(time.perf_counter() - started)
    return (series, threaded, batched,
            float(np.median(threaded_s)), float(np.median(batched_s)))


def test_ensemble_batched_replay_beats_threaded():
    """The tape v2 headline: an 8-member identical-spec ensemble fitted as
    one leading-axis-batched tape replay must beat the threaded member
    fits >=2x on one core, bit-identically.

    Threads cannot overlap the interpreter-bound share of a member fit on
    one core (and the GIL serialises it on any core); the batched program
    replaces 8 python training loops with one stacked-GEMM program, so one
    replayed epoch trains every member.  The bit-identity half of the
    contract is asserted on every host and in tiny mode; the ratio is
    asserted where the claim is defined — full sizes, single core — and
    recorded (with ``skipped_reason``) elsewhere, per the BENCH-trajectory
    convention.
    """
    cores = os.cpu_count() or 1
    series, threaded, batched, threaded_s, batched_s = _time_batched_pair(
        150 if TINY else 200, 3 if TINY else 10, 1 if TINY else ROUNDS
    )

    # The contract, independent of timing: bit-identical members.
    assert batched.compile_fallback_ == []
    assert np.array_equal(threaded.score(series), batched.score(series))
    assert np.array_equal(threaded.clean_series, batched.clean_series)
    for a, b in zip(threaded.members_, batched.members_):
        assert np.array_equal(a.score(series), b.score(series))

    speedup = threaded_s / max(batched_s, 1e-12)
    print("\n8-member batched ensemble on %d points: n_jobs=-1 %.3f s, "
          "compile='batched' %.3f s (%.2fx on %d cores, bit-identical)"
          % (series.shape[0], threaded_s, batched_s, speedup, cores))
    if TINY:
        reason = "tiny mode: sizes too small for a meaningful ratio"
    elif cores > 1:
        reason = ("multi-core host: threaded member fits overlap, the "
                  "1-core replay claim is out of scope")
    else:
        reason = None
    record_result(RESULTS_FILE, "ensemble_batched", {
        "members": 8, "length": int(series.shape[0]),
        "iterations": 3 if TINY else 10,
        "threaded_s": threaded_s, "batched_s": batched_s, "speedup": speedup,
    }, skipped_reason=reason)
    if reason is None:
        assert speedup >= 2.0, (
            "batched ensemble replay only %.2fx faster than threaded "
            "member fits on one core" % speedup
        )


#: Stacks of 2 fit the train shape at parity with the serial member fits:
#: pinned to one CPU with one BLAS thread (2-vCPU Xeon guest), medians of 3
#: interleaved rounds read 2.29 vs 2.13 s and 2.57 vs 2.77 s (batched vs
#: serial).  The slack covers that run-to-run spread.
TRAIN_SHAPE_SLACK = 1.1


@pytest.mark.slow
def test_ensemble_batched_stacks_at_train_shape():
    """The train workload's ensemble: 8 identical-spec members on 2000
    points at the paper-default 30 ADMM iterations.  The activation budget
    fits this group as several stacks rather than one stack of 8; batched
    must keep pace with the serial member fits on one core, and must match
    them bit for bit on every host, tiny mode included (600 points still
    splits the group)."""
    cores = os.cpu_count() or 1
    length, iterations = (600, 2) if TINY else (2_000, 30)
    series = make_series(5, length)
    kwargs = dict(base="rae", n_members=8, jitter=False, seed=0,
                  max_iterations=iterations)
    serial_s, batched_s = [], []
    for __ in range(ROUNDS):
        started = time.process_time()
        serial = RobustEnsemble(**kwargs).fit(series)
        serial_s.append(time.process_time() - started)
        started = time.process_time()
        batched = RobustEnsemble(compile="batched", **kwargs).fit(series)
        batched_s.append(time.process_time() - started)

    assert batched.compile_fallback_ == []
    assert np.array_equal(serial.score(series), batched.score(series))
    assert np.array_equal(serial.clean_series, batched.clean_series)
    for a, b in zip(serial.members_, batched.members_):
        assert np.array_equal(a.score(series), b.score(series))
        assert np.array_equal(a.clean_series, b.clean_series)
        assert np.array_equal(a.outlier_series, b.outlier_series)
        assert a.trace_.rmse == b.trace_.rmse

    serial_s, batched_s = float(np.median(serial_s)), float(np.median(batched_s))
    print("\n8-member ensemble on %d points, %d iterations: serial %.3f s, "
          "compile='batched' %.3f s (bit-identical)"
          % (length, iterations, serial_s, batched_s))
    if TINY:
        reason = "tiny mode: sizes too small for a meaningful ratio"
    elif cores > 1:
        reason = ("multi-core host: BLAS threads share the cores, the "
                  "1-core claim is out of scope")
    else:
        reason = None
    record_result(RESULTS_FILE, "ensemble_batched_train_shape", {
        "members": 8, "length": length, "iterations": iterations,
        "serial_s": serial_s, "batched_s": batched_s,
    }, skipped_reason=reason)
    if reason is None:
        assert batched_s <= TRAIN_SHAPE_SLACK * serial_s, (
            "batched ensemble %.3f s slower than serial %.3f s at the train "
            "shape on one core" % (batched_s, serial_s)
        )


@pytest.mark.slow
def test_ensemble_batched_multicore_numbers():
    """Multi-core record: threaded fits overlap BLAS across cores, the
    batched replay stays single-threaded python over bigger GEMMs — the
    trajectory wants both numbers wherever they can be measured."""
    cores = os.cpu_count() or 1
    if TINY or cores < 2:
        record_result(RESULTS_FILE, "ensemble_batched_multicore", {}, skipped_reason=(
            "needs >=2 cores and full sizes for a meaningful comparison"))
        pytest.skip("needs >=2 cores and full sizes")
    series, threaded, batched, threaded_s, batched_s = _time_batched_pair(
        200, 10, ROUNDS
    )
    assert np.array_equal(threaded.score(series), batched.score(series))
    speedup = threaded_s / max(batched_s, 1e-12)
    print("\nmulti-core: n_jobs=-1 %.3f s vs batched %.3f s (%.2fx on %d "
          "cores)" % (threaded_s, batched_s, speedup, cores))
    record_result(RESULTS_FILE, "ensemble_batched_multicore", {
        "members": 8, "length": int(series.shape[0]), "cores": cores,
        "threaded_s": threaded_s, "batched_s": batched_s, "speedup": speedup,
    })


@pytest.mark.slow
def test_ensemble_n_jobs_scaling():
    """Wall-clock scaling of threaded member fits — multi-core hosts only
    (one core serialises the BLAS-bound member fits)."""
    cores = os.cpu_count() or 1
    if TINY or cores < 4:
        record_result(RESULTS_FILE, "ensemble_scaling", {}, skipped_reason=(
            "needs >=4 cores and full sizes for a meaningful ratio"))
        pytest.skip("needs >=4 cores and full sizes for a meaningful ratio")
    __, __, __, serial_s, threaded_s = _time_ensemble_pair(3_000, 5, 3)
    speedup = serial_s / max(threaded_s, 1e-12)
    print("\nensemble scaling: serial %.2f s, threaded %.2f s (%.2fx on %d "
          "cores)" % (serial_s, threaded_s, speedup, cores))
    record_result(RESULTS_FILE, "ensemble_scaling", {
        "serial_s": serial_s, "threaded_s": threaded_s, "speedup": speedup,
    })
    assert speedup >= 1.3, (
        "threaded ensemble fit only %.2fx faster on %d cores"
        % (speedup, cores)
    )
