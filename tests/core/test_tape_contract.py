"""Tape-vs-eager contract over the robust detector family.

The tape-compiled training path (repro.nn.tape) promises bit-identical
fits: for any fixed seed, scores, decomposition, and convergence trace must
match the eager reference exactly — for every RAE/RDAE registry method and
every ablation variant.  The ensemble's threaded fit makes the same promise
against its serial path, and (tape v2) so do the stochastic neural
baselines — softmax/dropout/reparameterisation draws now record through
the tape's buffer protocol instead of declining — and the ensemble's
``compile="batched"`` replay against its serial member fits.
"""

import numpy as np
import pytest

from repro.core import RAE, RobustEnsemble
from repro.core.ensemble import STACK_ACTIVATION_BYTES, _stacks
from repro.core.variants import make_ablation
from repro.eval import make_detector
from repro.nn import batched as nnb
from repro.nn import tape as nntape


def small_series(length=180, dims=1, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 25)[:, None] * np.ones((1, dims))
    return base + 0.1 * rng.standard_normal((length, dims))


def fit_with_tape(make, series, enabled):
    previous = nntape.set_tape_enabled(enabled)
    try:
        return make().fit(series)
    finally:
        nntape.set_tape_enabled(previous)


# Registry methods with a train_reconstruction loop, trimmed for test speed.
REGISTRY_CASES = {
    "RAE": {"max_iterations": 4},
    "RDAE": {"window": 20, "max_outer": 1, "inner_iterations": 2,
             "series_iterations": 2},
    "N-RAE": {"epochs": 4},
    "N-RDAE": {"window": 20, "epochs": 2},
}

ABLATION_CASES = {
    "RAE_FC": {"max_iterations": 3},
    "RDAE-f1": {"window": 20, "max_outer": 1, "inner_iterations": 2,
                "series_iterations": 2},
    "RDAE-f2": {"window": 20, "max_outer": 1, "inner_iterations": 2},
    "RDAE+MA": {"window": 20, "max_outer": 1, "inner_iterations": 2,
                "series_iterations": 2},
    "RDAE_FC": {"window": 20, "max_outer": 1, "inner_iterations": 2,
                "series_iterations": 2},
}


def assert_identical_fit(a, b, series):
    assert np.array_equal(a.score(series), b.score(series))
    assert np.array_equal(a.clean_series, b.clean_series)
    if getattr(a, "trace_", None) is not None:
        assert a.trace_.rmse == b.trace_.rmse
        assert a.trace_.condition1 == b.trace_.condition1
        assert a.trace_.condition2 == b.trace_.condition2
        assert a.trace_.converged == b.trace_.converged


@pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
def test_registry_method_tape_bit_equal(name):
    series = small_series(dims=1 if "RDAE" in name else 2)
    make = lambda: make_detector(name, seed=3, **REGISTRY_CASES[name])
    taped = fit_with_tape(make, series, True)
    eager = fit_with_tape(make, series, False)
    assert_identical_fit(taped, eager, series)


@pytest.mark.parametrize("name", sorted(ABLATION_CASES))
def test_ablation_tape_bit_equal(name):
    series = small_series(seed=5)
    make = lambda: make_ablation(name, seed=7, **ABLATION_CASES[name])
    taped = fit_with_tape(make, series, True)
    eager = fit_with_tape(make, series, False)
    assert_identical_fit(taped, eager, series)


def test_rae_tape_actually_replays(monkeypatch):
    """Guard for the whole contract suite: the default fit path really goes
    through recorded-tape replays (otherwise the equality tests compare
    eager with eager)."""
    replays = []
    original = nntape.TrainStepTape._replay_step

    def counting(self, inputs, target):
        replays.append(1)
        return original(self, inputs, target)

    monkeypatch.setattr(nntape.TrainStepTape, "_replay_step", counting)
    series = small_series()
    detector = fit_with_tape(lambda: RAE(max_iterations=4, seed=1),
                             series, True)
    assert len(replays) > 0
    # Fit releases the recorded graph once done (it retains MBs of buffers).
    assert detector.model_.__dict__.get("_tape_cache") is None


def test_tape_and_eager_state_dicts_match():
    series = small_series()
    taped = fit_with_tape(lambda: RAE(max_iterations=3, seed=2), series, True)
    eager = fit_with_tape(lambda: RAE(max_iterations=3, seed=2), series, False)
    st, se = taped.model_.state_dict(), eager.model_.state_dict()
    assert st.keys() == se.keys()
    for key in st:
        assert np.array_equal(st[key], se[key]), key


def test_score_new_unaffected_by_training_mode():
    series = small_series()
    fresh = small_series(seed=11)
    taped = fit_with_tape(lambda: RAE(max_iterations=3, seed=4), series, True)
    eager = fit_with_tape(lambda: RAE(max_iterations=3, seed=4), series, False)
    assert np.array_equal(taped.score_new(fresh), eager.score_new(fresh))


# --------------------------------------------------------------------- #
# Parallel ensemble fits
# --------------------------------------------------------------------- #

def test_ensemble_n_jobs_matches_serial():
    series = small_series(length=150)
    kwargs = dict(base="rae", n_members=3, max_iterations=2, seed=9)
    serial = RobustEnsemble(n_jobs=1, **kwargs).fit(series)
    threaded = RobustEnsemble(n_jobs=3, **kwargs).fit(series)
    assert np.array_equal(serial.score(series), threaded.score(series))
    assert np.array_equal(serial.clean_series, threaded.clean_series)
    for a, b in zip(serial.members_, threaded.members_):
        assert a.seed == b.seed
        assert a.kernels == b.kernels and a.kernel_size == b.kernel_size
        assert np.array_equal(a.score(series), b.score(series))


def test_ensemble_n_jobs_all_cpus():
    series = small_series(length=120)
    ens = RobustEnsemble(base="rae", n_members=2, max_iterations=1,
                         n_jobs=-1, seed=1).fit(series)
    assert len(ens.members_) == 2
    assert np.isfinite(ens.score(series)).all()


def test_ensemble_member_failure_propagates():
    with pytest.raises(ValueError):
        RobustEnsemble(base="rae", n_members=2, n_jobs=2,
                       max_iterations=1).fit(np.zeros((2, 2, 2)))


# --------------------------------------------------------------------- #
# Tape v2: stochastic neural baselines record and replay
# --------------------------------------------------------------------- #

# The PR 5 tape declined these four: softmax (TAE's attention, BeatGAN's
# discriminator head), dropout (TAE), and reparameterisation noise (Donut)
# baked record-time data into the recorded graph.  Tape v2's buffered
# primitives redraw per replayed epoch, so their fits must now record,
# replay, and stay bit-identical to eager.
NEURAL_CASES = {
    "RNNAE": {"window": 16, "epochs": 2, "batch_size": 16},
    "TAE": {"window": 16, "epochs": 2, "batch_size": 16},
    "BGAN": {"window": 16, "epochs": 2, "batch_size": 16},
    "DONUT": {"window": 16, "epochs": 2, "batch_size": 16, "mc_samples": 2},
}


@pytest.mark.parametrize("name", sorted(NEURAL_CASES))
def test_neural_baseline_tape_bit_equal_and_replays(name, monkeypatch):
    replays = []
    original = nntape.TrainStepTape._replay_step

    def counting(self, inputs, target):
        replays.append(1)
        return original(self, inputs, target)

    monkeypatch.setattr(nntape.TrainStepTape, "_replay_step", counting)
    series = small_series(length=120)
    make = lambda: make_detector(name, seed=3, **NEURAL_CASES[name])
    taped = fit_with_tape(make, series, True)
    taped_replays = len(replays)
    eager = fit_with_tape(make, series, False)
    # The fit really recorded and replayed (not a silent eager fallback,
    # which would make the equality below vacuous) ...
    assert taped_replays > 0
    assert len(replays) == taped_replays  # ... and eager never replays.
    assert np.array_equal(taped.score(series), eager.score(series))
    assert np.array_equal(taped.loss_history_, eager.loss_history_)


# --------------------------------------------------------------------- #
# Batched ensemble replay (compile="batched")
# --------------------------------------------------------------------- #

def fit_ensemble(series, compile=None, **kwargs):
    return fit_with_tape(
        lambda: RobustEnsemble(compile=compile, **kwargs), series, True
    )


def assert_identical_ensembles(a, b, series):
    assert np.array_equal(a.score(series), b.score(series))
    assert np.array_equal(a.clean_series, b.clean_series)
    for ma, mb in zip(a.members_, b.members_):
        assert ma.seed == mb.seed
        assert_identical_fit(ma, mb, series)


def test_ensemble_batched_matches_serial_bit_for_bit():
    series = small_series(length=150)
    kwargs = dict(base="rae", n_members=4, jitter=False, kernels=8,
                  max_iterations=3, seed=9)
    serial = fit_ensemble(series, **kwargs)
    batched = fit_ensemble(series, compile="batched", **kwargs)
    assert batched.compile_fallback_ == []  # the whole group batched
    assert_identical_ensembles(serial, batched, series)


def test_ensemble_batched_freezes_converged_members_exactly():
    """Members of one batched group converge at different iterations (and
    some never); each converged member's parameters freeze at its own
    convergence point exactly as its serial fit would have stopped."""
    series = small_series(length=150)
    kwargs = dict(base="rae", n_members=4, jitter=False, kernels=8,
                  max_iterations=8, epsilon=0.003, seed=0)
    serial = fit_ensemble(series, **kwargs)
    batched = fit_ensemble(series, compile="batched", **kwargs)
    iterations = [len(m.trace_.rmse) for m in batched.members_]
    converged = [m.trace_.converged for m in batched.members_]
    assert len(set(iterations)) > 1  # the freezing path really ran
    assert any(converged) and not all(converged)
    assert_identical_ensembles(serial, batched, series)


def test_ensemble_batched_jitter_groups_and_singletons():
    """With jittered architectures only identical-spec members batch;
    spec-singletons fall back to the serial fit with a recorded reason —
    and the combined result is still bit-identical to the serial ensemble."""
    series = small_series(length=150)
    kwargs = dict(base="rae", n_members=6, jitter=True,
                  max_iterations=2, seed=3)
    serial = fit_ensemble(series, **kwargs)
    batched = fit_ensemble(series, compile="batched", **kwargs)
    # Some members batched, some fell back (else this test proves nothing
    # about the mixed path).
    assert 0 < len(batched.compile_fallback_) < batched.n_members
    for reason in batched.compile_fallback_:
        assert "peer" in reason
    assert_identical_ensembles(serial, batched, series)


def test_ensemble_batched_splits_groups_by_activation_budget(monkeypatch):
    """Past the activation budget an identical-spec group fits as several
    near-equal stacks of >= 2 members, still bit-identical to the serial
    member fits and with no member falling back."""
    series = small_series(length=2100)
    kwargs = dict(base="rae", n_members=8, jitter=False, kernels=8,
                  max_iterations=2, seed=4)
    assert STACK_ACTIVATION_BYTES // (8 * 2100 * 8) < 8
    sizes = []
    stack_modules = nnb.stack_modules

    def counting(models):
        sizes.append(len(models))
        return stack_modules(models)

    serial = fit_ensemble(series, **kwargs)
    monkeypatch.setattr(nnb, "stack_modules", counting)
    batched = fit_ensemble(series, compile="batched", **kwargs)
    assert batched.compile_fallback_ == []
    assert len(sizes) >= 2 and sum(sizes) == 8  # the split really happened
    assert min(sizes) >= 2 and max(sizes) - min(sizes) <= 1
    assert_identical_ensembles(serial, batched, series)


@pytest.mark.parametrize("length", [200, 1000, 2100, 3000, 5000, 10**6])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_ensemble_stacks_are_ordered_near_equal_and_never_single(n, length):
    group = [RAE(kernels=8, seed=i) for i in range(n)]
    stacks = _stacks(group, length)
    sizes = [len(stack) for stack in stacks]
    assert [m for stack in stacks for m in stack] == group
    assert min(sizes) >= 2 and max(sizes) - min(sizes) <= 1
    cap = STACK_ACTIVATION_BYTES // (8 * length * 8)
    if cap >= 3:  # the fewest stacks that each stay under the budget
        assert max(sizes) <= cap and len(stacks) == -(-n // cap)
    else:  # no stack of 2 fits, or an odd group keeps one stack of 3
        assert set(sizes) <= {2, 3}


def test_ensemble_batched_rdae_falls_back_serial():
    series = small_series(length=150)
    kwargs = dict(base="rdae", n_members=2, window=20, max_outer=1,
                  inner_iterations=2, series_iterations=2, seed=5)
    serial = fit_ensemble(series, **kwargs)
    batched = fit_ensemble(series, compile="batched", **kwargs)
    assert len(batched.compile_fallback_) == 2
    for reason in batched.compile_fallback_:
        assert "no batched program" in reason
    assert_identical_ensembles(serial, batched, series)


def test_ensemble_compile_argument_is_validated():
    with pytest.raises(ValueError, match="compile"):
        RobustEnsemble(compile="jit")
