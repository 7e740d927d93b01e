"""Unit tests for the grad-free inference tapes and stacked programs.

The serving-level contract (bit-identical compiled drains) lives in
``tests/serve/test_compiled_drain.py``; these tests pin the building
blocks directly: :class:`repro.nn.tape.ScoreTape` record/replay, the one
program cache of :class:`repro.core.InferencePrograms` (shape-keyed
lookups, hot-swap invalidation, poisoned recordings, its bound), the O(1)
weights token, :func:`repro.nn.batched.stack_modules`'s accept/decline
decisions, and :class:`repro.nn.batched.StackedScoreProgram` replay.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import RAE, InferencePrograms, scoring
from repro.core.autoencoders import ConvSeriesAE, ConvTransform1d
from repro.nn import Adam, Conv1d, Module
from repro.nn import batched as nnbatched
from repro.nn import no_grad
from repro.nn import tape as nntape
from repro.nn.functional import stable_kernels
from repro.nn.tensor import Tensor, _poison_tape
from repro.rpca import apply_prox


def fitted_models(count=2, **kwargs):
    rng = np.random.default_rng(0)
    series = (np.sin(np.linspace(0, 20, 160))[:, None]
              + 0.1 * rng.standard_normal((160, 1)))
    params = {"max_iterations": 1, "epochs_per_iteration": 1}
    params.update(kwargs)
    return [RAE(seed=seed, **params).fit(series).model_
            for seed in range(count)]


def eager_forward(module, array):
    with no_grad(), stable_kernels():
        return module(Tensor(np.array(array))).data.copy()


def batch(seed=3, m=2, dims=1, length=48):
    return np.random.default_rng(seed).standard_normal((m, dims, length))


# --------------------------------------------------------------------- #
# ScoreTape
# --------------------------------------------------------------------- #

def test_score_tape_records_then_replays_bit_identically():
    module, = fitted_models(count=1)
    x = batch(m=1)
    tape = nntape.ScoreTape(module, x.shape)
    recorded = tape.run(x).copy()          # first run records
    assert np.array_equal(recorded, eager_forward(module, x))
    y = batch(seed=4, m=1)
    replayed = tape.run(y).copy()          # second run replays
    assert tape.replays == 1
    assert np.array_equal(replayed, eager_forward(module, y))


# --------------------------------------------------------------------- #
# the program cache: one (member ids, shape) -> program dict per router
# --------------------------------------------------------------------- #

def scaled_batch(seed=3, m=1, length=48):
    """A ``(S, C, D)`` scaled batch, the layout ``score_batch`` takes."""
    return np.random.default_rng(seed).standard_normal((m, length, 1))


def eager_scores(detector, scaled):
    return scoring._forward_scaled_batch(detector, "rae", scaled, stable=True)


def cached_program(programs, modules, shape):
    ids = tuple(id(module) for module in modules)
    return programs._programs[(ids, shape)][1]


def test_score_tape_cache_is_shape_keyed():
    __, (detector,) = fitted_detectors(count=1)
    programs = InferencePrograms()
    programs.score_batch([detector], "rae", scaled_batch())
    tape = cached_program(programs, [detector.model_], (1, 1, 48))
    assert isinstance(tape, nntape.ScoreTape)
    programs.score_batch([detector], "rae", scaled_batch(seed=4))
    assert cached_program(programs, [detector.model_], (1, 1, 48)) is tape
    assert programs.take_counters() == {
        "hits": 1, "misses": 1, "invalidations": 0,
    }
    programs.score_batch([detector], "rae", scaled_batch(length=32))
    assert programs.take_counters() == {
        "hits": 0, "misses": 1, "invalidations": 0,
    }


def test_score_tape_invalidates_on_weight_rebind():
    __, (detector,) = fitted_detectors(count=1)
    module = detector.model_
    programs = InferencePrograms()
    x = scaled_batch()
    programs.score_batch([detector], "rae", x)
    tape = cached_program(programs, [module], (1, 1, 48))
    # In-place updates keep the token (closures read .data live) ...
    np.copyto(module.readout.weight.data, module.readout.weight.data * 1.5)
    scores = programs.score_batch([detector], "rae", x)
    assert cached_program(programs, [module], (1, 1, 48)) is tape
    assert np.array_equal(scores, eager_scores(detector, x))
    assert programs.take_counters()["hits"] == 1
    # ... a rebind (atomic hot-swap) rebuilds and re-records.
    module.readout.weight.data = module.readout.weight.data * 2.0
    scores = programs.score_batch([detector], "rae", x)
    assert programs.take_counters() == {
        "hits": 0, "misses": 0, "invalidations": 1,
    }
    assert cached_program(programs, [module], (1, 1, 48)) is not tape
    assert np.array_equal(scores, eager_scores(detector, x))


def test_score_tape_cache_declines_when_disabled():
    __, (detector,) = fitted_detectors(count=1)
    programs = InferencePrograms()
    previous = nntape.set_tape_enabled(False)
    try:
        assert programs.score_batch([detector], "rae", scaled_batch()) is None
    finally:
        nntape.set_tape_enabled(previous)
    assert programs.counters() == {
        "hits": 0, "misses": 0, "invalidations": 0,
    }


class PoisoningConv(Module):
    """A tape-safe module whose forward poisons any recording of it."""

    tape_safe = True

    def __init__(self, rng):
        super().__init__()
        self.conv = Conv1d(1, 1, 3, rng=rng)

    def forward(self, x):
        _poison_tape("test: bakes run-time data into the graph")
        return self.conv(x)


def test_cache_declines_a_poisoned_stacked_recording():
    members = [
        SimpleNamespace(model_=PoisoningConv(np.random.default_rng(seed)),
                        lam=0.1, prox="l1")
        for seed in range(2)
    ]
    programs = InferencePrograms()
    x = scaled_batch(m=2)
    # The recording run is an eager forward, so its scores are right ...
    scores = programs.score_batch(members, "rae", x)
    modules = [member.model_ for member in members]
    assert cached_program(programs, modules, (2, 1, 48)).failed
    recon = np.concatenate([
        eager_forward(module, x[i:i + 1].transpose(0, 2, 1))
        for i, module in enumerate(modules)
    ]).transpose(0, 2, 1)
    residual = x - recon
    outlier = apply_prox(residual, 0.1, "l1")
    expected = (outlier**2).sum(axis=2) + 1e-9 * (residual**2).sum(axis=2)
    assert np.array_equal(scores, expected)
    # ... but the poisoned program never replays.
    assert programs.score_batch(members, "rae", x) is None


# --------------------------------------------------------------------- #
# stacked modules and programs
# --------------------------------------------------------------------- #

def test_stack_modules_accepts_same_spec_members():
    modules = fitted_models(count=3)
    # A member's recorded tapes belong to it; stacking must not copy them.
    x = batch(m=1)
    nntape.training_tape(modules[0], x, x).step(x, x)
    stacked = nnbatched.stack_modules(modules)
    assert "_tape_cache" not in stacked.__dict__
    assert "_tape_cache" in modules[0].__dict__
    names = [name for name, __ in modules[0].named_parameters()]
    assert [name for name, __ in stacked.named_parameters()] == names
    for j, module in enumerate(modules):
        for (__, p), (__, q) in zip(stacked.named_parameters(),
                                    module.named_parameters()):
            assert p.data.shape == (3,) + q.data.shape
            assert np.array_equal(p.data[j], q.data)


def test_stack_modules_declines_mixed_specs_and_fc():
    wide, = fitted_models(count=1, kernels=8)
    narrow, = fitted_models(count=1, kernels=4)
    with pytest.raises(ValueError, match="diverge"):
        nnbatched.stack_modules([wide, narrow])
    fc = fitted_models(count=2, arch="fc")
    with pytest.raises(ValueError, match="only Conv1d"):
        nnbatched.stack_modules(fc)
    with pytest.raises(ValueError):
        nnbatched.StackedScoreProgram(fc, (2, 1, 48))


def test_stacked_program_matches_solo_forwards_bit_for_bit():
    modules = fitted_models(count=3)
    program = nnbatched.StackedScoreProgram(modules, (3, 1, 48))
    for seed in (3, 4):                    # first run records, then replays
        x = batch(seed=seed, m=3)
        stacked = program.run(x).copy()
        for j, module in enumerate(modules):
            assert np.array_equal(stacked[j],
                                  eager_forward(module, x[j:j + 1])[0])
    assert program.replays == 1


#: (input channels, member constructor) per serving architecture.
ARCHITECTURES = {
    "rae-8x2": (1, lambda rng: ConvSeriesAE(1, kernels=8, num_layers=2,
                                            rng=rng)),
    "rae-2dim": (2, lambda rng: ConvSeriesAE(2, rng=rng)),
    "rdae-f2": (1, lambda rng: ConvTransform1d(1, rng=rng)),
}


@pytest.mark.parametrize("length", [24, 40, 128])
@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_stacked_program_matches_solo_across_architectures(arch, length):
    dims, build = ARCHITECTURES[arch]
    modules = [build(np.random.default_rng(seed)) for seed in range(4)]
    program = nnbatched.StackedScoreProgram(modules, (4, dims, length))
    for seed in (5, 6):                    # first run records, then replays
        x = batch(seed=seed, m=4, dims=dims, length=length)
        stacked = program.run(x).copy()
        for j, module in enumerate(modules):
            assert np.array_equal(stacked[j],
                                  eager_forward(module, x[j:j + 1])[0])


def test_stacked_program_rejects_wrong_member_count():
    modules = fitted_models(count=2)
    with pytest.raises(ValueError):
        nnbatched.StackedScoreProgram(modules, (3, 1, 48))
    program = nnbatched.StackedScoreProgram(modules, (2, 1, 48))
    for __ in range(2):                    # before and after recording
        with pytest.raises(ValueError):
            program.run(batch(m=3))
        # One row would broadcast into both members' rows.
        with pytest.raises(ValueError):
            program.run(batch(m=1))
        program.run(batch(m=2))


def test_score_tape_rejects_mis_shaped_input():
    module, = fitted_models(count=1)
    tape = nntape.ScoreTape(module, (2, 1, 48))
    for __ in range(2):                    # before and after recording
        with pytest.raises(ValueError):
            tape.run(batch(m=1))
        with pytest.raises(ValueError):
            tape.run(batch(m=2, length=47))
        tape.run(batch(m=2))
    assert tape.replays == 1


# --------------------------------------------------------------------- #
# the weights token: (module ids, weights generation)
# --------------------------------------------------------------------- #

def test_weights_token_survives_in_place_updates():
    modules = fitted_models(count=2)
    token = nntape.weights_token(modules)
    weight = modules[0].readout.weight
    np.copyto(weight.data, weight.data * 1.5)
    assert nntape.weights_token(modules) == token
    # The optimisers update in place (`p.data -= ...` hands the same
    # array back to the setter), so training steps keep the token too.
    optimizer = Adam(modules[0].parameters(), lr=1e-3)
    for param in modules[0].parameters():
        param.grad = np.ones_like(param.data)
    optimizer.step()
    assert nntape.weights_token(modules) == token


def test_weights_token_changes_on_rebind_and_construction():
    modules = fitted_models(count=2)
    token = nntape.weights_token(modules)
    weight = modules[1].readout.weight
    weight.data = weight.data.copy()
    rebound = nntape.weights_token(modules)
    assert rebound != token
    # Handing the current array back is not a rebind.
    weight.data = weight.data
    assert nntape.weights_token(modules) == rebound
    Conv1d(1, 1, 3)
    assert nntape.weights_token(modules) != rebound
    assert nntape.weights_token(modules[::-1]) != nntape.weights_token(modules)


def compiled_and_eager_routers(detectors, window=32):
    """Two routers over the same detector objects: one drains compiled,
    the other eager, so every hot-swap reaches both."""
    from repro.serve import StreamRouter

    routers = [StreamRouter(window=window, min_points=2) for __ in range(2)]
    for router in routers:
        for index, detector in enumerate(detectors):
            router.add_stream("s%d" % index, detector)
    return routers


def drain_both(routers, detectors, seed):
    rows = np.random.default_rng(seed).standard_normal((4, 1))
    drained = []
    for router, compiled in zip(routers, (True, False)):
        for index in range(len(detectors)):
            router.submit_many("s%d" % index, rows + 0.1 * index)
        previous = nntape.set_tape_enabled(compiled)
        try:
            drained.append(router.drain())
        finally:
            nntape.set_tape_enabled(previous)
    return drained


def assert_drains_equal(compiled, eager):
    assert set(compiled) == set(eager)
    for sid in compiled:
        assert np.array_equal(compiled[sid], eager[sid]), sid


def fitted_detectors(count=3):
    series = (np.sin(np.linspace(0, 20, 160))[:, None]
              + 0.1 * np.random.default_rng(0).standard_normal((160, 1)))
    return series, [
        RAE(seed=seed, max_iterations=1, epochs_per_iteration=1).fit(series)
        for seed in range(count)
    ]


def test_two_rebinds_between_drains_score_like_eager():
    __, detectors = fitted_detectors()
    routers = compiled_and_eager_routers(detectors)
    for seed in range(12):                 # warm: windows full, programs hit
        assert_drains_equal(*drain_both(routers, detectors, seed))
    weight = detectors[1].model_.readout.weight
    weight.data = weight.data * 2.0
    weight.data = weight.data * -0.5       # the first new array is freed
    assert_drains_equal(*drain_both(routers, detectors, 12))
    assert_drains_equal(*drain_both(routers, detectors, 13))


def test_refitting_a_member_twice_between_drains_scores_like_eager():
    series, detectors = fitted_detectors()
    routers = compiled_and_eager_routers(detectors)
    for seed in range(12):
        assert_drains_equal(*drain_both(routers, detectors, seed))
    # Each fit builds new module objects and frees the previous ones, so
    # a member's module id can come back while its weights differ.
    detectors[2].fit(series * 1.1)
    detectors[2].fit(series * 0.9)
    assert_drains_equal(*drain_both(routers, detectors, 12))
    assert_drains_equal(*drain_both(routers, detectors, 13))
