"""Unit tests for the grad-free inference tapes and stacked programs.

The serving-level contract (bit-identical compiled drains) lives in
``tests/serve/test_compiled_drain.py``; these tests pin the building
blocks directly: :class:`repro.nn.tape.ScoreTape` record/replay,
shape-keyed caching with hot-swap invalidation, the O(1) weights token,
:func:`repro.nn.batched.stack_modules`'s accept/decline decisions,
and :class:`repro.nn.batched.StackedScoreProgram` replay + refresh.
"""

import numpy as np
import pytest

from repro.core import RAE
from repro.core.autoencoders import ConvSeriesAE, ConvTransform1d
from repro.nn import Adam, Conv1d
from repro.nn import batched as nnbatched
from repro.nn import no_grad
from repro.nn import tape as nntape
from repro.nn.functional import stable_kernels
from repro.nn.tensor import Tensor


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
    tape, event = nntape.score_tape(module, x.shape)
    assert event == "miss" and tape is not None
    recorded = tape.run(x).copy()          # first run records
    assert np.array_equal(recorded, eager_forward(module, x))
    y = batch(seed=4, m=1)
    replayed = tape.run(y).copy()          # second run replays
    assert tape.replays == 1
    assert np.array_equal(replayed, eager_forward(module, y))


def test_score_tape_cache_is_shape_keyed():
    module, = fitted_models(count=1)
    a, __ = nntape.score_tape(module, (1, 1, 48))
    hit, event = nntape.score_tape(module, (1, 1, 48))
    assert hit is a and event == "hit"
    b, event = nntape.score_tape(module, (1, 1, 32))
    assert event == "miss" and b is not a


def test_score_tape_invalidates_on_weight_rebind():
    module, = fitted_models(count=1)
    x = batch(m=1)
    tape, __ = nntape.score_tape(module, x.shape)
    tape.run(x)
    # In-place updates keep the token (closures read .data live) ...
    np.copyto(module.readout.weight.data, module.readout.weight.data * 1.5)
    same, event = nntape.score_tape(module, x.shape)
    assert same is tape and event == "hit"
    assert np.array_equal(same.run(x), eager_forward(module, x))
    # ... a rebind (atomic hot-swap) re-records.
    module.readout.weight.data = module.readout.weight.data * 2.0
    fresh, event = nntape.score_tape(module, x.shape)
    assert event == "invalidated" and fresh is not tape
    assert np.array_equal(fresh.run(x), eager_forward(module, x))


def test_score_tape_declines_when_disabled_and_releases():
    module, = fitted_models(count=1)
    nntape.score_tape(module, (1, 1, 48))
    assert "_score_tape_cache" in module.__dict__
    nntape.release_score_tapes(module)
    assert "_score_tape_cache" not in module.__dict__
    previous = nntape.set_tape_enabled(False)
    try:
        tape, event = nntape.score_tape(module, (1, 1, 48))
        assert tape is None and event is None
    finally:
        nntape.set_tape_enabled(previous)


# --------------------------------------------------------------------- #
# stacked modules and programs
# --------------------------------------------------------------------- #

def test_stack_modules_accepts_same_spec_members():
    modules = fitted_models(count=3)
    # A member's recorded score tape holds a lock; stacking must not copy it.
    nntape.score_tape(modules[0], (1, 1, 48))[0].run(batch(m=1))
    stacked = nnbatched.stack_modules(modules)
    assert "_score_tape_cache" not in stacked.__dict__
    assert "_score_tape_cache" in modules[0].__dict__
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


def test_stacked_program_refresh_follows_hot_swap():
    modules = fitted_models(count=2)
    x = batch(m=2)
    program = nnbatched.StackedScoreProgram(modules, x.shape)
    program.run(x)
    before = nnbatched.stacked_member_token(modules)
    modules[0].readout.weight.data = modules[0].readout.weight.data * 3.0
    assert nnbatched.stacked_member_token(modules) != before
    program.refresh(modules)
    stacked = program.run(x).copy()
    for j, module in enumerate(modules):
        assert np.array_equal(stacked[j], eager_forward(module, x[j:j + 1])[0])


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
    with pytest.raises(ValueError):
        program.refresh(modules[:1])


def test_score_tape_rejects_mis_shaped_input():
    module, = fitted_models(count=1)
    tape, __ = nntape.score_tape(module, (2, 1, 48))
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
