"""Tape-compiled training: bit-identity to eager, invalidation, fallback."""

import numpy as np
import pytest

from repro import nn
from repro.core.autoencoders import (
    ConvMatrixAE,
    ConvSeriesAE,
    ConvTransform1d,
    FCSeriesAE,
    train_reconstruction,
)
from repro.nn import tape as nntape


@pytest.fixture
def tape_on():
    previous = nntape.set_tape_enabled(True)
    yield
    nntape.set_tape_enabled(previous)


def _train(model_fn, x, calls=3, epochs=4, enabled=True, target=None):
    previous = nntape.set_tape_enabled(enabled)
    try:
        model = model_fn()
        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        outputs = [
            train_reconstruction(model, optimizer, x, epochs=epochs,
                                 target=target).copy()
            for __ in range(calls)
        ]
        return outputs, model
    finally:
        nntape.set_tape_enabled(previous)


MODELS = [
    ("conv1d", lambda: ConvSeriesAE(2, rng=np.random.default_rng(1)), (1, 2, 129)),
    ("fc", lambda: FCSeriesAE(2, rng=np.random.default_rng(1)), (1, 2, 129)),
    ("transform1d", lambda: ConvTransform1d(2, rng=np.random.default_rng(1)), (1, 2, 129)),
    ("conv2d", lambda: ConvMatrixAE(2, rng=np.random.default_rng(1)), (1, 2, 20, 57)),
]


@pytest.mark.parametrize("name,model_fn,shape", MODELS, ids=[m[0] for m in MODELS])
def test_tape_bit_identical_to_eager(tape_on, name, model_fn, shape):
    """Replayed epochs produce byte-for-byte the outputs eager produces —
    across repeated train_reconstruction calls (the ADMM pattern) and
    including every parameter."""
    x = np.random.default_rng(0).standard_normal(shape)
    taped, m_tape = _train(model_fn, x, enabled=True)
    eager, m_eager = _train(model_fn, x, enabled=False)
    for got, want in zip(taped, eager):
        assert np.array_equal(got, want)
    for (name_t, p_t), (name_e, p_e) in zip(
        m_tape.named_parameters(), m_eager.named_parameters()
    ):
        assert name_t == name_e
        assert np.array_equal(p_t.data, p_e.data)
    # The tape actually engaged (otherwise this test proves nothing).
    tape = next(iter(m_tape.__dict__["_tape_cache"].values()))
    assert tape.recorded and tape.replays > 0 and not tape.failed


def test_tape_separate_target_bit_identical(tape_on):
    x = np.random.default_rng(0).standard_normal((1, 1, 64))
    target = np.random.default_rng(1).standard_normal((1, 1, 64))
    taped, __ = _train(lambda: ConvTransform1d(1, rng=np.random.default_rng(2)),
                       x, target=target)
    eager, __ = _train(lambda: ConvTransform1d(1, rng=np.random.default_rng(2)),
                       x, target=target, enabled=False)
    for got, want in zip(taped, eager):
        assert np.array_equal(got, want)


def test_shape_change_records_a_second_tape(tape_on):
    model = ConvTransform1d(1, rng=np.random.default_rng(0))
    optimizer = nn.Adam(model.parameters(), lr=1e-2)
    a = np.random.default_rng(1).standard_normal((1, 1, 64))
    b = np.random.default_rng(2).standard_normal((1, 1, 96))
    train_reconstruction(model, optimizer, a, epochs=2)
    train_reconstruction(model, optimizer, b, epochs=2)
    cache = model.__dict__["_tape_cache"]
    assert len(cache) == 2
    # And replaying the first shape again reuses its tape.
    first = cache[((1, 1, 64), None)]
    train_reconstruction(model, optimizer, a, epochs=2)
    assert first.replays > 0


def test_tape_cache_is_bounded(tape_on):
    model = ConvTransform1d(1, rng=np.random.default_rng(0))
    optimizer = nn.Adam(model.parameters(), lr=1e-2)
    for length in (32, 40, 48, 56, 64, 72):
        x = np.zeros((1, 1, length))
        train_reconstruction(model, optimizer, x, epochs=1)
    assert len(model.__dict__["_tape_cache"]) <= nntape._MAX_TAPES_PER_MODEL


def test_no_tape_under_stable_kernels(tape_on):
    model = ConvTransform1d(1, rng=np.random.default_rng(0))
    x = np.zeros((1, 1, 32))
    with nn.functional.stable_kernels():
        assert nntape.training_tape(model, x, x) is None
    assert nntape.training_tape(model, x, x) is not None


def test_no_tape_under_no_grad(tape_on):
    model = ConvTransform1d(1, rng=np.random.default_rng(0))
    x = np.zeros((1, 1, 32))
    with nn.no_grad():
        assert nntape.training_tape(model, x, x) is None


def test_no_tape_when_disabled(tape_on):
    model = ConvTransform1d(1, rng=np.random.default_rng(0))
    x = np.zeros((1, 1, 32))
    nntape.set_tape_enabled(False)
    assert nntape.training_tape(model, x, x) is None
    nntape.set_tape_enabled(True)
    assert nntape.training_tape(model, x, x) is not None


def test_module_tape_safety_rules():
    safe = nn.Sequential(nn.Linear(4, 4), nn.ReLU(), nn.LayerNorm(4))
    assert nntape.module_tape_safe(safe)
    # Active dropout draws its mask through the tape's persistent-buffer
    # protocol now (tape v2): replayable in train and eval mode alike.
    dropped = nn.Sequential(nn.Linear(4, 4), nn.Dropout(0.5))
    assert nntape.module_tape_safe(dropped)
    assert nntape.module_tape_safe(dropped.eval())
    # Recurrent stacks lower onto pure primitives: safe leaves.
    assert nntape.module_tape_safe(nn.LSTM(4, 4))

    # A subclass may override forward arbitrarily — never auto-safe.
    class Custom(nn.Linear):
        def forward(self, x):  # pragma: no cover - structure-only test
            return super().forward(x)

    assert not nntape.module_tape_safe(Custom(4, 4))

    # Unknown modules are unsafe unless they opt in via tape_safe.
    class Opaque(nn.Module):
        def forward(self, x):  # pragma: no cover - structure-only test
            return x

    assert not nntape.module_tape_safe(Opaque())
    assert nntape.module_tape_safe(ConvSeriesAE(1))


def test_unsupported_model_falls_back_to_eager(tape_on):
    """A model containing an unknown child module trains through the eager
    path and still learns (no tape is recorded, nothing breaks)."""

    class Opaque(nn.Module):
        def __init__(self):
            super().__init__()
            self.lin = nn.Linear(8, 8, rng=np.random.default_rng(0))

        def forward(self, x):
            return self.lin(x)

    class Wrapped(nn.Module):
        tape_safe = True  # claims safety, but contains an unsafe child

        def __init__(self):
            super().__init__()
            self.net = nn.Sequential(
                nn.Linear(8, 8),
                Opaque(),
                nn.Linear(8, 8),
            )

        def forward(self, x):
            return self.net(x)

    model = Wrapped()
    optimizer = nn.Adam(model.parameters(), lr=1e-2)
    x = np.random.default_rng(1).standard_normal((16, 8))
    first = train_reconstruction(model, optimizer, x, epochs=1)
    last = train_reconstruction(model, optimizer, x, epochs=30)
    assert model.__dict__.get("_tape_cache") in (None, {})
    assert np.mean((last - x) ** 2) < np.mean((first - x) ** 2)


def test_stochastic_primitives_record_and_replay(tape_on):
    """Softmax, dropout, and reparameterisation noise — PR 5's poisoners —
    now record through the tape's buffer protocol: replayed training is
    bit-identical to eager, with fresh draws per replayed epoch."""

    class Stochastic(nn.Module):
        tape_safe = True

        def __init__(self):
            super().__init__()
            self.lin = nn.Linear(6, 6, rng=np.random.default_rng(0))
            self.drop = nn.Dropout(0.4, rng=np.random.default_rng(7))
            self._noise_rng = np.random.default_rng(11)

        def forward(self, x):
            h = nn.functional.softmax(self.lin(x), axis=-1)
            h = self.drop(h)
            noise = nn.functional.sampled_normal(h.shape, self._noise_rng)
            return h + noise * 0.01

    x = np.random.default_rng(1).standard_normal((4, 6))

    def run(enabled):
        previous = nntape.set_tape_enabled(enabled)
        try:
            model = Stochastic()
            optimizer = nn.Adam(model.parameters(), lr=1e-2)
            outs = [train_reconstruction(model, optimizer, x, epochs=3).copy()
                    for __ in range(2)]
            return outs, model
        finally:
            nntape.set_tape_enabled(previous)

    taped, model = run(True)
    eager, __ = run(False)
    tape = next(iter(model.__dict__["_tape_cache"].values()))
    assert tape.recorded and tape.replays > 0 and not tape.failed
    for got, want in zip(taped, eager):
        assert np.array_equal(got, want)


def test_poisoned_recording_falls_back_to_eager(tape_on):
    """An op that bakes run-time data into its recorded closure poisons the
    recording (``_poison_tape``): the tape declines, training falls back to
    eager, and results match a pure-eager run exactly."""
    from repro.nn.tensor import _poison_tape

    class SelfPoisoning(nn.Module):
        tape_safe = True

        def __init__(self):
            super().__init__()
            self.lin = nn.Linear(6, 6, rng=np.random.default_rng(0))

        def forward(self, x):
            _poison_tape("test: unreplayable op")
            return self.lin(x)

    x = np.random.default_rng(1).standard_normal((4, 6))

    def run(enabled):
        previous = nntape.set_tape_enabled(enabled)
        try:
            model = SelfPoisoning()
            optimizer = nn.Adam(model.parameters(), lr=1e-2)
            outs = [train_reconstruction(model, optimizer, x, epochs=3).copy()
                    for __ in range(2)]
            return outs, model
        finally:
            nntape.set_tape_enabled(previous)

    taped, model = run(True)
    eager, __ = run(False)
    tape = next(iter(model.__dict__["_tape_cache"].values()))
    assert tape.failed
    for got, want in zip(taped, eager):
        assert np.array_equal(got, want)


def test_clip_grad_norm_handles_adopted_readonly_grad():
    p = nn.Parameter(np.full(5, 3.0))
    p.sum().backward()  # grad adopted as a read-only broadcast view
    total = nn.clip_grad_norm([p], 1.0)
    assert total == pytest.approx(np.sqrt(5.0))
    assert np.allclose(np.sqrt((p.grad**2).sum()), 1.0, atol=1e-9)


def test_repr_states_progress(tape_on):
    model = ConvTransform1d(1, rng=np.random.default_rng(0))
    optimizer = nn.Adam(model.parameters(), lr=1e-2)
    x = np.zeros((1, 1, 32))
    train_reconstruction(model, optimizer, x, epochs=3)
    tape = next(iter(model.__dict__["_tape_cache"].values()))
    assert "replays" in repr(tape)


def test_tape_bit_identical_to_eager_on_the_rdae_lagged_grid(tape_on):
    """ConvMatrixAE at the paper-default RDAE shape (window 50, 151
    columns): the flat-shift conv2d replays bit for bit, wrap columns and
    all."""
    x = np.random.default_rng(0).standard_normal((1, 1, 50, 151))

    def model_fn():
        return ConvMatrixAE(1, rng=np.random.default_rng(1))

    taped, m_tape = _train(model_fn, x, calls=2, epochs=3)
    eager, m_eager = _train(model_fn, x, calls=2, epochs=3, enabled=False)
    for got, want in zip(taped, eager):
        assert np.array_equal(got, want)
    for p_t, p_e in zip(m_tape.parameters(), m_eager.parameters()):
        assert np.array_equal(p_t.data, p_e.data)
    tape = next(iter(m_tape.__dict__["_tape_cache"].values()))
    assert tape.recorded and tape.replays > 0 and not tape.failed
