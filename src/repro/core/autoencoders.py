"""Autoencoder building blocks for RAE and RDAE.

RAE and RDAE are *generic architectures rather than specific models*
(Section V-B, "Effect of Different Architectures"): the paper instantiates
them with 1D/2D CNN layers and, in an ablation, with fully-connected layers.
This module provides all four instantiations plus the shallow nonlinear
transformations ``f1`` (2D, Eq. 6) and ``f2`` (1D, Eq. 11), and a full-batch
training helper used by the ADMM loops.

Shape conventions: series tensors are ``(1, D, C)``; lagged-matrix tensors
are ``(1, D, B, K)``.
"""

from __future__ import annotations

import numpy as np

from .. import nn

__all__ = [
    "ConvSeriesAE",
    "FCSeriesAE",
    "ConvMatrixAE",
    "FCMatrixAE",
    "ConvTransform1d",
    "ConvTransform2d",
    "train_reconstruction",
    "series_to_tensor",
    "tensor_to_series",
    "matrix_to_tensor",
    "tensor_to_matrix",
]


def series_to_tensor(series):
    """``(C, D)`` array -> ``(1, D, C)`` float array for 1D convs."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr.T[None]


def tensor_to_series(tensor):
    """``(1, D, C)`` array/Tensor -> ``(C, D)`` array."""
    data = tensor.data if isinstance(tensor, nn.Tensor) else np.asarray(tensor)
    return data[0].T


def matrix_to_tensor(matrix):
    """``(B, K, D)`` lagged matrix -> ``(1, D, B, K)`` for 2D convs."""
    arr = np.asarray(matrix, dtype=np.float64)
    return arr.transpose(2, 0, 1)[None]


def tensor_to_matrix(tensor):
    """``(1, D, B, K)`` array/Tensor -> ``(B, K, D)`` lagged matrix."""
    data = tensor.data if isinstance(tensor, nn.Tensor) else np.asarray(tensor)
    return data[0].transpose(1, 2, 0)


def _kernel_ladder(kernels, num_layers):
    """Encoder feature-map counts: wide -> narrow toward the bottleneck.

    "the number of feature maps of the encoder is less than the number of
    feature maps of the decoder to form a bottleneck layer" (Section III-B).
    """
    num_layers = max(int(num_layers), 1)
    ladder = []
    current = max(int(kernels), 2)
    for __ in range(num_layers):
        ladder.append(max(current, 2))
        current = max(current // 2, 2)
    return ladder


class ConvSeriesAE(nn.Module):
    """1D-CNN autoencoder over a whole series ``(1, D, C)`` (Eqs. 4-5).

    Encoder: stacked Conv1d+ReLU with a max-pool halving the length;
    decoder: mirrored convs with nearest upsampling back to ``C``.
    """

    # forward is pure structured primitives with shape-only branching, so a
    # recorded training tape replays it faithfully (see repro.nn.tape).
    tape_safe = True

    def __init__(self, dims, kernels=16, num_layers=3, kernel_size=3, rng=None):
        super().__init__()
        ladder = _kernel_ladder(kernels, num_layers)
        enc = []
        in_ch = dims
        for width in ladder:
            enc += [nn.Conv1d(in_ch, width, kernel_size, rng=rng), nn.ReLU()]
            in_ch = width
        enc.append(nn.MaxPool1d(2))
        self.encoder = nn.Sequential(*enc)
        dec = []
        for width in reversed(ladder):
            dec += [nn.Conv1d(in_ch, width, kernel_size, rng=rng), nn.ReLU()]
            in_ch = width
        self.decoder_convs = nn.Sequential(*dec)
        self.readout = nn.Conv1d(in_ch, dims, kernel_size, rng=rng)

    def forward(self, x):
        length = x.shape[2]
        h = self.encoder(x)
        h = nn.functional.upsample1d(h, 2, size=length)
        h = self.decoder_convs(h)
        return self.readout(h)

    def receptive_field(self):
        """Compose encoder -> upsample -> decoder -> readout.

        ``forward`` calls the upsampling functionally (its ``size=`` is
        only known at run time), so the composition is spelled out here
        instead of living in one Sequential; the ``size`` clamp only drops
        right-edge dependence and cannot widen the cone.  The encoder's
        max-pool makes the composed period 2: only even window shifts
        keep the pooling grid, hence cached scores, valid.
        """
        field = self.encoder.receptive_field()
        field = field.then(nn.ReceptiveField.upsample(2))
        field = field.then(self.decoder_convs.receptive_field())
        return field.then(self.readout.receptive_field())


class ConvMatrixAE(nn.Module):
    """2D-CNN autoencoder over a lagged matrix ``(1, D, B, K)`` (Eqs. 8-9)."""

    tape_safe = True

    def __init__(self, dims, kernels=8, num_layers=2, kernel_size=3, rng=None):
        super().__init__()
        ladder = _kernel_ladder(kernels, num_layers)
        enc = []
        in_ch = dims
        for width in ladder:
            enc += [nn.Conv2d(in_ch, width, kernel_size, rng=rng), nn.ReLU()]
            in_ch = width
        enc.append(nn.MaxPool2d(2))
        self.encoder = nn.Sequential(*enc)
        dec = []
        for width in reversed(ladder):
            dec += [nn.Conv2d(in_ch, width, kernel_size, rng=rng), nn.ReLU()]
            in_ch = width
        self.decoder_convs = nn.Sequential(*dec)
        self.readout = nn.Conv2d(in_ch, dims, kernel_size, rng=rng)

    def forward(self, x):
        size = (x.shape[2], x.shape[3])
        h = self.encoder(x)
        h = nn.functional.upsample2d(h, 2, size=size)
        h = self.decoder_convs(h)
        return self.readout(h)


class FCSeriesAE(nn.Module):
    """Fully-connected series autoencoder (the RAE_FC ablation, Fig. 10).

    The series is cut into contiguous chunks that are flattened and passed
    through an FC bottleneck autoencoder; the last chunk is padded by
    repeating the final observation.
    """

    tape_safe = True  # chunking/padding branch only on the input shape

    def __init__(self, dims, chunk=64, hidden=64, rng=None):
        super().__init__()
        self.chunk = int(chunk)
        self.dims = dims
        flat = self.chunk * dims
        bottleneck = max(hidden // 4, 2)
        self.net = nn.Sequential(
            nn.Linear(flat, hidden, rng=rng), nn.Tanh(),
            nn.Linear(hidden, bottleneck, rng=rng), nn.Tanh(),
            nn.Linear(bottleneck, hidden, rng=rng), nn.Tanh(),
            nn.Linear(hidden, flat, rng=rng),
        )

    def forward(self, x):
        # x: (1, D, C) -> chunks (n, chunk*D) -> reconstruct -> (1, D, C)
        # Series shorter than one chunk are padded up to it (the layer
        # widths are fixed at construction time).
        __, dims, length = x.shape
        chunk = self.chunk
        n_chunks = max(int(np.ceil(length / chunk)), 1)
        pad = n_chunks * chunk - length
        if pad:
            x = nn.concatenate([x] + [x[:, :, length - 1 : length]] * pad, axis=2)
        pieces = x.reshape(dims, n_chunks, chunk).transpose(1, 0, 2)
        flat = pieces.reshape(n_chunks, dims * chunk)
        recon = self.net(flat)
        back = recon.reshape(n_chunks, dims, chunk).transpose(1, 0, 2)
        back = back.reshape(1, dims, n_chunks * chunk)
        return back[:, :, :length]


class FCMatrixAE(nn.Module):
    """Fully-connected lagged-matrix autoencoder (the RDAE_FC ablation).

    Each column of the lagged matrix (one ``B x D`` lag vector) is treated
    as a sample for an FC bottleneck autoencoder.
    """

    tape_safe = True

    def __init__(self, dims, window, hidden=64, rng=None):
        super().__init__()
        self.window = int(window)
        flat = self.window * dims
        bottleneck = max(hidden // 4, 2)
        self.net = nn.Sequential(
            nn.Linear(flat, hidden, rng=rng), nn.Tanh(),
            nn.Linear(hidden, bottleneck, rng=rng), nn.Tanh(),
            nn.Linear(bottleneck, hidden, rng=rng), nn.Tanh(),
            nn.Linear(hidden, flat, rng=rng),
        )

    def forward(self, x):
        # x: (1, D, B, K) -> columns (K, B*D) -> reconstruct -> (1, D, B, K)
        __, dims, window, k = x.shape
        cols = x.reshape(dims, window, k).transpose(2, 0, 1).reshape(k, dims * window)
        recon = self.net(cols)
        back = recon.reshape(k, dims, window).transpose(1, 2, 0)
        return back.reshape(1, dims, window, k)


class ConvTransform1d(nn.Module):
    """The outer nonlinear transformation ``f2`` (Eq. 11): shape-preserving
    1D convs with no bottleneck.

    Note: a residual (identity-start) design would trivially zero Eq. 17's
    objective ``||T_L - f2(T_L)||^2`` and learn nothing — the smoothing
    effect relies on the conv stack *approximating* identity imperfectly.
    """

    tape_safe = True

    def __init__(self, dims, kernels=8, kernel_size=3, rng=None):
        super().__init__()
        self.net = nn.Sequential(
            nn.Conv1d(dims, kernels, kernel_size, rng=rng),
            nn.ReLU(),
            nn.Conv1d(kernels, dims, kernel_size, rng=rng),
        )

    def forward(self, x):
        return self.net(x)

    def receptive_field(self):
        # Pure stride-1 convs: a small bounded cone with period 1, so a
        # tail slice may start at any window position.
        return self.net.receptive_field()


class ConvTransform2d(nn.Module):
    """The inner nonlinear transformation ``f1`` (Eq. 6): shape-preserving
    2D convs that smooth the lagged matrix.

    Like :class:`ConvTransform1d`, deliberately non-residual: Eq. 7 wants
    ``M_hat`` *similar* to ``M``, with the conv stack's imperfect identity
    providing the noise-removing smoothing.
    """

    tape_safe = True

    def __init__(self, dims, kernels=8, kernel_size=3, rng=None):
        super().__init__()
        self.net = nn.Sequential(
            nn.Conv2d(dims, kernels, kernel_size, rng=rng),
            nn.ReLU(),
            nn.Conv2d(kernels, dims, kernel_size, rng=rng),
        )

    def forward(self, x):
        return self.net(x)


def train_reconstruction(model, optimizer, inputs, epochs=1, target=None):
    """Full-batch reconstruction training (the BACKPROP steps of Alg. 1/2).

    Minimises ``||target - model(inputs)||^2`` (``target`` defaults to the
    inputs) for ``epochs`` Adam steps and returns the final reconstruction
    as a plain array.

    When the model is tape-compilable (see :mod:`repro.nn.tape`) the first
    step records a flat op tape that later epochs — and later calls for the
    same shapes, i.e. every ADMM iteration of Algorithms 1/2 — replay
    without rebuilding the autograd graph.  Replay is bit-identical to the
    eager loop; eager remains the automatic fallback whenever the tape
    declines (disabled, stable kernels, unsupported module, shape change).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    target = inputs if target is None else np.asarray(target, dtype=np.float64)
    epochs = max(int(epochs), 1)
    done = 0
    tape = nn.tape.training_tape(model, inputs, target)
    if tape is not None:
        for __ in range(epochs):
            optimizer.zero_grad()
            tape.step(inputs, target)
            nn.clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
            done += 1
            if tape.failed:
                # Poisoned during recording (an op baked run-time data into
                # the graph).  The recording step itself ran eagerly, so its
                # update stands; the remaining epochs fall back below.
                break
        if not tape.failed:
            return np.array(tape.forward(inputs))
    output = None
    for __ in range(epochs - done):
        optimizer.zero_grad()
        prediction = model(nn.Tensor(inputs))
        loss = nn.mse_loss(prediction, target)
        loss.backward()
        nn.clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        output = prediction.data
    with nn.no_grad():
        output = model(nn.Tensor(inputs)).data
    return output
