"""Ensemble extension (the paper's future-work direction, Section VII).

The conclusion names ensemble learning (citing Kieu et al., IJCAI 2019) as a
way to further improve accuracy.  :class:`RobustEnsemble` realises it for
the robust frameworks: ``n_members`` RAE (or RDAE) instances with different
seeds and jittered architectures are fitted independently; per-member scores
are standardised and combined by the median (robust to a diverged member).
The ensemble also exposes a consensus clean series for the explainability
analysis.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .. import nn
from ..baselines.base import BaseDetector, as_series
from ..nn import batched as nnb
from ..rpca import apply_prox as _prox
from .autoencoders import series_to_tensor
from .convergence import ConvergenceTrace, stopping_conditions
from .rae import RAE
from .rdae import RDAE

__all__ = ["RobustEnsemble"]

#: Activation bytes one batched stack may hold per layer (members x kernels
#: x series length x 8 B).  Swept with 8 identical members, 30 iterations,
#: one CPU and one BLAS thread (2-vCPU Xeon guest), by stack size 1/2/4/8:
#: 2000 points x 16 kernels fit in 2.23/2.15/2.12/2.35 s with 49/56/69/96 MB
#: peak RSS; 500 x 16 in 1.08/0.81/0.67/0.63 s; 200 x 8 in 0.77/0.39/0.29/0.22.
#: 512 KiB keeps stacks of 8 up to 500 x 16 and stacks of 2 at 2000 x 16.
STACK_ACTIVATION_BYTES = 512 * 1024


def _stacks(group, length):
    """``group`` (>= 2 members) in order, as the fewest near-equal stacks
    under :data:`STACK_ACTIVATION_BYTES`; no stack has fewer than 2
    members, even where that breaks the budget."""
    n = len(group)
    cap = max(STACK_ACTIVATION_BYTES // (group[0].kernels * length * 8), 1)
    count = min(math.ceil(n / cap), n // 2)
    return [group[i * n // count:(i + 1) * n // count] for i in range(count)]


class RobustEnsemble(BaseDetector):
    """Median ensemble of RAE or RDAE members.

    Parameters
    ----------
    base: 'rae' or 'rdae'.
    n_members: ensemble size.
    jitter: when True, members get diverse kernel counts / kernel sizes
        (diversity is what makes AE ensembles work, cf. RandNet).
    combine: 'median' (default) or 'mean'.
    n_jobs: members fitted concurrently (1 = serial, the default; -1 = one
        thread per CPU).  Threads, not processes: member fits are
        independent NumPy/BLAS work that releases the GIL, and both grad
        mode and tape recording are thread-local, so a threaded fit is
        bit-identical to the serial one — member seeds and architecture
        jitter are drawn sequentially before any fitting starts.
    compile: None (default) or "batched".  "batched" groups members with
        identical specs (architecture hyperparameters and ADMM settings;
        only seeds differ) and fits each group as near-equal stacks of >= 2
        members, each stack one leading-axis-batched tensor program (see
        :mod:`repro.nn.batched`) sized to stay under
        :data:`STACK_ACTIVATION_BYTES` — one tape-replayed epoch per stack
        instead of N python fits, sidestepping the GIL.  ``n_jobs`` is
        ignored.  Results are bit-identical to the serial fits; members
        whose spec has no identical peer (or a base/arch without a batched
        program) fall back to the ordinary serial fit, with the reasons
        recorded in ``compile_fallback_``.
    base_kwargs: forwarded to every member's constructor.
    """

    name = "RAE-Ens"

    def __init__(self, base="rae", n_members=5, jitter=True, combine="median",
                 seed=0, n_jobs=1, compile=None, **base_kwargs):
        if base not in ("rae", "rdae"):
            raise ValueError("base must be 'rae' or 'rdae'")
        if combine not in ("median", "mean"):
            raise ValueError("combine must be 'median' or 'mean'")
        if compile not in (None, "batched"):
            raise ValueError("compile must be None or 'batched'")
        self.base = base
        self.n_members = int(n_members)
        self.jitter = bool(jitter)
        self.combine = combine
        self.seed = seed
        self.n_jobs = int(n_jobs)
        self.compile = compile
        self.base_kwargs = base_kwargs
        self.members_ = []
        self.compile_fallback_ = []
        self.name = "%s-Ens" % base.upper()

    def _member(self, index, rng):
        kwargs = dict(self.base_kwargs)
        kwargs["seed"] = int(rng.integers(0, 2**31 - 1))
        if self.jitter:
            kwargs.setdefault("kernels", int(rng.choice([8, 16, 32])))
            kwargs.setdefault("kernel_size", int(rng.choice([3, 5, 7])))
        cls = RAE if self.base == "rae" else RDAE
        return cls(**kwargs)

    def _workers(self):
        jobs = self.n_jobs
        if jobs < 0:
            jobs = os.cpu_count() or 1
        return max(min(jobs, self.n_members), 1)

    def fit(self, series):
        rng = np.random.default_rng(self.seed)
        self.members_ = []  # a failed re-fit must not leave stale members
        self.compile_fallback_ = []
        # Draw every member's seed/jitter up front (serial-identical RNG
        # stream), then fit — concurrently when n_jobs allows.
        members = [self._member(index, rng) for index in range(self.n_members)]
        if self.compile == "batched":
            groups, singles = self._batched_groups(members)
            length = as_series(series).shape[0]
            for group in groups:
                for stack in _stacks(group, length):
                    self._fit_group_batched(stack, series)
            for member in singles:
                member.fit(series)
            self.members_ = members
            return self
        workers = self._workers()
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                # list() propagates the first member's exception, like the
                # serial loop would.
                list(pool.map(lambda member: member.fit(series), members))
        else:
            for member in members:
                member.fit(series)
        self.members_ = members
        return self

    # -- batched compilation ------------------------------------------- #
    def _batched_groups(self, members):
        """Partition members into batchable groups and serial singletons.

        Only RAE members with the cnn architecture have a batched program;
        within those, members batch when their full spec (everything except
        the seed) matches — stacked parameters must be identical shapes and
        the shared ADMM driver must apply identical lam/epsilon/prox/epoch
        settings to every slice.
        """
        groups = {}
        singles = []
        for member in members:
            reason = None
            if self.base != "rae":
                reason = "base=%r has no batched program" % self.base
            elif member.arch != "cnn":
                reason = "arch=%r has no batched program" % member.arch
            if reason is not None:
                self.compile_fallback_.append(reason)
                singles.append(member)
                continue
            key = (member.kernels, member.num_layers, member.kernel_size,
                   member.lam, member.epsilon, member.max_iterations,
                   member.prox, member.epochs_per_iteration, member.lr)
            groups.setdefault(key, []).append(member)
        batched = []
        for key, group in groups.items():
            if len(group) >= 2:
                batched.append(group)
            else:
                self.compile_fallback_.append(
                    "spec %r has no identical-spec peer to batch with" % (key,)
                )
                singles.extend(group)
        return batched, singles

    def _fit_group_batched(self, members, series):
        """Fit one stack of an identical-spec group as a batched program.

        Replicates :meth:`repro.core.rae.RAE.fit` per member slice, bit for
        bit: per-member scaler stats (identical across the group — they
        depend only on the series), per-member ADMM state (outliers, prox,
        stopping conditions, convergence traces), one *shared* batched
        train/replay per iteration, and per-member freezing — a converged
        member's parameter slices are snapshotted at its convergence
        iteration, exactly where its serial fit would have stopped, while
        the rest of the group keeps training (the batched ops are
        per-member independent, so the dead slices cannot perturb active
        ones).  Only ``epoch_seconds_`` differs in meaning: members of one
        stack share each iteration's wall-clock reading.
        """
        spec = members[0]
        raw = as_series(series)
        for member in members:
            member._fit_scaler(raw)
        arr = spec._apply_scaler(raw)
        models = [
            member._build(arr.shape[1], np.random.default_rng(member.seed))
            for member in members
        ]
        bmodel = nnb.stack_modules(models)
        optimizer = nn.Adam(bmodel.parameters(), lr=spec.lr)

        def snapshot(i):
            # Copies of member i's parameter slices, in its
            # named_parameters order.
            return [p.data[i].copy() for p in bmodel.parameters()]

        n_group = len(members)
        stacked = np.empty((n_group, arr.shape[1], arr.shape[0]))

        outliers = [np.zeros_like(arr) for __ in members]
        previous = [arr.copy() for __ in members]
        cleans = [arr.copy() for __ in members]
        traces = [ConvergenceTrace() for __ in members]
        for member in members:
            member.epoch_seconds_ = []
        active = list(range(n_group))
        frozen = {}
        for __ in range(spec.max_iterations):
            started = time.perf_counter()
            for i in active:
                stacked[i] = series_to_tensor(arr - outliers[i])[0]
            recon = nnb.batched_train_reconstruction(
                bmodel, optimizer, stacked,
                epochs=spec.epochs_per_iteration, n_members=n_group,
            )
            converged = []
            for i in active:
                clean = recon[i].T
                residual = arr - clean
                outliers[i] = _prox(residual, spec.lam, spec.prox)
                condition1, condition2, previous[i] = stopping_conditions(
                    arr, clean, outliers[i], previous[i]
                )
                traces[i].record(
                    np.sqrt(np.mean((arr - clean) ** 2)), condition1, condition2
                )
                cleans[i] = clean
                if condition1 < spec.epsilon or condition2 < spec.epsilon:
                    traces[i].converged = True
                    converged.append(i)
            elapsed = time.perf_counter() - started
            for i in active:
                members[i].epoch_seconds_.append(elapsed)
            for i in converged:
                frozen[i] = snapshot(i)
                active.remove(i)
            if not active:
                break

        for i, member in enumerate(members):
            arrays = frozen[i] if i in frozen else snapshot(i)
            model = models[i]
            for (__, param), data in zip(model.named_parameters(), arrays):
                param.data = data
            member.model_ = model
            member.clean_ = cleans[i]
            member.outlier_ = outliers[i]
            member._residual = arr - cleans[i]
            member.trace_ = traces[i]
        nn.tape.release_tapes(bmodel)

    def score(self, series):
        if not self.members_:
            raise RuntimeError("fit before score")
        per_member = []
        for member in self.members_:
            scores = member.score(series)
            spread = scores.std()
            per_member.append(
                (scores - scores.mean()) / (spread if spread > 0 else 1.0)
            )
        stacked = np.asarray(per_member)
        if self.combine == "median":
            return np.median(stacked, axis=0)
        return stacked.mean(axis=0)

    @property
    def clean_series(self):
        """Member-mean clean series (for the explainability analysis)."""
        if not self.members_:
            raise RuntimeError("fit before reading the clean series")
        return np.mean([m.clean_series for m in self.members_], axis=0)
