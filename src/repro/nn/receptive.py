"""Receptive-field metadata for modules acting on a 1-D time axis.

The serving hot path of :mod:`repro.core.scoring` wants to know, for a
fitted module, *which input positions can influence which outputs*: a push
of one arrival then only needs to re-forward the tail of the window whose
reconstruction can actually change.  This module is the vocabulary for
that question:

* :class:`ReceptiveField` — a conservative dependence cone: output ``i``
  depends on at most input positions
  ``floor(i * stride) - lookback .. floor(i * stride) + lookahead``, and
  the computation commutes with time shifts that are multiples of
  ``period`` (the pooling-grid alignment constraint).
* :data:`UNBOUNDED` — the sentinel for modules whose outputs may depend
  on arbitrarily distant inputs (recurrent state, attention, dense layers
  over time, positional encodings).  Composition with it is absorbing.

Every :class:`repro.nn.Module` answers ``receptive_field()``; the base
class answers :data:`UNBOUNDED` (the only safe default for an unknown
``forward``), structured primitives (conv/pool/upsample/activations)
answer exact extents, and :class:`repro.nn.Sequential` composes its
children with :meth:`ReceptiveField.then`.

Bounds are deliberately *over*-approximations: composition adds one
position of slack per stage to absorb the floor/ceil rounding of strided
stages.  Everything downstream (tail forwards, the perturbation contract
tests) only needs soundness — an output outside the reported cone must
never depend on the input — not tightness.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["ReceptiveField", "UNBOUNDED"]


def _lcm_fractions(*values):
    """Least positive rational that every ``values`` entry divides."""
    values = [Fraction(v) for v in values if Fraction(v) > 0]
    if not values:
        return Fraction(1)
    denominator = math.lcm(*[v.denominator for v in values])
    numerator = math.lcm(*[int(v * denominator) for v in values])
    return Fraction(numerator, denominator)


class _UnboundedField:
    """Absorbing sentinel: the module's time dependence has no finite bound."""

    bounded = False

    def then(self, other):
        return self

    def __repr__(self):  # pragma: no cover - cosmetic
        return "UNBOUNDED"


UNBOUNDED = _UnboundedField()


class ReceptiveField:
    """A sound (over-approximated) 1-D dependence cone.

    Parameters
    ----------
    lookback / lookahead: input positions before/after the projected
        centre ``floor(i * stride)`` that output ``i`` may depend on.
    stride: input positions consumed per output step — an integer for
        downsampling stages (pooling), a fraction below 1 for upsampling.
    period: input-shift quantum.  Shifting the input by a multiple of
        ``period`` shifts every output by ``shift / stride`` and leaves
        all per-position values unchanged (away from the edges); shifts
        that are *not* multiples of ``period`` re-anchor pooling grids
        and change per-position values (so a tail slice must start on a
        period multiple to reproduce the full forward).
    """

    bounded = True
    __slots__ = ("lookback", "lookahead", "stride", "period")

    def __init__(self, lookback=0, lookahead=0, stride=1, period=1):
        self.lookback = int(lookback)
        self.lookahead = int(lookahead)
        self.stride = Fraction(stride)
        self.period = Fraction(period)
        if self.lookback < 0 or self.lookahead < 0:
            raise ValueError("lookback/lookahead must be >= 0")
        if self.stride <= 0 or self.period <= 0:
            raise ValueError("stride/period must be > 0")

    # ------------------------------------------------------------------ #
    # constructors for the structured primitives
    @classmethod
    def pointwise(cls):
        """Elementwise op along time (activations, dropout, identity)."""
        return cls(0, 0, 1, 1)

    @classmethod
    def conv(cls, kernel_size, padding):
        """Stride-1 convolution: ``out[i]`` reads ``in[i-p .. i-p+k-1]``."""
        kernel_size = int(kernel_size)
        padding = int(padding)
        return cls(padding, max(kernel_size - 1 - padding, 0), 1, 1)

    @classmethod
    def pool(cls, kernel):
        """Stride==kernel pooling: ``out[i]`` reads ``in[k*i .. k*i+k-1]``
        on a grid anchored at position 0 (hence ``period == kernel``)."""
        kernel = int(kernel)
        return cls(0, kernel - 1, kernel, kernel)

    @classmethod
    def upsample(cls, factor):
        """Nearest-neighbour upsampling: ``out[i]`` reads ``in[i//factor]``."""
        return cls(0, 0, Fraction(1, int(factor)), 1)

    # ------------------------------------------------------------------ #
    @property
    def period_int(self):
        """Smallest positive integer input shift that keeps grids aligned."""
        return self.period.numerator  # lowest terms: k*(n/d) integral => d|k

    def margins(self):
        """``(left, right)`` positions a slice edge can pollute.

        The single source of the tail-forward safety margin: ``left`` is
        how many leading outputs of a slice forward may differ from the
        full forward (padded left edge), ``right`` the trailing outputs an
        interior boundary may disturb (edge padding, pool trimming, the
        upsample ``size`` clamp).  The extra ``period + 4`` slack absorbs
        grid re-anchoring and the composition's floor/ceil rounding.
        :meth:`context` (the public ``tail_context()`` bound the
        perturbation contract tests pin) takes both, and the positions a
        :class:`repro.core.ScoringSession` tail slice discards are
        ``left``, so the tested bound and the tail forward cannot drift
        apart.
        """
        slack = self.period_int + 4
        return self.lookback + slack, self.lookahead + slack

    def context(self):
        """One-number locality bound: the larger of :meth:`margins`.

        Scores strictly more than ``context()`` positions away from a
        perturbed input are unaffected, and a slice reaching
        ``context()`` positions past a wanted output reproduces it
        exactly — the number RAE/RDAE surface as ``tail_context()``.
        """
        return max(self.margins())

    def then(self, other):
        """The cone of ``self`` followed by ``other`` (data flows s -> o).

        Extents compose by projecting ``other``'s extents back through
        ``self``'s stride, with one position of slack per composition to
        absorb floor/ceil rounding; the combined period is the smallest
        shift that is a whole period for ``self``, lands the intermediate
        signal on an integer shift, and is a whole period for ``other``.
        """
        if not other.bounded:
            return UNBOUNDED
        slack = int(math.ceil(self.stride)) + 1
        lookback = self.lookback + int(math.ceil(other.lookback * self.stride)) + slack
        lookahead = self.lookahead + int(math.ceil(other.lookahead * self.stride)) + slack
        period = _lcm_fractions(
            self.period,
            Fraction(self.stride.numerator),   # intermediate shift integral
            other.period * self.stride,
        )
        return ReceptiveField(lookback, lookahead, self.stride * other.stride, period)

    def __repr__(self):  # pragma: no cover - cosmetic
        return "ReceptiveField(lookback=%d, lookahead=%d, stride=%s, period=%s)" % (
            self.lookback, self.lookahead, self.stride, self.period,
        )
