"""Minimum-phase / allpass factorization through the coefficient domain.

The modulus of the charfn fixes a unique causal candidate: its log-modulus
coefficients, made causal by the case split below, exponentiate to the
minimum-phase component.  Whatever coefficient mass is left over is the
allpass remainder, a unit-modulus factor that carries the phase excess.
"""

from dataclasses import dataclass

import numpy as np

from .charfn import DEFAULT_GRID_SIZE, FrequencyGrid, complex_log, eval_charfn, support_width
from .errors import PreconditionViolated, SupportTooSmall
from .pmf import PMF, SignedSequence
from .transform import (
    MuculantSeq,
    complex_muculants,
    power_muculants,
    reconstruct_sequence,
)

# A reconstructed component counts as a PMF when it clears these.
_PMF_NONNEG_TOL = 1e-10
_PMF_SUM_TOL = 1e-8


@dataclass(frozen=True)
class Decomposition:
    """Both factors of f = (minimum-phase part) * (allpass part), in both
    the coefficient and the sequence domain, with validity flags."""

    minphase_muculants: MuculantSeq
    allpass_muculants: MuculantSeq
    minphase_seq: SignedSequence
    allpass_seq: SignedSequence
    minphase_is_pmf: bool
    allpass_is_pmf: bool


def minphase_from_power(power: MuculantSeq) -> MuculantSeq:
    """Causal coefficients with the same modulus spectrum.

    c_min[0] = c[0]/2, c_min[n] = c[n] for n > 0, zero for n < 0.  For a
    minimum-phase law this recovers its complex coefficients exactly; for a
    pure shift the power sequence is identically zero and so is the result.
    """
    if power.kind != "power":
        raise ValueError("need power-kind coefficients")
    ns = power.indices
    vals = np.where(ns > 0, power.values, 0.0)
    vals[ns == 0] = power.value_at(0) / 2.0
    return MuculantSeq(power.n_min, power.n_max, vals, "complex", power.imag_residual)


def _looks_like_pmf(seq: SignedSequence) -> bool:
    return bool(np.all(seq.values >= -_PMF_NONNEG_TOL)) and abs(seq.sum - 1.0) <= _PMF_SUM_TOL


def decompose(f: PMF, n_max: int, *, grid: FrequencyGrid | None = None) -> Decomposition:
    """Split ``f`` into minimum-phase and allpass factors.

    Pipeline: charfn -> complex and power coefficients at ``n_max`` ->
    causal split of the power sequence -> the allpass coefficients are the
    difference -> both factors reconstructed on the half spectrum (one
    rfft, one exp over N/2 + 1 points and one irfft each, see
    :func:`reconstruct_sequence`) on a window of twice the input support
    width each way, doubled a few times if mass spills out.

    The factors are returned as signed sequences; each is flagged as a PMF
    iff it is nonnegative within 1e-10 and sums to 1 within 1e-8.  A
    minimum-phase input returns itself plus a unit mass at zero; inputs
    with charfn zeros on the unit circle propagate CharFnVanishes.
    """
    if grid is None:
        grid = FrequencyGrid.for_width(support_width(f), DEFAULT_GRID_SIZE, n_max)
    cf = eval_charfn(f, grid)
    logcf = complex_log(cf)
    total = complex_muculants(logcf, n_max)
    power = power_muculants(cf, n_max)
    minphase = minphase_from_power(power)
    allpass = MuculantSeq(
        total.n_min,
        total.n_max,
        total.values - minphase.values,
        "complex",
        max(total.imag_residual, minphase.imag_residual),
    )

    half = 2 * support_width(f)
    last_exc: SupportTooSmall | None = None
    for _ in range(4):
        try:
            minphase_seq = reconstruct_sequence(minphase, (-half, half))
            allpass_seq = reconstruct_sequence(allpass, (-half, half))
            break
        except SupportTooSmall as exc:
            last_exc = exc
            half *= 2
    else:
        raise last_exc  # component genuinely does not decay

    return Decomposition(
        minphase_muculants=minphase,
        allpass_muculants=allpass,
        minphase_seq=minphase_seq,
        allpass_seq=allpass_seq,
        minphase_is_pmf=_looks_like_pmf(minphase_seq),
        allpass_is_pmf=_looks_like_pmf(allpass_seq),
    )


def allpass_sum(d: Decomposition) -> float:
    """Sum of the allpass sequence, guarded.

    Meaningful as a mass check only when the minimum-phase factor is a
    valid PMF (then the allpass factor must account for all remaining
    mass); raises :class:`PreconditionViolated` otherwise.
    """
    if not d.minphase_is_pmf:
        raise PreconditionViolated(
            "allpass sum is only meaningful when the minimum-phase factor is a PMF"
        )
    return d.allpass_seq.sum
