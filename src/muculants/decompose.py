"""Minimum-phase / allpass factorization through the coefficient domain.

The modulus of the charfn fixes a unique causal candidate: its log-modulus
coefficients, made causal by the case split below, exponentiate to the
minimum-phase component.  Whatever coefficient mass is left over is the
allpass remainder, a unit-modulus factor that carries the phase excess.
"""

from dataclasses import dataclass

import numpy as np

from .charfn import FrequencyGrid, complex_log, eval_charfn, grid_for_pmf, support_width
from .errors import PreconditionViolated, SupportTooSmall
from .pmf import PMF, SignedSequence
from .transform import MuculantSeq, complex_muculants, reconstruct_sequence, require_index_range

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

    Pipeline: the coefficients c[-n_max..n_max] of log Phi by the staged
    route (:func:`eval_charfn`, :func:`complex_log`,
    :func:`complex_muculants`) -> the power sequence c[n] + c[-n] (ln |Phi|^2
    = log Phi + conj log Phi) -> its causal split -> the allpass
    coefficients are the difference -> both factors reconstructed (see
    :func:`reconstruct_sequence`) on a window of twice the input support
    width each way, doubled a few times if mass spills out.

    The factors are returned as signed sequences; each is flagged as a PMF
    iff it is nonnegative within 1e-10 and sums to 1 within 1e-8.  A
    minimum-phase input returns itself plus a unit mass at zero.  Raises
    :class:`CharFnVanishes` where |Phi| is below 1e-8 at a grid point.
    Zeros on the unit circle between grid points pass that guard (open,
    ROADMAP item 2): Uniform{0..6} returns with neither factor flagged a
    PMF at n_max 20 and raises :class:`SupportTooSmall` at n_max 100.
    """
    if grid is None:
        grid = grid_for_pmf(f, n_max)
    cf = eval_charfn(f, grid)
    require_index_range(grid.n_points, n_max)
    c = complex_muculants(complex_log(cf), n_max).values
    minphase = minphase_from_power(MuculantSeq(-n_max, n_max, c + c[::-1], "power", 0.0))
    allpass = MuculantSeq(-n_max, n_max, c - minphase.values, "complex", 0.0)

    half = 2 * support_width(f)
    for attempt in range(4):
        try:
            minphase_seq = reconstruct_sequence(minphase, (-half, half))
            allpass_seq = reconstruct_sequence(allpass, (-half, half))
            break
        except SupportTooSmall:
            if attempt == 3:
                raise  # component genuinely does not decay
            half *= 2

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
