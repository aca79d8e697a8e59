"""Coefficient sequences of the log characteristic function.

For an integer-valued X with nonvanishing charfn Phi, the complex sequence
is c[n] = (1/2pi) integral of log Phi(mu) e^{-j mu n} d mu and the power
sequence is the same transform of ln |Phi|^2.  Both are real; the power
sequence is even and carries no phase information.
"""

from dataclasses import dataclass

import numpy as np

from .charfn import (
    VANISH_TOL,
    CharFnSamples,
    FrequencyGrid,
    LogCharFnSamples,
    grid_analysis,
    grid_synthesis,
    require_modulus,
    span_width,
)
from .errors import (
    ImagResidualTooLarge,
    NotApplicable,
    SupportTooSmall,
    TruncationUnsafe,
)
from .pmf import PMF, CumulantVector, SignedSequence, frozen_vector

# Imaginary parts above this mean the transform went wrong.
IMAG_TOL = 1e-8

# Even-symmetry slack for power sequences.
_EVEN_TOL = 1e-10

_KINDS = ("complex", "power")


@dataclass(frozen=True)
class MuculantSeq:
    """Real coefficients for integer indices n_min..n_max (n_min <= 0 <= n_max).

    ``kind`` is "complex" (transform of log Phi) or "power" (transform of
    ln |Phi|^2, even about zero).  ``imag_residual`` records the largest
    imaginary part discarded when the coefficients were computed.
    """

    n_min: int
    n_max: int
    values: np.ndarray
    kind: str
    imag_residual: float

    def __post_init__(self):
        if not (self.n_min <= 0 <= self.n_max):
            raise ValueError("index range must contain zero")
        v = frozen_vector(self, "values", self.n_max - self.n_min + 1)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not 0.0 <= self.imag_residual < IMAG_TOL:
            raise ValueError("imag_residual must be below 1e-8")
        if self.kind == "power":
            if self.n_min != -self.n_max:
                raise ValueError("power coefficients need a symmetric index range")
            if np.max(np.abs(v - v[::-1])) > _EVEN_TOL:
                raise ValueError("power coefficients must be even about zero")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def value_at(self, n: int) -> float:
        """Coefficient at index ``n``; zero outside the computed range."""
        i = n - self.n_min
        if 0 <= i < len(self.values):
            return float(self.values[i])
        return 0.0


def complex_muculants(logcf: LogCharFnSamples, n_max: int) -> MuculantSeq:
    """Coefficients of log Phi for n in [-n_max, n_max].

    ``n_max`` may not exceed N/4 (aliasing guard).  The math says the
    coefficients are real; imaginary residue at or above 1e-8 raises
    :class:`ImagResidualTooLarge` instead of being silently dropped.
    """
    coef, resid = _real_coefficients(logcf.log_magnitude + 1j * logcf.phase, n_max)
    return MuculantSeq(-n_max, n_max, coef, "complex", resid)


def require_index_range(n_points: int, n_max: int) -> None:
    """Raise ValueError unless 1 <= n_max <= N/4, the aliasing guard of
    coefficients read off an N-point grid."""
    if not 1 <= n_max <= n_points // 4:
        raise ValueError(f"n_max must be in 1..{n_points // 4} for this grid")


def _real_coefficients(log_values: np.ndarray, n_max: int) -> tuple[np.ndarray, float]:
    """Coefficients of grid-sampled log values for n in [-n_max, n_max]:
    refuses ``n_max`` beyond N/4 and imaginary residue at or above 1e-8,
    returns the real parts and the residue."""
    require_index_range(len(log_values), n_max)
    coef = grid_analysis(log_values, np.arange(-n_max, n_max + 1))
    resid = float(np.max(np.abs(coef.imag)))
    if resid >= IMAG_TOL:
        raise ImagResidualTooLarge(f"imaginary residue {resid:.3e}")
    return coef.real, resid


def power_muculants(cf: CharFnSamples, n_max: int) -> MuculantSeq:
    """Coefficients of ln |Phi|^2 for n in [-n_max, n_max].

    Phase-free, hence computable whenever the modulus stays above the
    vanishing floor; even about zero by symmetry of |Phi|.
    """
    mods, _ = require_modulus(cf.values, VANISH_TOL)
    vals, resid = _real_coefficients(2.0 * np.log(mods), n_max)
    vals = 0.5 * (vals + vals[::-1])  # exact evenness against fp drift
    return MuculantSeq(-n_max, n_max, vals, "power", resid)


def recursive_minphase_muculants(f: PMF, n_max: int) -> MuculantSeq:
    """Causal coefficients of a minimum-phase PMF by direct recursion.

    c[0] = ln f[0],
    c[n] = f[n]/f[0] - sum_{k=1}^{n-1} (k/n) c[k] f[n-k]/f[0]  for n >= 1.

    The sum is one dot product of the running weights k * c[k] with the
    reversed ratios f[n-k]/f[0], so the O(n_max^2) flops run inside numpy
    and only O(n_max) Python steps remain.

    No transform, no grid, no phase unwrap; this is the independent route
    used to cross-check the spectral pipeline.  Valid only for
    minimum-phase inputs: otherwise it sums the Taylor series of
    log(P(z)/f[0]) beyond its radius of convergence, and the finite values
    it returns diverge (off by about 7e+08 on Poisson(20) at n_max = 200).
    Nothing here detects that yet.  Raises :class:`NotApplicable` when the support
    does not start at zero or the leading probability vanishes.
    """
    if f.offset != 0:
        raise NotApplicable("support must start at zero")
    p0 = float(f.probs[0])
    if p0 <= 1e-14:
        raise NotApplicable("leading probability vanishes")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    ratio = np.zeros(n_max + 1)
    take = min(n_max + 1, len(f))
    ratio[:take] = f.probs[:take] / p0
    vals = np.zeros(n_max + 1)
    vals[0] = np.log(p0)
    weighted = np.zeros(n_max + 1)  # k * c[k]
    for m in range(1, n_max + 1):
        vals[m] = ratio[m] - np.dot(weighted[1:m], ratio[m - 1 : 0 : -1]) / m
        weighted[m] = m * vals[m]
    return MuculantSeq(0, n_max, vals, "complex", 0.0)


def reconstruct_charfn(seq: MuculantSeq, grid: FrequencyGrid) -> CharFnSamples:
    """exp(sum_n c[n] e^{j mu n}) on the grid.

    The all-zero sequence gives Phi identically one (the unit mass at zero).
    Power sequences carry no phase and cannot be inverted here.
    """
    if seq.kind != "complex":
        raise ValueError("reconstruction needs complex-kind coefficients")
    log_values = grid_synthesis(seq.values, seq.n_min, grid)
    return CharFnSamples(grid, np.exp(log_values), "reconstructed")


def reconstruct_sequence(seq: MuculantSeq, support) -> SignedSequence:
    """Sequence whose charfn the coefficients describe, on a support window.

    ``support`` is an inclusive integer range ``(lo, hi)``.  The charfn is
    synthesized on a grid with at least four points per index of the window
    (origin included) and per coefficient index, and Fourier-analyzed back;
    window-external values are discarded, and if the discarded magnitudes
    total more than 1e-6 the window was genuinely too small and
    :class:`SupportTooSmall` is raised.

    Returns a :class:`SignedSequence`: a truncated coefficient sequence
    need not describe a distribution, and no claim is made here about when
    it does.  The full-period values sum to Phi(0) = exp(sum_n c[n]) by the
    transform identity; the windowed sum inherits that up to the discard
    budget.
    """
    lo, hi = int(support[0]), int(support[1])
    if lo > hi:
        raise ValueError("support range is empty")
    grid = FrequencyGrid.for_width(span_width(lo, hi), n_max=max(seq.n_max, -seq.n_min))
    cf = reconstruct_charfn(seq, grid)
    n = grid.n_points
    ns = np.arange(-(n // 2), n // 2)
    full = grid_analysis(cf.values, ns).real
    inside = (ns >= lo) & (ns <= hi)
    discarded = float(np.sum(np.abs(full[~inside])))
    if discarded > 1e-6:
        raise SupportTooSmall(
            f"{discarded:.3e} of reconstructed magnitude falls outside "
            f"[{lo}, {hi}]"
        )
    return SignedSequence(lo, full[inside])


def cumulants_from_muculants(seq: MuculantSeq, k_max: int) -> CumulantVector:
    """kappa_k = sum_n n^k c[n] for k = 1..k_max, with a tail-growth guard.

    The read-off identity needs the n^k-weighted tail of the coefficient
    sequence to be negligible.  With only a finite range computed, the
    guard n_limit^k_max * max |c[n]| over the outermost tenth of indices
    must stay below 1e-6, otherwise the sum has visibly not settled and
    :class:`TruncationUnsafe` is raised (slowly decaying sequences, e.g.
    a pure point mass, genuinely have no convergent read-off here).
    """
    if seq.kind != "complex":
        raise ValueError("cumulant read-off needs complex-kind coefficients")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    ns = seq.indices
    n_limit = max(seq.n_max, -seq.n_min)
    if n_limit > 0:
        cutoff = max(1, int(np.ceil(0.9 * n_limit)))
        tail = np.abs(seq.values[np.abs(ns) >= cutoff])
        if tail.size and float(n_limit) ** k_max * float(tail.max()) > 1e-6:
            raise TruncationUnsafe(
                f"n^{k_max}-weighted tail {float(tail.max()):.3e} at "
                f"|n| >= {cutoff} has not settled"
            )
    base = ns.astype(np.float64)
    kappa = [float(np.sum(base**k * seq.values)) for k in range(1, k_max + 1)]
    return CumulantVector(np.asarray(kappa))
