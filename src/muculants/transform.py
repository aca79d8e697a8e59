"""Coefficient sequences of the log characteristic function.

For an integer-valued X with nonvanishing charfn Phi, the complex sequence
is c[n] = (1/2pi) integral of log Phi(mu) e^{-j mu n} d mu and the power
sequence is the same transform of ln |Phi|^2.  Both are real; the power
sequence is even and carries no phase information.
"""

from dataclasses import dataclass

import numpy as np

from .charfn import (
    CharFnSamples,
    FrequencyGrid,
    LogCharFnSamples,
    fold_indices,
    require_modulus,
    span_width,
    support_width,
)
from .errors import NotApplicable, SupportTooSmall, TruncationUnsafe
from .pmf import PMF, CumulantVector, SignedSequence, frozen_vector, integer_argument
from .pmf import is_minimum_phase

# Largest imaginary residue a JSON coefficient file may record.
IMAG_TOL = 1e-8

# Even-symmetry slack for power sequences.
_EVEN_TOL = 1e-10

_KINDS = ("complex", "power")

# Indices per block of the recursion's triangular solve.
_BLOCK = 64


@dataclass(frozen=True)
class MuculantSeq:
    """Real coefficients for integer indices n_min..n_max (n_min <= 0 <= n_max).

    ``kind`` is "complex" (transform of log Phi) or "power" (transform of
    ln |Phi|^2, even about zero).  ``imag_residual`` is the largest
    imaginary part discarded when the coefficients were computed: every
    route here computes on the half spectrum and returns 0.0, and the field
    carries what a JSON coefficient file holds (below 1e-8).
    """

    n_min: int
    n_max: int
    values: np.ndarray
    kind: str
    imag_residual: float

    def __post_init__(self):
        for name in ("n_min", "n_max"):
            object.__setattr__(self, name, integer_argument(name, getattr(self, name)))
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
        i = integer_argument("n", n) - self.n_min
        if 0 <= i < len(self.values):
            return float(self.values[i])
        return 0.0


def complex_muculants(logcf: LogCharFnSamples, n_max: int) -> MuculantSeq:
    """Coefficients of log Phi for n in [-n_max, n_max], n_max <= N/4
    (aliasing guard): one :func:`_cepstrum` of the stored half log, real by
    construction."""
    n = logcf.grid.n_points
    require_index_range(n, n_max)
    return MuculantSeq(-n_max, n_max, _cepstrum(logcf.half, n, n_max), "complex", 0.0)


def require_index_range(n_points: int, n_max: int) -> None:
    """Raise ValueError unless ``n_max`` is an integer (:func:`integer_argument`)
    with 1 <= n_max <= N/4, the aliasing guard of coefficients read off an
    N-point grid."""
    integer_argument("n_max", n_max)
    if not 1 <= n_max <= n_points // 4:
        raise ValueError(f"n_max must be in 1..{n_points // 4} for this grid")


def _cepstrum(log: np.ndarray, n: int, n_max: int) -> np.ndarray:
    """Coefficients c[-n_max..n_max] of a Hermitian log given on mu = 0..pi
    (trailing axis, N/2 + 1 points): one irfft, read at k mod N.  The irfft
    keeps only the real part at mu = 0 and pi."""
    return np.fft.irfft(log, n)[..., np.arange(-n_max, n_max + 1) % n]


def power_muculants(cf: CharFnSamples, n_max: int) -> MuculantSeq:
    """Coefficients of ln |Phi|^2 for n in [-n_max, n_max], n_max <= N/4.

    Phase-free, hence computable whenever the modulus stays above the floor
    of its source (:func:`require_modulus`): one :func:`_cepstrum` of the
    real, even ln |Phi|^2 on the stored half.
    """
    n = cf.grid.n_points
    require_index_range(n, n_max)
    mods, _ = require_modulus(cf.half, cf.source == "empirical")
    vals = _cepstrum(2.0 * np.log(mods), n, n_max)
    vals = 0.5 * (vals + vals[::-1])  # exact evenness against fp drift
    return MuculantSeq(-n_max, n_max, vals, "power", 0.0)


def recursive_minphase_muculants(f: PMF, n_max: int) -> MuculantSeq:
    """Causal coefficients of a minimum-phase PMF by direct recursion.

    c[0] = ln f[0],
    c[n] = f[n]/f[0] - sum_{k=1}^{n-1} (k/n) c[k] f[n-k]/f[0]  for n >= 1.

    With a = f/f[0] and w[n] = n c[n] this is the series division
    (w * a)[n] = n a[n]: a lower-triangular Toeplitz system, solved in
    blocks of 64 indices.  The inverse of its 64 x 64 leading block is the
    Toeplitz matrix of h = 1/a to 64 terms, built once by forward
    substitution; each block then subtracts the earlier values'
    contribution (one ``np.convolve`` over the last L - 1 of them) and
    multiplies by that inverse.  One step of iterative refinement follows
    (the residual against the block's own Toeplitz matrix, times the
    inverse again), as h carries rounding error relative to |a| |h| and
    the bare product loses digits where a = f/f[0] runs large.

    No transform, no grid, no phase unwrap; this is the independent route
    used to cross-check the spectral pipeline.  The recursion sums the
    Taylor series of log(P(z)/f[0]), which converges on the unit circle
    only for minimum-phase inputs, so two guards run first:

    - :class:`NotApplicable` when the support does not start at zero, the
      leading probability vanishes, or :func:`is_minimum_phase` is False;
    - :class:`CharFnVanishes` when |Phi| dips below the 1e-8 floor on the
      smallest grid that resolves the support (the coefficients are then
      not numerically defined, as on every other route), read off one
      rfft of the folded PMF.  Only this guard looks at a grid.
    """
    if f.offset != 0:
        raise NotApplicable("support must start at zero")
    p0 = float(f.probs[0])
    if p0 <= 1e-14:
        raise NotApplicable("leading probability vanishes")
    if integer_argument("n_max", n_max) < 0:
        raise ValueError("n_max must be nonnegative")
    if not is_minimum_phase(f):
        raise NotApplicable("PMF is not minimum phase")
    n = FrequencyGrid.for_width(support_width(f)).n_points
    require_modulus(np.fft.rfft(fold_indices(f.probs, 0, n)))  # |Phi| on mu = 0..pi
    taps = len(f) - 1
    block = min(_BLOCK, n_max + 1)
    a = np.zeros(n_max + block + taps + 1)  # zero-padded past the support
    a[: taps + 1] = f.probs / p0
    h = np.zeros(block)  # 1/a to `block` terms
    h[0] = 1.0
    for m in range(1, block):
        h[m] = -np.dot(a[1 : m + 1], h[m - 1 :: -1])
    lag = np.subtract.outer(np.arange(block), np.arange(block))
    toeplitz = np.where(lag >= 0, a[lag], 0.0)  # lower-triangular blocks
    inverse = np.where(lag >= 0, h[lag], 0.0)
    w = np.arange(n_max + 1) * a[: n_max + 1]
    for s in range(0, n_max + 1, block):
        e = min(s + block, n_max + 1)
        if s:
            p = max(0, s - taps)
            w[s:e] -= np.convolve(a[1 : e - p], w[p:s], "valid")
        hb, tb = inverse[: e - s, : e - s], toeplitz[: e - s, : e - s]
        x = hb @ w[s:e]
        w[s:e] = x + hb @ (w[s:e] - tb @ x)
    vals = np.empty(n_max + 1)
    vals[0] = np.log(p0)
    vals[1:] = w[1:] / np.arange(1, n_max + 1)
    return MuculantSeq(0, n_max, vals, "complex", 0.0)


def _half_charfn(seq: MuculantSeq, n: int) -> np.ndarray:
    """conj(Phi) at mu = 0, 2pi/N, ..., pi for the coefficients ``seq``.

    The coefficients are real, so Phi is Hermitian and mu in [0, pi] carries
    all of it: one rfft of the coefficients folded modulo N gives the
    conjugate of sum_n c[n] e^{j mu n} there, and one exp over N/2 + 1
    points gives conj(Phi).  Raises ValueError for power-kind input and
    unless every value is finite.
    """
    if seq.kind != "complex":
        raise ValueError("reconstruction needs complex-kind coefficients")
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.exp(np.fft.rfft(fold_indices(seq.values, seq.n_min, n)))
    if not np.isfinite(half).all():
        raise ValueError("reconstructed charfn is not finite")
    return half


def reconstruct_charfn(seq: MuculantSeq, grid: FrequencyGrid) -> CharFnSamples:
    """exp(sum_n c[n] e^{j mu n}) on the grid.

    Computed on mu in [0, pi] by :func:`_half_charfn`, the half that
    :class:`CharFnSamples` stores, so the samples are exactly Hermitian
    however large |Phi| runs.  The all-zero sequence gives Phi identically
    one (the unit mass at zero).  Power sequences carry no phase and cannot
    be inverted here.
    """
    return CharFnSamples(grid, _half_charfn(seq, grid.n_points), "reconstructed")


def reconstruct_sequence(seq: MuculantSeq, support) -> SignedSequence:
    """Sequence whose charfn the coefficients describe, on a support window.

    ``support`` is an inclusive integer range ``(lo, hi)``.  The charfn is
    taken on mu in [0, pi] of a grid with at least four points per index
    of the window (origin included) and per coefficient index
    (:func:`_half_charfn`), and one irfft gives the full period of the
    sequence at x mod N.  Values outside the window are discarded, and if
    the discarded magnitudes total more than 1e-6 the window was genuinely
    too small and :class:`SupportTooSmall` is raised.

    Returns a :class:`SignedSequence`: a truncated coefficient sequence
    need not describe a distribution, and no claim is made here about when
    it does.  The full-period values sum to Phi(0) = exp(sum_n c[n]) by the
    transform identity; the windowed sum inherits that up to the discard
    budget.
    """
    lo, hi = (integer_argument("support bound", b) for b in support)
    if lo > hi:
        raise ValueError("support range is empty")
    n = FrequencyGrid.for_width(span_width(lo, hi), n_max=max(seq.n_max, -seq.n_min)).n_points
    # the period starting at lo: the window first, then everything outside
    full = np.roll(np.fft.irfft(_half_charfn(seq, n), n), -lo)
    width = hi - lo + 1
    discarded = float(np.sum(np.abs(full[width:])))
    if discarded > 1e-6:
        raise SupportTooSmall(
            f"{discarded:.3e} of reconstructed magnitude falls outside "
            f"[{lo}, {hi}]"
        )
    return SignedSequence(lo, full[:width])


def cumulants_from_muculants(seq: MuculantSeq, k_max: int) -> CumulantVector:
    """kappa_k = sum_n n^k c[n] for k = 1..k_max, with a tail-growth guard.

    The read-off identity needs the n^k-weighted tail of the coefficient
    sequence to be negligible.  With only a finite range computed, the
    guard n_limit^k_max * max |c[n]| over the outermost tenth of indices
    must stay below 1e-6, otherwise the sum has visibly not settled and
    :class:`TruncationUnsafe` is raised (slowly decaying sequences, e.g.
    a pure point mass, genuinely have no convergent read-off here).  A
    ``k_max`` for which n_limit^k_max overflows a double is a ValueError.
    """
    if seq.kind != "complex":
        raise ValueError("cumulant read-off needs complex-kind coefficients")
    k_max = integer_argument("k_max", k_max)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    ns = seq.indices
    n_limit = max(seq.n_max, -seq.n_min)
    if n_limit > 0:
        cutoff = max(1, int(np.ceil(0.9 * n_limit)))
        tail = np.abs(seq.values[np.abs(ns) >= cutoff])
        try:
            weight = float(n_limit) ** k_max
        except OverflowError:
            raise ValueError(
                f"k_max {k_max} is too large: {n_limit}^{k_max} overflows a double"
            ) from None
        if weight * float(tail.max()) > 1e-6:
            raise TruncationUnsafe(
                f"n^{k_max}-weighted tail {float(tail.max()):.3e} at "
                f"|n| >= {cutoff} has not settled"
            )
    base = ns.astype(np.float64)
    kappa = [float(np.sum(base**k * seq.values)) for k in range(1, k_max + 1)]
    return CumulantVector(np.asarray(kappa))
