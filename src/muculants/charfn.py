"""Characteristic functions on a uniform frequency grid, and their complex log.

The grid is mu_k = -pi + 2*pi*k/N for k = 0..N-1 with N a power of two, so
mu = 0 sits exactly at index N/2 and -pi is on the grid while +pi is not
(they are the same point of the circle).
"""

from dataclasses import dataclass

import numpy as np

from .errors import CharFnVanishes, EmptySample, GridTooCoarse
from .pmf import PMF, frozen_vector, integer_argument

DEFAULT_GRID_SIZE = 4096

# Largest grid accepted: 2^24 points, 256 MiB per complex array.
MAX_GRID_POINTS = 1 << 24

# |charfn| below this and the complex log is numerically undefined.
VANISH_TOL = 1e-8

# Floor for a charfn estimated from draws: below it the sample spread is too
# heavy for the sample size and the coefficient estimates are sampling noise.
EMPIRICAL_FLOOR = 1e-3

# Hermitian-symmetry slack: |Phi - conj(Phi)| at mu = 0 and pi.
_HERMITIAN_TOL = 1e-10

# Fewest draws an estimate from samples accepts.
MIN_SAMPLE_SIZE = 100

_SOURCES = ("exact-from-pmf", "empirical", "reconstructed")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of N frequencies mu_k = -pi + 2*pi*k/N, N a power of two
    in 64..2^24."""

    n_points: int

    def __post_init__(self):
        n = integer_argument("n_points", self.n_points)
        if n < 64 or n & (n - 1):
            raise ValueError("n_points must be a power of two, at least 64")
        if n > MAX_GRID_POINTS:
            raise ValueError(f"n_points must be at most {MAX_GRID_POINTS}, got {n}")
        object.__setattr__(self, "n_points", n)

    @property
    def points(self) -> np.ndarray:
        n = self.n_points
        return -np.pi + 2.0 * np.pi * np.arange(n) / n

    @property
    def zero_index(self) -> int:
        return self.n_points // 2

    @classmethod
    def for_width(cls, width: int, minimum: int = 64, n_max: int = 0) -> "FrequencyGrid":
        """Smallest admissible grid with at least ``minimum`` points, four per
        index of a support ``width`` wide (the phase resolution
        :func:`require_resolution` asks for) and four per coefficient index
        up to ``n_max`` (the transforms' aliasing guard).  ValueError unless
        each is an integer (:func:`integer_argument`) and ``width`` and
        ``n_max`` are nonnegative, and names the width and ``n_max`` when
        they need more than 2^24 points."""
        width, n_max = integer_argument("width", width), integer_argument("n_max", n_max)
        if width < 0 or n_max < 0:
            raise ValueError(f"width {width} and n_max {n_max} must be nonnegative")
        n = max(64, integer_argument("minimum", minimum), 4 * width, 4 * n_max)
        if n > MAX_GRID_POINTS:
            raise ValueError(
                f"width {width} and n_max {n_max} need more than {MAX_GRID_POINTS} grid points"
            )
        return cls(1 << (n - 1).bit_length())


def span_width(lo: int, hi: int) -> int:
    """Length of the smallest integer interval containing lo..hi and 0.

    The origin is included because the linear phase of the offset is part of
    what the grid must resolve.
    """
    return max(hi, 0) - min(lo, 0) + 1


def support_width(f: PMF) -> int:
    """:func:`span_width` of the support of ``f``."""
    return span_width(f.offset, f.offset + len(f) - 1)


def grid_for_pmf(f: PMF, n_max: int = 0) -> FrequencyGrid:
    """Default grid for an exact PMF: at least 4096 points, four per index
    of its support width and four per coefficient index up to ``n_max``."""
    return FrequencyGrid.for_width(support_width(f), DEFAULT_GRID_SIZE, n_max)


def require_resolution(lo: int, hi: int, grid: FrequencyGrid) -> None:
    """Raise :class:`GridTooCoarse` unless the grid has at least
    ``4 * span_width(lo, hi)`` points.

    That keeps the true phase increment of a charfn with support lo..hi
    below pi per grid step, so the downstream unwrap cannot skip a wrap.
    """
    w = span_width(lo, hi)
    if grid.n_points < 4 * w:
        raise GridTooCoarse(
            f"support width {w} needs at least {4 * w} grid points, "
            f"got {grid.n_points}"
        )


def integer_samples(samples) -> np.ndarray:
    """The samples as a 1-D int64 array.

    Raises :class:`EmptySample` when there are none and ValueError unless
    they form a 1-D vector of integers (bools are not integers, as in
    :func:`integer_argument`).
    """
    x = np.asarray(samples)
    if x.size == 0:
        raise EmptySample("no samples")
    if x.ndim != 1:
        raise ValueError("samples must be a 1-D vector")
    xi = np.asarray(x, dtype=np.int64)
    if x.dtype == bool or not np.array_equal(xi, x):
        raise ValueError("samples must be integers")
    return xi


def grid_synthesis(coeffs, offset: int, grid: FrequencyGrid) -> np.ndarray:
    """sum_i coeffs[i] * exp(j * mu_k * (offset + i)) at every grid point.

    Computed by folding indices modulo N and one inverse FFT.  Exact for any
    support length: exp(j * mu_k * xi) is N-periodic in xi on this grid
    (N even), so folding changes nothing.  Works over the trailing axis, so
    a stack of sequences sharing ``offset`` is synthesized in one call.
    """
    folded = fold_indices(coeffs, integer_argument("offset", offset), grid.n_points)
    folded[..., 1::2] *= -1.0  # e^{-j pi xi}: the grid starts at mu = -pi
    return np.fft.ifft(folded, norm="forward")


def fold_indices(coeffs, offset: int, n: int, out=None) -> np.ndarray:
    """``coeffs[..., i]`` summed into bin (offset + i) mod n of the trailing
    axis: the fold that makes an n-point transform exact for any support.

    One slice ``+=`` per wrap of the support around the n bins, so each bin
    sums its coefficients in index order.  ``out``, when given, is zeroed
    and receives the fold."""
    c = np.asarray(coeffs, dtype=np.float64)
    if out is None:
        out = np.zeros(c.shape[:-1] + (n,))
    else:
        out.fill(0.0)
    length = c.shape[-1]
    i, b = 0, offset % n  # coefficient i lands in bin b
    while i < length:
        step = min(n - b, length - i)
        out[..., b : b + step] += c[..., i : i + step]
        i, b = i + step, 0
    return out


def grid_analysis(values: np.ndarray, ns) -> np.ndarray:
    """Trapezoidal Fourier coefficients (1/2pi) * integral(values * e^{-j mu n})
    of a grid-sampled 2pi-periodic function, for the integer indices ``ns``.

    Works over the trailing axis, like :func:`grid_synthesis`.  ValueError
    unless ``ns`` holds integers (bools are not integers, as in
    :func:`integer_argument`)."""
    v = np.asarray(values)
    n = v.shape[-1]
    ns = np.asarray(ns)
    if ns.size and ns.dtype.kind not in "iu":
        raise ValueError("indices must be integers")
    # on the given dtype: a cast first would wrap a large unsigned index
    if np.any((ns > n // 2) | (ns < -(n // 2))):
        raise ValueError("requested index beyond the grid's unaliased range")
    ns = ns.astype(np.int64)
    signs = np.where(ns % 2 == 0, 1.0, -1.0)
    return signs * (np.fft.fft(v)[..., ns % n] / n)


@dataclass(frozen=True)
class CharFnSamples:
    """Characteristic function sampled on a :class:`FrequencyGrid`.

    ``half`` holds conj(Phi) at mu = 0, 2pi/N, ..., pi (the rfft convention),
    all of a Hermitian Phi; its self-paired points mu = 0 and pi must be
    real within 5e-11.

    ``source`` records provenance: "exact-from-pmf" (modulus capped at one),
    "empirical" (value 1 at mu = 0 by construction, modulus not clipped), or
    "reconstructed" (synthesized from a truncated coefficient sequence, whose
    modulus may legitimately exceed one).
    """

    grid: FrequencyGrid
    half: np.ndarray
    source: str

    def __post_init__(self):
        half = frozen_vector(self, "half", self.grid.zero_index + 1, np.complex128)
        if self.source not in _SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if 2.0 * np.max(np.abs(half[:: self.grid.zero_index].imag)) > _HERMITIAN_TOL:
            raise ValueError("samples are not Hermitian within 1e-10")
        if self.source == "exact-from-pmf" and np.max(np.abs(half)) > 1.0 + 1e-10:
            raise ValueError("charfn modulus exceeds one")


@dataclass(frozen=True)
class LogCharFnSamples:
    """log conj(Phi) with a continuous (unwrapped) phase at mu = 0, 2pi/N,
    ..., pi: the half that a Hermitian log carries in full, as
    :class:`CharFnSamples` stores the half charfn.

    The phase is exactly zero at the self-paired points mu = 0 and pi;
    ``min_abs`` records how close the input came to the vanishing threshold.
    """

    grid: FrequencyGrid
    half: np.ndarray
    min_abs: float

    def __post_init__(self):
        half = frozen_vector(self, "half", self.grid.zero_index + 1, np.complex128)
        if half[:: self.grid.zero_index].imag.any():
            raise ValueError("phase must be zero at mu = 0 and pi")


def eval_charfn(f: PMF, grid: FrequencyGrid) -> CharFnSamples:
    """Evaluate Phi(mu) = sum_xi f[xi] e^{j mu xi} on the grid.

    One rfft of the folded PMF gives the half spectrum.  Requires
    ``N >= 4 * support_width(f)`` (:func:`require_resolution`); raises
    :class:`GridTooCoarse` otherwise.
    """
    require_resolution(f.offset, f.offset + len(f) - 1, grid)
    half = np.fft.rfft(fold_indices(f.probs, f.offset, grid.n_points))
    return CharFnSamples(grid, half, "exact-from-pmf")


def require_sample_size(size) -> None:
    """ValueError unless each number of draws in ``size`` is at least 100."""
    if np.min(size) < MIN_SAMPLE_SIZE:
        raise ValueError(f"need at least {MIN_SAMPLE_SIZE} samples, got {np.min(size)}")


def sample_histogram(samples, grid: FrequencyGrid) -> tuple[np.ndarray, int]:
    """(counts, lo): how many draws equal lo, lo + 1, ..., max, lo the smallest.
    Runs :func:`integer_samples`, :func:`require_sample_size`, then
    :func:`require_resolution` before counting, so a refused grid allocates
    nothing as wide as the sample range."""
    xi = integer_samples(samples)
    require_sample_size(xi.size)
    lo = int(xi.min())
    require_resolution(lo, int(xi.max()), grid)
    return np.bincount(xi - lo), lo


def empirical_charfn(samples, grid: FrequencyGrid) -> CharFnSamples:
    """Empirical characteristic function (1/m) sum_i e^{j mu X_i}: the
    :func:`sample_histogram` over m, synthesized as in :func:`eval_charfn`.
    Not clipped to the unit disk: |Phi| > 1 is informative."""
    counts, lo = sample_histogram(samples, grid)
    half = np.fft.rfft(fold_indices(counts / counts.sum(), lo, grid.n_points))
    half[0] = 1.0  # exact by construction
    return CharFnSamples(grid, half, "empirical")


def unwrap_phase(principal) -> np.ndarray:
    """Resolve 2*pi jumps in a sequence of principal arguments.

    The first element is kept; each later element is shifted by the integer
    multiple of 2*pi that brings the consecutive difference into [-pi, pi].
    Sequences run along the trailing axis.  Raises ValueError for an empty
    input or values outside the principal range; the arithmetic is
    :func:`unwrap_in_place` on a copy.
    """
    p = np.asarray(principal, dtype=np.float64)
    if p.ndim == 0 or p.size == 0:
        raise ValueError("need a nonempty sequence")
    if np.max(np.abs(p)) > np.pi + 1e-9:
        raise ValueError("inputs must be principal values in (-pi, pi]")
    out = p.copy()
    unwrap_in_place(out, np.empty(out.shape[:-1] + (out.shape[-1] - 1,)))
    return out


def unwrap_in_place(phase: np.ndarray, steps: np.ndarray) -> None:
    """:func:`unwrap_phase` of ``phase`` written back into it, with no range
    check and no allocation: ``steps``, one shorter along the trailing axis,
    receives the consecutive differences, then their cumulative 2*pi
    corrections.  Either may be a strided view (``log.imag``)."""
    np.subtract(phase[..., 1:], phase[..., :-1], out=steps)
    np.divide(steps, 2.0 * np.pi, out=steps)
    np.round(steps, out=steps)
    np.cumsum(steps, axis=-1, out=steps)
    np.multiply(steps, -2.0 * np.pi, out=steps)
    phase[..., 1:] += steps


def require_modulus(values, empirical: bool = False) -> tuple[np.ndarray, float]:
    """The moduli of charfn samples and their minimum.

    Raises :class:`CharFnVanishes` when that minimum falls below the
    vanishing floor: 1e-3 for an ``empirical`` charfn, where a smaller |Phi|
    is sampling noise, else 1e-8, where the log is numerically undefined.
    """
    floor = EMPIRICAL_FLOOR if empirical else VANISH_TOL
    mods = np.abs(values)
    min_abs = float(mods.min())
    if min_abs < floor:
        raise CharFnVanishes(f"|charfn| reaches {min_abs:.3e}, below the {floor:.0e} floor")
    return mods, min_abs


def log_half(half: np.ndarray, mods: np.ndarray, out: np.ndarray, steps: np.ndarray) -> None:
    """log of half-spectrum charfn values ``half`` (trailing axis mu = 0..pi)
    with moduli ``mods``, written into the complex ``out``: the principal
    phase, unwrapped along the trailing axis through ``steps`` (one shorter,
    see :func:`unwrap_in_place`), and log |Phi|.  No allocation."""
    np.arctan2(half.imag, half.real, out=out.imag)
    np.log(mods, out=out.real)
    unwrap_in_place(out.imag, steps)


def complex_log(samples: CharFnSamples) -> LogCharFnSamples:
    """Complex logarithm with a continuous phase, on the stored half.

    The log kernel's arithmetic (:func:`log_half`): the phase is unwrapped
    from mu = 0 and pinned to zero there.  Raises :class:`CharFnVanishes`
    when any sample modulus falls below the floor of its source
    (:func:`require_modulus`).

    When the charfn winds around the origin (shifted laws, Bernoulli with
    p > 1/2) the odd phase has a 2*pi*m jump across +-pi; the sample at pi
    is then set to the jump midpoint, which oddness forces to zero and which
    the coefficients' irfft counts there in any case.
    """
    mods, min_abs = require_modulus(samples.half, samples.source == "empirical")
    h = samples.grid.zero_index
    log = np.empty(h + 1, dtype=complex)
    log_half(samples.half, mods, log, np.empty(h))
    log.imag -= log.imag[0]  # a caller-built charfn may carry up to 5e-11 there
    log.imag[h] = 0.0  # jump midpoint at pi
    return LogCharFnSamples(samples.grid, log, min_abs)
