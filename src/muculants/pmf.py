"""Integer-supported probability mass functions and their moment algebra."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeMass, NotCausal, NotNormalized

# Entries in [_CLAMP, 0) are treated as floating-point noise and clamped.
_CLAMP = -1e-14
# validate_pmf acceptance window around total mass 1.
_NORM_TOL = 1e-6
# Slack on the stored-mass invariants of the PMF type itself.
_MASS_SLOP = 1e-10
# Zero modulus must stay below 1 - margin to count as minimum phase.
_MINPHASE_MARGIN = 1e-10

MAX_MOMENT_ORDER = 12

_MAX_DOUBLE = float(np.finfo(np.float64).max)  # a Python float compares exactly with any int


def frozen_vector(obj, name: str, length=None, dtype=np.float64) -> np.ndarray:
    """Freeze array field ``name`` of the frozen dataclass ``obj`` in place.

    The field is copied to ``dtype``, checked to be a nonempty 1-D vector
    (exactly ``length`` long when given) with finite entries, made
    read-only and stored back; ValueError otherwise.  Returns the copy.
    """
    a = np.array(getattr(obj, name), dtype=dtype)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    if length is not None and a.size != length:
        raise ValueError(f"{name} must have length {length}, got {a.size}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


def integer_argument(name: str, value) -> int:
    """``value`` as an int when it is an int or numpy integer; a bool, float
    or anything else is refused with ValueError naming ``name`` rather than
    truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def is_number(value) -> bool:
    """The one number rule: an int or float, Python or numpy, not a bool, and
    no integer beyond the largest double."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    return not isinstance(value, int) or abs(value) <= _MAX_DOUBLE


@dataclass(frozen=True)
class PMF:
    """Probability mass function on the integers.

    ``probs[i]`` is the probability of the integer ``offset + i``.  The
    vector is trimmed (first and last entries nonzero) and sums to at most
    one; any deficit from one must be covered by ``tail_mass_bound``, the
    recorded upper bound on mass removed by truncating an infinite support.

    Instances are immutable; build them through :func:`validate_pmf` or the
    distribution constructors rather than by hand.
    """

    offset: int
    probs: np.ndarray
    tail_mass_bound: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "offset", integer_argument("offset", self.offset))
        probs = frozen_vector(self, "probs")
        if np.any(probs < 0.0):
            raise NegativeMass("PMF entries must be nonnegative")
        if not 0.0 <= self.tail_mass_bound <= 1.0:
            raise ValueError("tail_mass_bound must lie in [0, 1]")
        s = float(probs.sum())
        if s > 1.0 + _MASS_SLOP:
            raise NotNormalized(f"total mass {s!r} exceeds 1")
        if 1.0 - s > self.tail_mass_bound + _MASS_SLOP:
            raise NotNormalized(
                f"mass deficit {1.0 - s!r} is not covered by tail_mass_bound"
            )
        if probs[0] == 0.0 or probs[-1] == 0.0:
            raise ValueError("PMF must be trimmed: first and last entries nonzero")

    def __len__(self) -> int:
        return len(self.probs)

    @property
    def support(self) -> np.ndarray:
        """Integer points carrying the stored mass."""
        return self.offset + np.arange(len(self.probs))

    @property
    def total_mass(self) -> float:
        return float(self.probs.sum())


@dataclass(frozen=True)
class SignedSequence:
    """Finite real-valued sequence on the integers.

    Unlike a PMF, entries may be negative: truncated coefficient sequences
    reconstruct to signed sequences in general, and whether such a sequence
    is a distribution is a question answered by the caller, not the type.
    """

    offset: int
    values: np.ndarray
    sum: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "offset", integer_argument("offset", self.offset))
        v = frozen_vector(self, "values")
        object.__setattr__(self, "sum", float(v.sum()))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def support(self) -> np.ndarray:
        return self.offset + np.arange(len(self.values))

    def value_at(self, xi: int) -> float:
        """Entry at integer ``xi``; zero outside the stored window."""
        i = integer_argument("xi", xi) - self.offset
        if 0 <= i < len(self.values):
            return float(self.values[i])
        return 0.0


@dataclass(frozen=True)
class CumulantVector:
    """Cumulants kappa_1 .. kappa_K, stored zero-indexed."""

    values: np.ndarray

    def __post_init__(self):
        frozen_vector(self, "values")

    def __len__(self) -> int:
        return len(self.values)

    def kappa(self, k: int) -> float:
        if not 1 <= integer_argument("k", k) <= len(self.values):
            raise ValueError(f"order {k} outside stored range 1..{len(self.values)}")
        return float(self.values[k - 1])


def validate_pmf(offset: int, values) -> PMF:
    """Build a canonical PMF from raw values.

    Entries in ``[-1e-14, 0)`` are clamped to zero as floating-point noise;
    anything more negative raises :class:`NegativeMass`.  The total mass
    must lie within ``1e-6`` of one, otherwise :class:`NotNormalized`.
    Excess above one (always fp accumulation) is rescaled away; a deficit
    is kept and recorded as ``tail_mass_bound``.  Leading or trailing
    zeros are folded into ``offset``, which must be an integer (ValueError).
    """
    offset = integer_argument("offset", offset)
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0 or not np.isfinite(v).all():
        raise ValueError("values must be a nonempty 1-D vector of finite numbers")
    if np.any(v < _CLAMP):
        raise NegativeMass(f"entry {float(v.min())!r} below the -1e-14 noise floor")
    v[v < 0.0] = 0.0
    s = float(v.sum())
    if not (1.0 - _NORM_TOL <= s <= 1.0 + _NORM_TOL):
        raise NotNormalized(f"total mass {s!r} outside [1 - 1e-6, 1 + 1e-6]")
    if s > 1.0:
        v /= s
    nonzero = np.nonzero(v)[0]
    v = v[nonzero[0] : nonzero[-1] + 1]
    deficit = max(0.0, 1.0 - float(v.sum()))
    return PMF(offset + int(nonzero[0]), v, tail_mass_bound=deficit)


def convolve(f: PMF, g: PMF) -> PMF:
    """PMF of the sum of independent variables distributed as ``f`` and ``g``."""
    probs = np.convolve(f.probs, g.probs)
    bound = min(1.0, f.tail_mass_bound + g.tail_mass_bound)
    return PMF(f.offset + g.offset, probs, tail_mass_bound=bound)


def autocorrelation(f: PMF) -> PMF:
    """Law of the difference of two independent copies of ``f``.

    Even around zero by construction; the fp residue of the convolution is
    symmetrized away so the mirror equality holds index-wise exactly.
    """
    c = np.convolve(f.probs, f.probs[::-1])
    c = 0.5 * (c + c[::-1])
    return PMF(-(len(f) - 1), c, tail_mass_bound=min(1.0, 2.0 * f.tail_mass_bound))


def raw_moment(f: PMF, k: int) -> float:
    """E[X^k] from the stored mass.  Orders above 12 amplify truncation noise
    past anything the downstream tolerances can absorb, so they are refused."""
    if not 1 <= integer_argument("k", k) <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 1..{MAX_MOMENT_ORDER}")
    xi = f.support.astype(np.float64)
    return float(np.sum(xi**k * f.probs))


def moments_to_cumulants(moments) -> CumulantVector:
    """Cumulants from raw moments mu'_1 .. mu'_K.

    Standard triangular recursion:
    kappa_k = mu'_k - sum_{i=1}^{k-1} C(k-1, i-1) kappa_i mu'_{k-i}.
    """
    mu = np.asarray(moments, dtype=np.float64)
    if mu.ndim != 1 or mu.size == 0:
        raise ValueError("need at least the first raw moment")
    kappa = np.empty(len(mu))
    for k in range(1, len(mu) + 1):
        acc = mu[k - 1]
        for i in range(1, k):
            acc -= math.comb(k - 1, i - 1) * kappa[i - 1] * mu[k - i - 1]
        kappa[k - 1] = acc
    return CumulantVector(kappa)


def is_minimum_phase(f: PMF) -> bool:
    """Whether every zero of the support polynomial sum_xi f[xi] w^(L-1-xi)
    lies strictly inside the unit circle (modulus below 1 - 1e-10).

    Schur-Cohn step-down, the Jury stability table (Marden, *Geometry of
    Polynomials*, 1966, sections 42-43); no roots are computed.  The
    coefficients are first scaled by rho^(L-1-i), rho = 1 - 1e-10, which
    moves zeros of modulus rho onto the unit circle.  Each step takes the
    reflection coefficient k = a[n]/a[0] and lowers the degree by one,
    a <- (a[:n] - k a[n:0:-1]) / (1 - k^2): one vector operation per
    degree, O(L^2) in all.  Every zero lies inside exactly when every step
    has |k| < 1; the first |k| >= 1 returns False.

    The answer is only as good as the coefficients.  Rounding splits a
    zero of multiplicity m into m zeros spread over a radius of order
    eps^(1/m), so for large m the predicate can flip.  Such a zero also
    drives |Phi| far below the 1e-8 vanishing floor, where no route
    computes coefficients; on the causal zoo laws above the floor the
    step-down and the roots agree.  Binomial(30, 0.35) has a 30-fold zero
    at -0.54 and |Phi(pi)| about 2e-16: the step-down says False there,
    a companion-matrix root finder (``np.roots``) says True.

    Requires a causal PMF (offset >= 0); raises :class:`NotCausal` otherwise.
    """
    if f.offset < 0:
        raise NotCausal("minimum-phase test requires offset >= 0")
    n = len(f) - 1
    a = f.probs * (1.0 - _MINPHASE_MARGIN) ** np.arange(n, -1, -1.0)
    while n:
        k = a[n] / a[0]
        if abs(k) >= 1.0:
            return False
        a = (a[:n] - k * a[n:0:-1]) / (1.0 - k * k)
        n -= 1
    return True
