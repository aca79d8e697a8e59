"""Closed forms for six classical integer-valued families.

Every family exposes four views: the PMF (truncated where the support is
infinite), the characteristic function, the coefficient sequence of its
log, and exact cumulants.  The closed forms are the reference values the
numerical pipeline is tested against, so nothing here goes through a grid.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .charfn import MAX_GRID_POINTS, CharFnSamples, FrequencyGrid
from .pmf import PMF, CumulantVector, integer_argument, is_number
from .transform import MuculantSeq

# Infinite supports are truncated once the kept mass reaches 1 - this.
TRUNCATION_TAIL = 1e-12

# Most terms a truncated support keeps; a law that needs more is refused.
MAX_TERMS = 200_000
_TOO_MANY_TERMS = "truncation did not converge; parameters too extreme"

MAX_CUMULANT_ORDER = 8


@dataclass(frozen=True)
class Poisson:
    lam: float

    def __post_init__(self):
        if not (is_number(self.lam) and 0 < self.lam < 700):
            raise ValueError("lambda must lie in (0, 700)")
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class Degenerate:
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", integer_argument("m", self.m))


def _check_p(p, *, forbid_half: bool) -> float:
    if not (is_number(p) and 0 < p < 1):
        raise ValueError("p must lie in (0, 1)")
    if forbid_half and p == 0.5:
        # Phi(pi) = 0 exactly; the coefficient sequence does not exist.
        raise ValueError("p = 0.5 is excluded: the charfn vanishes at pi")
    return float(p)


@dataclass(frozen=True)
class Bernoulli:
    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p, forbid_half=True))


@dataclass(frozen=True)
class Geometric:
    """Number of failures before the first success, success probability p."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p, forbid_half=False))


@dataclass(frozen=True)
class NegativeBinomial:
    """Sum of r independent Geometric(1 - p) waits: f[xi] ~ C(xi+r-1, xi) (1-p)^r p^xi."""

    r: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "r", integer_argument("r", self.r))
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        object.__setattr__(self, "p", _check_p(self.p, forbid_half=False))


@dataclass(frozen=True)
class Binomial:
    n: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "n", integer_argument("n", self.n))
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "p", _check_p(self.p, forbid_half=True))


DistributionSpec = Poisson | Degenerate | Bernoulli | Geometric | NegativeBinomial | Binomial


def _truncated_probs(first: float, ratio):
    """Accumulate p[k+1] = p[k] * ratio(k) until the kept mass reaches
    1 - TRUNCATION_TAIL.  Returns (probs, deficit).  Terms are counted before
    any is stored, so a law needing more than MAX_TERMS allocates none."""
    if not first > 0.0:
        raise ValueError("parameters too extreme: leading probability underflows")
    term = total = first
    count = 1
    while total < 1.0 - TRUNCATION_TAIL:
        if count == MAX_TERMS:
            raise ValueError(_TOO_MANY_TERMS)
        term *= ratio(count - 1)
        total += term
        count += 1
    probs = np.cumprod(np.concatenate(([first], ratio(np.arange(count - 1)))))
    return probs, max(0.0, 1.0 - total)


def zoo_pmf(spec: DistributionSpec) -> PMF:
    """PMF of the family, truncated at tail mass 1e-12 where infinite."""
    if isinstance(spec, Poisson):
        probs, deficit = _truncated_probs(
            math.exp(-spec.lam), lambda k: spec.lam / (k + 1)
        )
        return PMF(0, probs, tail_mass_bound=deficit)
    if isinstance(spec, Degenerate):
        return PMF(spec.m, np.array([1.0]))
    if isinstance(spec, Bernoulli):
        return PMF(0, np.array([1.0 - spec.p, spec.p]))
    if isinstance(spec, Geometric):
        q = 1.0 - spec.p
        if math.log(q) * MAX_TERMS > math.log(TRUNCATION_TAIL):  # q may round to 1
            raise ValueError(_TOO_MANY_TERMS)
        count = max(1, math.ceil(math.log(TRUNCATION_TAIL) / math.log(q)))
        probs = spec.p * q ** np.arange(count)
        return PMF(0, probs, tail_mass_bound=q**count)
    if isinstance(spec, NegativeBinomial):
        r, p = spec.r, spec.p
        probs, deficit = _truncated_probs(
            (1.0 - p) ** r, lambda k: p * (k + r) / (k + 1)
        )
        return PMF(0, probs, tail_mass_bound=deficit)
    if isinstance(spec, Binomial):
        n, p = spec.n, spec.p

        def term(i):  # i an np.int64, as np.arange gives it
            return math.comb(n, int(i)) * p**i * (1.0 - p) ** (n - i)

        try:  # the end probabilities first, before anything n long is built
            if min(term(np.int64(0)), term(np.int64(n))) > 0.0:
                return PMF(0, np.array([term(i) for i in np.arange(n + 1)]))
        except OverflowError:  # C(n, i) outgrows a double
            pass
        raise ValueError(f"{spec_string(spec)} is too extreme: its PMF does not fit in doubles")
    raise TypeError(f"not a distribution spec: {spec!r}")


def zoo_charfn(spec: DistributionSpec, grid: FrequencyGrid) -> CharFnSamples:
    """Characteristic function from its closed form, evaluated pointwise at
    mu = 0, -2pi/N, ..., -pi: the stored half, as Phi(-mu) = conj(Phi(mu))."""
    mu = grid.points[grid.zero_index :: -1]
    z = np.exp(1j * mu)
    if isinstance(spec, Poisson):
        vals = np.exp(spec.lam * (z - 1.0))
    elif isinstance(spec, Degenerate):
        vals = np.exp(1j * mu * spec.m)
    elif isinstance(spec, Bernoulli):
        vals = 1.0 - spec.p + spec.p * z
    elif isinstance(spec, Geometric):
        # Direct sum of p (1-p)^xi z^xi; the series converges to p / (1 - (1-p) z).
        vals = spec.p / (1.0 - (1.0 - spec.p) * z)
    elif isinstance(spec, NegativeBinomial):
        vals = ((1.0 - spec.p) / (1.0 - spec.p * z)) ** spec.r
    elif isinstance(spec, Binomial):
        vals = (1.0 - spec.p + spec.p * z) ** spec.n
    else:
        raise TypeError(f"not a distribution spec: {spec!r}")
    return CharFnSamples(grid, vals, "exact-from-pmf")


def _bernoulli_coeffs(p: float, ns: np.ndarray) -> np.ndarray:
    """Closed-form coefficients of log(1 - p + p e^{j mu}) at integer indices.

    For p < 1/2 the Mercator series of log(1 + (p/(1-p)) e^{j mu}) gives a
    purely causal sequence.  For p > 1/2 factor out p e^{j mu} first:
    log Phi = ln p + j mu + log(1 + b e^{-j mu}) with b = (1-p)/p, where the
    j mu term contributes the sawtooth coefficients (-1)^{n+1}/n on both
    sides and the series fills only the negative side.
    """
    vals = np.zeros(len(ns), dtype=np.float64)
    pos = ns > 0
    neg = ns < 0
    zero = ns == 0
    nf = ns.astype(np.float64)
    if p < 0.5:
        vals[zero] = math.log1p(-p)
        ratio = p / (1.0 - p)
        npos = nf[pos]
        vals[pos] = -((-ratio) ** npos) / npos
    else:
        vals[zero] = math.log(p)
        b = (1.0 - p) / p
        npos = nf[pos]
        vals[pos] = -((-1.0) ** npos) / npos
        nneg = nf[neg]
        vals[neg] = -((-1.0) ** nneg) * (1.0 - b ** (-nneg)) / nneg
    return vals


def zoo_muculants(spec: DistributionSpec, n_range) -> MuculantSeq:
    """Closed-form coefficient sequence on the inclusive range (n_lo, n_hi),
    within +-MAX_GRID_POINTS / 4, the largest ``n_max`` a grid route takes."""
    lo, hi = (integer_argument("n_range bound", b) for b in n_range)
    if not lo <= 0 <= hi:
        raise ValueError("index range must contain zero")
    if max(-lo, hi) > MAX_GRID_POINTS // 4:
        raise ValueError(f"index range {lo}..{hi} reaches past +-{MAX_GRID_POINTS // 4}")
    ns = np.arange(lo, hi + 1)
    nf = ns.astype(np.float64)
    vals = np.zeros(len(ns))
    if isinstance(spec, Poisson):
        vals[ns == 0] = -spec.lam
        vals[ns == 1] = spec.lam
    elif isinstance(spec, Degenerate):
        nz = ns != 0
        # (-1)^{n+1}/n scaled by the mass point; odd in n.
        vals[nz] = -spec.m * ((-1.0) ** nf[nz]) / nf[nz]
    elif isinstance(spec, Bernoulli):
        vals = _bernoulli_coeffs(spec.p, ns)
    elif isinstance(spec, Geometric):
        vals[ns == 0] = math.log(spec.p)
        pos = ns > 0
        vals[pos] = (1.0 - spec.p) ** nf[pos] / nf[pos]
    elif isinstance(spec, NegativeBinomial):
        vals[ns == 0] = spec.r * math.log1p(-spec.p)
        pos = ns > 0
        vals[pos] = spec.r * spec.p ** nf[pos] / nf[pos]
    elif isinstance(spec, Binomial):
        vals = spec.n * _bernoulli_coeffs(spec.p, ns)
    else:
        raise TypeError(f"not a distribution spec: {spec!r}")
    return MuculantSeq(lo, hi, vals, "complex", 0.0)


def _cumulants_by_derivative(k_max: int, mult, x: float) -> np.ndarray:
    # kappa_1 is the variable itself; each next order applies mult(t) d/dt.
    coeffs = np.array([0.0, 1.0])
    out = [float(npoly.polyval(x, coeffs))]
    for _ in range(k_max - 1):
        coeffs = npoly.polymul(mult, npoly.polyder(coeffs))
        out.append(float(npoly.polyval(x, coeffs)))
    return np.array(out)


def zoo_cumulants(spec: DistributionSpec, k_max: int) -> CumulantVector:
    """Exact cumulants kappa_1..kappa_k_max (k_max <= 8).

    Bernoulli and geometric use the derivative recursions
    kappa_{n+1} = p(1-p) d kappa_n / dp   (kappa_1 = p) and
    kappa_{n+1} = rho(1+rho) d kappa_n / d rho   (kappa_1 = rho, rho = (1-p)/p),
    carried out in exact polynomial coefficient arithmetic and only then
    evaluated; binomial and negative binomial are the r-fold (n-fold) sums.
    """
    if not 1 <= integer_argument("k_max", k_max) <= MAX_CUMULANT_ORDER:
        raise ValueError(f"k_max must be in 1..{MAX_CUMULANT_ORDER}")
    if isinstance(spec, Poisson):
        vals = np.full(k_max, spec.lam)
    elif isinstance(spec, Degenerate):
        vals = np.zeros(k_max)
        vals[0] = spec.m
    elif isinstance(spec, Bernoulli):
        vals = _cumulants_by_derivative(k_max, np.array([0.0, 1.0, -1.0]), spec.p)
    elif isinstance(spec, Geometric):
        rho = (1.0 - spec.p) / spec.p
        vals = _cumulants_by_derivative(k_max, np.array([0.0, 1.0, 1.0]), rho)
    elif isinstance(spec, NegativeBinomial):
        # r-fold sum of geometric waits with the roles of p and 1-p swapped.
        rho = spec.p / (1.0 - spec.p)
        vals = spec.r * _cumulants_by_derivative(k_max, np.array([0.0, 1.0, 1.0]), rho)
    elif isinstance(spec, Binomial):
        vals = spec.n * _cumulants_by_derivative(
            k_max, np.array([0.0, 1.0, -1.0]), spec.p
        )
    else:
        raise TypeError(f"not a distribution spec: {spec!r}")
    return CumulantVector(vals)


_FAMILIES = {
    "poisson": (Poisson, {"lambda": ("lam", float)}),
    "degenerate": (Degenerate, {"m": ("m", int)}),
    "bernoulli": (Bernoulli, {"p": ("p", float)}),
    "geometric": (Geometric, {"p": ("p", float)}),
    "negbinomial": (NegativeBinomial, {"r": ("r", int), "p": ("p", float)}),
    "binomial": (Binomial, {"n": ("n", int), "p": ("p", float)}),
}


def parse_spec(text: str) -> DistributionSpec:
    """Parse strings like ``poisson:lambda=2`` or ``binomial:n=5,p=0.2``;
    each parameter is given exactly once."""
    name, _, argtext = text.partition(":")
    name = name.strip().lower()
    if name not in _FAMILIES:
        raise ValueError(
            f"unknown family {name!r}; choose from {', '.join(sorted(_FAMILIES))}"
        )
    cls, schema = _FAMILIES[name]
    kwargs = {}
    for item in filter(None, (s.strip() for s in argtext.split(","))):
        key, eq, raw = item.partition("=")
        key = key.strip().lower()
        if not eq or key not in schema:
            raise ValueError(f"bad parameter {item!r} for family {name!r}")
        field_name, conv = schema[key]
        if field_name in kwargs:
            raise ValueError(f"parameter {key!r} given twice")
        try:
            kwargs[field_name] = conv(raw)
        except ValueError:
            problem = "must be an integer, got" if conv is int else "has non-numeric value"
            raise ValueError(f"parameter {key!r} {problem} {raw!r}") from None
    missing = {f for f, _ in schema.values()} - set(kwargs)
    if missing:
        raise ValueError(f"family {name!r} is missing parameters: {sorted(missing)}")
    return cls(**kwargs)


def spec_string(spec: DistributionSpec) -> str:
    """Inverse of :func:`parse_spec`, canonical form.  Floats print as the
    shortest text that parses back to the same value, less a trailing ".0"."""
    for name, (cls, schema) in _FAMILIES.items():
        if isinstance(spec, cls):
            params = (
                f"{key}={repr(getattr(spec, field)).removesuffix('.0')}"
                for key, (field, _) in schema.items()
            )
            return f"{name}:{','.join(params)}"
    raise TypeError(f"not a distribution spec: {spec!r}")
