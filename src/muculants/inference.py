"""Estimation from samples, and a Poissonity test built on the coefficients.

A Poisson law is the only member of the classical families whose log-charfn
coefficients vanish everywhere except at indices 0 and 1, which makes the
windowed energy outside those two indices a natural departure measure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .charfn import EMPIRICAL_FLOOR, MAX_GRID_POINTS, FrequencyGrid, complex_log, empirical_charfn
from .charfn import fold_indices, integer_samples, log_half, require_modulus, require_sample_size
from .charfn import sample_histogram, span_width
from .errors import CharFnVanishes, NegativeSampleValue
from .pmf import integer_argument
from .transform import MuculantSeq, _cepstrum, complex_muculants, require_index_range

DEFAULT_WINDOW = (-8, 8)

# Indices carrying Poisson information; the statistic excludes them.
_POISSON_INDICES = (0, 1)

# Rows go through the bootstrap's batch in chunks of this many points over
# the N-point grid (32 rows when N = 512), all in one workspace of about
# 0.4 MB.  At twice this size a chunk's rfft and irfft outputs (about 0.26 MB
# each when N = 512) outgrow what the allocator keeps mapped from one chunk
# to the next: a poisson_test at N = 512 took about 1,540 minor page faults
# against 155, and every grid ran 9-18% slower (2-vCPU VM).
_CHUNK_POINTS = 16384

# Poisson tails lighter than this are lumped into the end cells of the
# bootstrap histogram.
_TAIL_MASS = 1e-16


@dataclass(frozen=True)
class PoissonTestResult:
    """Everything the parametric bootstrap produced, JSON-stable.

    ``reject`` is exactly ``statistic > threshold``; ``p_value`` is the
    exceedance fraction among the bootstrap replicates that admitted
    coefficient estimates (``n_bootstrap_used`` of ``n_bootstrap``).
    """

    statistic: float
    lambda_hat: float
    threshold: float
    p_value: float
    reject: bool
    window: tuple[int, int]
    n_bootstrap: int
    seed: int
    n_bootstrap_used: int


def grid_for_samples(samples, n_max: int = 0) -> FrequencyGrid:
    """Grid for sample data: eight points per index of the sample range (safe
    for bootstrap resamples that overshoot its maximum), carrying indices up
    to ``n_max``.  ValueError names a range that needs more than 2^24 points."""
    xi = integer_samples(samples)
    lo, hi = int(xi.min()), int(xi.max())
    w = span_width(lo, hi)
    if 8 * w > MAX_GRID_POINTS:
        raise ValueError(f"sample range {lo}..{hi} needs more than {MAX_GRID_POINTS} grid points")
    return FrequencyGrid.for_width(w, max(128, 8 * w), n_max)


def estimate_muculants(samples, grid: FrequencyGrid, n_max: int) -> MuculantSeq:
    """Coefficient estimates from i.i.d. integer draws: the staged route
    :func:`empirical_charfn`, :func:`complex_log`, :func:`complex_muculants`.
    Requires at least 100 samples and, as :func:`decompose` does for PMFs, a
    grid of four points per index of the sample range with the origin
    included (:class:`GridTooCoarse` otherwise: a coarser grid lets the
    phase unwrap skip a wrap), then 1 <= n_max <= N/4.  Raises
    :class:`CharFnVanishes` when the empirical charfn dips below 1e-3, which
    happens when the spread of the law is heavy relative to the sample size
    (the estimate would be noise, and the coefficients may not exist).
    """
    cf = empirical_charfn(samples, grid)
    require_index_range(grid.n_points, n_max)
    return complex_muculants(complex_log(cf), n_max)


def _window_mask(window, ns=None) -> np.ndarray:
    """Mask of the window's usable indices among ``ns`` (default -n..n,
    n = max(|lo|, |hi|, 1), the range the bootstrap computes, at most
    MAX_GRID_POINTS / 4).  ValueError unless the bounds are integers
    (:func:`integer_argument`), lo <= hi, the window lies inside ``ns`` and
    it holds an index other than 0 and 1: nothing is truncated."""
    lo, hi = (integer_argument("window bound", b) for b in window)
    if lo > hi:
        raise ValueError("window range is empty")
    if ns is None:
        n = max(abs(lo), abs(hi), 1)
        if n > MAX_GRID_POINTS // 4:
            raise ValueError(f"window {lo}:{hi} reaches past +-{MAX_GRID_POINTS // 4}")
        ns = np.arange(-n, n + 1)
    if lo < ns[0] or hi > ns[-1]:
        raise ValueError(f"window {lo}:{hi} reaches past the computed indices {ns[0]}:{ns[-1]}")
    mask = (ns >= lo) & (ns <= hi) & (ns != _POISSON_INDICES[0]) & (ns != _POISSON_INDICES[1])
    if not mask.any():
        raise ValueError("window contains no usable indices")
    return mask


def poisson_statistic(seq: MuculantSeq, window) -> float:
    """Sum of squared coefficients over the window, indices 0 and 1 excluded.

    Monotone in the window: enlarging it can only add nonnegative terms.  A
    window reaching past the computed indices raises ValueError.
    """
    mask = _window_mask(window, seq.indices)
    return float(np.sum(seq.values[mask] ** 2))


def replicate_statistics(counts, offset: int, grid: FrequencyGrid, window) -> tuple:
    """(statistics, min_abs) for a stack of samples given as histograms: the
    :func:`poisson_statistic` of :func:`estimate_muculants`, NaN where the
    sample admits no estimate, and the smallest |Phi| over the grid.

    Row r of ``counts`` holds how many draws of sample r equal ``offset``,
    ``offset + 1``, ...  Each row takes the stages of the per-sample route
    (its own rfft of the folded row, :func:`log_half` and
    :func:`_cepstrum`), so its value is that route's, bit for bit.  Rows
    whose empirical charfn dips below the 1e-3 floor are NaN; a row of fewer
    than 100 draws raises ValueError.  Rows go through
    :func:`_chunk_statistics` ``_CHUNK_POINTS`` grid points at a time, in
    one :func:`_workspace` per call; no bit depends on the chunks.
    """
    counts, offset = np.asarray(counts), integer_argument("offset", offset)
    require_sample_size(counts.sum(axis=-1))
    mask = _window_mask(window)
    n = grid.n_points
    require_index_range(n, len(mask) // 2)
    rows, width = counts.shape
    chunk = max(1, _CHUNK_POINTS // n)
    work = _workspace(min(chunk, rows), n, width)
    out, min_abs = np.empty(rows), np.empty(rows)
    for lo in range(0, rows, chunk):
        part = slice(lo, lo + chunk)
        _chunk_statistics(counts[part], offset, n, mask, work, out[part], min_abs[part])
    return out, min_abs


def _workspace(rows: int, n: int, width: int) -> tuple[np.ndarray, ...]:
    """Buffers for :func:`_chunk_statistics` on up to ``rows`` rows of
    ``width`` counts over an n-point grid: the normalised counts, their
    fold, then |Phi| and the log over the N/2 + 1 points mu = 0..pi, and the
    N/2 phase steps between those points."""
    half = n // 2 + 1
    return (
        np.empty((rows, width)),
        np.empty((rows, n)),
        np.empty((rows, half)),
        np.empty((rows, half), dtype=complex),
        np.empty((rows, half - 1)),
    )


def _chunk_statistics(counts, offset, n, mask, work, out, min_abs) -> None:
    """:func:`replicate_statistics` of the rows of ``counts`` into ``out`` and
    ``min_abs``, through the buffers ``work``.  Over the grid it allocates
    only the two transforms' outputs, freed on return, and when the floor
    drops rows the copies that move the kept rows to the front."""
    rows = len(counts)
    normalised, folded, mods, log, steps = (b[:rows] for b in work)
    np.divide(counts, counts.sum(axis=-1, keepdims=True), out=normalised)
    fold_indices(normalised, offset, n, out=folded)
    spec = np.fft.rfft(folded)  # conj(Phi) at mu = 0, 2pi/N, ..., pi
    spec[:, 0] = 1.0  # exact by construction
    np.abs(spec, out=mods).min(axis=-1, out=min_abs)
    keep = min_abs >= EMPIRICAL_FLOOR
    out[~keep] = np.nan
    k = int(np.count_nonzero(keep))
    if k:
        if k < rows:
            spec[:k] = spec[keep]
            mods[:k] = mods[keep]
        log_half(spec[:k], mods[:k], log[:k], steps[:k])
        coef = _cepstrum(log[:k], n, len(mask) // 2)
        # C order makes each row sum pairwise, as the 1-D sum does
        out[keep] = np.sum(np.ascontiguousarray(coef[:, mask]) ** 2, axis=-1)


def _poisson_pmf(lam: float) -> tuple[int, np.ndarray]:
    """(offset, probs) of Poisson(lam), each tail lighter than 1e-16 lumped
    into the cell next to it.  Computed in log space, so large means do not
    underflow."""
    if lam == 0.0:
        return 0, np.ones(1)
    spread = 20.0 * math.sqrt(lam) + 40.0  # the tails beyond hold far below 1e-16
    lo, hi = max(0, int(lam - spread)), int(lam + spread) + 1
    k = np.arange(lo, hi)
    # over Python ints, not k's numpy scalars, which cost 4x in this loop
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(lo, hi)])
    p = np.exp(k * math.log(lam) - lam - log_fact)
    below = np.cumsum(p)
    above = np.cumsum(p[::-1])[::-1]
    first = int(np.searchsorted(below, _TAIL_MASS))
    last = int(np.count_nonzero(above >= _TAIL_MASS)) - 1
    probs = p[first : last + 1].copy()
    if first > 0:
        probs[0] += below[first - 1]
    if last + 1 < len(p):
        probs[-1] += above[last + 1]
    return int(k[first]), probs


def poisson_test(
    samples,
    *,
    alpha: float = 0.05,
    window: tuple[int, int] = DEFAULT_WINDOW,
    n_bootstrap: int = 1000,
    seed: int = 0,
) -> PoissonTestResult:
    """Parametric-bootstrap test of the hypothesis that the data is Poisson.

    The statistic is the windowed coefficient energy outside indices
    {0, 1} (one reasonable choice of departure measure, not a canonical
    one).  Its null distribution is calibrated by ``n_bootstrap`` resamples
    of the same size from Poisson(lambda_hat), lambda_hat the sample mean;
    the threshold is the empirical (1 - alpha) quantile of the replicate
    statistics.

    The statistic needs only a sample's histogram, and the counts of m
    i.i.d. draws are exactly Multinomial(m, pmf).  So the data is its
    :func:`sample_histogram`, the resamples are drawn as histograms in one
    ``multinomial`` call of ``np.random.default_rng(seed)`` over the
    Poisson(lambda_hat) pmf (each tail lighter than 1e-16 lumped into its
    end cell), and both are scored by :func:`replicate_statistics`.
    Results are bit-for-bit reproducible for a given seed.  Replicates whose
    empirical charfn dips below the 1e-3 floor admit no estimate and are
    dropped from the calibration (the data raises :class:`CharFnVanishes`);
    ``n_bootstrap_used`` records how many replicates entered.

    Exit states: errors for negative or non-integer samples, fewer than
    100 observations, a non-integer or nonpositive ``n_bootstrap``, a
    non-integer or negative ``seed`` (refused before any work), or a window
    with non-integer bounds, no range or no index other than 0 and 1.
    """
    xi = integer_samples(samples)
    if np.min(xi) < 0:
        raise NegativeSampleValue("Poisson samples must be nonnegative")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n_bootstrap, seed = integer_argument("n_bootstrap", n_bootstrap), integer_argument("seed", seed)
    if n_bootstrap < 1:
        raise ValueError("n_bootstrap must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    n_max = len(_window_mask(window)) // 2

    grid = grid_for_samples(xi, n_max)
    hist, lo = sample_histogram(xi, grid)
    observed, min_abs = replicate_statistics(hist[None], lo, grid, window)
    require_modulus(min_abs, empirical=True)
    stat = float(observed[0])
    m = int(hist.sum())
    lam_hat = int(hist @ np.arange(lo, lo + hist.size)) / m  # an exact sum: xi.mean()

    offset, pmf = _poisson_pmf(lam_hat)
    counts = np.random.default_rng(seed).multinomial(m, pmf, size=n_bootstrap)
    replicate_stats, _ = replicate_statistics(counts, offset, grid, window)
    arr = replicate_stats[~np.isnan(replicate_stats)]  # see docstring
    if arr.size == 0:
        raise CharFnVanishes("no bootstrap replicate admitted coefficient estimates")

    threshold = float(np.quantile(arr, 1.0 - alpha, method="higher"))
    p_value = float(np.mean(arr >= stat))
    return PoissonTestResult(
        statistic=stat,
        lambda_hat=lam_hat,
        threshold=threshold,
        p_value=p_value,
        reject=bool(stat > threshold),
        window=(int(window[0]), int(window[1])),
        n_bootstrap=n_bootstrap,
        seed=seed,
        n_bootstrap_used=int(arr.size),
    )
