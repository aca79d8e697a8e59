"""Shared helpers for the test suite."""

import numpy as np

from muculants import (
    PMF,
    Binomial,
    FrequencyGrid,
    Geometric,
    NegativeBinomial,
    Poisson,
    complex_log,
    complex_muculants,
    eval_charfn,
    validate_pmf,
)
from muculants.io import format_number

# Rejection floor for random PMFs.  The log pipeline needs |phi| bounded
# away from zero everywhere, not just on the analysis grid, so candidates
# are screened on a fine fixed grid with margin to spare.
MIN_ABS_CF = 0.05
_SCREEN_GRID = FrequencyGrid(2048)


def min_abs_charfn(f: PMF) -> float:
    return float(np.min(np.abs(eval_charfn(f, _SCREEN_GRID).values)))


def grid_muculants(f: PMF, n_points: int, n_max: int):
    """Full numerical route: sample, log, analyze."""
    cf = eval_charfn(f, FrequencyGrid(n_points))
    return complex_muculants(complex_log(cf), n_max)


def random_pmf(rng: np.random.Generator, max_width: int = 8) -> PMF:
    """Random finite-support PMF with min |phi| >= MIN_ABS_CF.

    Draws Dirichlet weights over a short support window at a random
    offset and rejects candidates whose characteristic function dips
    too low.  Every tenth attempt boosts one atom above 0.6, which
    forces |phi| >= 0.2 and guarantees termination.
    """
    for attempt in range(200):
        width = int(rng.integers(1, max_width + 1))
        offset = int(rng.integers(-5, 6))
        probs = rng.dirichlet(np.ones(width + 1))
        if attempt % 10 == 9:
            probs[rng.integers(0, width + 1)] += 2.0
            probs /= probs.sum()
        f = validate_pmf(offset, probs)
        if min_abs_charfn(f) >= MIN_ABS_CF:
            return f
    raise AssertionError("random_pmf failed to find a usable candidate")


# Causal zoo laws for the minimum-phase predicate and the recursion: Poisson
# lambda = 0.25..9.75 in steps of 0.25; Binomial n in {2, 5, 10, 15, 20, 30}
# with p = k/40 (p = 1/2 has a zero on the circle and is no zoo law);
# NegativeBinomial r in {1, 2, 3, 5, 8} and Geometric with p = k/20.
CAUSAL_ZOO_SWEEP = (
    [Poisson(k / 4) for k in range(1, 40)]
    + [Binomial(n, k / 40) for n in (2, 5, 10, 15, 20, 30) for k in range(1, 40) if k != 20]
    + [NegativeBinomial(r, k / 20) for r in (1, 2, 3, 5, 8) for k in range(1, 20)]
    + [Geometric(k / 20) for k in range(1, 20)]
)


def reference_log_coefficients(weights, offset, grid, n_max, floor, *, histogram=False):
    """The sample/PMF log kernel as it was before its workspace held every
    buffer: fresh normalised rows, a zeroed ``np.add.at`` fold, the phase
    unwrapped through numpy temporaries (diff, divide, round, cumsum,
    times -2 pi), an ``np.full`` result.  ``transform._log_coefficients``
    must return the same bytes."""
    n = grid.n_points
    rows = len(weights)
    if histogram:
        weights = weights / weights.sum(axis=-1, keepdims=True)
    folded = np.zeros((rows, n))
    np.add.at(folded, (..., (int(offset) + np.arange(weights.shape[-1])) % n), weights)
    spec = np.fft.rfft(folded)  # conj(Phi) at mu = 0, 2pi/N, ..., pi
    if histogram:
        spec[:, 0] = 1.0
    mods = np.abs(spec)
    min_abs = mods.min(axis=-1)
    keep = min_abs >= floor
    coef = np.full((rows, 2 * n_max + 1), np.nan)
    if keep.any():
        spec, mods = spec[keep], mods[keep]
        phase = np.arctan2(spec.imag, spec.real)
        d = np.diff(phase)
        phase[:, 1:] += -2.0 * np.pi * np.cumsum(np.round(d / (2.0 * np.pi)), axis=-1)
        log = np.empty(spec.shape, dtype=complex)
        log.real = np.log(mods)
        log.imag = phase
        cepstrum = np.fft.irfft(log, n)  # c[k] at k mod N
        coef[keep] = cepstrum[:, np.arange(-n_max, n_max + 1) % n]
    return coef, min_abs


def reference_dumps_json(obj) -> str:
    """``io.dumps_json`` one number at a time: every value, list entries
    included, goes through ``format_number`` on its own."""
    out = []

    def emit(x, depth):
        pad = "  " * depth
        if isinstance(x, dict):
            if not x:
                out.append("{}")
                return
            out.append("{\n")
            for i, (key, val) in enumerate(x.items()):
                out.append(f'{pad}  "{key}": ')
                emit(val, depth + 1)
                out.append(",\n" if i < len(x) - 1 else "\n")
            out.append(pad + "}")
        elif isinstance(x, (list, tuple, np.ndarray)):
            out.append("[")
            for i, val in enumerate(x):
                if i:
                    out.append(", ")
                emit(val, depth + 1)
            out.append("]")
        elif isinstance(x, str):
            out.append(f'"{x}"')
        elif x is None:
            out.append("null")
        else:
            out.append(format_number(x))

    emit(obj, 0)
    return "".join(out) + "\n"


def reference_flat_csv(d: dict) -> str:
    """``io.flat_csv`` one number at a time."""
    lines = ["field,value"]

    def walk(prefix, val):
        if isinstance(val, dict):
            for key, sub in val.items():
                walk(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(val, (list, tuple, np.ndarray)):
            for i, sub in enumerate(val):
                walk(f"{prefix}[{i}]", sub)
        elif isinstance(val, str):
            lines.append(f"{prefix},{val}")
        elif val is None:
            lines.append(f"{prefix},null")
        else:
            lines.append(f"{prefix},{format_number(val)}")

    walk("", d)
    return "\n".join(lines) + "\n"


def reference_indexed_csv(label: str, indices, values) -> str:
    """``io.indexed_csv`` one number at a time."""
    lines = [f"{label},value"]
    for i, v in zip(indices, values):
        lines.append(f"{int(i)},{format_number(v)}")
    return "\n".join(lines) + "\n"
