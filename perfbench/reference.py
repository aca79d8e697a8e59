"""Independent reference for the Poissonity statistic, used to check
``poisson_test`` without calling any muculants code.

histogram -> FFT (the charfn on the grid) -> log with unwrapped phase ->
FFT (the coefficients) -> windowed energy outside indices 0 and 1.
"""

from dataclasses import dataclass

import numpy as np

# poisson_test refuses data whose empirical charfn dips below this anywhere
# on the grid (documented in its docstring).
EMPIRICAL_FLOOR = 1e-3

WINDOW = (-8, 8)


@dataclass
class Reference:
    statistic: float
    lambda_hat: float
    min_abs: float


def grid_size(x, n_max) -> int:
    """The documented sample grid: eight points per index of the support
    hull of the data and 0, at least 128, and at least 4 * n_max; a power
    of two."""
    width = max(int(x.max()), 0) - min(int(x.min()), 0) + 1
    need = max(128, 8 * width, 4 * n_max)
    return 1 << (need - 1).bit_length()


def poisson_statistic(x, window=WINDOW) -> Reference:
    x = np.asarray(x, dtype=np.int64)
    lo, hi = window
    n_max = max(abs(lo), abs(hi), 1)
    n = grid_size(x, n_max)
    base = int(x.min())
    hist = np.bincount(x - base) / x.size
    support = base + np.arange(len(hist))
    # Phi(mu_k) = sum_x p_x e^{j mu_k x} with mu_k = -pi + 2 pi k / n
    #           = sum_x p_x (-1)^x e^{2 pi j k x / n}, an inverse DFT of the
    # histogram folded onto n bins with alternating signs.
    folded = np.zeros(n, dtype=complex)
    np.add.at(folded, support % n, hist * np.where(support % 2 == 0, 1.0, -1.0))
    phi = np.fft.ifft(folded) * n
    phi[n // 2] = 1.0  # mu = 0
    min_abs = float(np.abs(phi).min())
    if min_abs < EMPIRICAL_FLOOR:
        return Reference(float("nan"), float(x.mean()), min_abs)
    # Phase unwrapped from mu = 0 up to pi, extended oddly to negative mu;
    # at -pi (shared with +pi) the odd extension's jump midpoint, zero.
    upper = np.concatenate([phi[n // 2 :], phi[:1]])
    phase_up = np.unwrap(np.angle(upper))
    phase_up -= phase_up[0]
    phase = np.zeros(n)
    phase[n // 2 :] = phase_up[:-1]
    phase[1 : n // 2] = -phase_up[1 : n // 2][::-1]
    log_phi = np.log(np.abs(phi)) + 1j * phase
    # c_m = (1/n) sum_k log Phi(mu_k) e^{-j mu_k m} = (-1)^m DFT(log Phi)[m] / n
    ms = np.arange(lo, hi + 1)
    coef = np.fft.fft(log_phi)[ms % n] / n * np.where(ms % 2 == 0, 1.0, -1.0)
    keep = (ms != 0) & (ms != 1)
    return Reference(float(np.sum(coef.real[keep] ** 2)), float(x.mean()), min_abs)
