"""The one grid-sizing rule, ``FrequencyGrid.for_width``, against the rules
it replaced, and the period reconstruction inverts on.

The references below are the formulas each caller used before the rule was
shared, kept verbatim (up to argument plumbing) so that any drift in the
grid a route picks shows up here.  Every one of them rounds the largest of
a few linear terms up to a power of two, so the grid size only changes
where some term crosses a power of two.  The sweeps cover every width in
1..600 at each n_max next to such a crossing, and every n_max in 0..1200 at
each width next to one (at four of them for the slower Poisson-test route);
reconstruction windows lo..hi, -70 <= lo <= hi <= 70, at n_max next to a
crossing, against ``reconstruction_period``.
"""

import importlib

import numpy as np

from muculants import (
    FrequencyGrid,
    Geometric,
    MuculantSeq,
    decompose,
    grid_for_pmf,
    grid_for_samples,
    poisson_test,
    reconstruct_sequence,
    validate_pmf,
    zoo_pmf,
)

# the package namespace re-exports functions under their modules' names
decompose_module = importlib.import_module("muculants.decompose")
inference_module = importlib.import_module("muculants.inference")
transform_module = importlib.import_module("muculants.transform")

# ------------------------------------------------------------ old rules


def old_for_width(width, minimum=64):
    n = max(minimum, 4 * int(width), 64)
    return 1 << (n - 1).bit_length()


def old_span_width(lo, hi):
    return max(hi, 0) - min(lo, 0) + 1


def old_grid_for_samples(lo, hi):
    need = max(128, 8 * old_span_width(lo, hi))
    return 1 << (need - 1).bit_length()


def old_poisson_test_grid(lo, hi, n_max):
    n = old_grid_for_samples(lo, hi)
    if n < 4 * n_max:  # the bump poisson_test applied for wide windows
        n = 1 << (4 * n_max - 1).bit_length()
    return n


def reconstruction_period(n_max, lo, hi):
    """The period reconstruction inverts on: twice the range that holds the
    window and the origin, and four points per coefficient index.  An
    inverse transform of the charfn has no phase to resolve, so it needs
    two points per index of that range, not four; the origin stays in it so
    that mass near the origin cannot wrap into a window far from it."""
    need = max(64, 2 * old_span_width(lo, hi), 4 * n_max)
    return 1 << (need - 1).bit_length()


def old_pmf_grid(width):
    return old_for_width(width, minimum=4096)


# ---------------------------------------------------------------- sweeps

_EDGES = sorted({0, 1, 600, 1200} | {(1 << k) + d for k in range(13) for d in (-1, 0, 1)})
WIDTHS = range(1, 601)
N_MAXES = range(0, 1201)
SWEEP = sorted(
    {(w, n) for w in WIDTHS for n in _EDGES if n in N_MAXES}
    | {(w, n) for w in _EDGES if w in WIDTHS for n in N_MAXES}
)
# fewer widths at every n_max for the routes that cost ~30 us a call
SHORT_SWEEP = sorted(
    {(w, n) for w in WIDTHS for n in _EDGES if n in N_MAXES}
    | {(w, n) for w in (1, 16, 17, 600) for n in N_MAXES}
)


class _Seen(Exception):
    """Raised by a spy once it has recorded the grid a route chose."""


def spy_grid(monkeypatch, module, name, position=1):
    """Replace ``module.name`` by a spy that stops the route there; the
    returned function runs a call and gives the grid size the spy saw (the
    positional argument at ``position`` of the replaced function: a grid, or
    the number of its points)."""
    seen = []

    def spy(*args, **kw):
        grid = args[position]
        seen.append(getattr(grid, "n_points", grid))
        raise _Seen

    def grid_of(call, *args, **kw):
        try:
            call(*args, **kw)
        except _Seen:
            return seen.pop()
        raise AssertionError("the route never reached its grid")

    monkeypatch.setattr(module, name, spy)
    return grid_of


def test_for_width_without_n_max_is_the_old_rule():
    for w in WIDTHS:
        for minimum in (64, 128, 4096):
            assert FrequencyGrid.for_width(w, minimum=minimum).n_points == old_for_width(w, minimum)


def test_sample_grid_is_the_old_rule():
    for w in WIDTHS:
        for lo, hi in ((0, w - 1), (w // 2, w - 1), (-(w - 1), 0)):
            assert grid_for_samples(np.array([lo, hi])).n_points == old_grid_for_samples(lo, hi)


def test_poisson_test_grid_is_the_old_rule_with_its_bump(monkeypatch):
    grid_of = spy_grid(monkeypatch, inference_module, "sample_histogram")
    for w, n_max in SHORT_SWEEP:
        if n_max == 0:
            continue  # the window always holds an index other than 0
        lo = w // 2 if n_max % 2 else 0
        xi = np.repeat([lo, w - 1], 50)
        got = grid_of(poisson_test, xi, window=(-n_max, n_max))
        assert got == old_poisson_test_grid(lo, w - 1, n_max), (lo, w, n_max)


def test_pmf_grids_keep_every_grid_the_old_rule_could_use(monkeypatch):
    # The old PMF rule ignored n_max, so it failed the N/4 guard whenever
    # 4 * n_max outgrew it; the new one grows the grid just enough instead.
    # the grid size decompose synthesizes its charfn on
    grid_of = spy_grid(monkeypatch, decompose_module, "eval_charfn")
    pmfs = {w: validate_pmf(0, np.full(w, 1.0 / w)) for w in WIDTHS}
    for w, n_max in SWEEP:
        old = old_pmf_grid(w)
        want = old if 4 * n_max <= old else 1 << (4 * n_max - 1).bit_length()
        assert grid_for_pmf(pmfs[w], n_max).n_points == want, (w, n_max)
        assert grid_of(decompose, pmfs[w], n_max) == want, (w, n_max)


def test_reconstruction_period_holds_the_window_and_the_origin_twice_over(monkeypatch):
    # the grid size the half-spectrum kernel receives
    grid_of = spy_grid(monkeypatch, transform_module, "_half_charfn")
    for n_max in (0, 16, 17, 64, 65, 128, 129, 1200):
        # causal or anti-causal: either end of the sequence may set n_max
        if n_max % 2:
            seq = MuculantSeq(0, n_max, np.zeros(n_max + 1), "complex", 0.0)
        else:
            seq = MuculantSeq(-n_max, 0, np.zeros(n_max + 1), "complex", 0.0)
        for lo in range(-70, 71):
            for hi in range(lo, 71):
                got = grid_of(reconstruct_sequence, seq, (lo, hi))
                assert got == reconstruction_period(n_max, lo, hi), (n_max, lo, hi)


def test_decompose_of_a_wide_law_reconstructs_on_half_the_old_grid(monkeypatch):
    # Geometric(0.01) has support 0..2749, so decompose's window -5500..5500
    # holds 11001 indices: 32768 points, where the phase-resolution rule takes 65536
    f = zoo_pmf(Geometric(0.01))
    assert len(f) == 2750
    grid_of = spy_grid(monkeypatch, transform_module, "_half_charfn")
    assert grid_of(decompose, f, 100) == 32768 == reconstruction_period(100, -5500, 5500)
    assert old_for_width(old_span_width(-5500, 5500)) == 65536
