import math
import tracemalloc

import numpy as np
import pytest

from muculants import (
    CharFnSamples,
    CharFnVanishes,
    Degenerate,
    EmptySample,
    FrequencyGrid,
    Geometric,
    GridTooCoarse,
    NegativeSampleValue,
    Poisson,
    complex_log,
    complex_muculants,
    empirical_charfn,
    estimate_muculants,
    grid_for_samples,
    poisson_statistic,
    poisson_test,
    power_muculants,
    zoo_muculants,
    zoo_pmf,
)
from muculants.charfn import fold_indices, grid_analysis, grid_synthesis, unwrap_phase
import muculants.inference as inference
from muculants.inference import replicate_statistics

from support import reference_is_hermitian, reference_log_coefficients


def test_sample_grid_sizing():
    assert grid_for_samples(np.arange(5)).n_points == 128
    # widths that outgrow the floor get eight points per integer
    wide = np.array([0, 40])
    assert grid_for_samples(wide).n_points == 512
    # the window is anchored at zero even when the data sit away from it
    shifted = np.array([30, 35])
    assert grid_for_samples(shifted).n_points == 512


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimated_poisson_coefficients_concentrate(seed):
    rng = np.random.default_rng(seed)
    xi = rng.poisson(2.0, 100_000)
    est = estimate_muculants(xi, grid_for_samples(xi), 5)
    assert est.value_at(0) == pytest.approx(-2.0, abs=0.05)
    assert est.value_at(1) == pytest.approx(2.0, abs=0.05)


def test_estimated_geometric_second_coefficient():
    rng = np.random.default_rng(10)
    xi = rng.geometric(0.5, 100_000) - 1  # support starts at zero
    est = estimate_muculants(xi, grid_for_samples(xi), 5)
    assert est.value_at(2) == pytest.approx(0.125, abs=0.02)


def test_constant_sample_recovers_point_mass_coefficients():
    # the empirical charfn of a constant is exact, so the only error left
    # is sawtooth aliasing of the grid analysis, O(N^-2)
    xi = np.full(200, 3)
    est = estimate_muculants(xi, FrequencyGrid(4096), 8)
    truth = zoo_muculants(Degenerate(3), (-8, 8))
    np.testing.assert_allclose(est.values, truth.values, atol=1e-5)


def test_estimate_rejects_small_or_bad_samples():
    g = grid_for_samples(np.arange(10))
    with pytest.raises(ValueError):
        estimate_muculants(np.zeros(99, dtype=int), g, 5)
    with pytest.raises(EmptySample):
        estimate_muculants(np.array([], dtype=int), g, 5)
    with pytest.raises(ValueError):
        estimate_muculants(np.array([0.5] * 200), g, 5)


def test_estimate_refuses_vanishing_empirical_charfn():
    # two equal point masses four apart: |ecf| = |cos(2 mu)|, exactly zero
    # on the grid, far below any plausible noise floor
    xi = np.array([0] * 50 + [4] * 50)
    with pytest.raises(CharFnVanishes):
        estimate_muculants(xi, grid_for_samples(xi), 5)


def shifted_poisson_sample():
    # a law far from the origin: the grid must resolve its linear phase
    return 100 + np.random.default_rng(0).poisson(0.5, 2000)


def test_estimate_refuses_grid_too_coarse_for_sample_range():
    # on 64 points the unwrap skips wraps and c[1] came out near 28
    xi = shifted_poisson_sample()
    with pytest.raises(GridTooCoarse):
        estimate_muculants(xi, FrequencyGrid(64), 2)
    with pytest.raises(GridTooCoarse):
        estimate_muculants(xi, FrequencyGrid(256), 2)


def test_estimate_refuses_in_order_samples_then_n_max_then_floor():
    # inputs that fail two checks name the earlier one
    with pytest.raises(GridTooCoarse):
        estimate_muculants(shifted_poisson_sample(), FrequencyGrid(64), 0)
    with pytest.raises(ValueError, match="need at least 100 samples"):
        estimate_muculants(np.arange(50), FrequencyGrid(64), 0)
    xi = np.array([0] * 50 + [4] * 50)  # |ecf| = |cos(2 mu)| vanishes on the grid
    with pytest.raises(ValueError, match="n_max must be in 1..32 for this grid"):
        estimate_muculants(xi, grid_for_samples(xi), 33)


def test_default_sample_grid_resolves_shifted_law():
    xi = shifted_poisson_sample()
    est = estimate_muculants(xi, grid_for_samples(xi), 2)
    assert est.value_at(1) == pytest.approx(100.5, abs=0.1)


def test_sample_grid_rule_counts_the_origin():
    # -10..5 spans 16 indices: 64 points suffice; -10..6 needs 68
    xi = np.array([0] * 198 + [-10, 5])
    estimate_muculants(xi, FrequencyGrid(64), 2)
    xi[-1] = 6
    with pytest.raises(GridTooCoarse):
        estimate_muculants(xi, FrequencyGrid(64), 2)
    # the origin widens a range that lies on one side of it: 1..16 spans 17
    xi = np.array([1] * 198 + [16, 16])
    with pytest.raises(GridTooCoarse):
        estimate_muculants(xi, FrequencyGrid(64), 2)


# ----------------------------------------------------------------- statistic


def test_statistic_is_zero_for_poisson_plugin():
    m = zoo_muculants(Poisson(3.0), (-8, 8))
    assert poisson_statistic(m, (-8, 8)) == 0.0


def test_statistic_separates_alternatives():
    m = zoo_muculants(Geometric(0.25), (-8, 8))
    assert poisson_statistic(m, (-8, 8)) > 0.01


def test_statistic_ignores_first_two_indices():
    # only indices outside {0, 1} enter, so a window containing nothing else
    # is unusable
    m = zoo_muculants(Poisson(3.0), (-8, 8))
    with pytest.raises(ValueError):
        poisson_statistic(m, (0, 1))
    with pytest.raises(ValueError):
        poisson_statistic(m, (3, 2))


def test_statistic_refuses_a_window_past_the_computed_indices():
    # summing only the computed part read 0.01889 here, against 0.01953
    # from an n_max 8 estimate of the same draw
    x = np.random.default_rng(4).geometric(0.5, 10_000) - 1
    grid = grid_for_samples(x, 8)
    with pytest.raises(ValueError, match="reaches past the computed indices -3:3"):
        poisson_statistic(estimate_muculants(x, grid, 3), (-8, 8))
    with pytest.raises(ValueError, match="reaches past"):
        poisson_statistic(estimate_muculants(x, grid, 8), (-4, 9))
    inside = poisson_statistic(estimate_muculants(x, grid, 8), (-3, 3))
    assert inside == poisson_statistic(estimate_muculants(x, grid, 3), (-3, 3))


@pytest.mark.parametrize("window", [(-8.9, 8.9), (-8.0, 8), (-8, 8.5), ("-8", "8")])
def test_non_integer_window_bounds_are_refused(window):
    x = np.random.default_rng(5).poisson(2.0, 500)
    m = zoo_muculants(Poisson(3.0), (-9, 9))
    counts = np.random.default_rng(6).multinomial(500, zoo_pmf(Poisson(2.0)).probs, size=3)
    for call in (
        lambda: poisson_statistic(m, window),
        lambda: replicate_statistics(counts, 0, FrequencyGrid(128), window),
        lambda: poisson_test(x, window=window, n_bootstrap=10),
    ):
        with pytest.raises(ValueError, match="window bounds must be integers"):
            call()


def test_numpy_integer_window_bounds_are_accepted():
    x = np.random.default_rng(5).poisson(2.0, 500)
    res = poisson_test(x, window=(np.int64(-4), np.int32(6)), n_bootstrap=50)
    assert res == poisson_test(x, window=(-4, 6), n_bootstrap=50)
    assert res.window == (-4, 6) and type(res.window[0]) is int


def test_statistic_grows_with_window():
    m = zoo_muculants(Geometric(0.25), (-8, 8))
    small = poisson_statistic(m, (-4, 4))
    large = poisson_statistic(m, (-8, 8))
    assert 0.0 < small <= large


# ---------------------------------------------------------------- bootstrap


def test_replicate_kernel_matches_per_sample_route():
    # some Poisson(3) samples of 2000 draws dip under the 1e-3 floor (3 of
    # these 40); the last sample vanishes outright (|ecf| = |cos 2mu|)
    rng = np.random.default_rng(21)
    samples = [2 + rng.poisson(3.0, 2000) for _ in range(40)]
    samples.append(np.array([2] * 100 + [6] * 100))
    grid = grid_for_samples(np.concatenate(samples))
    width = max(int(x.max()) for x in samples) - 1
    counts = np.array([np.bincount(x - 2, minlength=width) for x in samples])
    got, min_abs = replicate_statistics(counts, 2, grid, (-8, 8))
    want = []
    for x in samples:
        try:
            want.append(poisson_statistic(estimate_muculants(x, grid, 8), (-8, 8)))
        except CharFnVanishes:
            want.append(np.nan)
    want = np.array(want)
    dropped = np.isnan(want)
    assert dropped[:-1].any() and not dropped[:-1].all() and dropped[-1]
    np.testing.assert_array_equal(np.isnan(got), dropped)
    assert np.array_equal(got[~dropped], want[~dropped])  # bit for bit
    want_min = [np.abs(empirical_charfn(x, grid).half).min() for x in samples]
    assert min_abs.tobytes() == np.array(want_min).tobytes()


def reference_replicate_statistics(counts, offset, grid, window):
    """The replicate kernel on the full grid, as it was before the half
    spectrum: complex synthesis FFT of each row, Hermitian check, floor,
    odd phase over all N points, complex analysis FFT."""
    n = grid.n_points
    n_max = max(abs(window[0]), abs(window[1]), 1)
    ns = np.arange(-n_max, n_max + 1)
    mask = (ns >= window[0]) & (ns <= window[1]) & (ns != 0) & (ns != 1)
    stats = np.full(len(counts), np.nan)
    rows = max(1, 8192 // n)
    for start in range(0, len(counts), rows):
        part = slice(start, start + rows)
        c = counts[part]
        values = grid_synthesis(c / c.sum(axis=-1, keepdims=True), offset, grid)
        values[:, grid.zero_index] = 1.0
        assert reference_is_hermitian(values)
        mods = np.abs(values)
        keep = mods.min(axis=-1) >= 1e-3
        if keep.any():
            v = values[keep]
            half = np.concatenate([v[:, n // 2 :], v[:, :1]], axis=-1)  # mu = 0, ..., pi
            ph = unwrap_phase(np.angle(half))
            ph = ph - ph[:, :1]
            phase = np.empty(v.shape)
            phase[:, n // 2 :] = ph[:, :-1]
            phase[:, 0] = 0.0
            phase[:, 1 : n // 2] = -ph[:, 1 : n // 2][:, ::-1]
            coef = grid_analysis(np.log(mods[keep]) + 1j * phase, ns)
            assert np.max(np.abs(coef.imag)) < 1e-8
            terms = np.ascontiguousarray(coef.real[:, mask])
            stats[part][keep] = np.sum(terms**2, axis=-1)
    return stats


def sample_histograms(draw, rows):
    """Histograms of ``rows`` samples of 10^4 draws, all counted from the
    smallest draw among them."""
    samples = [draw() for _ in range(rows)]
    lo = min(int(x.min()) for x in samples)
    width = max(int(x.max()) for x in samples) - lo + 1
    return lo, np.array([np.bincount(x - lo, minlength=width) for x in samples])


@pytest.mark.parametrize("n_points", [128, 256, 512])
@pytest.mark.parametrize("law", ["poisson", "geometric"])
def test_replicate_kernel_matches_full_grid_reference(law, n_points):
    rng = np.random.default_rng([5, n_points])
    draws = {
        "poisson": lambda: rng.poisson(3.0, 10_000),  # about a fifth dip under the floor
        "geometric": lambda: rng.geometric(0.25, 10_000) - 1,
    }
    offset, counts = sample_histograms(draws[law], 60)
    grid = FrequencyGrid(n_points)
    got, _ = replicate_statistics(counts, offset, grid, (-8, 8))
    want = reference_replicate_statistics(counts, offset, grid, (-8, 8))
    dropped = np.isnan(want)
    assert dropped.any() == (law == "poisson") and not dropped.all()
    np.testing.assert_array_equal(np.isnan(got), dropped)
    np.testing.assert_allclose(got[~dropped], want[~dropped], rtol=1e-12, atol=0)


def staged_estimate(x, grid, n_max):
    return complex_muculants(complex_log(empirical_charfn(x, grid)), n_max)


def estimate_cases():
    rng = np.random.default_rng(17)
    return {
        "poisson": rng.poisson(3.0, 10_000),
        "shifted": 100 + rng.poisson(0.5, 10_000),
        "negative": -4 - rng.poisson(1.5, 5_000),
        "two-signed": rng.integers(-3, 4, 2_000) + rng.poisson(0.3, 2_000),
        "winding": np.array([0] * 300 + [1] * 700),  # Bernoulli(0.7): phase pi at pi
    }


def test_every_sample_route_refuses_fewer_than_100_draws():
    # 20 Poisson(1) draws: the staged route returned c[1] = 1.1429 where
    # estimate_muculants refused them; the one sample histogram holds the rule
    x = np.random.default_rng(5).poisson(1.0, 20)
    grid = FrequencyGrid(64)
    for route in (
        lambda: staged_estimate(x, grid, 4),
        lambda: power_muculants(empirical_charfn(x, grid), 4),
        lambda: estimate_muculants(x, grid, 4),
        lambda: empirical_charfn(x + 1000, grid),  # before the resolution check
    ):
        with pytest.raises(ValueError, match=r"^need at least 100 samples, got 20$"):
            route()


@pytest.mark.parametrize("name", list(estimate_cases()))
def test_staged_sample_route_is_estimate_muculants_on_every_support_shape(name):
    x = estimate_cases()[name]
    grid = grid_for_samples(x)
    for n_max in (8, grid.n_points // 4):
        got = estimate_muculants(x, grid, n_max)
        want = staged_estimate(x, grid, n_max)
        assert (got.n_min, got.n_max, got.kind) == (want.n_min, want.n_max, want.kind)
        assert got.imag_residual == want.imag_residual == 0.0  # real by construction
        assert got.values.tobytes() == want.values.tobytes()  # one convention


def test_staged_sample_route_is_estimate_muculants_on_criterion_7_draws():
    # the size arms' Poisson(3) and Poisson(1) draws and the power arm's
    # Geometric: the same coefficients, or the same refusal; last, a shifted
    # draw on a grid that does not resolve its range
    draws = [np.random.default_rng([31337, r]).poisson(3.0, 10**4) for r in range(8)]
    draws += [np.random.default_rng([31337, r]).poisson(1.0, 10**4) for r in range(4)]
    draws += [np.random.default_rng([77001, r]).geometric(0.5, 10**4) - 1 for r in range(4)]
    cases = [(x, grid_for_samples(x, 8)) for x in draws]
    cases.append((100 + np.random.default_rng(4).poisson(0.5, 2000), FrequencyGrid(64)))
    refusals = []
    for x, grid in cases:
        try:
            want = estimate_muculants(x, grid, 8)
        except (CharFnVanishes, GridTooCoarse) as exc:
            refusals.append(f"{type(exc).__name__}: {exc}")
            with pytest.raises(type(exc)) as staged_exc:
                staged_estimate(x, grid, 8)
            assert f"{staged_exc.typename}: {staged_exc.value}" == refusals[-1]
            continue
        got = staged_estimate(x, grid, 8)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.imag_residual == 0.0
    assert refusals[-1] == "GridTooCoarse: support width 107 needs at least 428 grid points, got 64"
    assert 0 < len(refusals) - 1 < len(draws)


def test_half_spectrum_estimate_keeps_the_aliasing_guard():
    x = estimate_cases()["poisson"]
    grid = grid_for_samples(x)
    quarter = grid.n_points // 4
    estimate_muculants(x, grid, quarter)
    for n_max in (0, quarter + 1):
        with pytest.raises(ValueError, match=rf"n_max must be in 1\.\.{quarter} for this grid"):
            estimate_muculants(x, grid, n_max)
    for n_max in (2.5, True):
        with pytest.raises(ValueError, match=rf"^n_max must be an integer, got {n_max!r}$"):
            estimate_muculants(x, grid, n_max)


def tied_histograms(rng, rows):
    """Histograms of 10^4 Poisson(3) draws with exactly 5005 or 4995 even
    ones, so |Phi(pi)| = |E - O| / m = 1e-3 sits on the floor."""
    probs = zoo_pmf(Poisson(3.0)).probs  # support 0, 1, ...
    even, odd = probs[::2] / probs[::2].sum(), probs[1::2] / probs[1::2].sum()
    counts = np.zeros((rows, len(probs)), dtype=np.int64)
    n_even = 5000 + 5 * rng.choice([-1, 1], rows)
    for r in range(rows):
        counts[r, ::2] = rng.multinomial(n_even[r], even)
        counts[r, 1::2] = rng.multinomial(10_000 - n_even[r], odd)
    return counts


@pytest.mark.parametrize("n_points", [128, 256, 512])
def test_floor_ties_fall_as_the_full_grid_decides(n_points):
    # the floor decision at a tie is the last bit of Phi(pi): the half
    # spectrum must take the same bit as the full-grid synthesis
    grid = FrequencyGrid(n_points)
    counts = tied_histograms(np.random.default_rng([7, n_points]), 120)
    keep = ~np.isnan(replicate_statistics(counts, 0, grid, (-8, 8))[0])
    want = [
        np.abs(empirical_charfn(np.repeat(np.arange(len(c)), c), grid).half).min() >= 1e-3
        for c in counts
    ]
    np.testing.assert_array_equal(keep, want)
    assert keep.any() and not keep.all()


def log_kernel_cases():
    """(label, weights, offset, grid, n_max, floor, histogram) for the log
    kernel's histogram rows and the staged route's PMF rows at N = 64 ...
    4096: rows the floor drops (about a fifth of Poisson(3) samples, and the
    |E - O| = 10 ties), winding rows, negative and wrapping offsets, and
    supports wider than the grid."""
    rng = np.random.default_rng(61)
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        grid = FrequencyGrid(n)
        pmf = zoo_pmf(Poisson(3.0))
        counts = rng.multinomial(10_000, pmf.probs, size=24)
        yield "histogram", counts, pmf.offset, grid, 8, 1e-3, True
        yield "pmf", rng.dirichlet(np.ones(9), size=6), -4, grid, n // 4, 1e-8, False
        for offset in (-n - 3, 2 * n + 1, -5):
            yield f"offset {offset}", rng.dirichlet(np.ones(12), size=5), offset, grid, 8, 1e-8, False
        wide = rng.dirichlet(np.full(n + n // 2, 5.0), size=3)
        yield "wider than the grid", wide, -n // 3, grid, 8, 1e-8, False
        # Bernoulli(p > 1/2) shifted to 3: the charfn winds four times
        winding = np.column_stack([rng.integers(200, 400, 8), rng.integers(600, 800, 8)])
        yield "winding", winding, 3, grid, 8, 1e-3, True
    for n in (128, 256, 512):
        yield "ties", tied_histograms(rng, 60), 0, FrequencyGrid(n), 8, 1e-3, True


def chunk_settings(n_points, rows):
    """_CHUNK_POINTS values that run ``rows`` rows one row per chunk, in
    chunks of the default size, and in one chunk."""
    return (n_points, inference._CHUNK_POINTS, rows * n_points)


def staged_pmf_rows(weights, offset, grid, n_max):
    """Coefficients and smallest |Phi| of each PMF row by the staged route:
    the synthesis of :func:`eval_charfn` (one rfft of the fold, taken here
    without its resolution rule, so that wrapped supports go through too),
    :func:`complex_log` and :func:`complex_muculants`."""
    coef, min_abs = [], []
    for row in weights:
        half = np.fft.rfft(fold_indices(row, offset, grid.n_points))
        logcf = complex_log(CharFnSamples(grid, half, "exact-from-pmf"))
        coef.append(complex_muculants(logcf, n_max).values)
        min_abs.append(logcf.min_abs)
    return np.array(coef), np.array(min_abs)


def test_log_kernel_matches_the_pre_workspace_kernel_bit_for_bit(monkeypatch):
    # histogram rows run through the bootstrap's batch, whose statistic is
    # the reference coefficients' contiguous square-sum; one row per chunk
    # reuses the workspace, left dirty, for every row.  PMF rows run through
    # the staged route, which computes the same stages one row at a time
    dropped = kept = 0
    for label, weights, offset, grid, n_max, floor, histogram in log_kernel_cases():
        want_coef, want_min = reference_log_coefficients(
            weights, offset, grid, n_max, floor, histogram=histogram
        )
        if histogram:
            ns = np.arange(-n_max, n_max + 1)
            usable = (ns != 0) & (ns != 1)
            want = np.sum(np.ascontiguousarray(want_coef[:, usable]) ** 2, axis=-1)
            for points in chunk_settings(grid.n_points, len(weights)):
                monkeypatch.setattr(inference, "_CHUNK_POINTS", points)
                got, got_min = replicate_statistics(weights, offset, grid, (-n_max, n_max))
                np.testing.assert_array_equal(np.isnan(got), np.isnan(want_coef[:, 0]))
                assert got.tobytes() == want.tobytes(), (label, grid.n_points, points)
                assert got_min.tobytes() == want_min.tobytes(), (label, grid.n_points, points)
        else:
            coef, min_abs = staged_pmf_rows(weights, offset, grid, n_max)
            assert coef.tobytes() == want_coef.tobytes(), (label, grid.n_points)
            assert min_abs.tobytes() == want_min.tobytes(), (label, grid.n_points)
        dropped += int(np.isnan(want_coef[:, 0]).sum())
        kept += int(np.isfinite(want_coef[:, 0]).sum())
    assert dropped >= 100 and kept >= 300


def test_log_kernel_allocates_over_the_grid_only_the_transform_outputs():
    # a one-chunk call allocates its workspace, its statistics and minima, the
    # rfft and irfft outputs and a few per-row vectors: no other rows x N array;
    # a second chunk adds only its statistics, as the first chunk's transform
    # outputs are freed before it allocates its own
    grid = FrequencyGrid(512)
    pmf = zoo_pmf(Geometric(0.25))
    counts = np.random.default_rng(62).multinomial(10_000, pmf.probs, size=64)
    assert inference._CHUNK_POINTS // 512 == 32
    folded, log = np.zeros((32, 512)), np.zeros((32, 257), dtype=complex)
    results = []
    tracemalloc.start()
    try:
        footprints = []
        for call in (
            lambda: inference._workspace(32, 512, counts.shape[-1]),
            lambda: np.fft.rfft(folded),
            lambda: (np.fft.rfft(folded), np.fft.irfft(log, 512)),
            lambda: results.append(replicate_statistics(counts[:32], 0, grid, (-8, 8))),
            lambda: results.append(replicate_statistics(counts, 0, grid, (-8, 8))),
        ):
            call()  # warm
            results.clear()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            footprints.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert np.isfinite(results[-1][0]).all()
    workspace, transforms = footprints[0], max(footprints[1:3])
    one_chunk, two_chunks = footprints[3:]
    halves = 32 * 257 * 8  # one float array over mu = 0..pi
    result = 2 * 32 * 8  # the statistics and minima of 32 rows
    assert one_chunk < workspace + transforms + result + halves // 4, footprints
    assert two_chunks < one_chunk + halves // 4, footprints


def test_replicate_statistics_memory_does_not_grow_with_the_window():
    # each chunk keeps only its rows' statistics: a rows x (2 n_max + 1)
    # coefficient matrix would alone take 16 MB here
    pmf = zoo_pmf(Poisson(3.0))
    counts = np.random.default_rng(63).multinomial(10_000, pmf.probs, size=1000)
    grid = FrequencyGrid(4096)
    tracemalloc.start()
    try:
        stats, _ = replicate_statistics(counts, pmf.offset, grid, (-1000, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert stats.shape == (1000,) and np.isfinite(stats).any()


def test_a_window_past_the_grid_ceiling_is_refused_before_it_is_built():
    # one index past MAX_GRID_POINTS / 4, the largest n_max a grid takes;
    # (-2 * 10**7, 8) used to build 381.5 MiB of masks, then name a
    # 2^25-point grid
    x = np.random.default_rng(64).poisson(3.0, 200)
    counts, grid = np.bincount(x)[None], grid_for_samples(x, 8)
    for window in ((-4194305, 8), (-8, 4194305)):
        for call in (
            lambda: poisson_test(x, window=window),
            lambda: replicate_statistics(counts, 0, grid, window),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError) as raised:
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(raised.value) == f"window {window[0]}:{window[1]} reaches past +-4194304"
            assert peak < 1 << 20


@pytest.mark.parametrize(
    "draw, n_points",
    [
        (lambda rng: rng.poisson(3.0, 10_000), 128),
        (lambda rng: rng.geometric(0.25, 10_000) - 1, 512),
    ],
)
def test_chunking_and_buffer_reuse_change_no_bit(monkeypatch, draw, n_points):
    x = draw(np.random.default_rng(41))
    assert grid_for_samples(x, 8).n_points == n_points
    assert 1000 % (inference._CHUNK_POINTS // n_points) != 0  # the last chunk is partial
    seen = []

    def recording(*args):
        seen.append(replicate_statistics(*args))
        return seen[-1]

    monkeypatch.setattr(inference, "replicate_statistics", recording)
    results = []
    for points in chunk_settings(n_points, 1000):
        monkeypatch.setattr(inference, "_CHUNK_POINTS", points)
        results.append(poisson_test(x, seed=3))
    # each test scores its sample, then its replicates
    observed = [s.tobytes() + m.tobytes() for s, m in seen[0::2]]
    stats = [s.tobytes() for s, _ in seen[1::2]]
    assert len(seen) == 6 and observed[1:] == observed[:-1] and stats[1:] == stats[:-1]
    assert results[1:] == results[:-1]
    dropped = np.isnan(seen[1][0])
    assert dropped.any() and not dropped.all()  # the chunks move kept rows forward


def test_alternating_kept_and_dropped_rows_change_no_bit(monkeypatch):
    grid = FrequencyGrid(128)
    counts = tied_histograms(np.random.default_rng([7, 128]), 120)
    keep = ~np.isnan(replicate_statistics(counts, 0, grid, (-8, 8))[0])
    kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
    pairs = min(len(kept), len(dropped))
    assert pairs >= 20
    alternating = counts[np.column_stack([kept[:pairs], dropped[:pairs]]).ravel()]
    stats = []
    for points in chunk_settings(128, len(alternating)):
        monkeypatch.setattr(inference, "_CHUNK_POINTS", points)
        stats.append(replicate_statistics(alternating, 0, grid, (-8, 8))[0])
    np.testing.assert_array_equal(np.isnan(stats[0]), np.arange(2 * pairs) % 2 == 1)
    assert stats[1].tobytes() == stats[0].tobytes() == stats[2].tobytes()


def test_replicate_statistics_builds_one_workspace_per_call(monkeypatch):
    built = []
    workspace = inference._workspace

    def spy(rows, n, width):
        built.append((rows, n))
        return workspace(rows, n, width)

    monkeypatch.setattr(inference, "_workspace", spy)
    pmf = zoo_pmf(Poisson(3.0))
    counts = np.random.default_rng(43).multinomial(10_000, pmf.probs, size=1000)
    default_rows = inference._CHUNK_POINTS // 128
    for points, rows in zip(chunk_settings(128, 1000), (1, default_rows, 1000)):
        monkeypatch.setattr(inference, "_CHUNK_POINTS", points)
        built.clear()
        replicate_statistics(counts, pmf.offset, FrequencyGrid(128), (-8, 8))
        assert built == [(rows, 128)]


def test_poisson_test_scores_its_sample_as_the_staged_route_bit_for_bit():
    # criterion 7's three arms: the statistic is poisson_statistic of
    # estimate_muculants, lambda_hat the sample mean, or both refuse alike
    arms = (
        lambda r: np.random.default_rng([31337, r]).poisson(3.0, 10**4),
        lambda r: np.random.default_rng([31337, r]).poisson(1.0, 10**4),
        lambda r: np.random.default_rng([77001, r]).geometric(0.5, 10**4) - 1,
    )
    refused = 0
    for draw in arms:
        for r in range(4):
            x = draw(r)
            for window in ((-8, 8), (2, 5), (-3, 20)):
                n_max = max(-window[0], window[1])
                try:
                    want = poisson_statistic(estimate_muculants(x, grid_for_samples(x, n_max), n_max), window)
                except CharFnVanishes as exc:
                    with pytest.raises(CharFnVanishes) as got:
                        poisson_test(x, window=window, n_bootstrap=20)
                    assert str(got.value) == str(exc)
                    refused += 1
                    continue
                res = poisson_test(x, window=window, n_bootstrap=20)
                assert res.statistic.hex() == want.hex(), (r, window)
                assert res.lambda_hat.hex() == float(x.mean()).hex(), (r, window)
    assert 0 < refused < 36


def test_poisson_sample_is_accepted():
    rng = np.random.default_rng(3)
    xi = rng.poisson(1.0, 500)
    res = poisson_test(xi, n_bootstrap=200, seed=7)
    assert not res.reject
    assert res.p_value > 0.05
    assert res.lambda_hat == pytest.approx(xi.mean())


def test_geometric_sample_is_rejected():
    rng = np.random.default_rng(3)
    xi = rng.geometric(0.6, 2000) - 1
    res = poisson_test(xi, n_bootstrap=200, seed=7)
    assert res.reject
    assert res.statistic > res.threshold


def test_result_fields_are_consistent():
    rng = np.random.default_rng(12)
    xi = rng.poisson(2.0, 300)
    res = poisson_test(xi, n_bootstrap=150, seed=5)
    assert res.reject == (res.statistic > res.threshold)
    assert 0.0 <= res.p_value <= 1.0
    assert res.n_bootstrap == 150
    assert 0 < res.n_bootstrap_used <= 150
    assert res.window == (-8, 8)
    assert res.seed == 5


def test_identical_calls_are_bit_identical():
    rng = np.random.default_rng(8)
    xi = rng.poisson(1.5, 400)
    a = poisson_test(xi, n_bootstrap=100, seed=2)
    b = poisson_test(xi, n_bootstrap=100, seed=2)
    assert a == b


def test_test_input_validation():
    good = np.random.default_rng(0).poisson(1.0, 200)
    with pytest.raises(NegativeSampleValue):
        poisson_test(np.array([1, 2, -1] * 50))
    with pytest.raises(ValueError):
        poisson_test(good, alpha=0.0)
    with pytest.raises(ValueError):
        poisson_test(good, alpha=1.0)
    with pytest.raises(ValueError):
        poisson_test(good, n_bootstrap=0)
    for n_bootstrap in (2.5, True, "10"):
        with pytest.raises(ValueError, match=rf"^n_bootstrap must be an integer, got {n_bootstrap!r}$"):
            poisson_test(good, n_bootstrap=n_bootstrap)
    assert poisson_test(good, n_bootstrap=np.int64(20)) == poisson_test(good, n_bootstrap=20)
    with pytest.raises(ValueError):
        poisson_test(good[:99])


def test_all_zero_sample_meets_the_degenerate_null():
    # lambda_hat = 0: the null law is the point mass at 0, so every
    # replicate is the data again
    res = poisson_test(np.zeros(1000, dtype=np.int64), n_bootstrap=50)
    assert (res.statistic, res.lambda_hat, res.threshold, res.p_value) == (0.0, 0.0, 0.0, 1.0)
    assert res.reject is False
    assert res.n_bootstrap_used == 50


def test_bootstrap_law_lumps_both_tails_at_a_large_mean():
    # at lambda 50 the computed cells start at 0, where the lower tail is
    # far lighter than 1e-16: cells 0..4 are lumped into cell 5
    offset, probs = inference._poisson_pmf(50.0)
    assert (offset, len(probs)) == (5, 114)
    assert abs(probs.sum() - 1.0) < 1e-14
    head = sum(math.exp(k * math.log(50.0) - 50.0 - math.lgamma(k + 1.0)) for k in range(6))
    assert probs[0] == pytest.approx(head, rel=1e-12)
    res = poisson_test(np.array([49, 50, 51] * 400), n_bootstrap=20, seed=0)
    assert res.lambda_hat == 50.0
    # Poisson(50) resamples often dip below the floor somewhere on the grid
    assert (res.n_bootstrap_used, res.p_value, res.reject) == (15, 13 / 15, False)
