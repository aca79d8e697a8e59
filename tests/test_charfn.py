import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from muculants import (
    Binomial,
    CharFnSamples,
    CharFnVanishes,
    EmptySample,
    FrequencyGrid,
    GridTooCoarse,
    MuculantSeq,
    complex_log,
    empirical_charfn,
    estimate_muculants,
    eval_charfn,
    grid_analysis,
    grid_for_samples,
    grid_synthesis,
    poisson_test,
    power_muculants,
    reconstruct_charfn,
    support_width,
    unwrap_phase,
    validate_pmf,
    zoo_charfn,
)
from muculants.charfn import (
    MAX_GRID_POINTS,
    fold_indices,
    span_width,
    unwrap_in_place,
)

from support import full_grid, half_of, random_pmf, reference_is_hermitian, sampling_noise_draw


@pytest.mark.parametrize("n", [63, 65, 100, 32, 0])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        FrequencyGrid(n)


def test_grid_points_layout():
    g = FrequencyGrid(64)
    pts = g.points
    assert pts[0] == pytest.approx(-np.pi)
    assert pts[g.zero_index] == 0.0
    assert pts[-1] == pytest.approx(np.pi - 2 * np.pi / 64)
    np.testing.assert_allclose(np.diff(pts), 2 * np.pi / 64)


def test_grid_for_width_rounds_up():
    assert FrequencyGrid.for_width(10).n_points == 64
    assert FrequencyGrid.for_width(20).n_points == 128
    assert FrequencyGrid.for_width(3, minimum=256).n_points == 256


def test_grid_for_width_carries_n_max():
    # four points per coefficient index as well
    assert FrequencyGrid.for_width(10, n_max=16).n_points == 64
    assert FrequencyGrid.for_width(10, n_max=17).n_points == 128
    assert FrequencyGrid.for_width(10, minimum=4096, n_max=1500).n_points == 8192


def test_grid_for_width_refuses_negative_sizes():
    # for_width(-3, 64, -5) used to return a 64-point grid
    for width, n_max in ((-3, -5), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=f"^width {width} and n_max {n_max} must be nonnegative$"):
            FrequencyGrid.for_width(width, 64, n_max)
    assert FrequencyGrid.for_width(0).n_points == 64


def test_grid_ceiling_is_refused_at_construction():
    # Only construct grids here: a grid allocates nothing until it is used,
    # while one complex array on a 2^32-point grid would take 64 GiB.
    assert FrequencyGrid(MAX_GRID_POINTS).n_points == 1 << 24
    assert FrequencyGrid.for_width(0, n_max=1 << 22).n_points == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="at most 16777216, got 33554432"):
        FrequencyGrid(1 << 25)
    # for_width names the width and n_max it was given, not the grid they need
    with pytest.raises(ValueError, match="^width 0 and n_max 4194305 need more than 16777216 grid"):
        FrequencyGrid.for_width(0, n_max=(1 << 22) + 1)
    with pytest.raises(ValueError, match="^width 16777217 and n_max 0 need more than 16777216 grid"):
        FrequencyGrid.for_width(1 << 24 | 1, 4096)
    with pytest.raises(ValueError, match=r"^sample range 0\.\.1000000000 needs more than 16777216"):
        grid_for_samples(np.array([0, 10**9]))
    with pytest.raises(ValueError, match="^width 5 and n_max 1000000000 need more than 16777216"):
        grid_for_samples(np.arange(5), n_max=10**9)


def test_support_width_includes_origin():
    assert support_width(validate_pmf(0, [0.5, 0.5])) == 2
    # shifted mass still has to resolve the linear phase back to zero
    assert support_width(validate_pmf(10, [1.0])) == 11
    assert support_width(validate_pmf(-4, [0.5, 0.5])) == 5


def test_sample_grid_names_a_range_no_grid_resolves():
    # eight points per index of the range: 2^21 indices fill the largest grid
    top = MAX_GRID_POINTS // 8
    assert grid_for_samples(np.array([0, top - 1])).n_points == MAX_GRID_POINTS
    assert grid_for_samples(np.array([-(top - 1), 0])).n_points == MAX_GRID_POINTS
    for x, lo, hi in (([0, top], 0, top), ([-top, 0], -top, 0), ([0] * 99 + [10**15], 0, 10**15)):
        with pytest.raises(ValueError) as exc:
            grid_for_samples(np.array(x), n_max=4)
        assert str(exc.value) == f"sample range {lo}..{hi} needs more than 16777216 grid points"


def test_synthesis_matches_direct_trig_sum():
    rng = np.random.default_rng(3)
    g = FrequencyGrid(64)
    coeffs = rng.normal(size=5)
    offset = -7
    direct = sum(
        c * np.exp(1j * g.points * (offset + i)) for i, c in enumerate(coeffs)
    )
    np.testing.assert_allclose(grid_synthesis(coeffs, offset, g), direct, atol=1e-12)


def test_synthesis_folds_indices_exactly():
    # e^(j mu xi) is N-periodic in xi on the grid, so shifting by N is a no-op
    g = FrequencyGrid(64)
    a = grid_synthesis([1.0, 2.0], 3, g)
    b = grid_synthesis([1.0, 2.0], 3 + 64, g)
    np.testing.assert_allclose(a, b, atol=1e-12)


@given(
    coeffs=arrays(np.float64, st.integers(1, 12), elements=st.floats(-5, 5)),
    offset=st.integers(-20, 20),
)
@settings(max_examples=60)
def test_analysis_inverts_synthesis(coeffs, offset):
    g = FrequencyGrid(128)
    vals = grid_synthesis(coeffs, offset, g)
    ns = offset + np.arange(len(coeffs))
    rec = grid_analysis(vals, ns)
    np.testing.assert_allclose(rec, coeffs, atol=1e-10)


def test_analysis_rejects_aliased_indices():
    g = FrequencyGrid(64)
    vals = grid_synthesis([1.0], 0, g)
    with pytest.raises(ValueError):
        grid_analysis(vals, [33])


def test_analysis_refuses_non_integer_indices():
    # [2.5, 3.7] used to be read as [2, 3]
    vals = grid_synthesis([1.0, 2.0, 3.0, 4.0], 0, FrequencyGrid(64))
    for ns in ([2.5, 3.7], np.array([2.0, 3.0]), [True, False], np.array([1j])):
        with pytest.raises(ValueError, match="^indices must be integers$"):
            grid_analysis(vals, ns)
    want = grid_analysis(vals, np.array([2, 3]))
    assert grid_analysis(vals, np.array([2, 3], dtype=np.uint8)).tobytes() == want.tobytes()
    # checked before the cast: 2^64 - 1 used to wrap to index -1, and the
    # most negative int64 has no absolute value
    for ns in (np.array([2**64 - 1], np.uint64), np.array([np.iinfo(np.int64).min])):
        with pytest.raises(ValueError, match="^requested index beyond the grid's unaliased range$"):
            grid_analysis(vals, ns)
    assert grid_analysis(vals, []).shape == (0,)


# Straightforward forms of the grid kernels: scale the whole inverse FFT by N,
# divide the whole forward FFT by N, compare every sample with its partner.
# The kernels must reproduce them bit for bit, and the check its decisions.

def reference_fold(coeffs, offset, n):
    c = np.asarray(coeffs, dtype=np.float64)
    folded = np.zeros(c.shape[:-1] + (n,))
    np.add.at(folded, (..., (int(offset) + np.arange(c.shape[-1])) % n), c)
    return folded


def reference_grid_synthesis(coeffs, offset, grid):
    n = grid.n_points
    folded = reference_fold(coeffs, offset, n)
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return np.fft.ifft(folded * alt) * n


def reference_grid_analysis(values, ns):
    n = values.shape[-1]
    ns = np.asarray(ns, dtype=np.int64)
    coef = np.fft.fft(values) / n
    return np.where(ns % 2 == 0, 1.0, -1.0) * coef[..., ns % n]


def _kernel_cases():
    rng = np.random.default_rng(11)
    for n in (64, 128, 1024):
        g = FrequencyGrid(n)
        for shape in ((1,), (7,), (n - 3,), (n + 9,), (3, 12), (5, 40)):
            for offset in (0, -7, 5, -n - 3, 2 * n + 1):
                yield g, rng.normal(size=shape), offset
        counts = rng.poisson(3.0, size=(4, 20)).astype(float)
        yield g, counts / counts.sum(axis=-1, keepdims=True), -2


def test_grid_synthesis_matches_reference_bit_for_bit():
    for g, coeffs, offset in _kernel_cases():
        got = grid_synthesis(coeffs, offset, g)
        want = reference_grid_synthesis(coeffs, offset, g)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (g, coeffs.shape, offset)


def test_grid_analysis_matches_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    for g, coeffs, offset in _kernel_cases():
        h = g.n_points // 2
        vals = grid_synthesis(coeffs, offset, g)
        noisy = vals + rng.normal(size=vals.shape) + 1j * rng.normal(size=vals.shape)
        for ns in (np.arange(-h, h + 1), [3, -1, 0, h, -h, 2], [-5]):
            for v in (vals, noisy):
                got = grid_analysis(v, ns)
                assert got.tobytes() == reference_grid_analysis(v, ns).tobytes()


def test_fold_into_a_buffer_matches_the_fresh_fold_bit_for_bit():
    # a reused buffer must not leak what it held before the fold
    rng = np.random.default_rng(14)
    n = 16
    for shape in ((5,), (4, 9), (3, 2, 40)):
        for offset in (0, -3, 13, -n - 5, 2 * n + 7):  # 13 + 9 and 40 points wrap
            coeffs = rng.normal(size=shape)
            want = fold_indices(coeffs, offset, n)
            buf = np.full(shape[:-1] + (n,), np.nan)
            got = fold_indices(coeffs, offset, n, out=buf)
            assert got is buf
            assert got.tobytes() == want.tobytes(), (shape, offset)


def test_fold_matches_the_add_at_fold_bit_for_bit():
    # each bin sums its coefficients in index order, as np.add.at does; the
    # magnitudes span 16 decades, so any other order would show
    rng = np.random.default_rng(15)
    n = 16
    shapes = ((1,), (5,), (16,), (17,), (33,), (47,), (48,), (3, 40), (2, 3, 47))
    offsets = (0, 5, 15, -1, -n, -n - 5, -3 * n - 1, n, n + 7, 3 * n + 2, 10**6 + 3)
    for shape in shapes:  # up to three wraps of the support around the bins
        for offset in offsets:
            coeffs = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
            coeffs.flat[0] = -0.0
            got = fold_indices(coeffs, offset, n)
            assert got.tobytes() == reference_fold(coeffs, offset, n).tobytes(), (shape, offset)


def test_hermitian_check_matches_reference():
    n, h = 128, 64
    grid = FrequencyGrid(n)
    rng = np.random.default_rng(13)
    stacked = grid_synthesis(rng.dirichlet(np.ones(9), size=4), -3, grid)
    for v in (stacked[0], stacked):
        assert reference_is_hermitian(v)
        half_of(v)
    # (index, added value, refused) on the full grid.  A pair k / N - k is
    # out of the type's reach (it stores the half), so the reference rules
    for index, step, refused in [
        (5, 2e-10, True), (n - 5, 2e-10, True), (1, -2e-10, True), (7, 5e-11, False),
    ]:
        for v in (stacked[2], stacked):
            bad = v.copy()
            bad[..., index] += step
            assert reference_is_hermitian(bad) is not refused
            if refused:
                with pytest.raises(ValueError, match="not Hermitian"):
                    half_of(bad)
            else:
                half_of(bad)
    # the self-paired samples 0 (mu = -pi, half[h]) and N/2 (mu = 0,
    # half[0]), where only the imaginary part counts, reach the constructor
    for index, step, refused in [
        (0, 2e-10j, True), (h, 2e-10j, True), (0, 6e-11j, True), (h, -6e-11j, True),
        (0, 4e-11j, False), (h, -4e-11j, False), (h, 1e-3, False),
    ]:
        bad = stacked[2].copy()
        bad[index] += step
        assert reference_is_hermitian(bad) is not refused
        half = np.conj(np.concatenate([bad[h:], bad[:1]]))  # unchecked
        if refused:
            with pytest.raises(ValueError, match="not Hermitian"):
                CharFnSamples(grid, half, "empirical")
        else:
            CharFnSamples(grid, half, "empirical")
    bad = half_of(stacked[1])
    bad[3] = np.nan
    with pytest.raises(ValueError, match=r"^half must be finite$"):
        CharFnSamples(grid, bad, "empirical")


def test_eval_charfn_basics():
    f = validate_pmf(0, [0.3, 0.7])
    cf = eval_charfn(f, FrequencyGrid(64))
    assert full_grid(cf)[cf.grid.zero_index] == 1.0
    # Hermitian grid: Phi(-mu) = conj(Phi(mu))
    direct = 0.3 + 0.7 * np.exp(1j * cf.grid.points)
    np.testing.assert_allclose(full_grid(cf), direct, atol=1e-13)


def test_eval_charfn_needs_resolution():
    wide = validate_pmf(0, np.full(40, 1.0 / 40))
    with pytest.raises(GridTooCoarse):
        eval_charfn(wide, FrequencyGrid(64))


def test_charfn_samples_reject_non_hermitian():
    g = FrequencyGrid(64)
    half = np.exp(1j * np.linspace(0, 1, 33))  # not real at mu = pi
    with pytest.raises(ValueError, match="Hermitian"):
        CharFnSamples(g, half, "exact-from-pmf")


def test_charfn_samples_refuse_an_unknown_source_and_an_exact_modulus_above_one():
    g = FrequencyGrid(64)
    with pytest.raises(ValueError, match=r"^unknown source 'sampled'$"):
        CharFnSamples(g, np.ones(33), "sampled")
    above = np.full(33, 1.0 + 1e-9)  # real: Hermitian
    with pytest.raises(ValueError, match=r"^charfn modulus exceeds one$"):
        CharFnSamples(g, above, "exact-from-pmf")
    for source in ("empirical", "reconstructed"):  # their modulus may exceed one
        assert CharFnSamples(g, above, source).source == source


def test_empirical_charfn_is_sample_average():
    samples = np.array([0, 1, 1, 3, -2])
    g = FrequencyGrid(64)
    with pytest.raises(ValueError, match=r"^need at least 100 samples, got 5$"):
        empirical_charfn(samples, g)
    cf = empirical_charfn(np.tile(samples, 20), g)  # the same average over 100 draws
    direct = np.mean(np.exp(1j * np.outer(g.points, samples)), axis=1)
    np.testing.assert_allclose(full_grid(cf), direct, atol=1e-12)
    assert full_grid(cf)[g.zero_index] == 1.0
    assert cf.source == "empirical"


def test_empirical_charfn_memory_does_not_follow_the_sample_range():
    # a histogram over 0..10^15 would need petabytes; the grid is refused
    # for not resolving that range before any draw is counted
    g = FrequencyGrid(4096)
    x = np.array([0] * 99 + [10**15 + 3])
    tracemalloc.start()
    try:
        with pytest.raises(GridTooCoarse) as exc:
            empirical_charfn(x, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * g.n_points * 16  # a few arrays over the grid at most
    assert str(exc.value) == (
        "support width 1000000000000004 needs at least 4000000000000016 grid points, got 4096"
    )


def mod_n_empirical_values(x, grid):
    """The empirical charfn from draws counted into the N bins of x mod N."""
    n = grid.n_points
    half = np.fft.rfft(np.bincount(x % n, minlength=n) / x.size)
    half[0] = 1.0
    return np.concatenate([half[n // 2 : 0 : -1], np.conj(half[: n // 2])])


def test_empirical_charfn_is_the_mod_n_count_on_a_grid_that_resolves_the_draws():
    # where the grid resolves the range no two draws share a bin, so the
    # histogram folded at its low end is the mod-N count, bit for bit
    rng = np.random.default_rng(29)
    for _ in range(60):
        lo = int(rng.integers(-300, 300))
        x = lo + rng.poisson(rng.uniform(0.2, 8.0), int(rng.integers(1, 400)))
        smallest = FrequencyGrid.for_width(span_width(int(x.min()), int(x.max())))
        if x.size < 100:  # refused before the grid is looked at
            with pytest.raises(ValueError, match=rf"^need at least 100 samples, got {x.size}$"):
                empirical_charfn(x, FrequencyGrid(64))
            continue
        for grid in (smallest, FrequencyGrid(2 * smallest.n_points)):
            got = full_grid(empirical_charfn(x, grid))
            assert got.tobytes() == mod_n_empirical_values(x, grid).tobytes()
        if smallest.n_points > 64:
            with pytest.raises(GridTooCoarse):
                empirical_charfn(x, FrequencyGrid(smallest.n_points // 2))


def test_every_charfn_the_package_builds_is_exactly_hermitian():
    rng = np.random.default_rng(21)
    g = FrequencyGrid(256)
    h = g.zero_index
    laws = [random_pmf(rng) for _ in range(5)] + [validate_pmf(-7, [0.1, 0.2, 0.7])]
    built = [eval_charfn(f, g) for f in laws]
    built += [empirical_charfn(rng.integers(-20, 30, 500), g), empirical_charfn(sampling_noise_draw(), g)]
    seq = MuculantSeq(-7, 12, 0.5 * rng.standard_normal(20), "complex", 0.0)
    built.append(reconstruct_charfn(seq, g))
    for cf in built:
        v = full_grid(cf)
        np.testing.assert_array_equal(v[1:h], np.conj(v[:h:-1]))
        assert v[0].imag == 0.0 and v[h].imag == 0.0, cf.source


def test_values_mirror_the_half_bit_for_bit():
    # mu = -mu_k holds half[k], mu = mu_k its conjugate; -pi holds half[h]
    rng = np.random.default_rng(23)
    g = FrequencyGrid(128)
    h = g.zero_index
    seq = MuculantSeq(-3, 5, 0.4 * rng.standard_normal(9), "complex", 0.0)
    for cf in (
        eval_charfn(validate_pmf(-4, [0.1, 0.6, 0.3]), g),
        empirical_charfn(rng.integers(-9, 20, 300), g),
        reconstruct_charfn(seq, g),
        zoo_charfn(Binomial(5, 0.7), g),
    ):
        v, half = full_grid(cf), cf.half
        assert v.shape == (g.n_points,) and half.shape == (h + 1,)
        for k in range(1, h + 1):
            assert v[h - k].tobytes() == half[k].tobytes(), (cf.source, k)
        for k in range(h):
            assert v[h + k].tobytes() == np.conj(half[k]).tobytes(), (cf.source, k)
        assert not hasattr(cf, "values")  # the type stores only the half


@pytest.mark.parametrize("n", [64, 4096])
def test_charfn_samples_refuse_a_full_grid_array(n):
    full = full_grid(eval_charfn(validate_pmf(0, [0.3, 0.7]), FrequencyGrid(n)))
    for source in ("exact-from-pmf", "empirical", "reconstructed"):
        with pytest.raises(ValueError, match=rf"^half must have length {n // 2 + 1}, got {n}$"):
            CharFnSamples(FrequencyGrid(n), full, source)


def test_empirical_charfn_input_checks():
    g = FrequencyGrid(64)
    with pytest.raises(EmptySample):
        empirical_charfn(np.array([], dtype=np.int64), g)
    with pytest.raises(ValueError):
        empirical_charfn(np.array([0.5, 1.0]), g)
    with pytest.raises(ValueError):
        empirical_charfn(np.array([[1, 2]]), g)


def test_unwrap_recovers_linear_phase():
    g = FrequencyGrid(256)
    half = g.points[g.zero_index :]
    principal = np.angle(np.exp(1j * 5 * half))
    np.testing.assert_allclose(unwrap_phase(principal), 5 * half, atol=1e-12)


@given(
    steps=arrays(
        np.float64, st.integers(1, 40), elements=st.floats(-3.1, 3.1)
    )
)
@settings(max_examples=60)
def test_unwrap_undoes_wrapping(steps):
    # any curve with increments below pi in magnitude survives a wrap/unwrap trip
    curve = np.concatenate([[0.0], np.cumsum(steps)])
    principal = np.angle(np.exp(1j * curve))
    np.testing.assert_allclose(unwrap_phase(principal), curve, atol=1e-9)


def test_unwrap_rejects_values_outside_principal_range():
    with pytest.raises(ValueError):
        unwrap_phase(np.array([0.0, 4.0]))
    rows = np.zeros((3, 10))
    rows[2, 7] = -np.pi - 1e-6  # one value in one stacked row
    with pytest.raises(ValueError, match="principal values"):
        unwrap_phase(rows)
    for empty in (np.array(0.5), np.array([])):
        with pytest.raises(ValueError, match="nonempty"):
            unwrap_phase(empty)


def test_unwrap_phase_leaves_its_input_as_it_was():
    p = np.array([[3.0, -3.0, 3.0], [0.0, 2.0, -2.0]])
    before = p.tobytes()
    assert np.max(np.abs(unwrap_phase(p) - p)) > 6.0
    assert p.tobytes() == before


def test_unwrap_in_place_into_a_strided_view_matches_unwrap_phase_bit_for_bit():
    # the log kernel unwraps the imaginary part of its complex log buffer
    rng = np.random.default_rng(16)
    curve = np.cumsum(rng.uniform(-3.1, 3.1, size=(6, 257)), axis=-1)
    principal = np.angle(np.exp(1j * curve))
    for rows in (principal, principal[3]):
        log = np.full(rows.shape, np.nan, dtype=complex)
        log.imag = rows
        assert not log.imag.flags.c_contiguous
        steps = np.full(rows.shape[:-1] + (rows.shape[-1] - 1,), np.nan)
        unwrap_in_place(log.imag, steps)
        assert np.ascontiguousarray(log.imag).tobytes() == unwrap_phase(rows).tobytes()
        assert np.isnan(log.real).all()  # the other half of each value is untouched


def test_complex_log_round_trip():
    rng = np.random.default_rng(5)
    f = random_pmf(rng)
    cf = eval_charfn(f, FrequencyGrid(256))
    lg = complex_log(cf)
    rebuilt = np.exp(lg.half)
    # the sample at pi takes the midpoint of the phase jump, so a winding
    # charfn may come back sign-flipped there; everywhere else exact
    np.testing.assert_allclose(rebuilt[:-1], cf.half[:-1], atol=1e-12)
    assert abs(rebuilt[-1]) == pytest.approx(abs(cf.half[-1]), abs=1e-12)


def test_complex_log_phase_is_odd_magnitude_even():
    f = validate_pmf(-2, [0.2, 0.3, 0.1, 0.4])
    cf = eval_charfn(f, FrequencyGrid(256))
    lg = complex_log(cf)
    # the half stores log conj(Phi); its Hermitian extension is the log of
    # full_grid(cf), phase odd and magnitude even, so both ends carry phase 0
    assert lg.half[0].imag == 0.0
    assert lg.half[-1].imag == 0.0
    full = np.concatenate([lg.half[128:0:-1], np.conj(lg.half[:128])])
    np.testing.assert_allclose(np.exp(full[1:]), full_grid(cf)[1:], atol=1e-12)


def test_complex_log_pins_jump_midpoint_at_edge():
    # a pure shift has phase M*mu, which jumps by 2*pi*M across +/- pi;
    # the grid sample at pi must take the midpoint value, zero
    f = validate_pmf(3, [1.0])
    lg = complex_log(eval_charfn(f, FrequencyGrid(256)))
    assert lg.half[-1].imag == 0.0
    mu = 2.0 * np.pi * np.arange(128) / 256  # 0, ..., pi - 2pi/N
    np.testing.assert_allclose(lg.half[:-1].imag, -3 * mu, atol=1e-9)


def test_complex_log_raises_on_vanishing_modulus():
    f = validate_pmf(0, [0.5, 0.5])  # charfn has a zero at mu = pi
    with pytest.raises(CharFnVanishes):
        complex_log(eval_charfn(f, FrequencyGrid(64)))


def test_exact_charfn_with_modulus_down_to_1e_3_passes_the_1e_8_floor():
    f = validate_pmf(0, [0.5005, 0.4995])
    cf = eval_charfn(f, FrequencyGrid(64))
    complex_log(cf)  # min |phi| = 1e-3, above the default floor


def test_every_vanishing_floor_raises_one_message():
    half = eval_charfn(validate_pmf(0, [0.5, 0.5]), FrequencyGrid(64))  # zero at mu = pi
    floor_message = r"^\|charfn\| reaches \d\.\d{3}e[+-]\d\d, below the 1e-08 floor$"
    with pytest.raises(CharFnVanishes, match=floor_message):
        complex_log(half)
    with pytest.raises(CharFnVanishes, match=floor_message):
        power_muculants(half, 5)
    # the empirical charfn of equally many zeros and ones is exactly 0 at pi
    xi = np.repeat([0, 1], 50)
    for route in (
        lambda: estimate_muculants(xi, grid_for_samples(xi), 5),
        lambda: poisson_test(xi, window=(-5, 5)),
    ):
        with pytest.raises(CharFnVanishes) as exc:
            route()
        assert str(exc.value) == "|charfn| reaches 0.000e+00, below the 1e-03 floor"


def test_staged_route_holds_empirical_charfns_to_the_empirical_floor():
    # |Phi_hat| dips to 8.0e-4: above the exact floor, but sampling noise,
    # so the staged route refuses it as estimate_muculants does
    x = sampling_noise_draw()
    grid = grid_for_samples(x, 8)
    cf = empirical_charfn(x, grid)
    message = "|charfn| reaches 8.000e-04, below the 1e-03 floor"
    for route in (
        lambda: complex_log(cf),
        lambda: power_muculants(cf, 8),
        lambda: estimate_muculants(x, grid, 8),
        lambda: poisson_test(x),
    ):
        with pytest.raises(CharFnVanishes) as exc:
            route()
        assert str(exc.value) == message
    # the same values held as an exact charfn meet only the 1e-8 floor
    complex_log(CharFnSamples(grid, cf.half, "reconstructed"))
