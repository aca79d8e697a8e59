import importlib
import math

import numpy as np
import pytest

from muculants import (
    Bernoulli,
    Binomial,
    CharFnVanishes,
    Degenerate,
    FrequencyGrid,
    Geometric,
    LogCharFnSamples,
    MuculantSeq,
    NegativeBinomial,
    NotApplicable,
    Poisson,
    SignedSequence,
    SupportTooSmall,
    TruncationUnsafe,
    complex_log,
    complex_muculants,
    cumulants_from_muculants,
    decompose,
    empirical_charfn,
    eval_charfn,
    grid_analysis,
    grid_for_samples,
    grid_synthesis,
    is_minimum_phase,
    power_muculants,
    reconstruct_charfn,
    reconstruct_sequence,
    recursive_minphase_muculants,
    validate_pmf,
    zoo_muculants,
    zoo_pmf,
)
from muculants.charfn import fold_indices, span_width
from muculants.inference import replicate_statistics

from support import (
    CAUSAL_ZOO_SWEEP,
    full_grid,
    grid_muculants,
    half_of,
    random_pmf,
    reference_log_coefficients,
    sampling_noise_draw,
)


# the package namespace re-exports functions under their modules' names
decompose_module = importlib.import_module("muculants.decompose")
transform_module = importlib.import_module("muculants.transform")


def geometric_pmf(p: float):
    return zoo_pmf(Geometric(p))


# ---------------------------------------------------------------- MuculantSeq


def test_seq_value_lookup():
    seq = MuculantSeq(-2, 2, np.array([0.1, 0.2, -1.0, 0.3, 0.4]), "complex", 0.0)
    assert seq.value_at(0) == -1.0
    assert seq.value_at(-2) == 0.1
    assert seq.value_at(7) == 0.0
    np.testing.assert_array_equal(seq.indices, [-2, -1, 0, 1, 2])
    assert len(seq) == 5


def test_seq_range_must_contain_zero():
    with pytest.raises(ValueError):
        MuculantSeq(1, 3, np.zeros(3), "complex", 0.0)


def test_seq_rejects_unknown_kind():
    with pytest.raises(ValueError):
        MuculantSeq(0, 1, np.zeros(2), "cepstral", 0.0)


def test_seq_rejects_large_imag_residual():
    with pytest.raises(ValueError):
        MuculantSeq(0, 1, np.zeros(2), "complex", 1e-7)


def test_power_seq_must_be_even_and_symmetric():
    with pytest.raises(ValueError):
        MuculantSeq(-1, 2, np.zeros(4), "power", 0.0)
    with pytest.raises(ValueError):
        MuculantSeq(-1, 1, np.array([0.1, 0.0, 0.2]), "power", 0.0)


# ----------------------------------------------------------- complex route


def test_poisson_coefficients():
    c = grid_muculants(zoo_pmf(Poisson(2.0)), 4096, 20)
    assert c.value_at(0) == pytest.approx(-2.0, abs=1e-8)
    assert c.value_at(1) == pytest.approx(2.0, abs=1e-8)
    others = [c.value_at(n) for n in range(-20, 21) if n not in (0, 1)]
    assert np.max(np.abs(others)) < 1e-8


def test_geometric_coefficients():
    c = grid_muculants(geometric_pmf(0.2), 4096, 20)
    assert c.value_at(0) == pytest.approx(np.log(0.2), abs=1e-9)
    assert c.value_at(1) == pytest.approx(0.8, abs=1e-9)
    assert c.value_at(2) == pytest.approx(0.32, abs=1e-9)
    assert abs(c.value_at(-3)) < 1e-9  # causal law, nothing on the left


def test_point_mass_at_zero_has_zero_coefficients():
    c = grid_muculants(validate_pmf(0, [1.0]), 64, 8)
    np.testing.assert_allclose(c.values, 0.0, atol=1e-15)


def test_n_max_capped_by_grid():
    lg = complex_log(eval_charfn(validate_pmf(0, [0.6, 0.4]), FrequencyGrid(64)))
    complex_muculants(lg, 16)
    with pytest.raises(ValueError):
        complex_muculants(lg, 17)
    with pytest.raises(ValueError):
        complex_muculants(lg, 0)
    # an index bound is refused, not truncated (2.5 used to raise IndexError)
    cf = eval_charfn(validate_pmf(0, [0.6, 0.4]), FrequencyGrid(64))
    for n_max in (2.5, True, "8"):
        for call in (lambda: complex_muculants(lg, n_max), lambda: power_muculants(cf, n_max)):
            with pytest.raises(ValueError, match=rf"^n_max must be an integer, got {n_max!r}$"):
                call()
    assert complex_muculants(lg, np.int64(16)).n_max == 16


def test_non_odd_phase_is_an_error():
    # an odd phase is zero at the self-paired points mu = 0 and pi; a phase
    # there would make the coefficients complex, so the half log refuses it
    g = FrequencyGrid(64)
    LogCharFnSamples(g, np.zeros(33, dtype=complex), 1.0)
    for k in (0, 32):
        half = np.zeros(33, dtype=complex)
        half[k] = 1e-12j
        with pytest.raises(ValueError, match="^phase must be zero at mu = 0 and pi$"):
            LogCharFnSamples(g, half, 1.0)


# ------------------------------------------------------------- power route


def test_power_equals_mirrored_complex_sum():
    rng = np.random.default_rng(17)
    f = random_pmf(rng)
    cf = eval_charfn(f, FrequencyGrid(512))
    c = complex_muculants(complex_log(cf), 30)
    p = power_muculants(cf, 30)
    np.testing.assert_allclose(p.values, c.values + c.values[::-1], atol=1e-9)
    assert p.kind == "power"


def test_power_geometric_values():
    p = power_muculants(eval_charfn(geometric_pmf(0.2), FrequencyGrid(4096)), 5)
    assert p.value_at(0) == pytest.approx(2 * np.log(0.2), abs=1e-9)
    for n in (1, 2):
        assert p.value_at(n) == pytest.approx(0.8**n / n, abs=1e-9)
        assert p.value_at(-n) == p.value_at(n)


def test_power_of_point_mass_vanishes():
    # pure delay: |phi| = 1 everywhere, so the power sequence is null
    f = validate_pmf(7, [1.0])
    p = power_muculants(eval_charfn(f, FrequencyGrid(64)), 10)
    np.testing.assert_allclose(p.values, 0.0, atol=1e-14)


def test_power_route_needs_nonvanishing_modulus():
    f = validate_pmf(0, [0.5, 0.5])
    with pytest.raises(CharFnVanishes):
        power_muculants(eval_charfn(f, FrequencyGrid(64)), 5)


# ----------------------------------------------------- half-spectrum log kernel


def staged_pmf_route(f, grid, n_max):
    """Coefficients of ``f`` by the staged route that ``decompose`` takes."""
    return complex_muculants(complex_log(eval_charfn(f, grid)), n_max).values


def test_log_kernel_takes_a_pmf_as_it_is():
    # a mass deficit stays in the coefficients, as on the full grid: scaling
    # the PMF to total mass one moves c[0] by the log of that mass
    f = validate_pmf(-1, [0.3, 0.3, 0.3999995])
    assert f.tail_mass_bound > 0.0
    grid = FrequencyGrid(64)
    got = staged_pmf_route(f, grid, 8)
    want = reference_log_coefficients(f.probs[None], f.offset, grid, 8, 1e-8)[0][0]
    assert np.max(np.abs(got - want)) <= 1e-15
    scaled = staged_pmf_route(validate_pmf(f.offset, f.probs / f.total_mass), grid, 8)
    assert got[8] - scaled[8] == pytest.approx(math.log(f.total_mass), rel=1e-9)
    np.testing.assert_allclose(np.delete(got - scaled, 8), 0.0, atol=1e-15)


def test_log_kernel_pins_phi_at_zero_only_for_histograms(monkeypatch):
    # the batch's histogram rows have Phi(0) = 1 exactly; the staged route
    # takes a PMF's Phi(0) as its rfft gives it
    counts = np.full((1, 17), 7)
    freqs = counts / counts.sum()
    grid = FrequencyGrid(128)  # four points per index of the 17-wide support
    assert np.fft.rfft(fold_indices(freqs, 0, 128))[0, 0] != 1.0  # the pin changes a bit here
    logs = []
    irfft = np.fft.irfft

    def spy(a, n):
        logs.append(a[..., 0].ravel()[0])
        return irfft(a, n)

    monkeypatch.setattr(np.fft, "irfft", spy)
    replicate_statistics(counts, 0, grid, (-8, 8))
    staged_pmf_route(validate_pmf(0, freqs[0]), grid, 8)
    assert logs[0] == 0.0  # log 1
    assert logs[1] == np.log(np.abs(np.fft.rfft(fold_indices(freqs, 0, 128))[0, 0])) != 0.0


def test_log_kernel_refuses_rows_below_its_floor():
    # the floor follows the provenance: 1e-8 for a PMF, 1e-3 for a
    # histogram of draws, where a small |Phi| is sampling noise
    f = zoo_pmf(Binomial(10, 0.4))  # |Phi(pi)| = 0.2^10
    logcf = complex_log(eval_charfn(f, FrequencyGrid(4096)))
    assert logcf.min_abs == pytest.approx(0.2**10, rel=1e-9)
    assert np.isfinite(complex_muculants(logcf, 8).values).all()
    x = sampling_noise_draw()
    grid = grid_for_samples(x, 8)
    assert np.abs(empirical_charfn(x, grid).half).min() == pytest.approx(8.0e-4, rel=1e-9)
    stats, min_abs = replicate_statistics(np.bincount(x)[None], 0, grid, (-8, 8))
    assert np.isnan(stats).all() and min_abs[0] == np.abs(empirical_charfn(x, grid).half).min()


# ---------------------------------------------- one transform convention


def convention_laws():
    """Winding laws (a point mass off zero, shifted Poisson, Bernoulli and
    Binomial with p > 1/2), a mirrored Geometric, the two laws whose |Phi|
    runs lowest on the default grid, and a two-signed support."""
    g = zoo_pmf(Geometric(0.2))
    return {
        "degenerate": zoo_pmf(Degenerate(6)),
        "shifted_poisson": validate_pmf(3, zoo_pmf(Poisson(2.0)).probs),
        "bernoulli": zoo_pmf(Bernoulli(0.7)),
        "binomial_winding": zoo_pmf(Binomial(5, 0.8)),
        "mirrored_geometric": validate_pmf(-(len(g) - 1), g.probs[::-1]),
        "binomial": zoo_pmf(Binomial(10, 0.4)),
        "negbinomial": zoo_pmf(NegativeBinomial(5, 0.9)),
        "two_signed": validate_pmf(-4, [0.1, 0.2, 0.3, 0.15, 0.25]),
    }


@pytest.mark.parametrize("name", list(convention_laws()))
def test_staged_pmf_route_is_the_log_kernel_bit_for_bit(name):
    f = convention_laws()[name]
    for n_points in (4096, 16384):
        grid = FrequencyGrid(n_points)
        cf = eval_charfn(f, grid)
        for n_max in (20, 100):
            got = complex_muculants(complex_log(cf), n_max)
            want = reference_log_coefficients(f.probs[None], f.offset, grid, n_max, 1e-8)[0][0]
            assert got.values.tobytes() == want.tobytes(), (n_points, n_max)
            assert got.imag_residual == 0.0
            assert power_muculants(cf, n_max).imag_residual == 0.0


def test_staged_pmf_route_moves_toward_the_closed_form():
    # the log kernel's arithmetic, now the staged route's, is the more
    # accurate one where |Phi| runs low (0.2^10 at pi)
    law = Binomial(10, 0.4)
    want = zoo_muculants(law, (-100, 100)).values
    got = complex_muculants(complex_log(eval_charfn(zoo_pmf(law), FrequencyGrid(4096))), 100)
    assert np.max(np.abs(got.values - want)) < 5e-12


def test_exactly_hermitian_log_values_take_one_transform(monkeypatch):
    lg = complex_log(eval_charfn(zoo_pmf(Binomial(5, 0.8)), FrequencyGrid(256)))
    calls = []
    irfft = np.fft.irfft

    def spy(a, n):
        calls.append(n)
        return irfft(a, n)

    monkeypatch.setattr(np.fft, "irfft", spy)
    assert complex_muculants(lg, 20).imag_residual == 0.0
    assert calls == [256]


def test_caller_built_half_log_matches_the_full_grid_analysis():
    # any half log is the half of a Hermitian full-grid log: its coefficients
    # are one irfft, and the full N-point analysis of that extension agrees
    rng = np.random.default_rng(23)
    for n in (64, 256, 1024):
        grid = FrequencyGrid(n)
        h = n // 2
        ns = np.arange(-(n // 4), n // 4 + 1)
        base = complex_log(eval_charfn(random_pmf(rng), grid))
        for scale in (1e-12, 1e-9, 3e-8, 1e-7, 1e-3):
            half = base.half.copy()
            half[1:h] += scale * (rng.standard_normal(h - 1) + 1j * rng.standard_normal(h - 1))
            got = complex_muculants(LogCharFnSamples(grid, half, base.min_abs), n // 4)
            assert got.values.tobytes() == np.fft.irfft(half, n)[ns % n].tobytes()
            full = np.concatenate([half[h:0:-1], np.conj(half[:h])])  # mu = -pi, ..., pi - 2pi/N
            ref = grid_analysis(full, ns)
            assert np.max(np.abs(got.values - ref)) <= 1e-15, (n, scale)
            assert got.imag_residual == 0.0


# --------------------------------------------------------------- recursion


def test_recursion_matches_geometric_closed_form():
    c = recursive_minphase_muculants(geometric_pmf(0.2), 30)
    assert c.value_at(0) == pytest.approx(np.log(0.2), abs=1e-12)
    for n in range(1, 31):
        assert c.value_at(n) == pytest.approx(0.8**n / n, abs=1e-12)
    assert c.n_min == 0


def test_recursion_on_point_mass():
    c = recursive_minphase_muculants(validate_pmf(0, [1.0]), 10)
    np.testing.assert_allclose(c.values, 0.0, atol=0)


def test_recursion_agrees_with_integral_route():
    f = zoo_pmf(Binomial(3, 0.3))
    rec = recursive_minphase_muculants(f, 20)
    grid = grid_muculants(f, 4096, 20)
    for n in range(0, 21):
        assert rec.value_at(n) == pytest.approx(grid.value_at(n), abs=1e-9)


def reference_recursion(f, n_max):
    """The recursion as an explicit double loop, one term at a time."""
    p0 = float(f.probs[0])
    ratio = np.zeros(n_max + 1)
    take = min(n_max + 1, len(f))
    ratio[:take] = f.probs[:take] / p0
    vals = np.zeros(n_max + 1)
    vals[0] = np.log(p0)
    for m in range(1, n_max + 1):
        acc = ratio[m]
        for k in range(1, m):
            acc -= (k / m) * vals[k] * ratio[m - k]
        vals[m] = acc
    return vals


MINPHASE_LAWS = [
    Poisson(3.5),
    Geometric(0.2),  # PMF of length 124, longer than n_max = 30 below
    Bernoulli(0.4),
    Binomial(10, 0.2),
    NegativeBinomial(3, 0.3),
]


@pytest.mark.parametrize("spec", MINPHASE_LAWS, ids=repr)
def test_recursion_matches_reference_loop(spec):
    f = zoo_pmf(spec)
    for n_max in (1000, 30):
        rec = recursive_minphase_muculants(f, n_max)
        assert (rec.n_min, rec.n_max, rec.kind, rec.imag_residual) == (0, n_max, "complex", 0.0)
        np.testing.assert_allclose(rec.values, reference_recursion(f, n_max), rtol=0, atol=1e-13)


@pytest.mark.parametrize("spec", MINPHASE_LAWS, ids=repr)
def test_recursion_matches_closed_forms_to_1000(spec):
    rec = recursive_minphase_muculants(zoo_pmf(spec), 1000)
    want = zoo_muculants(spec, (0, 1000)).values
    np.testing.assert_allclose(rec.values, want, rtol=0, atol=1e-9)


def test_recursion_n_max_zero_gives_log_leading_probability():
    f = geometric_pmf(0.2)
    assert len(f) > 1
    rec = recursive_minphase_muculants(f, 0)
    assert (rec.n_min, rec.n_max) == (0, 0)
    np.testing.assert_array_equal(rec.values, [np.log(0.2)])
    with pytest.raises(ValueError):
        recursive_minphase_muculants(f, -1)


def test_recursion_refuses_an_index_range_past_the_grid_routes_before_any_work(monkeypatch):
    def no_test(f):
        raise AssertionError("the minimum-phase test ran")

    monkeypatch.setattr(transform_module, "is_minimum_phase", no_test)
    for n_max in (4194305, 10**9):
        with pytest.raises(ValueError, match=f"^n_max {n_max} reaches past 4194304$"):
            recursive_minphase_muculants(geometric_pmf(0.2), n_max)


def test_recursion_requires_causal_start():
    with pytest.raises(NotApplicable):
        recursive_minphase_muculants(validate_pmf(1, [1.0]), 5)
    shifted = validate_pmf(2, [0.4, 0.6])
    with pytest.raises(NotApplicable):
        recursive_minphase_muculants(shifted, 5)


@pytest.mark.parametrize("spec", [Poisson(20), Binomial(20, 0.45), Binomial(40, 0.45)], ids=repr)
def test_recursion_refuses_laws_that_are_not_minimum_phase(spec):
    # the series of log(P(z)/f[0]) diverges on the circle: unguarded, the
    # recursion returned finite values off by 1e+07 to 1e+48 at n_max = 200
    with pytest.raises(NotApplicable, match="not minimum phase"):
        recursive_minphase_muculants(zoo_pmf(spec), 200)


@pytest.mark.parametrize("spec", [Poisson(12), Binomial(40, 0.3)], ids=repr)
def test_recursion_refuses_laws_below_the_vanishing_floor(spec):
    # minimum phase, but |Phi| dips below 1e-8, where the coefficients are
    # not numerically defined (unguarded: off by 1.7e-3 and 7.8e-3)
    f = zoo_pmf(spec)
    assert is_minimum_phase(f)
    with pytest.raises(CharFnVanishes):
        recursive_minphase_muculants(f, 200)


@pytest.mark.parametrize(
    "spec",
    [Poisson(lam) for lam in (1.5, 2.5, 3.0, 4.0)]
    + [Geometric(p) for p in (0.18, 0.25, 0.3, 0.5)]
    + [Bernoulli(p) for p in (0.1, 0.3, 0.45)]
    + [Binomial(n, p) for n in (5, 10) for p in (0.1, 0.3)]
    + [NegativeBinomial(r, p) for r in (2, 3) for p in (0.2, 0.35)],
    ids=repr,
)
def test_recursion_passes_both_guards_on_the_benchmark_families(spec):
    # the ends of the parameter ranges the spectral benchmark draws from
    rec = recursive_minphase_muculants(zoo_pmf(spec), 1000)
    want = zoo_muculants(spec, (0, 1000)).values
    np.testing.assert_allclose(rec.values, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("spec", [Poisson(3.5), NegativeBinomial(3, 0.3)], ids=repr)
@pytest.mark.parametrize("n_max", [0, 1, 63, 64, 65, 1000])
def test_recursion_at_the_block_edges(spec, n_max):
    f = zoo_pmf(spec)
    rec = recursive_minphase_muculants(f, n_max)
    assert (rec.n_min, rec.n_max) == (0, n_max)
    np.testing.assert_allclose(rec.values, reference_recursion(f, n_max), rtol=0, atol=1e-13)


def test_recursion_far_below_the_support_length():
    # 2750 probabilities, 1001 coefficients: the earlier values' window is
    # every computed value, never the last L - 1 alone
    f = geometric_pmf(0.01)
    assert len(f) == 2750
    rec = recursive_minphase_muculants(f, 1000)
    want = zoo_muculants(Geometric(0.01), (0, 1000)).values
    np.testing.assert_allclose(rec.values, want, rtol=0, atol=1e-14)


def test_recursion_tracks_the_reference_loop_over_the_zoo():
    """Every causal zoo law either fails a guard or lies within
    max(10 g, 1e-8) of its closed form, g being the per-index loop's own
    gap to it.  The worst ratio d/g among gaps above 1e-12 is printed."""
    n_max = 200
    ratios = []
    for spec in CAUSAL_ZOO_SWEEP:
        f = zoo_pmf(spec)
        try:
            rec = recursive_minphase_muculants(f, n_max)
        except (NotApplicable, CharFnVanishes):
            continue
        want = zoo_muculants(spec, (0, n_max)).values
        d = float(np.max(np.abs(rec.values - want)))
        g = float(np.max(np.abs(reference_recursion(f, n_max) - want)))
        assert d <= max(10.0 * g, 1e-8), (spec, d, g)
        if d > 1e-12:
            ratios.append((d / g, spec))
    assert len(ratios) > 50
    print("worst ratio %.2f at %r" % max(ratios, key=lambda r: r[0]))


# ------------------------------------------------------------ reconstruction


def test_reconstruct_charfn_poisson():
    m = zoo_muculants(Poisson(2.0), (-20, 20))
    g = FrequencyGrid(256)
    cf = reconstruct_charfn(m, g)
    np.testing.assert_allclose(
        full_grid(cf), np.exp(2.0 * (np.exp(1j * g.points) - 1.0)), atol=1e-9
    )


def test_reconstruct_charfn_of_nothing_is_one():
    m = MuculantSeq(0, 0, np.zeros(1), "complex", 0.0)
    for n in (64, 4096):
        cf = reconstruct_charfn(m, FrequencyGrid(n))
        np.testing.assert_allclose(full_grid(cf), 1.0, atol=0)


def test_reconstruct_charfn_geometric_truncation_error():
    m = zoo_muculants(Geometric(0.5), (-60, 60))
    g = FrequencyGrid(256)
    exact = 0.5 / (1.0 - 0.5 * np.exp(1j * g.points))
    np.testing.assert_allclose(full_grid(reconstruct_charfn(m, g)), exact, atol=1e-12)


def test_reconstruct_charfn_rejects_power_kind():
    p = power_muculants(eval_charfn(validate_pmf(0, [0.6, 0.4]), FrequencyGrid(64)), 5)
    with pytest.raises(ValueError):
        reconstruct_charfn(p, FrequencyGrid(64))


def test_reconstruct_sequence_poisson_pmf():
    m = zoo_muculants(Poisson(2.0), (-30, 30))
    seq = reconstruct_sequence(m, (0, 40))
    truth = zoo_pmf(Poisson(2.0))
    for xi in range(0, 41):
        assert seq.value_at(xi) == pytest.approx(truth.probs[xi] if xi < len(truth) else 0.0, abs=1e-9)
    assert seq.sum == pytest.approx(1.0, abs=1e-9)


def test_reconstruct_sequence_of_nothing_is_delta():
    m = MuculantSeq(0, 0, np.zeros(1), "complex", 0.0)
    seq = reconstruct_sequence(m, (-2, 2))
    assert seq.value_at(0) == pytest.approx(1.0, abs=1e-12)
    assert abs(seq.value_at(1)) < 1e-12
    np.testing.assert_allclose(seq.values, [0.0, 0.0, 1.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_reconstruct_sequence_window_too_small():
    m = zoo_muculants(Poisson(2.0), (-30, 30))
    with pytest.raises(SupportTooSmall):
        reconstruct_sequence(m, (0, 3))


def test_reconstruct_sequence_rejects_power_kind():
    p = power_muculants(eval_charfn(validate_pmf(0, [0.6, 0.4]), FrequencyGrid(64)), 5)
    with pytest.raises(ValueError):
        reconstruct_sequence(p, (-2, 2))


def test_reconstruct_charfn_is_exactly_hermitian():
    rng = np.random.default_rng(9)
    m = MuculantSeq(-7, 12, 3.0 * rng.standard_normal(20), "complex", 0.0)
    v = full_grid(reconstruct_charfn(m, FrequencyGrid(128)))
    np.testing.assert_array_equal(v[1:64], np.conj(v[:64:-1]))
    assert v[0].imag == 0.0 and v[64].imag == 0.0


# c[0] = 0, c[1] = 10: Phi = exp(10 e^{j mu}), e^10 times the Poisson(10) charfn
LARGE = MuculantSeq(0, 1, np.array([0.0, 10.0]), "complex", 0.0)


def test_reconstruct_charfn_of_a_large_charfn():
    g = FrequencyGrid(256)
    np.testing.assert_allclose(
        full_grid(reconstruct_charfn(LARGE, g)), np.exp(10.0 * np.exp(1j * g.points)), rtol=1e-14, atol=0
    )


def test_reconstruct_sequence_of_a_large_charfn():
    seq = reconstruct_sequence(LARGE, (-10, 80))
    want = np.array([10.0**x / math.factorial(x) if x >= 0 else 0.0 for x in range(-10, 81)])
    assert np.max(np.abs(seq.values - want)) <= 1e-11 * want.max()


def test_reconstruct_accepts_a_charfn_whose_fft_rounding_beats_the_hermitian_slack():
    # |Phi| reaches e^13: the full-grid route's rounding breaks the 1e-10
    # Hermitian check, while the mirrored half spectrum is exact
    m = MuculantSeq(-1, 1, np.array([0.0, 3.0, 10.0]), "complex", 0.0)
    for n in (64, 4096):
        g = FrequencyGrid(n)
        with pytest.raises(ValueError, match="Hermitian"):
            reference_reconstruct_charfn(m, g)
        want = np.exp(3.0 + 10.0 * np.exp(1j * g.points))
        np.testing.assert_allclose(full_grid(reconstruct_charfn(m, g)), want, rtol=1e-14, atol=0)
    seq = reconstruct_sequence(m, (-10, 80))
    want = np.array([math.exp(3.0) * 10.0**x / math.factorial(x) if x >= 0 else 0.0 for x in range(-10, 81)])
    assert np.max(np.abs(seq.values - want)) <= 1e-11 * want.max()


def test_reconstruct_refuses_an_overflowing_charfn_before_any_inverse_transform(monkeypatch):
    def no_irfft(*args, **kw):
        raise AssertionError("irfft ran on a non-finite charfn")

    monkeypatch.setattr(np.fft, "irfft", no_irfft)
    m = MuculantSeq(-1, 1, np.array([0.0, 800.0, 0.0]), "complex", 0.0)
    with pytest.raises(ValueError, match="finite"):
        reconstruct_sequence(m, (-2, 2))
    with pytest.raises(ValueError, match="finite"):
        reconstruct_charfn(m, FrequencyGrid(64))


def test_reconstruct_sequence_far_mass_is_too_small_a_window():
    # e^400 * Poisson(400): the mass lies near x = 400, far outside -5..5
    m = MuculantSeq(0, 1, np.array([0.0, 400.0]), "complex", 0.0)
    with pytest.raises(ValueError, match="Hermitian"):
        reference_reconstruct_sequence(m, (-5, 5))
    with pytest.raises(SupportTooSmall):
        reconstruct_sequence(m, (-5, 5))


def test_reconstruct_sequence_sees_spill_within_one_window_width():
    # Poisson(2) and its mirror: all the mass lies within 30 of the origin,
    # so a 200-wide window 170..200 away from it sees nothing inside and
    # everything outside, on its left and on its right
    causal = MuculantSeq(0, 1, np.array([-2.0, 2.0]), "complex", 0.0)
    anticausal = MuculantSeq(-1, 0, np.array([2.0, -2.0]), "complex", 0.0)
    for seq, (lo, hi) in ((causal, (200, 399)), (anticausal, (-399, -200))):
        with pytest.raises(SupportTooSmall, match="^1.000e\\+00 of reconstructed magnitude"):
            reconstruct_sequence(seq, (lo, hi))
        # a period of one window (256 points) folds that mass into the window
        # and hides it
        folded = np.roll(np.fft.irfft(reconstruct_charfn(seq, FrequencyGrid(256)).half, 256), -lo)
        assert np.sum(np.abs(folded[200:])) < 1e-12
    for seq, (lo, hi) in ((causal, (0, 199)), (anticausal, (-199, 0))):
        assert reconstruct_sequence(seq, (lo, hi)).sum == pytest.approx(1.0, abs=1e-14)


def test_reconstruct_sequence_refuses_a_window_far_from_the_mass():
    # Poisson(2) and its mirror keep their mass within 30 of the origin; a
    # period sized from the window alone (512 points for 512..711) wrapped
    # that mass onto the window's first bins and returned it as the answer
    causal = MuculantSeq(0, 1, np.array([-2.0, 2.0]), "complex", 0.0)
    anticausal = MuculantSeq(-1, 0, np.array([2.0, -2.0]), "complex", 0.0)
    for width in (1, 31, 200):
        for lo in (*range(31, 1100, 7), 2047, 2048, 4096, 10**6):
            hi = lo + width - 1
            for seq, window in ((causal, (lo, hi)), (anticausal, (-hi, -lo))):
                with pytest.raises(SupportTooSmall, match="^1.000e\\+00 of reconstructed magnitude"):
                    reconstruct_sequence(seq, window)


def test_reconstruct_sequence_names_a_too_wide_window_before_building_it(monkeypatch):
    def no_spectrum(*args, **kw):
        raise AssertionError("the charfn was built for a refused window")

    monkeypatch.setattr(transform_module, "_half_charfn", no_spectrum)
    m = MuculantSeq(0, 1, np.array([-2.0, 2.0]), "complex", 0.0)
    # the range with the origin counts: 10**9..10**9+1 needs it as much as 0..10**9+1
    for lo, hi in ((0, 1 << 23), (-(10**9), 0), (10**9, 10**9 + 1), (-(1 << 23) - 1, -(1 << 23))):
        with pytest.raises(ValueError, match=f"^support {lo}:{hi} needs more than 16777216 grid points$"):
            reconstruct_sequence(m, (lo, hi))


def test_reconstruct_sequence_names_a_coefficient_range_past_the_grid_routes():
    # the grid for a window 0:5 would be sized for the coefficients alone;
    # the refusal names their range, not a width the caller never gave
    for n_min, n_max in ((0, (1 << 22) + 1), (-(1 << 22) - 1, 0)):
        m = MuculantSeq(n_min, n_max, np.zeros(n_max - n_min + 1), "complex", 0.0)
        with pytest.raises(
            ValueError, match=f"^coefficient range {n_min}..{n_max} reaches past \\+-4194304$"
        ):
            reconstruct_sequence(m, (0, 5))


# ------------------------------------- reconstruction against the full grid


def reference_reconstruct_charfn(seq, grid):
    """The full-grid route: synthesis over all N points, then exp.  Returns
    the N values, refused unless Hermitian within 1e-10 (``half_of``)."""
    if seq.kind != "complex":
        raise ValueError("reconstruction needs complex-kind coefficients")
    values = np.exp(grid_synthesis(seq.values, seq.n_min, grid))
    half_of(values)
    return values


def reference_window(seq, lo, hi):
    """The full-grid route's window values and discarded magnitude."""
    grid = FrequencyGrid.for_width(span_width(lo, hi), n_max=max(seq.n_max, -seq.n_min))
    values = reference_reconstruct_charfn(seq, grid)
    n = grid.n_points
    ns = np.arange(-(n // 2), n // 2)
    full = grid_analysis(values, ns).real
    inside = (ns >= lo) & (ns <= hi)
    discarded = float(np.sum(np.abs(full[~inside])))
    return full[inside], discarded


def reference_reconstruct_sequence(seq, support):
    """The full-grid route: analysis of the full-grid charfn."""
    lo, hi = int(support[0]), int(support[1])
    if lo > hi:
        raise ValueError("support range is empty")
    values, discarded = reference_window(seq, lo, hi)
    if discarded > 1e-6:
        raise SupportTooSmall(f"{discarded:.3e} of reconstructed magnitude falls outside [{lo}, {hi}]")
    return SignedSequence(lo, values)


SWEEP_LAWS = (
    Poisson(2.0),
    Poisson(0.5),
    Geometric(0.3),
    Geometric(0.6),
    Bernoulli(0.3),
    Bernoulli(0.7),
    Binomial(5, 0.2),
    NegativeBinomial(2, 0.3),
    Degenerate(3),
)
# windows that hold the origin, that lie right of it, and wholly negative ones
SWEEP_WINDOWS = ((-5, 40), (0, 30), (-3, 3), (-60, 12), (2, 30), (10, 60), (-40, -1), (-12, -2))


def sweep_sequences():
    """Two-sided, causal and anti-causal (mirrored) zoo coefficients."""
    for spec in SWEEP_LAWS:
        for n_max in (8, 20, 100):
            two_sided = zoo_muculants(spec, (-n_max, n_max))
            yield two_sided
            yield zoo_muculants(spec, (0, n_max))
            yield MuculantSeq(-n_max, n_max, two_sided.values[::-1], "complex", 0.0)


def test_reconstruct_charfn_matches_the_full_grid_route():
    for seq in sweep_sequences():
        for n in (64, 512, 4096):
            got = full_grid(reconstruct_charfn(seq, FrequencyGrid(n)))
            want = reference_reconstruct_charfn(seq, FrequencyGrid(n))
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, (seq.n_min, seq.n_max, n)


def test_reconstruct_sequence_matches_the_full_grid_route():
    outcomes = set()
    for seq in sweep_sequences():
        for lo, hi in SWEEP_WINDOWS:
            want, discarded = reference_window(seq, lo, hi)
            try:
                got = reconstruct_sequence(seq, (lo, hi))
            except SupportTooSmall:
                got = None
            if abs(discarded - 1e-6) > 1e-9:  # away from the budget's edge
                assert (got is None) == (discarded > 1e-6), (seq.n_min, seq.n_max, lo, hi, discarded)
            if got is not None:
                assert got.offset == lo and len(got) == hi - lo + 1
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got.values - want)) <= 1e-14 * scale, (seq.n_min, seq.n_max, lo, hi)
            outcomes.add(got is None)
    assert outcomes == {True, False}  # the sweep sees both decisions


def test_decompose_matches_the_full_grid_route(monkeypatch):
    # the laws the spectral benchmark decomposes, at its n_max = 100
    g = zoo_pmf(Geometric(0.2))
    laws = [
        validate_pmf(-(len(g) - 1), g.probs[::-1]),
        g,
        zoo_pmf(Poisson(2.0)),
        zoo_pmf(NegativeBinomial(2, 0.3)),
        zoo_pmf(Binomial(5, 0.2)),
        zoo_pmf(Geometric(0.01)),
    ]
    got = [decompose(f, 100) for f in laws]
    monkeypatch.setattr(decompose_module, "reconstruct_sequence", reference_reconstruct_sequence)
    for f, d in zip(laws, got):
        ref = decompose(f, 100)
        for name in ("minphase_seq", "allpass_seq"):
            a, b = getattr(d, name), getattr(ref, name)
            assert a.offset == b.offset and len(a) == len(b)
            assert np.max(np.abs(a.values - b.values)) <= 1e-15, (f.offset, len(f), name)
        assert d.minphase_is_pmf == ref.minphase_is_pmf
        assert d.allpass_is_pmf == ref.allpass_is_pmf


# ------------------------------------------------------------------ bridge


def test_poisson_cumulants_from_coefficients():
    m = zoo_muculants(Poisson(2.0), (-20, 20))
    kappa = cumulants_from_muculants(m, 3)
    np.testing.assert_allclose(kappa.values, [2.0, 2.0, 2.0], atol=1e-10)


def test_geometric_cumulants_from_coefficients():
    m = zoo_muculants(Geometric(0.5), (-60, 60))
    kappa = cumulants_from_muculants(m, 2)
    assert kappa.kappa(1) == pytest.approx(1.0, abs=1e-8)
    assert kappa.kappa(2) == pytest.approx(2.0, abs=1e-7)


def test_slow_tail_blocks_the_bridge():
    from muculants import Degenerate

    m = zoo_muculants(Degenerate(2), (-60, 60))
    with pytest.raises(TruncationUnsafe):
        cumulants_from_muculants(m, 3)


def test_bridge_refuses_an_order_whose_weights_overflow():
    # 60^173 is a double and 60^174 is not: orders below the overflow keep
    # their values
    m = zoo_muculants(Poisson(2.0), (-60, 60))
    assert cumulants_from_muculants(m, 20).values.tolist() == [2.0] * 20
    assert cumulants_from_muculants(m, 173).values.tolist() == [2.0] * 173
    for k_max in (174, 200, 10**4):
        with pytest.raises(ValueError, match=rf"^k_max {k_max} is too large: 60\^{k_max} overflows"):
            cumulants_from_muculants(m, k_max)
    # a noisy tail meets the tail guard before any overflow
    with pytest.raises(TruncationUnsafe):
        cumulants_from_muculants(zoo_muculants(Degenerate(2), (-60, 60)), 173)


def test_power_muculants_takes_one_irfft(monkeypatch):
    # ln |Phi|^2 on the stored half: one inverse transform, nothing else
    grid = FrequencyGrid(256)
    cf = eval_charfn(zoo_pmf(NegativeBinomial(2, 0.3)), grid)
    want = power_muculants(cf, 30)
    calls = []
    irfft = np.fft.irfft

    def spy(*args, **kw):
        calls.append(len(args[0]))
        return irfft(*args, **kw)

    def refuse(*args, **kw):
        raise AssertionError("a second transform ran")

    monkeypatch.setattr(np.fft, "irfft", spy)
    for name in ("fft", "ifft", "rfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    got = power_muculants(cf, 30)
    assert calls == [grid.zero_index + 1]
    assert got.values.tobytes() == want.values.tobytes() and got.imag_residual == 0.0


def test_bridge_rejects_power_kind():
    p = power_muculants(eval_charfn(validate_pmf(0, [0.6, 0.4]), FrequencyGrid(64)), 5)
    with pytest.raises(ValueError):
        cumulants_from_muculants(p, 2)
