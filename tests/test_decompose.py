import numpy as np
import pytest

from muculants import (
    Bernoulli,
    Binomial,
    CharFnVanishes,
    Degenerate,
    FrequencyGrid,
    Geometric,
    GridTooCoarse,
    MuculantSeq,
    NegativeBinomial,
    Poisson,
    PreconditionViolated,
    SupportTooSmall,
    allpass_sum,
    complex_log,
    complex_muculants,
    decompose,
    eval_charfn,
    minphase_from_power,
    power_muculants,
    reconstruct_sequence,
    recursive_minphase_muculants,
    support_width,
    validate_pmf,
    zoo_muculants,
    zoo_pmf,
)
from muculants.charfn import (
    grid_analysis,
    grid_synthesis,
    require_modulus,
    require_resolution,
    unwrap_phase,
)


def mirrored(f):
    """Reflect a causal PMF onto the nonpositive integers."""
    return validate_pmf(-(f.offset + len(f) - 1), f.probs[::-1])


def test_minimum_phase_input_passes_through():
    g = zoo_pmf(Geometric(0.5))
    d = decompose(g, 60)
    assert d.minphase_is_pmf and d.allpass_is_pmf
    # allpass factor collapses to a unit mass at zero
    assert d.allpass_seq.value_at(0) == pytest.approx(1.0, abs=1e-10)
    assert allpass_sum(d) == pytest.approx(1.0, abs=1e-10)
    for xi in range(0, 30):
        assert d.minphase_seq.value_at(xi) == pytest.approx(g.probs[xi], abs=1e-9)


def test_mirrored_geometric_splits_cleanly():
    g = zoo_pmf(Geometric(0.5))
    d = decompose(mirrored(g), 60)
    assert d.minphase_is_pmf and not d.allpass_is_pmf
    # modulus fixes the causal factor: the right-sided geometric
    for xi in range(0, 30):
        assert d.minphase_seq.value_at(xi) == pytest.approx(0.5**(xi + 1), abs=1e-9)
    assert d.allpass_seq.value_at(1) == pytest.approx(-0.5, abs=1e-9)
    assert allpass_sum(d) == pytest.approx(1.0, abs=1e-8)


def test_factors_convolve_back_to_input():
    f = mirrored(zoo_pmf(Geometric(0.5)))
    d = decompose(f, 60)
    conv = np.convolve(d.minphase_seq.values, d.allpass_seq.values)
    offset = d.minphase_seq.offset + d.allpass_seq.offset
    want = np.zeros_like(conv)
    for idx in range(len(conv)):
        j = offset + idx - f.offset
        if 0 <= j < len(f.probs):
            want[idx] = f.probs[j]
    np.testing.assert_allclose(conv, want, atol=1e-9)


def test_truncation_starved_factor_loses_pmf_flag():
    # at this cutoff the geometric(0.2) coefficient tail still holds ~1e-7
    # of log-mass, so the rebuilt factor misses total mass 1 by more than
    # the flag's 1e-8 gate; the sum guard then refuses to certify it
    d = decompose(zoo_pmf(Geometric(0.2)), 60)
    assert not d.minphase_is_pmf
    with pytest.raises(PreconditionViolated):
        allpass_sum(d)
    # with enough coefficients the same input certifies fine
    d = decompose(zoo_pmf(Geometric(0.2)), 100)
    assert d.minphase_is_pmf
    assert allpass_sum(d) == pytest.approx(1.0, abs=1e-8)


def test_winding_allpass_does_not_reconstruct():
    # net winding puts a pure delay in the allpass factor; its coefficients
    # decay like 1/n, so no finite window captures the rebuilt sequence
    with pytest.raises(SupportTooSmall):
        decompose(zoo_pmf(Bernoulli(0.7)), 60)


def test_grid_override_matches_default():
    f = mirrored(zoo_pmf(Geometric(0.5)))
    a = decompose(f, 40)
    b = decompose(f, 40, grid=FrequencyGrid(1024))
    np.testing.assert_allclose(
        a.minphase_muculants.values, b.minphase_muculants.values, atol=1e-10
    )
    np.testing.assert_allclose(
        a.allpass_seq.values, b.allpass_seq.values, atol=1e-9
    )


def test_minphase_from_power_recovers_causal_coefficients():
    f = zoo_pmf(Geometric(0.4))
    p = power_muculants(eval_charfn(f, FrequencyGrid(4096)), 40)
    halved = minphase_from_power(p)
    direct = recursive_minphase_muculants(f, 40)
    assert halved.kind == "complex"
    for n in range(0, 41):
        assert halved.value_at(n) == pytest.approx(direct.value_at(n), abs=1e-9)
    for n in range(1, 41):
        assert halved.value_at(-n) == 0.0


def test_minphase_from_power_requires_power_kind():
    c = MuculantSeq(-2, 2, np.zeros(5), "complex", 0.0)
    with pytest.raises(ValueError):
        minphase_from_power(c)


def test_pure_shift_has_trivial_modulus_factor():
    f = validate_pmf(5, [1.0])
    p = power_muculants(eval_charfn(f, FrequencyGrid(64)), 10)
    np.testing.assert_allclose(minphase_from_power(p).values, 0.0, atol=1e-13)


# ------------------------------------------------- against the full grid


def reference_decompose(f, n_max, grid=None):
    """The full-grid route decompose took before the half-spectrum kernel,
    built from the references ``charfn`` keeps: ``grid_synthesis`` on all N
    points, the phase unwrapped by ``unwrap_phase`` from mu = 0 to pi and
    extended by odd symmetry (the jump midpoint 0 at -pi), and
    ``grid_analysis`` of the log and of 2 log |Phi| (two N-point FFTs), then
    the same split and reconstruction loop.  Refuses what decompose refuses.
    Returns the minimum-phase and allpass coefficients and sequences."""
    if grid is None:
        grid = FrequencyGrid.for_width(support_width(f), 4096, n_max)
    require_resolution(f.offset, f.offset + len(f) - 1, grid)
    n = grid.n_points
    values = grid_synthesis(f.probs, f.offset, grid)  # mu = -pi, ..., pi - 2pi/N
    mods, _ = require_modulus(values)
    ph = unwrap_phase(np.angle(np.concatenate([values[n // 2 :], values[:1]])))  # mu = 0..pi
    phase = np.empty(n)
    phase[n // 2 :] = ph[:-1] - ph[0]
    phase[1 : n // 2] = -phase[n // 2 + 1 :][::-1]
    phase[0] = 0.0
    ns = np.arange(-n_max, n_max + 1)
    total = grid_analysis(np.log(mods) + 1j * phase, ns).real
    power = grid_analysis(2.0 * np.log(mods), ns).real
    power = MuculantSeq(-n_max, n_max, 0.5 * (power + power[::-1]), "power", 0.0)
    minphase = minphase_from_power(power)
    allpass = MuculantSeq(-n_max, n_max, total - minphase.values, "complex", 0.0)
    half = 2 * support_width(f)
    for attempt in range(4):
        try:
            seqs = [reconstruct_sequence(s, (-half, half)) for s in (minphase, allpass)]
            return minphase, allpass, seqs
        except SupportTooSmall:
            if attempt == 3:
                raise
            half *= 2


ZOO_SWEEP = (
    Poisson(0.5),
    Poisson(2.0),
    Poisson(4.0),
    Geometric(0.2),
    Geometric(0.5),
    Geometric(0.01),
    NegativeBinomial(2, 0.3),
    NegativeBinomial(5, 0.6),
    Binomial(5, 0.2),
    Binomial(5, 0.8),
    Bernoulli(0.3),
    Bernoulli(0.7),
    Degenerate(3),
)


def sweep_laws(specs):
    """Each law as it is, mirrored (anti-causal), and shifted both ways
    (a linear phase: the charfn winds around the origin)."""
    for spec in specs:
        f = zoo_pmf(spec)
        yield repr(spec), f
        yield f"mirrored {spec!r}", mirrored(f)
        for k in (4, -3):
            yield f"{spec!r} + {k}", validate_pmf(f.offset + k, f.probs)


def outcome(route, *args, **kw):
    try:
        return route(*args, **kw)
    except (SupportTooSmall, CharFnVanishes, GridTooCoarse) as exc:
        return type(exc)


def test_decompose_matches_the_full_grid_reference_over_the_zoo():
    """Coefficients within 1e-14 of the full-grid route (relative to the
    largest coefficient where that exceeds one), rebuilt sequences within
    1e-12, and the same refusals."""
    seen = set()
    for name, f in sweep_laws(ZOO_SWEEP):
        for n_max in (20, 100):
            for grid in (None, FrequencyGrid(1024)):
                got = outcome(decompose, f, n_max, grid=grid)
                want = outcome(reference_decompose, f, n_max, grid)
                if isinstance(want, type):
                    assert got is want, (name, n_max, grid)
                    seen.add(want.__name__)
                    continue
                minphase, allpass, seqs = want
                case = (name, n_max, grid)
                for a, b in ((got.minphase_muculants, minphase), (got.allpass_muculants, allpass)):
                    scale = max(1.0, float(np.max(np.abs(b.values))))
                    assert np.max(np.abs(a.values - b.values)) <= 1e-14 * scale, case
                    assert a.imag_residual == 0.0
                for a, b in zip((got.minphase_seq, got.allpass_seq), seqs):
                    assert a.offset == b.offset and len(a) == len(b), case
                    assert np.max(np.abs(a.values - b.values)) <= 1e-12, case
                seen.add("returned")
    assert seen == {"returned", "SupportTooSmall", "GridTooCoarse"}


@pytest.mark.parametrize("n_max", [20, 100])
def test_decompose_near_the_floor_is_closer_to_the_closed_form_than_the_full_grid(n_max):
    # |Phi| of Binomial(10, 0.4) reaches 0.2^10 = 1e-7 at pi: the full-grid
    # route carries an imaginary residue near 1e-11 there and moves by that
    # much; the half spectrum lands nearer the closed form
    spec = Binomial(10, 0.4)
    want = zoo_muculants(spec, (-n_max, n_max)).values
    for grid in (None, FrequencyGrid(1024)):
        d = decompose(zoo_pmf(spec), n_max, grid=grid)
        minphase, allpass, _ = reference_decompose(zoo_pmf(spec), n_max, grid)
        got = d.minphase_muculants.values + d.allpass_muculants.values
        gap = np.max(np.abs(got - want))
        assert gap < 1e-11
        assert gap <= np.max(np.abs(minphase.values + allpass.values - want))


def test_decompose_splits_one_kernel_call():
    # ln |Phi|^2 = log Phi + conj log Phi: the power sequence is c[n] + c[-n]
    # of the one staged complex route
    f = mirrored(zoo_pmf(NegativeBinomial(2, 0.3)))
    grid = FrequencyGrid.for_width(support_width(f), 4096, 40)
    c = complex_muculants(complex_log(eval_charfn(f, grid)), 40).values
    d = decompose(f, 40)
    minphase = d.minphase_muculants.values
    np.testing.assert_array_equal(minphase[41:], c[41:] + c[39::-1])
    assert minphase[40] == c[40] and not minphase[:40].any()
    np.testing.assert_array_equal(d.allpass_muculants.values, c - minphase)


def test_decompose_refusals():
    with pytest.raises(CharFnVanishes, match="below the 1e-08 floor"):
        decompose(validate_pmf(0, [0.5, 0.5]), 20)
    f = zoo_pmf(Geometric(0.01))  # 2750 probabilities need 11,004 points
    with pytest.raises(GridTooCoarse):
        decompose(f, 20, grid=FrequencyGrid(8192))
    g = zoo_pmf(Geometric(0.5))
    for n_max in (0, 257):
        with pytest.raises(ValueError, match="n_max must be in 1..256 for this grid"):
            decompose(g, n_max, grid=FrequencyGrid(1024))
    for n_max in (2.5, True):
        with pytest.raises(ValueError, match=rf"^n_max must be an integer, got {n_max!r}$"):
            decompose(g, n_max)


def test_decompose_refuses_in_order_resolution_then_n_max_then_floor():
    # inputs that fail two checks name the earlier one
    with pytest.raises(GridTooCoarse):
        decompose(zoo_pmf(Geometric(0.01)), 0, grid=FrequencyGrid(8192))
    with pytest.raises(ValueError, match="n_max must be in 1..16 for this grid"):
        decompose(validate_pmf(0, [0.5, 0.5]), 17, grid=FrequencyGrid(64))
