import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from muculants import (
    PMF,
    Bernoulli,
    Binomial,
    CharFnSamples,
    CumulantVector,
    FrequencyGrid,
    Geometric,
    LogCharFnSamples,
    MuculantSeq,
    NegativeMass,
    NotCausal,
    NotNormalized,
    Poisson,
    SignedSequence,
    autocorrelation,
    complex_log,
    eval_charfn,
    convolve,
    is_minimum_phase,
    moments_to_cumulants,
    raw_moment,
    support_width,
    validate_pmf,
    zoo_pmf,
)

from support import CAUSAL_ZOO_SWEEP, random_pmf

pmf_module = importlib.import_module("muculants.pmf")


def test_validate_clamps_fp_noise():
    f = validate_pmf(0, [0.5, -1e-15, 0.5])
    assert f.probs[1] == 0.0
    assert f.total_mass == 1.0


def test_validate_rejects_real_negative_mass():
    with pytest.raises(NegativeMass):
        validate_pmf(0, [0.6, -1e-3, 0.4])


@pytest.mark.parametrize("values", [[0.4, 0.4], [0.6, 0.6]])
def test_validate_rejects_wrong_total(values):
    with pytest.raises(NotNormalized):
        validate_pmf(0, values)


def test_validate_rescales_fp_excess():
    f = validate_pmf(0, [0.5, 0.5 + 1e-9])
    assert f.total_mass <= 1.0
    assert abs(f.total_mass - 1.0) < 1e-12


def test_validate_trims_zeros_into_offset():
    f = validate_pmf(-3, [0.0, 0.0, 0.7, 0.3, 0.0])
    assert f.offset == -1
    assert len(f) == 2
    np.testing.assert_array_equal(f.support, [-1, 0])


def test_validate_records_truncation_deficit():
    f = validate_pmf(0, [0.7, 0.3 - 1e-8])
    assert f.tail_mass_bound == pytest.approx(1e-8, rel=1e-3)
    # round-tripping through the constructor keeps the deficit covered
    PMF(f.offset, f.probs, f.tail_mass_bound)


@given(
    offset=st.integers(-10, 10),
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9).filter(
        lambda w: sum(w) > 1e-3
    ),
)
def test_validate_canonical_form(offset, weights):
    v = np.array(weights) / sum(weights)
    f = validate_pmf(offset, v)
    assert f.probs[0] > 0.0 and f.probs[-1] > 0.0
    assert f.total_mass <= 1.0 + 1e-12
    assert 1.0 - f.total_mass <= f.tail_mass_bound + 1e-12
    assert f.support[0] >= offset


def test_pmf_requires_trimmed_vector():
    with pytest.raises(ValueError):
        PMF(0, np.array([0.0, 1.0]))


def test_pmf_offset_must_be_an_integer():
    # 0.5 was stored by the constructor and truncated to 0 by validate_pmf
    for offset in (0.5, True, "0"):
        for build in (lambda: PMF(offset, np.array([1.0])), lambda: validate_pmf(offset, [1.0])):
            with pytest.raises(ValueError, match=rf"^offset must be an integer, got {offset!r}$"):
                build()
    for build in (PMF, validate_pmf):
        f = build(np.int64(-2), np.array([0.25, 0.75]))
        assert type(f.offset) is int and f.offset == -2


def test_pmf_is_immutable():
    f = validate_pmf(0, [0.25, 0.75])
    with pytest.raises(ValueError):
        f.probs[0] = 0.5


def test_convolve_matches_direct_sum_distribution():
    rng = np.random.default_rng(7)
    f, g = random_pmf(rng), random_pmf(rng)
    h = convolve(f, g)
    assert h.offset == f.offset + g.offset
    np.testing.assert_allclose(h.probs, np.convolve(f.probs, g.probs), atol=0)
    assert h.total_mass == pytest.approx(f.total_mass * g.total_mass, abs=1e-12)


def test_convolve_accumulates_tail_bounds():
    f = validate_pmf(0, [0.7, 0.3 - 1e-8])
    h = convolve(f, f)
    assert h.tail_mass_bound == pytest.approx(2e-8, rel=1e-3)


def test_autocorrelation_is_even_about_zero():
    rng = np.random.default_rng(11)
    f = random_pmf(rng)
    a = autocorrelation(f)
    assert a.offset == -(len(f) - 1)
    np.testing.assert_array_equal(a.probs, a.probs[::-1])
    assert a.total_mass == pytest.approx(1.0, abs=1e-12)


def test_autocorrelation_is_difference_law():
    # X - X' for independent copies: mean 0, variance doubled
    f = validate_pmf(0, [0.2, 0.5, 0.3])
    a = autocorrelation(f)
    assert raw_moment(a, 1) == pytest.approx(0.0, abs=1e-15)
    var_f = raw_moment(f, 2) - raw_moment(f, 1) ** 2
    assert raw_moment(a, 2) == pytest.approx(2.0 * var_f, abs=1e-12)


def test_raw_moment_order_limits():
    f = validate_pmf(0, [0.5, 0.5])
    with pytest.raises(ValueError):
        raw_moment(f, 0)
    with pytest.raises(ValueError):
        raw_moment(f, 13)


def test_bernoulli_cumulants_closed_form():
    p = 0.3
    f = validate_pmf(0, [1 - p, p])
    kappa = moments_to_cumulants([raw_moment(f, k) for k in range(1, 5)])
    q = 1 - p
    np.testing.assert_allclose(
        kappa.values,
        [p, p * q, p * q * (1 - 2 * p), p * q * (1 - 6 * p * q)],
        atol=1e-14,
    )


def test_cumulants_add_under_convolution():
    rng = np.random.default_rng(23)
    f, g = random_pmf(rng), random_pmf(rng)
    h = convolve(f, g)
    k = lambda d: moments_to_cumulants([raw_moment(d, i) for i in range(1, 5)]).values
    np.testing.assert_allclose(k(h), k(f) + k(g), atol=1e-10)


def test_cumulant_vector_order_access():
    kappa = moments_to_cumulants([2.0, 6.0])
    assert kappa.kappa(1) == 2.0
    assert kappa.kappa(2) == 2.0  # 6 - 2^2
    with pytest.raises(ValueError):
        kappa.kappa(3)


@pytest.mark.parametrize(
    "probs,expected",
    [
        ([0.7, 0.3], True),  # root of the transfer polynomial inside the circle
        ([0.3, 0.7], False),  # reflected pair: root outside
        ([1.0], True),
        ([0.5, 0.5], False),  # flat: the root sits on the circle
        ([0.5, 0.5 - 2.5e-11], False),  # falls, but by less than the 1e-10 margin
        ([0.5, 0.5 - 1e-10], True),
    ],
)
def test_is_minimum_phase(probs, expected):
    assert is_minimum_phase(validate_pmf(0, probs)) is expected


def test_minimum_phase_geometric_tail():
    p = 0.2
    probs = p * (1 - p) ** np.arange(120)
    f = validate_pmf(0, probs / probs.sum())
    assert is_minimum_phase(f)


def all_zeros_inside(f) -> bool:
    """The predicate from a companion-matrix root finder: the reference."""
    return bool(np.all(np.abs(np.roots(f.probs)) < 1.0 - 1e-10))


def test_step_down_matches_root_finder_on_random_pmfs():
    # geometric tilts p[i] ~ u_i * t^i with t in [0.3, 1.3] give a mix of
    # both answers: about 40% of these 3,000 are minimum phase
    rng = np.random.default_rng(20261018)
    answers = []
    for _ in range(3000):
        length = int(rng.integers(2, 41))
        probs = rng.random(length) * rng.uniform(0.3, 1.3) ** np.arange(length)
        f = validate_pmf(0, probs / probs.sum())
        want = all_zeros_inside(f)
        assert is_minimum_phase(f) is want, f.probs
        answers.append(want)
    assert 0.25 < np.mean(answers) < 0.75


def test_step_down_matches_root_finder_on_zoo_laws_above_the_floor():
    checked = 0
    for spec in CAUSAL_ZOO_SWEEP:
        f = zoo_pmf(spec)
        grid = FrequencyGrid.for_width(support_width(f))
        if np.abs(eval_charfn(f, grid).half).min() < 1e-8:
            continue
        assert is_minimum_phase(f) is all_zeros_inside(f), spec
        checked += 1
    assert checked > 200


def test_step_down_on_a_long_support():
    f = zoo_pmf(Geometric(0.01))
    assert len(f) == 2750
    assert is_minimum_phase(f)


def falls_at_every_step(f) -> bool:
    """The certificate, restated: every ratio f[i+1]/f[i] below 1 - 1e-10."""
    return all(b < (1.0 - 1e-10) * a for a, b in zip(f.probs[:-1], f.probs[1:]))


def test_step_down_on_a_long_support_the_certificate_cannot_decide(monkeypatch):
    # Bernoulli(0.4) puts 0.6 then 0.4 ahead of the slow Geometric tail, so
    # the first ratio is above 1; the zeros sit at radius 0.99 and at -2/3
    f = convolve(zoo_pmf(Geometric(0.01)), zoo_pmf(Bernoulli(0.4)))
    assert len(f) == 2751 and f.probs[1] > f.probs[0]
    calls = []
    step_down = pmf_module._step_down
    monkeypatch.setattr(pmf_module, "_step_down", lambda p: calls.append(len(p)) or step_down(p))
    assert is_minimum_phase(f)
    assert calls == [2751]


def test_the_certificate_decides_falling_laws_and_the_step_down_the_rest(monkeypatch):
    def no_step_down(probs):
        raise AssertionError("the step-down ran")

    monkeypatch.setattr(pmf_module, "_step_down", no_step_down)
    for probs in ([1.0], [0.7, 0.3], [0.5, 0.3, 0.2]):
        assert is_minimum_phase(validate_pmf(0, probs))
    for spec in (Geometric(0.2), Geometric(0.01), Bernoulli(0.3), Binomial(5, 0.1)):
        assert is_minimum_phase(zoo_pmf(spec))
    # Poisson(2) rises from 0.135 to 0.271; an interior zero fails too
    for f in (zoo_pmf(Poisson(2)), validate_pmf(0, [0.6, 0.0, 0.4])):
        with pytest.raises(AssertionError, match="the step-down ran"):
            is_minimum_phase(f)


def test_the_certificate_implies_a_true_step_down():
    # Enestrom-Kakeya bounds every zero by the largest ratio f[i+1]/f[i]:
    # wherever the certificate holds, the step-down must agree
    decided = 0
    for spec in CAUSAL_ZOO_SWEEP:
        f = zoo_pmf(spec)
        if falls_at_every_step(f):
            assert pmf_module._step_down(f.probs), spec
            decided += 1
    assert decided == 87
    # strictly decreasing PMFs of 2..299 terms: sorted uniforms, many of
    # whose ratios run close to 1, and products of ratios drawn from (r, 1)
    rng = np.random.default_rng(20261022)
    decided = 0
    for i in range(3000):
        length = int(rng.integers(2, 300))
        if i % 2:
            probs = np.sort(rng.random(length))[::-1]
        else:
            probs = np.cumprod(rng.uniform(rng.uniform(0.0, 0.99), 1.0, length))
        f = validate_pmf(0, probs / probs.sum())
        if falls_at_every_step(f):
            assert pmf_module._step_down(f.probs), f.probs
            decided += 1
    assert decided == 3000


def test_multiple_zero_below_the_floor_can_flip_the_predicate():
    # a 30-fold zero at -0.54: rounding splits it, the step-down calls the
    # law not minimum phase where the root finder does not; |Phi(pi)| is
    # about 2e-16, far below the floor, so no route computes its coefficients
    f = zoo_pmf(Binomial(30, 0.35))
    assert abs(float(np.sum(f.probs * (-1.0) ** np.arange(len(f))))) < 1e-15
    assert not is_minimum_phase(f)
    assert all_zeros_inside(f)


def test_minimum_phase_requires_causal():
    with pytest.raises(NotCausal):
        is_minimum_phase(validate_pmf(-1, [0.5, 0.5]))


def test_signed_sequence_window_lookup():
    s = SignedSequence(-1, np.array([0.5, -0.2, 0.7]))
    assert s.sum == pytest.approx(1.0)
    assert s.value_at(-1) == 0.5
    assert s.value_at(5) == 0.0
    np.testing.assert_array_equal(s.support, [-1, 0, 1])


# ---------------------------------------------------------- array contract

_GRID = FrequencyGrid(64)
_CF = eval_charfn(validate_pmf(0, [0.3, 0.7]), _GRID)
_LOG = complex_log(_CF)

# field -> (build from the field's array, a valid array, whether its length is fixed)
ARRAY_FIELDS = {
    "PMF.probs": (lambda a: PMF(0, a), [0.3, 0.7], False),
    "SignedSequence.values": (lambda a: SignedSequence(-1, a), [0.5, -0.25, 2.0], False),
    "CumulantVector.values": (lambda a: CumulantVector(a), [1.0, 2.0, -3.0], False),
    "MuculantSeq.values": (
        lambda a: MuculantSeq(-1, 1, a, "complex", 0.0), [0.1, -0.5, 0.2], True
    ),
    "CharFnSamples.half": (
        lambda a: CharFnSamples(_GRID, a, "exact-from-pmf"), _CF.half, True
    ),
    # The half log stores log|Phi| as its real part and the phase as its
    # imaginary part; each id checks the one field with a NaN in its part.
    "LogCharFnSamples.log_magnitude": (
        lambda a: LogCharFnSamples(_GRID, a, _LOG.min_abs), _LOG.half, True
    ),
    "LogCharFnSamples.phase": (
        lambda a: LogCharFnSamples(_GRID, a, _LOG.min_abs), _LOG.half, True
    ),
}
# id -> (the field that stores that part, the entry that spoils it)
HALF_LOG_PARTS = {
    "LogCharFnSamples.log_magnitude": ("half", np.nan),
    "LogCharFnSamples.phase": ("half", complex(0.0, np.nan)),
}


@pytest.mark.parametrize("name", ARRAY_FIELDS)
def test_array_fields_are_frozen_checked_copies(name):
    build, valid, fixed_length = ARRAY_FIELDS[name]
    field, spoil = HALF_LOG_PARTS.get(name, (name.split(".")[1], np.nan))
    caller = np.array(valid)
    stored = getattr(build(caller), field)
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[0] = 0.5
    caller[0] = 9.0
    assert stored[0] == valid[0]
    np.testing.assert_array_equal(stored, valid)

    bad = np.array(valid)
    bad[1] = spoil
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        build(bad)
    misshapen = [np.stack([valid, valid]), np.array(valid)[:0]]
    if fixed_length:
        misshapen += [np.array(valid)[:-1], np.append(valid, valid[0])]
    for a in misshapen:
        with pytest.raises(ValueError, match=f"^{field} must "):
            build(a)
