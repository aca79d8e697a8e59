import math
import tracemalloc

import numpy as np
import pytest

from muculants import (
    Bernoulli,
    Binomial,
    Degenerate,
    FrequencyGrid,
    Geometric,
    NegativeBinomial,
    Poisson,
    eval_charfn,
    moments_to_cumulants,
    parse_spec,
    raw_moment,
    spec_string,
    zoo_charfn,
    zoo_cumulants,
    zoo_muculants,
    zoo_pmf,
)
from muculants.zoo import MAX_TERMS

from support import full_grid

ALL_SPECS = [
    Poisson(2.0),
    Geometric(0.2),
    Bernoulli(0.2),
    Bernoulli(0.7),
    Binomial(5, 0.2),
    Binomial(4, 0.8),
    NegativeBinomial(2, 0.3),
    Degenerate(3),
    Degenerate(-2),
]


# ------------------------------------------------------------------- specs


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Poisson(0.0),
        lambda: Poisson(-1.0),
        lambda: Poisson(1e6),
        lambda: Degenerate(2.5),
        lambda: Bernoulli(0.5),
        lambda: Bernoulli(1.0),
        lambda: Binomial(3, 0.5),
        lambda: Binomial(0, 0.2),
        lambda: NegativeBinomial(0, 0.3),
        lambda: Geometric(0.0),
    ],
)
def test_parameter_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_geometric_family_allows_half():
    # |phi| is bounded below for every p here, nothing to exclude
    zoo_pmf(Geometric(0.5))
    zoo_pmf(NegativeBinomial(3, 0.5))


@pytest.mark.parametrize("spec", ALL_SPECS + [Poisson(0.1234567), Geometric(0.123456789)])
def test_spec_string_round_trip(spec):
    assert parse_spec(spec_string(spec)) == spec


def test_spec_strings_are_pinned():
    got = [spec_string(s) for s in ALL_SPECS + [Poisson(0.1234567), Poisson(1e-5)]]
    assert got == [
        "poisson:lambda=2",
        "geometric:p=0.2",
        "bernoulli:p=0.2",
        "bernoulli:p=0.7",
        "binomial:n=5,p=0.2",
        "binomial:n=4,p=0.8",
        "negbinomial:r=2,p=0.3",
        "degenerate:m=3",
        "degenerate:m=-2",
        "poisson:lambda=0.1234567",
        "poisson:lambda=1e-05",
    ]


@pytest.mark.parametrize(
    "text",
    [
        "zeta:s=2",
        "poisson",
        "poisson:lambda=abc",
        "binomial:n=5",
        "binomial:n=5,p=0.2,x=1",
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_spec(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("poisson:lambda=2,lambda=5", "parameter 'lambda' given twice"),
        ("binomial:n=5,p=0.2,n=7", "parameter 'n' given twice"),
        ("Binomial:N=5,p=0.2,n=5", "parameter 'n' given twice"),  # the same key in any case
        ("poisson:lambda=abc", "parameter 'lambda' has non-numeric value 'abc'"),
        ("binomial:n=5.0,p=0.2", "parameter 'n' has non-numeric value '5.0'"),
        ("negbinomial:r=2,p=", "parameter 'p' has non-numeric value ''"),
    ],
)
def test_parse_names_the_parameter_it_refuses(text, message):
    with pytest.raises(ValueError) as exc:
        parse_spec(text)
    assert str(exc.value) == message


def test_parse_converts_each_parameter_by_its_schema():
    spec = parse_spec("negbinomial:r=3,p=0.5")
    assert spec == NegativeBinomial(3, 0.5) and type(spec.r) is int
    lam = parse_spec("poisson:lambda=2").lam
    assert lam == 2.0 and type(lam) is float


def test_parse_accepts_spacing_and_case():
    assert parse_spec(" Binomial : N=5 , P=0.2 ") == Binomial(5, 0.2)


# -------------------------------------------------------------------- pmfs


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_pmf_mass_accounting(spec):
    # fp slop of 1e-10 on both invariants matches what the type tolerates
    f = zoo_pmf(spec)
    assert f.total_mass <= 1.0 + 1e-10
    assert 1.0 - f.total_mass <= f.tail_mass_bound + 1e-10
    assert f.tail_mass_bound <= 1e-11


def test_poisson_pmf_entries():
    f = zoo_pmf(Poisson(2.0))
    assert f.offset == 0
    for k in (0, 1, 5):
        assert f.probs[k] == pytest.approx(math.exp(-2) * 2**k / math.factorial(k), rel=1e-14)


def test_binomial_pmf_entries():
    f = zoo_pmf(Binomial(5, 0.2))
    assert len(f) == 6
    for k in range(6):
        assert f.probs[k] == pytest.approx(math.comb(5, k) * 0.2**k * 0.8 ** (5 - k), rel=1e-13)
    assert f.tail_mass_bound == 0.0


def test_geometric_pmf_entries():
    f = zoo_pmf(Geometric(0.25))
    np.testing.assert_allclose(f.probs, 0.25 * 0.75 ** np.arange(len(f)), rtol=1e-14)


def test_geometric_pmf_is_the_closed_form_bit_for_bit():
    f = zoo_pmf(Geometric(0.01))
    assert len(f) == 2750
    assert f.probs.tobytes() == (0.01 * 0.99 ** np.arange(2750)).tobytes()
    assert f.tail_mass_bound == 0.99**2750


def peak_bytes(call):
    """Peak traced allocation of ``call()`` and what it raised (None when
    it returned)."""
    tracemalloc.start()
    try:
        call()
        raised = None
    except Exception as exc:  # noqa: BLE001 - the caller checks it
        raised = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, raised


@pytest.mark.parametrize("text", ["geometric:p=1e-9", "negbinomial:r=1,p=0.999999999"])
def test_infinite_supports_share_one_term_cap(text):
    # one law, two spellings: each needs about 2.8e10 terms; the geometric
    # used to allocate 206 GiB, the negative binomial to list 200,000
    # terms before it gave up
    peak, raised = peak_bytes(lambda: zoo_pmf(parse_spec(text)))
    assert isinstance(raised, ValueError)
    assert str(raised) == "truncation did not converge; parameters too extreme"
    assert peak < 1 << 20


def test_the_term_cap_sits_at_max_terms():
    assert MAX_TERMS == 200_000
    assert len(zoo_pmf(Geometric(1.4e-4))) <= MAX_TERMS
    for p in (1.38e-4, 1e-17):  # 1 - 1e-17 rounds to one
        with pytest.raises(ValueError, match="parameters too extreme"):
            zoo_pmf(Geometric(p))
    assert len(zoo_pmf(NegativeBinomial(1, 1.0 - 1.4e-4))) <= MAX_TERMS
    with pytest.raises(ValueError, match="parameters too extreme"):
        zoo_pmf(NegativeBinomial(1, 1.0 - 1.38e-4))


@pytest.mark.parametrize("n, p", [(1030, 0.4999), (2000, 0.4), (1000, 0.3), (10**7, 0.2)])
def test_a_binomial_beyond_doubles_is_refused_by_name(n, p):
    # C(n, i) outgrows a double (an OverflowError once) or an end
    # probability p^n or (1 - p)^n underflows to 0 (an untrimmed PMF once);
    # n = 10^7 is refused before anything n long is built
    peak, raised = peak_bytes(lambda: zoo_pmf(Binomial(n, p)))
    assert isinstance(raised, ValueError)
    assert str(raised) == f"binomial:n={n},p={p} is too extreme: its PMF does not fit in doubles"
    assert peak < 1 << 20


def test_the_largest_binomials_still_build_as_products():
    for n, p in ((1020, 0.4999), (600, 0.3), (64, 1e-5)):
        f = zoo_pmf(Binomial(n, p))
        want = [math.comb(n, int(i)) * p**i * (1.0 - p) ** (n - i) for i in np.arange(n + 1)]
        assert f.probs.tolist() == want
        assert f.probs[0] > 0.0 and f.probs[-1] > 0.0


def reference_truncated_probs(first, ratio):
    """``zoo._truncated_probs`` as it was: one list, each term appended."""
    out, total, k = [first], first, 0
    while total < 1.0 - 1e-12:
        out.append(out[-1] * ratio(k))
        total += out[-1]
        k += 1
    return np.array(out), max(0.0, 1.0 - total)


def test_truncated_families_are_the_term_loop_bit_for_bit():
    laws = [(Poisson(k / 4), lambda k, lam=k / 4: lam / (k + 1)) for k in range(1, 2800, 37)]
    laws += [
        (NegativeBinomial(r, k / 50), lambda k, r=r, p=k / 50: p * (k + r) / (k + 1))
        for r in (1, 2, 5, 20)
        for k in range(1, 50, 4)
    ]
    for spec, ratio in laws:
        first = math.exp(-spec.lam) if isinstance(spec, Poisson) else (1.0 - spec.p) ** spec.r
        probs, deficit = reference_truncated_probs(first, ratio)
        f = zoo_pmf(spec)
        assert f.probs.tobytes() == probs.tobytes(), spec
        assert f.tail_mass_bound == deficit, spec


def test_negative_binomial_pmf_entries():
    f = zoo_pmf(NegativeBinomial(2, 0.3))
    for k in (0, 1, 4):
        assert f.probs[k] == pytest.approx(math.comb(k + 1, k) * 0.7**2 * 0.3**k, rel=1e-13)


def test_degenerate_pmf_is_point_mass():
    f = zoo_pmf(Degenerate(-2))
    assert f.offset == -2 and len(f) == 1 and f.probs[0] == 1.0


# ---------------------------------------------------------------- charfns


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_closed_form_charfn_matches_pmf_transform(spec):
    g = FrequencyGrid(4096)
    closed = zoo_charfn(spec, g)
    sampled = eval_charfn(zoo_pmf(spec), g)
    np.testing.assert_allclose(full_grid(closed), full_grid(sampled), atol=2e-12)


def closed_form_charfn(spec, mu):
    """Phi(mu) of the family, pointwise at every given mu."""
    z = np.exp(1j * mu)
    if isinstance(spec, Poisson):
        return np.exp(spec.lam * (z - 1.0))
    if isinstance(spec, Degenerate):
        return np.exp(1j * mu * spec.m)
    if isinstance(spec, Bernoulli):
        return 1.0 - spec.p + spec.p * z
    if isinstance(spec, Geometric):
        return spec.p / (1.0 - (1.0 - spec.p) * z)
    if isinstance(spec, NegativeBinomial):
        return ((1.0 - spec.p) / (1.0 - spec.p * z)) ** spec.r
    return (1.0 - spec.p + spec.p * z) ** spec.n


@pytest.mark.parametrize("spec", ALL_SPECS + [Degenerate(-7)])
def test_closed_form_charfn_holds_on_every_grid_point(spec):
    # the half is evaluated at mu = 0..-pi; its conjugates stand for mu > 0
    for n in (64, 4096):
        g = FrequencyGrid(n)
        got = full_grid(zoo_charfn(spec, g))
        assert np.max(np.abs(got - closed_form_charfn(spec, g.points))) <= 1e-14, n


# -------------------------------------------------------------- coefficients


def test_poisson_coefficient_support():
    m = zoo_muculants(Poisson(3.5), (-10, 10))
    assert m.value_at(0) == -3.5
    assert m.value_at(1) == 3.5
    assert all(m.value_at(n) == 0.0 for n in range(-10, 11) if n not in (0, 1))


def test_geometric_coefficients_closed_form():
    m = zoo_muculants(Geometric(0.2), (-5, 5))
    assert m.value_at(0) == pytest.approx(math.log(0.2), rel=1e-15)
    for n in range(1, 6):
        assert m.value_at(n) == pytest.approx(0.8**n / n, rel=1e-15)
        assert m.value_at(-n) == 0.0


def test_bernoulli_below_half_is_causal():
    m = zoo_muculants(Bernoulli(0.2), (-5, 5))
    assert m.value_at(0) == pytest.approx(math.log(0.8), rel=1e-15)
    for n in range(1, 6):
        assert m.value_at(n) == pytest.approx((-1) ** (n + 1) * 0.25**n / n, rel=1e-14)
        assert m.value_at(-n) == 0.0


def test_bernoulli_above_half_winds():
    # reflected parameter: the phase picks up a full turn, coefficients
    # spill onto the negative side
    m = zoo_muculants(Bernoulli(0.7), (-5, 5))
    assert any(m.value_at(-n) != 0.0 for n in range(1, 6))


def test_degenerate_coefficients_alternate():
    m = zoo_muculants(Degenerate(3), (-6, 6))
    assert m.value_at(0) == 0.0
    for n in range(1, 7):
        assert m.value_at(n) == pytest.approx(3 * (-1) ** (n + 1) / n, rel=1e-15)
        assert m.value_at(-n) == pytest.approx(-m.value_at(n), rel=1e-15)


def test_binomial_is_scaled_bernoulli():
    a = zoo_muculants(Binomial(5, 0.2), (-8, 8))
    b = zoo_muculants(Bernoulli(0.2), (-8, 8))
    np.testing.assert_allclose(a.values, 5 * b.values, rtol=1e-14)


def test_negative_binomial_is_scaled_geometric():
    a = zoo_muculants(NegativeBinomial(2, 0.3), (-8, 8))
    b = zoo_muculants(Geometric(0.7), (-8, 8))
    np.testing.assert_allclose(a.values, 2 * b.values, rtol=1e-14)


def test_asymmetric_range_is_honored():
    m = zoo_muculants(Geometric(0.4), (-2, 9))
    assert m.n_min == -2 and m.n_max == 9


def test_range_must_contain_zero():
    with pytest.raises(ValueError):
        zoo_muculants(Poisson(1.0), (1, 5))


@pytest.mark.parametrize("n_range", [(0, 4_194_305), (-4_194_305, 0), (-(10**8), 10**8)])
def test_range_past_the_largest_grid_index_is_refused_before_allocating(n_range):
    # MAX_GRID_POINTS / 4 = 4,194,304 is the largest n_max any grid route takes
    peak, raised = peak_bytes(lambda: zoo_muculants(Poisson(2.0), n_range))
    assert isinstance(raised, ValueError)
    assert str(raised) == f"index range {n_range[0]}..{n_range[1]} reaches past +-4194304"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "spec",
    [Poisson(1.5), Geometric(0.3), Bernoulli(0.2), Bernoulli(0.7), Binomial(5, 0.2), NegativeBinomial(2, 0.4)],
)
def test_finite_mean_coefficients_sum_to_zero(spec):
    m = zoo_muculants(spec, (-200, 200))
    assert abs(m.values.sum()) < 1e-6


@pytest.mark.parametrize(
    "spec",
    [Poisson(1.5), Geometric(0.3), Bernoulli(0.7), Binomial(5, 0.2), NegativeBinomial(2, 0.4)],
)
def test_coefficient_decay_is_harmonic_or_better(spec):
    m = zoo_muculants(spec, (-200, 200))
    ns = m.indices
    scaled = np.abs(ns * m.values)
    near = scaled[(np.abs(ns) >= 1) & (np.abs(ns) <= 10)].max()
    assert scaled.max() <= 2.0 * near


# ----------------------------------------------------------------- cumulants


def test_poisson_cumulants_are_flat():
    np.testing.assert_allclose(zoo_cumulants(Poisson(2.0), 6).values, 2.0, atol=1e-12)


def test_bernoulli_cumulants_closed_form():
    p, q = 0.2, 0.8
    k = zoo_cumulants(Bernoulli(p), 4)
    np.testing.assert_allclose(
        k.values, [p, p * q, p * q * (1 - 2 * p), p * q * (1 - 6 * p * q)], atol=1e-13
    )


def test_degenerate_cumulants():
    k = zoo_cumulants(Degenerate(4), 5)
    np.testing.assert_allclose(k.values, [4.0, 0.0, 0.0, 0.0, 0.0], atol=0)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_cumulants_match_moment_recursion(spec):
    # independent route: raw moments of the stored mass, then the
    # triangular moment-to-cumulant recursion
    f = zoo_pmf(spec)
    oracle = moments_to_cumulants([raw_moment(f, k) for k in range(1, 5)])
    ours = zoo_cumulants(spec, 4)
    np.testing.assert_allclose(ours.values, oracle.values, atol=1e-5)


def test_cumulant_order_cap():
    with pytest.raises(ValueError):
        zoo_cumulants(Poisson(1.0), 9)
    with pytest.raises(ValueError):
        zoo_cumulants(Poisson(1.0), 0)
