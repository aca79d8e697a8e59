"""One integer rule: every integer argument and field of the public API goes
through ``pmf.integer_argument``.

A bool, a float or a string is refused with ValueError ``{name} must be an
integer, got {value!r}`` rather than truncated, read as 0 or 1, or stored as
given; a numpy integer is accepted, and the call then computes (and stores)
exactly what the Python ``int`` gives.
"""

import dataclasses
import re

import numpy as np
import pytest

from muculants import (
    Binomial,
    CumulantVector,
    Degenerate,
    FrequencyGrid,
    Geometric,
    MuculantSeq,
    NegativeBinomial,
    Poisson,
    SignedSequence,
    cumulants_from_muculants,
    decompose,
    empirical_charfn,
    estimate_muculants,
    grid_for_pmf,
    grid_for_samples,
    grid_synthesis,
    poisson_statistic,
    poisson_test,
    raw_moment,
    reconstruct_sequence,
    recursive_minphase_muculants,
    zoo_cumulants,
    zoo_muculants,
    zoo_pmf,
)
from muculants.inference import replicate_statistics
from muculants.pmf import is_number

GEOMETRIC = zoo_pmf(Geometric(0.5))
DRAWS = np.random.default_rng(5).poisson(2.0, 500)
COUNTS = np.random.default_rng(6).multinomial(500, zoo_pmf(Poisson(2.0)).probs, size=3)
SEQ = zoo_muculants(Poisson(2.0), (-20, 20))
WINDOWED = zoo_muculants(Poisson(3.0), (-9, 9))
SIGNED = SignedSequence(0, np.ones(3))
KAPPAS = CumulantVector(np.array([1.0, 2.0, 3.0]))
THIRDS = np.full(3, 1 / 3)

# (call site, name in the message, call with the integer, a valid integer)
CASES = [
    ("FrequencyGrid.n_points", "n_points", FrequencyGrid, 128),
    ("FrequencyGrid.for_width.width", "width", FrequencyGrid.for_width, 3),
    ("FrequencyGrid.for_width.minimum", "minimum", lambda v: FrequencyGrid.for_width(3, v), 100),
    ("FrequencyGrid.for_width.n_max", "n_max", lambda v: FrequencyGrid.for_width(3, 64, v), 40),
    ("grid_for_pmf.n_max", "n_max", lambda v: grid_for_pmf(GEOMETRIC, v), 40),
    ("grid_for_samples.n_max", "n_max", lambda v: grid_for_samples(DRAWS, v), 40),
    ("grid_synthesis.offset", "offset", lambda v: grid_synthesis(THIRDS, v, FrequencyGrid(64)), -1),
    ("Degenerate.m", "m", Degenerate, 3),
    ("NegativeBinomial.r", "r", lambda v: NegativeBinomial(v, 0.3), 2),
    ("Binomial.n", "n", lambda v: Binomial(v, 0.3), 5),
    ("poisson_statistic.window", "window bound", lambda v: poisson_statistic(WINDOWED, (-8, v)), 8),
    (
        "replicate_statistics.window",
        "window bound",
        lambda v: replicate_statistics(COUNTS, 0, FrequencyGrid(128), (v, 8)),
        -8,
    ),
    (
        "poisson_test.window",
        "window bound",
        lambda v: poisson_test(DRAWS, window=(-8, v), n_bootstrap=10),
        8,
    ),
    ("zoo_muculants.n_range", "n_range bound", lambda v: zoo_muculants(Poisson(2.0), (0, v)), 12),
    (
        "reconstruct_sequence.support",
        "support bound",
        lambda v: reconstruct_sequence(SEQ, (0, v)),
        30,
    ),
    ("MuculantSeq.n_min", "n_min", lambda v: MuculantSeq(v, 3, np.zeros(4), "complex", 0.0), 0),
    ("MuculantSeq.n_max", "n_max", lambda v: MuculantSeq(0, v, np.zeros(4), "complex", 0.0), 3),
    ("MuculantSeq.value_at", "n", SEQ.value_at, 1),
    ("SignedSequence.offset", "offset", lambda v: SignedSequence(v, np.ones(3)), -1),
    ("SignedSequence.value_at", "xi", SIGNED.value_at, 1),
    (
        "recursive_minphase_muculants.n_max",
        "n_max",
        lambda v: recursive_minphase_muculants(GEOMETRIC, v),
        10,
    ),
    ("cumulants_from_muculants.k_max", "k_max", lambda v: cumulants_from_muculants(SEQ, v), 3),
    ("zoo_cumulants.k_max", "k_max", lambda v: zoo_cumulants(Poisson(2.0), v), 3),
    ("raw_moment.k", "k", lambda v: raw_moment(GEOMETRIC, v), 2),
    ("CumulantVector.kappa", "k", KAPPAS.kappa, 2),
    ("poisson_test.seed", "seed", lambda v: poisson_test(DRAWS, n_bootstrap=10, seed=v), 3),
    (
        "replicate_statistics.offset",
        "offset",
        lambda v: replicate_statistics(COUNTS, v, FrequencyGrid(128), (-8, 8)),
        0,
    ),
]
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("value", [2.5, True, np.True_, "3"], ids=repr)
@pytest.mark.parametrize("site, name, call, valid", CASES, ids=IDS)
def test_a_non_integer_is_refused_by_name(site, name, call, valid, value):
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def same(a, b) -> bool:
    """Equal values of equal types, field by field and bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32])
@pytest.mark.parametrize("site, name, call, valid", CASES, ids=IDS)
def test_a_numpy_integer_computes_what_the_int_does(site, name, call, valid, numpy_int):
    # same() compares types too, so every stored integer field is an int
    assert same(call(numpy_int(valid)), call(valid))


def test_decompose_stores_a_numpy_n_max_as_int():
    d = decompose(GEOMETRIC, np.int64(10))
    assert type(d.minphase_muculants.n_max) is int and type(d.allpass_muculants.n_min) is int


def test_the_seed_is_checked_before_any_work():
    # too few draws and a window with no usable index fail later checks
    for call in (
        lambda: poisson_test(DRAWS[:99], seed=2.5),
        lambda: poisson_test(DRAWS, window=(0, 1), seed=2.5),
    ):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.5$"):
            call()


def test_a_negative_seed_is_refused_before_any_work():
    # it used to score the sample first and then fail inside numpy's generator
    for call in (
        lambda: poisson_test(DRAWS, seed=-1),
        lambda: poisson_test(DRAWS[:99], seed=-1),
        lambda: poisson_test(DRAWS, window=(0, 1), seed=-1),
    ):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            call()


@pytest.mark.parametrize(
    "samples", [np.ones(200, bool), [True, False] * 100], ids=("array", "list")
)
def test_bool_samples_are_not_integer_samples(samples):
    # np.ones(200, bool) used to give the coefficients of the point mass at 1
    for call in (
        lambda: estimate_muculants(samples, FrequencyGrid(128), 4),
        lambda: empirical_charfn(samples, FrequencyGrid(128)),
        lambda: grid_for_samples(samples),
        lambda: poisson_test(samples),
    ):
        with pytest.raises(ValueError, match="^samples must be integers$"):
            call()


def test_the_number_rule():
    for value in (2, -3, 2.5, np.int64(7), np.float32(0.5), float("nan"), 2**1000):
        assert is_number(value), value
    for value in (True, np.True_, "1", None, [1.0], 10**400, -(10**400)):
        assert not is_number(value), value


def test_a_bool_is_not_a_poisson_mean():
    # Poisson(True) was stored as lambda = 1.0
    for value in (True, np.True_):
        with pytest.raises(ValueError, match=r"^lambda must lie in \(0, 700\)$"):
            Poisson(value)
    assert type(Poisson(np.int64(2)).lam) is float and Poisson(np.int64(2)) == Poisson(2.0)
