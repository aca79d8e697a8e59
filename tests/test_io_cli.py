import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muculants.charfn
import muculants.cli
import muculants.io
import muculants.transform
from muculants import (
    EmptySample,
    FrequencyGrid,
    Geometric,
    NegativeBinomial,
    Poisson,
    complex_log,
    complex_muculants,
    cumulants_from_muculants,
    decompose,
    estimate_muculants,
    eval_charfn,
    grid_for_samples,
    poisson_test,
    power_muculants,
    reconstruct_sequence,
    validate_pmf,
    zoo_muculants,
    zoo_pmf,
)
from muculants.charfn import grid_for_pmf
from muculants.cli import main
from muculants.io import (
    _parse_canonical,
    _read_samples_text,
    cumulants_to_dict,
    decomposition_to_dict,
    dumps_json,
    flat_csv,
    format_number,
    indexed_csv,
    muculants_from_dict,
    muculants_to_dict,
    pmf_from_dict,
    pmf_to_dict,
    read_samples,
    sequence_to_dict,
)
from support import (
    reference_dumps_json,
    reference_flat_csv,
    reference_indexed_csv,
    reference_log_coefficients,
)


# -------------------------------------------------------------------- text


def test_format_number_round_trips_doubles():
    for x in (0.1, 1 / 3, 2.0, -1e-17, math.pi, 1e300):
        assert float(format_number(x)) == x
    assert format_number(3) == "3"
    assert format_number(True) == "true"
    assert format_number(False) == "false"


def test_format_number_rejects_non_finite():
    with pytest.raises(ValueError):
        format_number(float("nan"))
    with pytest.raises(ValueError):
        format_number(float("inf"))


@pytest.mark.parametrize("value", ["1.5", None, [1.0], {"a": 1}, 1 + 2j], ids=repr)
def test_format_number_refuses_what_is_not_a_number(value):
    with pytest.raises(ValueError, match="^not a number in output: "):
        format_number(value)


def test_json_output_is_standard_json():
    doc = {"a": 1, "b": [0.1, 0.2], "c": {"d": True, "e": None}, "f": "text"}
    parsed = json.loads(dumps_json(doc))
    assert parsed == doc


def test_json_and_csv_print_identical_numbers():
    doc = {"x": 1 / 3, "y": {"z": [0.1, -2.5e-11]}}
    js = dumps_json(doc)
    csv = flat_csv(doc)
    for token in (format_number(1 / 3), format_number(0.1), format_number(-2.5e-11)):
        assert token in js
        assert token in csv


def test_flat_csv_layout():
    lines = flat_csv({"a": {"b": 1}, "c": [True, 2.5]}).splitlines()
    assert lines[0] == "field,value"
    assert "a.b,1" in lines
    assert "c[0],true" in lines
    assert "c[1],2.5" in lines


def test_indexed_csv_layout():
    out = indexed_csv("n", [-1, 0, 1], [0.5, -1.0, 0.25]).splitlines()
    assert out[0] == "n,value"
    assert out[1] == "-1,0.5"


def test_strings_with_control_characters_are_refused():
    with pytest.raises(ValueError):
        dumps_json({"a": 'quote "'})
    with pytest.raises(ValueError):
        dumps_json({"a": "line\nbreak"})
    # in CSV a comma or a line break would add a column or a row
    for text in ("x,y", "line\nbreak", "carriage\rreturn"):
        with pytest.raises(ValueError, match="not serializable as a CSV field"):
            flat_csv({"a": text})
    assert flat_csv({"a": 'quote "'}) == 'field,value\na,quote "\n'


# ------------------------------------------------------- batched rendering


def _subcommand_payloads():
    """(payload, indexed rows or None) as each subcommand renders them."""
    f = zoo_pmf(NegativeBinomial(2, 0.3))
    grid = FrequencyGrid(4096)
    xs = np.random.default_rng(8).poisson(2.0, 2000)
    seq = complex_muculants(complex_log(eval_charfn(f, grid)), 20)
    samples = estimate_muculants(xs, grid_for_samples(xs), 10)
    power = power_muculants(eval_charfn(f, grid), 20)
    kv = cumulants_from_muculants(complex_muculants(complex_log(eval_charfn(f, grid)), 60), 4)
    rec = reconstruct_sequence(zoo_muculants(Poisson(2.0), (-20, 20)), (-5, 30))
    zoo = zoo_muculants(Geometric(0.4), (-20, 20))
    return {
        "muculants": (muculants_to_dict(seq), ("n", seq.indices, seq.values)),
        "muculants-samples": (muculants_to_dict(samples), ("n", samples.indices, samples.values)),
        "power-muculants": (muculants_to_dict(power), ("n", power.indices, power.values)),
        "cumulants": (cumulants_to_dict(kv), ("k", range(1, len(kv.values) + 1), kv.values)),
        "reconstruct": (sequence_to_dict(rec), ("xi", rec.support, rec.values)),
        "decompose": (decomposition_to_dict(decompose(f, 100)), None),
        "zoo": (muculants_to_dict(zoo), ("n", zoo.indices, zoo.values)),
        "poisson-test": (muculants.io.test_result_to_dict(poisson_test(xs, n_bootstrap=50, seed=3)), None),
        "pmf": (pmf_to_dict(f), None),
    }


def test_batched_rendering_matches_the_per_number_renderer_on_every_payload():
    for name, (payload, rows) in _subcommand_payloads().items():
        assert dumps_json(payload) == reference_dumps_json(payload), name
        assert flat_csv(payload) == reference_flat_csv(payload), name
        if rows is not None:
            assert indexed_csv(*rows) == reference_indexed_csv(*rows), name


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
        max_size=40,
    )
)
def test_batched_rendering_matches_the_per_number_renderer_on_floats(xs):
    doc = {"v": xs, "w": {"x": list(reversed(xs))}}
    assert dumps_json(doc) == reference_dumps_json(doc)
    assert flat_csv(doc) == reference_flat_csv(doc)
    for values in (xs, np.array(xs, dtype=np.float64)):
        rows = ("n", range(-3, len(xs) - 3), values)
        assert indexed_csv(*rows) == reference_indexed_csv(*rows)


@pytest.mark.parametrize(
    "xs, bad",
    [([1.0, math.nan], "nan"), ([math.inf, math.nan], "inf"), ([0.5, -math.inf, 2.0], "-inf")],
)
def test_batched_rendering_refuses_the_first_non_finite_entry(xs, bad):
    message = f"^non-finite value in output: {bad}$"
    for render in (
        lambda: dumps_json({"v": xs}),
        lambda: flat_csv({"v": xs}),
        lambda: indexed_csv("n", range(len(xs)), xs),
        lambda: indexed_csv("n", range(len(xs)), np.array(xs)),
    ):
        with pytest.raises(ValueError, match=message):
            render()


@pytest.mark.parametrize("entry", ["1.5", None, [1.0], {"a": 1}], ids=repr)
def test_list_entries_that_are_not_numbers_are_refused(entry):
    for xs in ([entry], [0.5, entry], [1, entry]):
        for render in (
            lambda: dumps_json({"v": xs}),
            lambda: flat_csv({"v": xs}),
            lambda: indexed_csv("n", range(len(xs)), xs),
        ):
            message = rf"^not a number in output: {re.escape(repr(entry))}$"
            with pytest.raises(ValueError, match=message):
                render()


def test_lists_of_bools_and_ints_render_per_entry():
    doc = {"v": [True, 2, 2.5, False], "w": [3, -4], "e": []}
    assert dumps_json(doc) == '{\n  "v": [true, 2, 2.5, false],\n  "w": [3, -4],\n  "e": []\n}\n'
    assert flat_csv(doc) == "field,value\nv[0],true\nv[1],2\nv[2],2.5\nv[3],false\nw[0],3\nw[1],-4\n"
    assert indexed_csv("k", [1, 2, 3], [True, 2, 2.5]) == "k,value\n1,true\n2,2\n3,2.5\n"
    for doc in ({"v": [np.float64(0.1), np.int64(7), np.bool_(True)]}, {"v": np.array([1, 2])}):
        assert dumps_json(doc) == reference_dumps_json(doc)
        assert flat_csv(doc) == reference_flat_csv(doc)


# ---------------------------------------------------------------- documents


def test_pmf_document_round_trip():
    f = zoo_pmf(Geometric(0.3))
    d = pmf_to_dict(f)
    g = pmf_from_dict(json.loads(dumps_json(d)))
    assert g.offset == f.offset
    np.testing.assert_array_equal(g.probs, f.probs)
    assert g.tail_mass_bound >= 1.0 - g.total_mass


def test_muculant_document_round_trip():
    m = zoo_muculants(Geometric(0.3), (-4, 9))
    d = muculants_to_dict(m)
    r = muculants_from_dict(json.loads(dumps_json(d)))
    assert (r.n_min, r.n_max, r.kind) == (m.n_min, m.n_max, m.kind)
    np.testing.assert_array_equal(r.values, m.values)


def test_muculant_document_defaults_residual():
    r = muculants_from_dict(
        {"kind": "complex", "n_min": 0, "n_max": 1, "values": [-0.5, 0.5]}
    )
    assert r.imag_residual == 0.0


# ------------------------------------------------------------ sample files


def test_read_samples_parses_lines(tmp_path):
    p = tmp_path / "xs.txt"
    p.write_text("# counts\n3\n0\n\n-2\n 7 \n")
    np.testing.assert_array_equal(read_samples(p), [3, 0, -2, 7])


def test_read_samples_reports_bad_line(tmp_path):
    p = tmp_path / "xs.txt"
    p.write_text("1\n2.5\n")
    with pytest.raises(ValueError, match=":2: not an integer"):
        read_samples(p)


def test_read_samples_empty_file(tmp_path):
    p = tmp_path / "xs.txt"
    for text in ("# nothing\n", "", "# a\n\n   \n# b"):
        p.write_text(text)
        with pytest.raises(EmptySample):
            read_samples(p)


def test_read_samples_line_endings(tmp_path):
    p = tmp_path / "xs.txt"
    for raw in (b"1\r\n-2\r\n\r\n3\r\n", b"1\r-2\r\r3", b"1\n-2\r\n\r3"):
        p.write_bytes(raw)
        np.testing.assert_array_equal(read_samples(p), [1, -2, 3])
    p.write_bytes(b"1\r\r\nx\r")
    with pytest.raises(ValueError, match=r":3: not an integer: 'x'$"):
        read_samples(p)


def test_read_samples_comments_whitespace_and_signs(tmp_path):
    p = tmp_path / "xs.txt"
    p.write_text("5 # note\n#5\n  \n\t\n+3\n 7#x\n-0\n")
    got = read_samples(p)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, [5, 3, 7, 0])


def test_read_samples_refuses_two_values_on_a_line(tmp_path):
    p = tmp_path / "xs.txt"
    p.write_text("1\n3 4\n5\n")
    with pytest.raises(ValueError, match=r":2: not an integer: '3 4'$"):
        read_samples(p)


def test_read_samples_line_numbers_count_blank_and_comment_lines(tmp_path):
    p = tmp_path / "xs.txt"
    p.write_text("# header\n\n1\n\n  # c\nfoo # why\n2\n")
    with pytest.raises(ValueError) as exc:
        read_samples(p)
    assert str(exc.value) == f"{p}:6: not an integer: 'foo'"


def _read_text_mode(path):
    """The text route on the file as text mode reads it (UTF-8 with a
    leading BOM dropped, universal newlines): the reference for the reader's
    own decoding of the bytes.  The text goes back with a BOM in front,
    which the reader drops again."""
    text = Path(path).read_text(encoding="utf-8-sig")
    return _read_samples_text(path, text.encode("utf-8-sig"))


def _read_outcome(read, path):
    """The array a reader returns (dtype and values), or its exception."""
    try:
        got = read(path)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return got.dtype, got.tolist()


_INT64_EDGES = [str(-(2**63)), str(2**63 - 1), str(-(2**63) - 1), str(2**63)]
_SPECIAL_LINES = _INT64_EDGES + [
    "9" * 18, "-" + "9" * 18, "1" * 19, "-" + "1" * 19, "9" * 20, "0" * 17 + "42", "0" * 20,
    "-0", "-", "--1", "1-2", "+7", "1_000", " 3 ", "3 4", "", "#", "5 # c", "\r", "\u0663",
    "\uff15", "-\u0663\u0664",
]
_CANONICAL_LINE = st.one_of(
    st.integers(-(10**18) + 1, 10**18 - 1).map(str),
    st.integers(0, 99).map(str),
    st.tuples(st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=18)).map("".join),
)
_ANY_LINE = st.one_of(
    _CANONICAL_LINE,
    st.sampled_from(_SPECIAL_LINES),
    st.text("0123456789-+_# \r\u0663\uff15", max_size=22),
)


def _sample_file(lines, final_newline, bom=""):
    return (bom + "\n".join(lines) + ("\n" if final_newline and lines else "")).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_ANY_LINE, max_size=25),
    final_newline=st.booleans(),
    bom=st.sampled_from(["", "\ufeff"]),
    block=st.sampled_from([muculants.io._BLOCK_BYTES, 20, 64]),
)
def test_read_samples_routes_agree(tmp_path_factory, lines, final_newline, bom, block):
    # 20 bytes holds the longest canonical line ('-', 18 digits, newline)
    p = tmp_path_factory.mktemp("routes") / "xs.txt"
    p.write_bytes(_sample_file(lines, final_newline, bom))
    with mock.patch.object(muculants.io, "_BLOCK_BYTES", block):
        assert _read_outcome(read_samples, p) == _read_outcome(_read_text_mode, p)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(_CANONICAL_LINE, min_size=1, max_size=40),
    final_newline=st.booleans(),
    block=st.sampled_from([muculants.io._BLOCK_BYTES, 20, 64]),
)
def test_canonical_files_take_the_array_route(tmp_path_factory, lines, final_newline, block):
    p = tmp_path_factory.mktemp("canonical") / "xs.txt"
    data = _sample_file(lines, final_newline)
    p.write_bytes(data)
    with mock.patch.object(muculants.io, "_BLOCK_BYTES", block):
        got = _parse_canonical(data)
    assert got is not None and got.dtype == np.int64
    assert got.tolist() == _read_samples_text(p, data).tolist() == [int(line) for line in lines]


@pytest.mark.parametrize(
    "data",
    [
        b"", b"\n", b"1\n\n", b"\n1\n", b"+1\n", b"1\r\n", b" 1\n", b"1 \n", b"1_0\n",
        b"-\n", b"--1\n", b"1-2\n", b"1-\n", b"#1\n", b"1234567890123456789\n",
        b"-1234567890123456789\n", "\u0663\n".encode(), b"\xef\xbb\xbf1\n", b"\xff\n",
    ],
    ids=repr,
)
def test_other_files_take_the_text_route(data):
    assert _parse_canonical(data) is None


@pytest.mark.parametrize(
    "data",
    [
        b"1\r\n-2\r\n3\r\n", b"1\r-2\r\r3", b"1\r\r\n\n2\r", b"\xef\xbb\xbf1\n2\n",
        "1\n2\x85\n3\u2028\n".encode(), "1\x0c\n\x0c2\n".encode(), "1\x852\n".encode(),
        b"\xef\xbb\xbf\xef\xbb\xbf1\n", b"1\r\n" * 40_000 + b"x\r\n",
    ],
    ids=lambda data: repr(data[:12]) + f"..{len(data)}",
)
def test_read_samples_decodes_as_text_mode_does(tmp_path, data):
    # CRLF, lone CR, BOM, NEL, U+2028, form feed, a second BOM (a bad
    # line), a bad line far down: same values or same error
    p = tmp_path / "xs.txt"
    p.write_bytes(data)
    assert _read_outcome(read_samples, p) == _read_outcome(_read_text_mode, p)


@pytest.mark.parametrize(
    "data, line, byte",
    [
        (b"\xff1\n2\n", 1, 0xFF),  # byte 0
        (b"1\n" * 50_000 + b"\xfe\n", 50_001, 0xFE),  # byte 100,000
        (b"\xef\xbb\xbf1\n2\n\xc3(\n", 3, 0xC3),  # counted past the BOM
        (b"1\r2\r\n3\n\r\x80", 5, 0x80),  # CR, CRLF and LF each end a line
        (b"1\n2\xe2\x82", 2, 0xE2),  # cut short at the end
    ],
    ids=["byte 0", "byte 100000", "past a BOM", "after CR, CRLF and LF", "cut short"],
)
def test_read_samples_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, line, byte):
    p = tmp_path / "xs.txt"
    p.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        read_samples(p)
    assert str(exc.value) == f"{p}:{line}: not UTF-8 text (byte 0x{byte:02x})"


def test_read_samples_routes_agree_across_blocks(tmp_path):
    # several 64 KiB blocks, every width from 1 to 18 digits, both signs
    rng = np.random.default_rng(12)
    xs = rng.integers(-(10**18) + 1, 10**18, 60_000) // 10 ** rng.integers(0, 18, 60_000)
    p = write_samples(tmp_path / "xs.txt", xs)
    assert len(Path(p).read_bytes()) > 8 * muculants.io._BLOCK_BYTES
    np.testing.assert_array_equal(read_samples(p), xs)
    # a line longer than a block cannot be canonical: the text route reads it
    Path(p).write_text("1\n" + " " * muculants.io._BLOCK_BYTES + "-5\n2")
    np.testing.assert_array_equal(read_samples(p), [1, -5, 2])


# ----------------------------------------------------------------- commands


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_coefficients_from_family(capsys):
    code, out, _ = run_cli(capsys, "muculants", "--dist", "poisson:lambda=2", "--n-max", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "complex"
    assert doc["values"][5] == -2.0  # index n = 0
    assert doc["values"][6] == 2.0


def test_cli_csv_matches_json_numbers(capsys):
    args = ("muculants", "--dist", "geometric:p=0.3", "--n-max", "4")
    _, js, _ = run_cli(capsys, *args)
    code, csv, _ = run_cli(capsys, *args, "--output", "csv")
    assert code == 0
    json_numbers = [format_number(v) for v in json.loads(js)["values"]]
    csv_numbers = [line.split(",")[1] for line in csv.splitlines()[1:]]
    assert json_numbers == csv_numbers


def test_cli_coefficients_from_pmf_file(capsys, tmp_path):
    f = zoo_pmf(Geometric(0.4))
    p = tmp_path / "law.json"
    p.write_text(dumps_json(pmf_to_dict(f)))
    code, out, _ = run_cli(capsys, "muculants", "--input", str(p), "--n-max", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][6] == pytest.approx(math.log(0.4), abs=1e-9)


def test_cli_estimates_from_sample_file(capsys, tmp_path):
    rng = np.random.default_rng(4)
    p = tmp_path / "xs.txt"
    p.write_text("\n".join(str(x) for x in rng.poisson(2.0, 20000)))
    code, out, _ = run_cli(capsys, "muculants", "--input", str(p), "--n-max", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][3] == pytest.approx(-2.0, abs=0.1)
    assert doc["imag_residual"] == 0.0  # the sample route is real by construction


def test_cli_refuses_sample_grid_too_coarse(capsys, tmp_path):
    p = tmp_path / "shift.txt"
    xs = 100 + np.random.default_rng(0).poisson(0.5, 2000)
    p.write_text("\n".join(str(x) for x in xs))
    code, out, err = run_cli(
        capsys, "muculants", "--input", str(p), "--grid", "64", "--n-max", "2"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: GridTooCoarse: ")
    code, out, _ = run_cli(capsys, "muculants", "--input", str(p), "--n-max", "2")
    assert code == 0
    assert json.loads(out)["values"][3] == pytest.approx(100.5, abs=0.1)  # n = 1


def write_samples(path, xs):
    path.write_text("".join(f"{x}\n" for x in xs))
    return str(path)


def test_cli_cumulants_from_samples_at_defaults(capsys, tmp_path):
    # the default --n-max 60 used to outgrow the default sample grid
    xs = np.random.default_rng(5).poisson(1.5, 10_000)
    p = write_samples(tmp_path / "xs.txt", xs)
    code, out, err = run_cli(capsys, "cumulants", "--input", p)
    assert (code, err) == (0, "")
    kappa = json.loads(out)["values"]
    assert kappa[0] == pytest.approx(xs.mean(), abs=1e-9)
    assert kappa[1] == pytest.approx(xs.var(), abs=1e-9)  # the biased variance


def test_cli_cumulants_from_samples_meets_the_tail_guard(capsys, tmp_path):
    # at n_max 60 the guard wants 60^k_max * max |c[n]| over |n| >= 54 below
    # 1e-6; sample noise in the outer coefficients often exceeds that
    p = write_samples(tmp_path / "xs.txt", np.random.default_rng(11).poisson(2.5, 10_000))
    for k, flags in (("4", ()), ("1", ("--k-max", "1"))):  # the default k_max is 4
        code, out, err = run_cli(capsys, "cumulants", "--input", p, *flags)
        assert (code, out) == (1, "")
        assert err == (
            f"error: TruncationUnsafe: n^{k}-weighted tail 3.548e-04 at |n| >= 54 has not settled\n"
        )
    p = write_samples(tmp_path / "ys.txt", np.random.default_rng(11).poisson(1.5, 10_000))
    code, out, err = run_cli(capsys, "cumulants", "--input", p)
    assert (code, out) == (1, "")
    assert err.startswith("error: TruncationUnsafe: n^4-weighted tail ")
    code, out, err = run_cli(capsys, "cumulants", "--input", p, "--k-max", "3")
    assert (code, err) == (0, "")


def test_cli_default_grid_carries_n_max(capsys, tmp_path):
    p = write_samples(tmp_path / "xs.txt", np.random.default_rng(6).poisson(1.5, 10_000))
    code, out, _ = run_cli(capsys, "power-muculants", "--input", p, "--n-max", "90")
    assert code == 0
    assert len(json.loads(out)["values"]) == 181
    code, out, _ = run_cli(capsys, "decompose", "--dist", "geometric:p=0.4", "--n-max", "1500")
    assert code == 0
    # an explicit grid is used as given, and still refused when too small
    for command in ("muculants", "power-muculants"):
        code, out, err = run_cli(capsys, command, "--input", p, "--grid", "256", "--n-max", "90")
        assert (code, out) == (2, "")
        assert err == "error: ValueError: n_max must be in 1..64 for this grid\n"


def spy_on_folds(monkeypatch) -> list:
    """Record the grid size of each ``fold_indices`` call, in both namespaces
    that synthesize on a grid: every synthesis folds its weights first."""
    sizes = []
    for module in (muculants.charfn, muculants.transform):

        def spy(coeffs, offset, n, *args, _fold=module.fold_indices, **kwargs):
            sizes.append(n)
            return _fold(coeffs, offset, n, *args, **kwargs)

        monkeypatch.setattr(module, "fold_indices", spy)
    return sizes


def test_cli_refuses_grids_above_the_ceiling_before_using_them(capsys, tmp_path, monkeypatch):
    sizes = spy_on_folds(monkeypatch)
    p = write_samples(tmp_path / "xs.txt", [0, 1] * 100)
    code, out, err = run_cli(capsys, "cumulants", "--input", p, "--n-max", "1000000000")
    assert (code, out) == (2, "")
    assert err == (
        "error: ValueError: width 2 and n_max 1000000000 need more than 16777216 grid points\n"
    )
    code, out, err = run_cli(capsys, "muculants", "--dist", "poisson:lambda=2", "--grid", str(1 << 25))
    assert (code, out) == (2, "")
    assert err == "error: ValueError: n_points must be at most 16777216, got 33554432\n"
    assert sizes == []
    # the same routes on grids they may use reach the spy
    code, _, err = run_cli(capsys, "cumulants", "--input", p, "--n-max", "4")
    assert code == 1 and err.startswith("error: CharFnVanishes: ")  # Phi(pi) = 0
    code, _, _ = run_cli(capsys, "muculants", "--dist", "poisson:lambda=2", "--grid", "4096")
    assert code == 0
    assert sizes == [128, 4096]


def test_cli_names_the_width_a_refused_grid_was_sized_for(capsys, tmp_path):
    # each route sizes its grid from a support or window it was given; the
    # refusal names that, not the 2^32-point grid it would have needed
    far = tmp_path / "far.json"
    far.write_text(dumps_json(pmf_to_dict(validate_pmf(10**9, [0.25, 0.75]))))
    for argv, width, n_max in (
        (("muculants", "--input", str(far)), 1000000002, 20),
        (("decompose", "--input", str(far)), 1000000002, 100),
        (("reconstruct", "--dist", "poisson:lambda=2", "--support", "0:1000000000"), 1000000001, 20),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == (
            f"error: ValueError: width {width} and n_max {n_max} "
            "need more than 16777216 grid points\n"
        )


def test_cli_refuses_a_window_past_the_grid_ceiling_before_building_it(capsys, tmp_path):
    # one index past MAX_GRID_POINTS / 4; -10^9:8 used to take about 19 GB
    p = write_samples(tmp_path / "xs.txt", np.random.default_rng(9).poisson(3.0, 200))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "poisson-test", "--input", p, "--window", "-4194305:8")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (code, out) == (2, "")
    assert err == "error: ValueError: window -4194305:8 reaches past +-4194304\n"


def test_cli_sample_routes_share_one_floor_message(capsys, tmp_path):
    # the empirical charfn of equally many zeros and ones is exactly 0 at pi
    p = write_samples(tmp_path / "xs.txt", [0] * 50 + [1] * 50)
    for command in ("muculants", "power-muculants"):
        code, out, err = run_cli(capsys, command, "--input", p)
        assert (code, out) == (1, "")
        assert err == (
            "error: CharFnVanishes: |charfn| reaches 0.000e+00, below the 1e-03 floor\n"
        )


def test_cli_sample_routes_refuse_a_grid_that_does_not_resolve_the_range(capsys, tmp_path):
    # both sample routes refuse a grid that does not resolve the sample
    # range, before anything as wide as that range (10^15 here) is allocated
    p = write_samples(tmp_path / "wide.txt", [0] * 99 + [10**15])
    for command in ("power-muculants", "muculants"):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, command, "--input", p, "--grid", "4096")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (code, out) == (1, "")
        assert err == (
            "error: GridTooCoarse: support width 1000000000000001 needs at least "
            "4000000000000004 grid points, got 4096\n"
        )
    # the two support points of this file would share one of 4096 bins
    p = write_samples(tmp_path / "w.txt", [0] * 99 + [4096])
    code, out, err = run_cli(capsys, "power-muculants", "--input", p, "--grid", "4096")
    assert (code, out) == (1, "")
    assert err == (
        "error: GridTooCoarse: support width 4097 needs at least 16388 grid points, got 4096\n"
    )


def test_cli_pmf_routes_print_the_log_kernel_coefficients(capsys, tmp_path):
    f = zoo_pmf(NegativeBinomial(5, 0.9))
    p = tmp_path / "law.json"
    p.write_text(dumps_json(pmf_to_dict(f)))
    code, out, _ = run_cli(capsys, "muculants", "--input", str(p), "--n-max", "20")
    assert code == 0
    doc = json.loads(out)
    want = reference_log_coefficients(f.probs[None], f.offset, grid_for_pmf(f, 20), 20, 1e-8)[0][0]
    assert doc["values"] == want.tolist()
    assert doc["imag_residual"] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (("muculants", "--dist", "geometric:p=1e-9"), "truncation did not converge; parameters too extreme"),
        (
            ("muculants", "--dist", "negbinomial:r=1,p=0.999999999"),
            "truncation did not converge; parameters too extreme",
        ),
        (
            ("zoo", "--dist", "poisson:lambda=2", "--n-max", "100000000"),
            "index range -100000000..100000000 reaches past +-4194304",
        ),
        (
            ("muculants", "--dist", "binomial:n=2000,p=0.4"),
            "binomial:n=2000,p=0.4 is too extreme: its PMF does not fit in doubles",
        ),
        (
            ("muculants", "--dist", "binomial:n=1000,p=0.3"),
            "binomial:n=1000,p=0.3 is too extreme: its PMF does not fit in doubles",
        ),
    ],
)
def test_cli_refuses_laws_and_ranges_too_large_to_hold(capsys, argv, message):
    # the geometric spelling died allocating 206 GiB, and the zoo range was
    # killed for memory, where the negative binomial spelling was refused;
    # the first binomial died with an OverflowError traceback, and the second
    # was refused as an untrimmed PMF, its last probability 0.3^1000 = 0
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: ValueError: {message}\n")


def test_cli_cumulants_exact_for_geometric(capsys):
    code, out, _ = run_cli(
        capsys, "cumulants", "--dist", "geometric:p=0.5", "--k-max", "2"
    )
    assert code == 0
    assert json.loads(out)["values"] == [1.0, 2.0]


@pytest.mark.parametrize(
    "k_max, code, error", [("173", 1, "TruncationUnsafe"), ("200", 2, "ValueError")]
)
def test_cli_cumulants_of_a_huge_order_exits_with_an_error_line(capsys, tmp_path, k_max, code, error):
    # 60^200 overflows a double: an error line, not a traceback
    p = tmp_path / "law.json"
    p.write_text(dumps_json(pmf_to_dict(zoo_pmf(Poisson(2.0)))))
    got, out, err = run_cli(capsys, "cumulants", "--input", str(p), "--k-max", k_max)
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1


def test_cli_reconstruct_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "reconstruct", "--dist", "poisson:lambda=2", "--support", "0:12", "--n-max", "30",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["offset"] == 0
    assert doc["values"][0] == pytest.approx(math.exp(-2), abs=1e-9)
    assert doc["sum"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("output", ["json", "csv"])
def test_cli_support_takes_a_negative_low_end_as_a_separate_argument(capsys, output):
    base = ("reconstruct", "--dist", "poisson:lambda=2", "--n-max", "30", "--output", output)
    joined = run_cli(capsys, *base, "--support=-4:14")
    separate = run_cli(capsys, *base, "--support", "-4:14")
    assert joined[0] == 0
    assert separate == joined
    if output == "json":
        assert json.loads(separate[1])["offset"] == -4


def test_cli_window_takes_a_negative_low_end_as_a_separate_argument(capsys, tmp_path):
    p = tmp_path / "pois.txt"
    p.write_text("\n".join(str(x) for x in np.random.default_rng(3).poisson(3.0, 2000)))
    base = ("poisson-test", "--input", str(p), "--bootstrap", "50")
    default = run_cli(capsys, *base)
    assert default[0] == 0
    assert run_cli(capsys, *base, "--window", "-8:8") == default  # the default, spelled out
    narrow = run_cli(capsys, *base, "--window", "-4:4")
    assert narrow == run_cli(capsys, *base, "--window=-4:4")
    assert json.loads(narrow[1])["window"] == [-4, 4]


def test_cli_range_flags_still_need_a_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--dist", "poisson:lambda=2", "--support", "--output", "csv"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_cli_decompose_reports_both_factors(capsys, tmp_path):
    g = zoo_pmf(Geometric(0.5))
    left = validate_pmf(-(len(g) - 1), g.probs[::-1])
    p = tmp_path / "left.json"
    p.write_text(dumps_json(pmf_to_dict(left)))
    code, out, _ = run_cli(capsys, "decompose", "--input", str(p), "--n-max", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["minphase"]["is_pmf"] is True
    assert doc["allpass"]["is_pmf"] is False
    assert doc["allpass"]["sum"] == pytest.approx(1.0, abs=1e-8)
    # the flat CSV rendering of the nested document
    argv = ("decompose", "--input", str(p), "--n-max", "60", "--output", "csv")
    code, csv, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert csv == reference_flat_csv(doc)
    assert csv.splitlines()[:3] == [
        "field,value",
        "minphase.muculants.kind,complex",
        "minphase.muculants.n_min,-60",
    ]


def test_cli_zoo_lists_closed_form(capsys):
    code, out, _ = run_cli(capsys, "zoo", "--dist", "degenerate:m=2", "--n-max", "3")
    assert code == 0
    doc = json.loads(out)
    want = [2 * (-1) ** (n + 1) / n if n else 0.0 for n in range(-3, 4)]
    assert doc["values"] == [pytest.approx(v) for v in want]


def test_cli_poisson_test_accepts_and_rejects(capsys, tmp_path):
    rng = np.random.default_rng(1)
    ok = tmp_path / "pois.txt"
    ok.write_text("\n".join(str(x) for x in rng.poisson(3.0, 2000)))
    code, out, _ = run_cli(
        capsys, "poisson-test", "--input", str(ok), "--bootstrap", "200"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reject"] is False

    bad = tmp_path / "geom.txt"
    bad.write_text("\n".join(str(x) for x in rng.geometric(0.6, 2000) - 1))
    code, out, _ = run_cli(
        capsys, "poisson-test", "--input", str(bad), "--bootstrap", "200"
    )
    assert code == 3
    assert json.loads(out)["reject"] is True
    # the flat CSV rendering carries the same fields and the same exit codes
    for path, want_code in ((ok, 0), (bad, 3)):
        argv = ("poisson-test", "--input", str(path), "--bootstrap", "200")
        _, out, _ = run_cli(capsys, *argv)
        code, csv, err = run_cli(capsys, *argv, "--output", "csv")
        assert (code, err) == (want_code, "")
        assert csv == reference_flat_csv(json.loads(out))


def test_cli_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "muculants", "--n-max", "5")
    assert code == 2 and "ValueError" in err
    p = tmp_path / "xs.txt"
    p.write_text("1\n2\n")
    code, _, err = run_cli(
        capsys, "muculants", "--input", str(p), "--dist", "poisson:lambda=1"
    )
    assert code == 2


_HOLDS_MUCULANTS = "error: ValueError: input already holds muculants; nothing to compute\n"
_RECONSTRUCT_NEEDS = "error: ValueError: reconstruct needs a muculant JSON input or --dist\n"
_DECOMPOSE_NEEDS = "error: ValueError: decompose needs a PMF input (.json) or --dist\n"
_GRID_TOO_SMALL = "error: ValueError: n_max must be in 1..16 for this grid\n"
_LAMBDA_TWICE = "error: ValueError: parameter 'lambda' given twice\n"
_WIDE_RANGE = (
    "error: ValueError: sample range 0..1000000000000000 needs more than 16777216 grid points\n"
)
_SUPPORT = "error: ValueError: --support expects "


_SOURCE_REFUSALS = [
    (["muculants", "--input", "{muc}"], _HOLDS_MUCULANTS),
    (["power-muculants", "--input", "{muc}"], _HOLDS_MUCULANTS),
    (["cumulants", "--input", "{muc}"], _HOLDS_MUCULANTS),
    (["reconstruct", "--input", "{pmf}", "--support", "0:5"], _RECONSTRUCT_NEEDS),
    (["reconstruct", "--input", "{txt}", "--support", "0:5"], _RECONSTRUCT_NEEDS),
    (["decompose", "--input", "{txt}"], _DECOMPOSE_NEEDS),
    (["decompose", "--input", "{muc}"], _DECOMPOSE_NEEDS),
    (
        ["poisson-test", "--input", "{pmf}"],
        "error: ValueError: poisson-test reads newline-delimited samples (.txt)\n",
    ),
    (
        ["zoo", "--dist", "geometric:p=0.5", "--input", "{txt}"],
        "usage: muculants [-h] [--version] command ...\n"
        "muculants: error: unrecognized arguments: --input {txt}\n",
    ),
    (["muculants", "--input", "{pmf}", "--grid", "64"], _GRID_TOO_SMALL),
    (["muculants", "--input", "{txt}", "--grid", "64"], _GRID_TOO_SMALL),
    (["power-muculants", "--input", "{pmf}", "--grid", "64"], _GRID_TOO_SMALL),
    (["power-muculants", "--input", "{txt}", "--grid", "64"], _GRID_TOO_SMALL),
    (["cumulants", "--input", "{pmf}", "--grid", "64"], _GRID_TOO_SMALL),
    (["cumulants", "--input", "{txt}", "--grid", "64"], _GRID_TOO_SMALL),
    (["decompose", "--input", "{pmf}", "--grid", "64"], _GRID_TOO_SMALL),
    (["decompose", "--dist", "bernoulli:p=0.3", "--grid", "64"], _GRID_TOO_SMALL),
    # files and specs that cannot be read: the message names the file and line
    (["muculants", "--input", "{cut}"], "error: ValueError: {cut}:1:34: Expecting ',' delimiter\n"),
    (["decompose", "--input", "{dup}"], 'error: ValueError: {dup}: "offset" appears twice\n'),
    (
        ["reconstruct", "--input", "{dup_muc}", "--support", "0:5"],
        'error: ValueError: {dup_muc}: "values" appears twice\n',
    ),
    (["cumulants", "--input", "{bin}"], "error: ValueError: {bin}:2: not UTF-8 text (byte 0xff)\n"),
    (
        ["poisson-test", "--input", "{bin_txt}"],
        "error: ValueError: {bin_txt}:101: not UTF-8 text (byte 0xff)\n",
    ),
    (["zoo", "--dist", "poisson:lambda=2,lambda=5"], _LAMBDA_TWICE),
    (
        ["cumulants", "--dist", "binomial:n=5,p=0.2,n=7"],
        "error: ValueError: parameter 'n' given twice\n",
    ),
    # an integer parameter is named as one: 5.0 is a number, not an integer
    (
        ["zoo", "--dist", "binomial:n=5.0,p=0.2"],
        "error: ValueError: parameter 'n' must be an integer, got '5.0'\n",
    ),
    (["muculants", "--input", "{wide}"], _WIDE_RANGE),
    (["power-muculants", "--input", "{wide}"], _WIDE_RANGE),
    (["cumulants", "--input", "{wide}"], _WIDE_RANGE),
    (
        ["reconstruct", "--dist", "poisson:lambda=2", "--support", "3"],
        _SUPPORT + "LO:HI, got '3'\n",
    ),
    (
        ["reconstruct", "--dist", "poisson:lambda=2", "--support", "a:b"],
        _SUPPORT + "integer bounds, got 'a:b'\n",
    ),
    (
        ["reconstruct", "--dist", "poisson:lambda=2", "--support", "5:1"],
        "error: ValueError: support range is empty\n",
    ),
    (
        ["muculants", "--input", "{csv}"],
        "error: ValueError: {csv}: unknown input extension (expected .json or .txt)\n",
    ),
    (
        ["muculants", "--input", "{array}"],
        "error: ValueError: {array}: expected a JSON object at top level\n",
    ),
    (
        ["muculants", "--input", "{other}"],
        "error: ValueError: {other}: JSON object is neither a PMF nor a muculant sequence\n",
    ),
    (
        ["cumulants", "--input", "{txt}", "--k-max", "0"],
        "error: ValueError: k_max must be at least 1\n",
    ),
]


@pytest.mark.parametrize(
    "argv, want", _SOURCE_REFUSALS, ids=[" ".join(argv) for argv, _ in _SOURCE_REFUSALS]
)
def test_cli_refuses_a_source_or_grid_it_cannot_use(capsys, tmp_path, argv, want):
    files = {
        "muc": tmp_path / "muc.json",
        "pmf": tmp_path / "law.json",
        "txt": tmp_path / "xs.txt",
        "cut": tmp_path / "cut.json",
        "dup": tmp_path / "dup.json",
        "dup_muc": tmp_path / "dup_muc.json",
        "bin": tmp_path / "bin.json",
        "bin_txt": tmp_path / "bin.txt",
        "wide": tmp_path / "wide.txt",
        "csv": tmp_path / "xs.csv",
        "array": tmp_path / "array.json",
        "other": tmp_path / "other.json",
    }
    files["muc"].write_text(zoo_geometric_json(5))
    files["pmf"].write_text(dumps_json({"offset": 0, "probs": [0.7, 0.3]}))
    write_samples(files["txt"], [0] * 100 + [1] * 60 + [2] * 40)
    files["cut"].write_text('{"offset": 0, "probs": [0.7, 0.3]')
    files["dup"].write_text('{"offset": 0, "offset": 2, "probs": [0.25, 0.75]}')
    files["dup_muc"].write_text(
        '{"kind": "complex", "n_min": 0, "n_max": 1, "values": [0, 1], "values": [1, 0]}'
    )
    files["bin"].write_bytes(b'{"offset": 0,\n"probs": [0.7, 0.3]\xff}')
    files["bin_txt"].write_bytes(files["txt"].read_bytes()[:200] + b"\xff\n")
    write_samples(files["wide"], [0] * 99 + [10**15])
    files["csv"].write_text("1\n")
    files["array"].write_text("[0.7, 0.3]")
    files["other"].write_text('{"a": 1}')
    try:
        code = main([arg.format(**files) for arg in argv])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", want.format(**files))


_UNREAD_FLAGS = [
    (["cumulants", "--dist", "poisson:lambda=2", "--grid", "64"], "--grid", "cumulants --dist"),
    (["cumulants", "--dist", "poisson:lambda=2", "--n-max", "1"], "--n-max", "cumulants --dist"),
    # the defaults' own values are refused too: the route reads neither flag
    (
        ["cumulants", "--dist", "poisson:lambda=2", "--n-max", "60", "--grid", "4096"],
        "--grid",
        "cumulants --dist",
    ),
    (
        ["reconstruct", "--input", "{muc}", "--support", "0:5", "--n-max", "1"],
        "--n-max",
        "reconstruct --input",
    ),
]


@pytest.mark.parametrize(
    "argv, flag, route", _UNREAD_FLAGS, ids=[" ".join(argv) for argv, _, _ in _UNREAD_FLAGS]
)
def test_cli_refuses_flags_its_route_would_ignore(capsys, tmp_path, argv, flag, route):
    muc = tmp_path / "muc.json"
    muc.write_text(zoo_geometric_json(5))
    code, out, err = run_cli(capsys, *[arg.format(muc=muc) for arg in argv])
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: {flag} has no effect on {route}\n"


def test_cli_routes_that_read_grid_and_n_max_still_take_them(capsys, tmp_path):
    f = zoo_pmf(Geometric(0.7))
    law = tmp_path / "law.json"
    law.write_text(dumps_json(pmf_to_dict(f)))
    muc = tmp_path / "muc.json"
    muc.write_text(zoo_geometric_json(5))

    def cumulants(grid, n_max):
        seq = complex_muculants(complex_log(eval_charfn(f, FrequencyGrid(grid))), n_max)
        return dumps_json(cumulants_to_dict(cumulants_from_muculants(seq, 4)))

    for flags, want in (
        (("--grid", "8192", "--n-max", "30"), cumulants(8192, 30)),
        ((), cumulants(4096, 60)),  # the default grid and n_max
    ):
        assert run_cli(capsys, "cumulants", "--input", str(law), *flags) == (0, want, "")
    assert cumulants(8192, 30) != cumulants(4096, 60)
    window = ("--support", "0:40")
    for flags, n_max in ((("--n-max", "30"), 30), ((), 20)):
        seq = zoo_muculants(Geometric(0.5), (-n_max, n_max))
        want = dumps_json(sequence_to_dict(reconstruct_sequence(seq, (0, 40))))
        argv = ("reconstruct", "--dist", "geometric:p=0.5", *window, *flags)
        assert run_cli(capsys, *argv) == (0, want, "")
    seq = zoo_muculants(Geometric(0.5), (-5, 5))  # the file's own range
    want = dumps_json(sequence_to_dict(reconstruct_sequence(seq, (0, 40))))
    assert run_cli(capsys, "reconstruct", "--input", str(muc), *window) == (0, want, "")


def test_cli_sample_routes_share_one_size_minimum(capsys, tmp_path):
    p = write_samples(tmp_path / "five.txt", [0, 1, 2, 1, 0])
    for command in ("muculants", "power-muculants"):
        code, out, err = run_cli(capsys, command, "--input", p, "--n-max", "3")
        assert (code, out, err) == (2, "", "error: ValueError: need at least 100 samples, got 5\n")


def test_cli_domain_errors_exit_one(capsys, tmp_path):
    p = tmp_path / "half.json"
    p.write_text(dumps_json({"offset": 0, "probs": [0.5, 0.5]}))
    code, _, err = run_cli(capsys, "muculants", "--input", str(p), "--n-max", "5")
    assert code == 1
    assert "CharFnVanishes" in err


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("muculants", {"offset": 1.9, "probs": [0.7, 0.3]}, "offset"),
        ("muculants", {"offset": True, "probs": [0.7, 0.3]}, "offset"),
        ("muculants", {"offset": "1", "probs": [0.7, 0.3]}, "offset"),
        (
            "reconstruct",
            {"kind": "complex", "n_min": -0.5, "n_max": 1, "values": [-0.5, 0.5]},
            "n_min",
        ),
        (
            "reconstruct",
            {"kind": "complex", "n_min": 0, "n_max": 1.9, "values": [-0.5, 0.5]},
            "n_max",
        ),
    ],
)
def test_cli_refuses_json_indices_that_are_not_integers(capsys, tmp_path, command, doc, field):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    argv = [command, "--input", str(p)] + (["--support", "0:3"] if command == "reconstruct" else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    value = doc[field]
    assert err == f'error: ValueError: "{field}" must be an integer, got {value!r}\n'


_HUGE = 10**400  # a JSON integer no double holds


@pytest.mark.parametrize(
    "value", [True, "0.5", None, [0.5], _HUGE, -_HUGE], ids=lambda v: repr(v)[:12]
)
def test_float_fields_refuse_what_json_numbers_are_not(value):
    pmf = {"offset": 0, "probs": [0.7, 0.3], "tail_mass_bound": value}
    with pytest.raises(ValueError, match='"tail_mass_bound" must be a number'):
        pmf_from_dict(pmf)
    seq = {"kind": "complex", "n_min": 0, "n_max": 1, "values": [-0.5, 0.5], "imag_residual": value}
    with pytest.raises(ValueError, match='"imag_residual" must be a number'):
        muculants_from_dict(seq)
    # array entries are refused by index, not coerced by numpy
    with pytest.raises(ValueError, match=r'^"probs"\[1\] must be a number, got '):
        pmf_from_dict({"offset": 0, "probs": [0.7, value, 0.3]})
    with pytest.raises(ValueError, match=r'^"values"\[0\] must be a number, got '):
        muculants_from_dict({"kind": "complex", "n_min": 0, "n_max": 1, "values": [value, 0.5]})


@pytest.mark.parametrize("value", [-1.0, math.nan, -math.inf, math.inf, 2.0, -1e-300])
def test_tail_mass_bound_outside_the_unit_interval_is_refused(value):
    # a negative or NaN bound used to be dropped without a word, while 2.0
    # was refused by the PMF constructor; one message now names the field
    pmf = {"offset": 0, "probs": [0.7, 0.3], "tail_mass_bound": value}
    with pytest.raises(ValueError) as info:
        pmf_from_dict(pmf)
    assert str(info.value) == f'"tail_mass_bound" must lie in [0, 1], got {value!r}'


def test_float_fields_accept_json_numbers():
    pmf = {"offset": 0, "probs": [0.7, 0.3], "tail_mass_bound": 0.02}
    assert pmf_from_dict(pmf).tail_mass_bound == 0.02
    assert pmf_from_dict(dict(pmf, tail_mass_bound=0)).tail_mass_bound == 0.0
    seq = {"kind": "complex", "n_min": 0, "n_max": 1, "values": [-0.5, 0.5], "imag_residual": 1e-12}
    assert muculants_from_dict(seq).imag_residual == 1e-12
    assert muculants_from_dict(dict(seq, imag_residual=0)).imag_residual == 0.0
    # JSON integers are numbers, in array fields too
    assert pmf_from_dict({"offset": 0, "probs": [1]}).probs.tolist() == [1.0]
    assert muculants_from_dict(dict(seq, values=[0, 1])).values.tolist() == [0.0, 1.0]


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("muculants", {"offset": 0, "probs": [0.7, 0.3], "tail_mass_bound": True}, "tail_mass_bound"),
        ("muculants", {"offset": 0, "probs": [0.7, 0.3], "tail_mass_bound": "0.5"}, "tail_mass_bound"),
        (
            "reconstruct",
            {"kind": "complex", "n_min": 0, "n_max": 1, "values": [-0.5, 0.5], "imag_residual": "0"},
            "imag_residual",
        ),
        ("muculants", {"offset": 0, "probs": ["0.7", "0.3"]}, "probs"),
        ("decompose", {"offset": 0, "probs": [0.7, None]}, "probs"),
        ("cumulants", {"offset": 0, "probs": [0.7, [0.3]]}, "probs"),
        ("reconstruct", {"kind": "complex", "n_min": 0, "n_max": 1, "values": [False, True]}, "values"),
        ("reconstruct", {"kind": "complex", "n_min": 0, "n_max": 1, "values": [-0.5, "0.5"]}, "values"),
        ("muculants", {"offset": 0, "probs": [_HUGE, 0.5]}, "probs"),
        ("muculants", {"offset": 0, "probs": [0.7, 0.3], "tail_mass_bound": _HUGE}, "tail_mass_bound"),
        ("reconstruct", {"kind": "complex", "n_min": 0, "n_max": 1, "values": [0.5, -_HUGE]}, "values"),
    ],
)
def test_cli_refuses_json_float_fields_that_are_not_numbers(capsys, tmp_path, command, doc, field):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    argv = [command, "--input", str(p)] + (["--support", "0:3"] if command == "reconstruct" else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    value, name = doc[field], f'"{field}"'
    if isinstance(value, list):  # an array field names its first entry that is not a number
        refused = lambda v: v is None or isinstance(v, (bool, str, list)) or abs(v) > 1e308  # noqa: E731
        i = next(i for i, v in enumerate(value) if refused(v))
        value, name = value[i], f"{name}[{i}]"
    assert err == f"error: ValueError: {name} must be a number, got {value!r}\n"


def test_json_indices_accept_integers():
    assert pmf_from_dict({"offset": np.int64(-2), "probs": [0.7, 0.3]}).offset == -2
    m = muculants_from_dict({"kind": "complex", "n_min": -1, "n_max": 0, "values": [0.1, -0.5]})
    assert (m.n_min, m.n_max) == (-1, 0)


def test_cli_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "muculants", "--input", "/no/such/file.txt")
    assert code == 2


def test_cli_bad_family_exits_two(capsys):
    code, _, err = run_cli(capsys, "muculants", "--dist", "zeta:s=2")
    assert code == 2 and "ValueError" in err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_read_samples_refuses_values_beyond_int64(tmp_path):
    p = tmp_path / "xs.txt"
    edges = [-(2**63), 2**63 - 1]
    p.write_text("".join(f"{v}\n" for v in edges))
    np.testing.assert_array_equal(read_samples(p), edges)
    for big in ("99999999999999999999", str(2**63), str(-(2**63) - 1)):
        p.write_text(f"1\n# c\n{big} # too big\n2\n")
        with pytest.raises(ValueError) as exc:
            read_samples(p)
        assert str(exc.value) == f"{p}:3: not a 64-bit integer: {big!r}"


def test_cli_sample_beyond_int64_exits_two(capsys, tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("1\n2\n99999999999999999999\n")
    code, out, err = run_cli(capsys, "muculants", "--input", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: {p}:3: not a 64-bit integer: '99999999999999999999'\n"


def test_cli_negative_samples(capsys, tmp_path):
    # signed samples are valid input; only the Poissonity test refuses them
    p = tmp_path / "neg.txt"
    xs = np.random.default_rng(5).poisson(1.0, 2000) - 3
    p.write_text("\n".join(str(x) for x in xs))
    code, out, _ = run_cli(capsys, "muculants", "--input", str(p), "--n-max", "2")
    assert code == 0
    assert json.loads(out)["values"][3] == pytest.approx(-2.0, abs=0.1)  # n = 1
    code, out, err = run_cli(capsys, "poisson-test", "--input", str(p), "--bootstrap", "20")
    assert (code, out) == (1, "")
    assert err.startswith("error: NegativeSampleValue: ")


# ------------------------------------------------------------ entry points


def zoo_geometric_json(n_max):
    return dumps_json(muculants_to_dict(zoo_muculants(Geometric(0.5), (-n_max, n_max))))


def test_cli_reads_files_that_start_with_a_bom(capsys, tmp_path):
    # a BOM file is not canonical: the text route drops the BOM and reads on
    xs = np.random.default_rng(8).poisson(1.5, 500)
    plain = {
        ".txt": Path(write_samples(tmp_path / "xs.txt", xs)),
        ".json": tmp_path / "law.json",
    }
    plain[".json"].write_text(dumps_json(pmf_to_dict(zoo_pmf(Geometric(0.7)))))
    for argv in (
        ("muculants", "--input", ".txt"),
        ("power-muculants", "--input", ".txt", "--output", "csv"),
        ("poisson-test", "--input", ".txt", "--bootstrap", "50"),
        ("cumulants", "--input", ".json"),
        ("decompose", "--input", ".json"),
    ):
        src = plain[argv[2]]
        bom = tmp_path / f"bom{src.suffix}"
        bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        want = run_cli(capsys, argv[0], "--input", str(src), *argv[3:])
        assert want[0] == 0 and want[1], (argv, want[2])
        assert run_cli(capsys, argv[0], "--input", str(bom), *argv[3:]) == want


def test_cli_poisson_test_defaults_are_the_library_defaults(capsys):
    library = {
        name: p.default
        for name, p in inspect.signature(poisson_test).parameters.items()
        if p.kind is p.KEYWORD_ONLY
    }
    assert library == {"alpha": 0.05, "window": (-8, 8), "n_bootstrap": 1000, "seed": 0}
    args = muculants.cli._PARSER.parse_args(["poisson-test", "--input", "xs.txt"])
    parsed = {
        "alpha": args.alpha,
        "window": muculants.cli._parse_range(args.window, "--window"),
        "n_bootstrap": args.bootstrap,
        "seed": args.seed,
    }
    assert parsed == library
    with pytest.raises(SystemExit):
        main(["poisson-test", "-h"])
    usage = " ".join(capsys.readouterr().out.split())
    for text in ("level (default 0.05)", "replicates (default 1000)", "seed (default 0)"):
        assert text in usage
    assert "excluded (default -8:8)" in usage


def test_cli_parser_is_reused_without_carrying_state(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zoo", "--dist", "geometric:p=0.5", "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "zoo", "--dist", "geometric:p=0.5", "--n-max", "3")
    assert (code, out) == (0, zoo_geometric_json(3))
    # a flag given to an earlier call must not become the next call's default
    code, out, _ = run_cli(capsys, "zoo", "--dist", "geometric:p=0.5")
    assert (code, out) == (0, zoo_geometric_json(20))
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "muculants 0.1.0\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["-m", "muculants", "--version"], "muculants 0.1.0\n"),
        (["-m", "muculants.cli", "zoo", "--dist", "geometric:p=0.5", "--n-max", "2"], None),
    ],
    ids=["package", "module"],
)
def test_cli_runs_as_a_process(argv, want):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (want or zoo_geometric_json(2))
