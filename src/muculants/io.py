"""Serialization: JSON and CSV views of every result object, plus file readers.

Both renderings format numbers through the same rule, so a value printed
as CSV is byte-identical to the same value printed as JSON.
"""

import math
from itertools import repeat

import numpy as np

from .decompose import Decomposition
from .errors import EmptySample
from .inference import PoissonTestResult
from .pmf import PMF, CumulantVector, SignedSequence, validate_pmf
from .transform import MuculantSeq

_INT64 = np.iinfo(np.int64)
_FLOAT_FORMAT = ".17g"  # 17 significant digits: every double round-trips


def format_number(x) -> str:
    """Render one number: 17 significant digits for floats, plain for ints."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value in output: {v!r}")
    return format(v, _FLOAT_FORMAT)


def _format_floats(items: list):
    """``format_number`` of each item when every item is a Python float, in
    one finiteness pass and one formatting pass; None for any other list
    (empty, or holding ints, bools, numpy scalars, strings, ...)."""
    if set(map(type, items)) != {float}:
        return None
    if not all(map(math.isfinite, items)):
        format_number(next(v for v in items if not math.isfinite(v)))  # raises
    return list(map(format, items, repeat(_FLOAT_FORMAT)))


def _items(x) -> list:
    """The entries of a list, tuple or array; arrays give Python scalars."""
    return x.tolist() if isinstance(x, np.ndarray) else list(x)


def dumps_json(obj) -> str:
    out = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _emit(x, depth, out) -> None:
    pad = "  " * depth
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(x.items()):
            out.append(f'{pad}  "{key}": ')
            _emit(val, depth + 1, out)
            out.append(",\n" if i < len(x) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(x, (list, tuple, np.ndarray)):
        items = _items(x)
        numbers = _format_floats(items)
        if numbers is not None:
            out.append("[" + ", ".join(numbers) + "]")
            return
        out.append("[")
        for i, val in enumerate(items):
            if i:
                out.append(", ")
            _emit(val, depth + 1, out)
        out.append("]")
    elif isinstance(x, str):
        # our strings are identifiers; no escapes needed beyond the quote
        if '"' in x or "\\" in x or any(ord(c) < 0x20 for c in x):
            raise ValueError(f"string not serializable verbatim: {x!r}")
        out.append(f'"{x}"')
    elif x is None:
        out.append("null")
    else:
        out.append(format_number(x))


def flat_csv(d: dict) -> str:
    """field,value rows; nested keys joined with '.', list entries as key[i]."""
    lines = ["field,value"]

    def walk(prefix, val):
        if isinstance(val, dict):
            for key, sub in val.items():
                walk(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(val, (list, tuple, np.ndarray)):
            items = _items(val)
            numbers = _format_floats(items)
            if numbers is not None:
                lines.extend([f"{prefix}[{i}],{s}" for i, s in enumerate(numbers)])
                return
            for i, sub in enumerate(items):
                walk(f"{prefix}[{i}]", sub)
        elif isinstance(val, str):
            # a comma or a line break would add a column or a row
            if "," in val or "\n" in val or "\r" in val:
                raise ValueError(f"string not serializable as a CSV field: {val!r}")
            lines.append(f"{prefix},{val}")
        elif val is None:
            lines.append(f"{prefix},null")
        else:
            lines.append(f"{prefix},{format_number(val)}")

    walk("", d)
    return "\n".join(lines) + "\n"


def indexed_csv(label: str, indices, values) -> str:
    """Two-column rendering of an indexed sequence (n,value / xi,value / ...)."""
    index = list(map(int, _items(indices)))
    values = _items(values)[: len(index)]
    numbers = _format_floats(values)
    if numbers is None:
        numbers = list(map(format_number, values))
    lines = [f"{label},value"]
    lines.extend([f"{i},{s}" for i, s in zip(index, numbers)])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# object <-> dict

def pmf_to_dict(f: PMF) -> dict:
    d = {"offset": int(f.offset), "probs": f.probs.tolist()}
    if f.tail_mass_bound:
        d["tail_mass_bound"] = float(f.tail_mass_bound)
    return d


def _integer_field(d: dict, field: str) -> int:
    """``d[field]`` when it is an integer; a float, bool or string is
    refused rather than truncated."""
    value = d[field]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f'"{field}" must be an integer, got {value!r}')
    return int(value)


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _number_field(d: dict, field: str) -> float:
    """``d[field]`` (0.0 when absent) when it is a number; a bool or string
    is refused rather than coerced."""
    value = d.get(field, 0.0)
    if not _is_number(value):
        raise ValueError(f'"{field}" must be a number, got {value!r}')
    return float(value)


def _number_list(d: dict, field: str):
    """``d[field]``; a list entry that is not a number (a bool, string, null
    or list) is refused by its index rather than coerced.  The vector
    checks (shape, length, finiteness) stay with the validating class."""
    values = d[field]
    if isinstance(values, list) and not set(map(type, values)) <= {float, int}:
        for i, value in enumerate(values):
            if not _is_number(value):
                raise ValueError(f'"{field}"[{i}] must be a number, got {value!r}')
    return values


def pmf_from_dict(d: dict) -> PMF:
    if "probs" not in d or "offset" not in d:
        raise ValueError('PMF object needs "offset" and "probs" fields')
    f = validate_pmf(_integer_field(d, "offset"), _number_list(d, "probs"))
    bound = _number_field(d, "tail_mass_bound")
    if bound > f.tail_mass_bound:
        f = PMF(f.offset, f.probs, bound)
    return f


def muculants_to_dict(seq: MuculantSeq) -> dict:
    return {
        "kind": seq.kind,
        "n_min": int(seq.n_min),
        "n_max": int(seq.n_max),
        "values": seq.values.tolist(),
        "imag_residual": float(seq.imag_residual),
    }


def muculants_from_dict(d: dict) -> MuculantSeq:
    for field in ("kind", "n_min", "n_max", "values"):
        if field not in d:
            raise ValueError(f'muculant object needs a "{field}" field')
    return MuculantSeq(
        n_min=_integer_field(d, "n_min"),
        n_max=_integer_field(d, "n_max"),
        values=np.asarray(_number_list(d, "values"), dtype=np.float64),
        kind=str(d["kind"]),
        imag_residual=_number_field(d, "imag_residual"),
    )


def sequence_to_dict(s: SignedSequence) -> dict:
    return {
        "offset": int(s.offset),
        "values": s.values.tolist(),
        "sum": float(s.sum),
    }


def cumulants_to_dict(kv: CumulantVector) -> dict:
    # values[i] is the cumulant of order i + 1
    return {"k_max": len(kv.values), "values": kv.values.tolist()}


def decomposition_to_dict(d: Decomposition) -> dict:
    return {
        "minphase": {
            "muculants": muculants_to_dict(d.minphase_muculants),
            "sequence": sequence_to_dict(d.minphase_seq),
            "is_pmf": bool(d.minphase_is_pmf),
        },
        "allpass": {
            "muculants": muculants_to_dict(d.allpass_muculants),
            "sequence": sequence_to_dict(d.allpass_seq),
            "is_pmf": bool(d.allpass_is_pmf),
            "sum": float(d.allpass_seq.sum),
        },
    }


def test_result_to_dict(r: PoissonTestResult) -> dict:
    return {
        "statistic": r.statistic,
        "lambda_hat": r.lambda_hat,
        "threshold": r.threshold,
        "p_value": r.p_value,
        "reject": r.reject,
        "window": [int(r.window[0]), int(r.window[1])],
        "n_bootstrap": r.n_bootstrap,
        "n_bootstrap_used": r.n_bootstrap_used,
        "seed": r.seed,
    }


# ---------------------------------------------------------------------------
# file readers

def read_samples(path) -> np.ndarray:
    """Newline-delimited signed 64-bit integers; '#' starts a comment.

    Each line is parsed by ``int()``'s rules (surrounding whitespace, a
    sign, ``_`` separators and Unicode digits are accepted).  ValueError
    names the first line that is not an integer or does not fit in int64.

    Two routes, chosen from the file's bytes, return the same array.  A
    canonical file (every line an optional ``-`` and 1 to 18 ASCII digits,
    each ending in ``\\n``, the last one optionally) is parsed with numpy
    straight from the bytes.  Any other file (comments, blank lines, CR,
    spaces, ``+``, ``_``, non-ASCII bytes, 19 or more digits, ...) takes
    the text route, which is the only one that names a bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    values = _parse_canonical(data)
    return _read_samples_text(path) if values is None else values


# A canonical line holds at most 18 digits, so every value fits in int64.
_MAX_DIGITS = 18
_BLOCK_BYTES = 1 << 16
_ZERO, _NEWLINE, _MINUS = np.frombuffer(b"0\n-", np.uint8)


def _parse_canonical(data: bytes):
    """The int64 values of a canonical sample file, or None for any other.

    Lines are parsed a block (at most 64 KiB) at a time, so temporaries
    stay block-sized, and one right-aligned digit column at a time:
    v = 10 v + digit.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    raw = np.frombuffer(data, np.uint8)
    out = np.empty(np.count_nonzero(raw == _NEWLINE), np.int64)
    row = lo = 0
    while lo < len(data):
        hi = data.rfind(b"\n", lo, lo + _BLOCK_BYTES) + 1
        if hi <= lo:  # one line longer than a block
            return None
        block = raw[lo:hi]
        ends = np.flatnonzero(block == _NEWLINE)
        width = np.diff(ends, prepend=-1) - 1  # line length without its newline
        minus = np.count_nonzero(block == _MINUS)
        if minus:
            negative = block[ends - width] == _MINUS  # at the start of its line
            if np.count_nonzero(negative) != minus:
                return None
            width -= negative
        if width.min() < 1 or width.max() > _MAX_DIGITS:
            return None
        digits = block - _ZERO  # '-', newline and other bytes wrap past 9
        if np.count_nonzero(digits < 10) != len(block) - len(ends) - minus:
            return None
        values = out[row : row + len(ends)]
        values[:] = 0
        for k in range(int(width.max()), 0, -1):  # k-th digit from the right
            column = digits[ends - k]
            if k > 1:
                # before a shorter line's first digit: its sign, the previous
                # line, or (first line) a wrap to the block's end
                column *= width >= k
            values *= 10
            values += column
        if minus:
            np.negative(values, out=values, where=negative)
        row += len(ends)
        lo = hi
    return out


def _read_samples_text(path) -> np.ndarray:
    """``read_samples`` for any file, by ``int()`` on each line."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()  # text mode already maps \r\n and \r to \n
    lines = text.split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    kept = list(filter(str.strip, lines))
    if not kept:
        raise EmptySample(f"{path}: no samples")
    try:
        return np.array(kept, dtype=np.int64)  # int() on each string, in C
    except (ValueError, OverflowError):
        # find the line to name; a clean pass re-raises numpy's own error
        for lineno, line in enumerate(lines, 1):
            body = line.strip()
            if not body:
                continue
            try:
                value = int(body)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer: {body!r}") from None
            if not _INT64.min <= value <= _INT64.max:
                raise ValueError(f"{path}:{lineno}: not a 64-bit integer: {body!r}") from None
        raise


def read_json(path) -> dict:
    import json

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return payload
