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
from .pmf import PMF, CumulantVector, SignedSequence, integer_argument, is_number, validate_pmf
from .transform import MuculantSeq

_INT64 = np.iinfo(np.int64)
_FLOAT_FORMAT = ".17g"  # 17 significant digits: every double round-trips


def format_number(x) -> str:
    """Render one number: 17 significant digits for floats, plain for ints.
    Anything else (a string, None, a list, ...) is refused."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if not isinstance(x, (float, np.floating)):
        raise ValueError(f"not a number in output: {x!r}")
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value in output: {v!r}")
    return format(v, _FLOAT_FORMAT)


def _format_list(x) -> list[str]:
    """``format_number`` of each entry of a list, tuple or array; Python
    floats alone (as a float array's ``tolist`` gives) take one finiteness
    pass and one formatting pass."""
    items = x.tolist() if isinstance(x, np.ndarray) else x
    if set(map(type, items)) != {float}:
        return list(map(format_number, items))
    if not all(map(math.isfinite, items)):
        format_number(next(v for v in items if not math.isfinite(v)))  # raises
    return list(map(format, items, repeat(_FLOAT_FORMAT)))


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
        out.append("[" + ", ".join(_format_list(x)) + "]")
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
    """field,value rows; nested keys joined with '.', list entries (numbers)
    as key[i]."""
    lines = ["field,value"]

    def walk(prefix, val):
        if isinstance(val, dict):
            for key, sub in val.items():
                walk(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(val, (list, tuple, np.ndarray)):
            lines.extend([f"{prefix}[{i}],{s}" for i, s in enumerate(_format_list(val))])
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
    index = np.asarray(indices, dtype=np.int64).tolist()
    numbers = _format_list(values[: len(index)])
    lines = [f"{label},value"]
    lines.extend([f"{i},{s}" for i, s in zip(index, numbers)])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# object <-> dict

def pmf_to_dict(f: PMF) -> dict:
    d = {"offset": f.offset, "probs": f.probs.tolist()}
    if f.tail_mass_bound:
        d["tail_mass_bound"] = float(f.tail_mass_bound)
    return d


def _integer_field(d: dict, field: str) -> int:
    """``d[field]`` when it is an integer; a float, bool or string is
    refused rather than truncated."""
    return integer_argument(f'"{field}"', d[field])


def _number_field(d: dict, field: str) -> float:
    """``d[field]`` (0.0 when absent) when it is a number; a bool, string
    or integer beyond the largest double is refused rather than coerced."""
    value = d.get(field, 0.0)
    if not is_number(value):
        raise ValueError(f'"{field}" must be a number, got {value!r}')
    return float(value)


def _number_list(d: dict, field: str):
    """``d[field]``; a list entry that is not a number (a bool, string, null,
    list, or an integer beyond the largest double) is refused by its index
    rather than coerced.  The vector checks (shape, length, finiteness)
    stay with the validating class."""
    values = d[field]
    if isinstance(values, list) and not set(map(type, values)) <= {float}:
        for i, value in enumerate(values):
            if not is_number(value):
                raise ValueError(f'"{field}"[{i}] must be a number, got {value!r}')
    return values


def pmf_from_dict(d: dict) -> PMF:
    if "probs" not in d or "offset" not in d:
        raise ValueError('PMF object needs "offset" and "probs" fields')
    f = validate_pmf(_integer_field(d, "offset"), _number_list(d, "probs"))
    bound = _number_field(d, "tail_mass_bound")
    if not 0.0 <= bound <= 1.0:  # NaN included
        raise ValueError(f'"tail_mass_bound" must lie in [0, 1], got {bound!r}')
    return PMF(f.offset, f.probs, bound) if bound > f.tail_mass_bound else f


def muculants_to_dict(seq: MuculantSeq) -> dict:
    return {
        "kind": seq.kind,
        "n_min": seq.n_min,
        "n_max": seq.n_max,
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
        "offset": s.offset,
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
        "window": list(r.window),
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
    the text route, which is the only one that names a bad line.  The file
    is read once, as bytes, on either route; the text route decodes them by
    :func:`_decode_text`, so a leading BOM is dropped.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    values = _parse_canonical(data)
    return _read_samples_text(path, data) if values is None else values


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


def _read_samples_text(path, data: bytes) -> np.ndarray:
    """``read_samples`` for the bytes ``data`` of any file, by ``int()`` on
    each line; ``path`` names the file in messages."""
    text = _decode_text(path, data)
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


def _decode_text(path, data: bytes) -> str:
    """The text of a file's bytes: UTF-8 with one leading BOM dropped, and
    ``\\r\\n`` and ``\\r`` mapped to ``\\n`` (as text mode reads a file).
    ValueError names the line of the first byte that is not UTF-8."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # positions count from after the BOM, which holds no line break
        head = exc.object[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(
            f"{path}:{line}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's ``pairs`` as a dict; ValueError for a repeated key,
    where ``json`` would let the last value win."""
    payload = {}
    for key, value in pairs:
        if key in payload:
            raise ValueError(f'"{key}" appears twice')
        payload[key] = value
    return payload


def read_json(path) -> dict:
    """The JSON object in a file, decoded by :func:`_decode_text`.
    ValueError names the file, and the line and column of a parse error;
    a key repeated in any object is refused."""
    import json

    with open(path, "rb") as fh:
        text = _decode_text(path, fh.read())
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # a repeated key, or an integer too long for int()
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return payload
