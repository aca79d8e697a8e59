"""Command-line front end: every pipeline stage behind one executable.

Exit codes: 0 success (or fail-to-reject), 1 domain error, 2 usage error,
3 Poissonity rejection.
"""

import argparse
import sys

from . import __version__
from .charfn import (
    DEFAULT_GRID_SIZE,
    FrequencyGrid,
    complex_log,
    empirical_charfn,
    eval_charfn,
    require_modulus,
    support_width,
)
from .decompose import decompose
from .errors import MuculantError
from .inference import EMPIRICAL_FLOOR, estimate_muculants, grid_for_samples, poisson_test
from .io import (
    cumulants_to_dict,
    decomposition_to_dict,
    dumps_json,
    flat_csv,
    indexed_csv,
    muculants_from_dict,
    muculants_to_dict,
    pmf_from_dict,
    read_json,
    read_samples,
    sequence_to_dict,
    test_result_to_dict,
)
from .transform import (
    complex_muculants,
    cumulants_from_muculants,
    power_muculants,
    reconstruct_sequence,
)
from .zoo import parse_spec, zoo_cumulants, zoo_muculants, zoo_pmf


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"{flag} expects LO:HI, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"{flag} expects integer bounds, got {text!r}") from None


def _require_one_source(args) -> None:
    if (args.input is None) == (args.dist is None):
        raise ValueError("exactly one of --input and --dist is required")


def _load_source(args):
    """Returns one of ('pmf', PMF), ('samples', array), ('muculants', seq)."""
    _require_one_source(args)
    if args.dist is not None:
        return "pmf", zoo_pmf(parse_spec(args.dist))
    path = args.input
    if path.endswith(".json"):
        payload = read_json(path)
        if "probs" in payload:
            return "pmf", pmf_from_dict(payload)
        if "kind" in payload:
            return "muculants", muculants_from_dict(payload)
        raise ValueError(f"{path}: JSON object is neither a PMF nor a muculant sequence")
    if path.endswith(".txt"):
        return "samples", read_samples(path)
    raise ValueError(f"{path}: unknown input extension (expected .json or .txt)")


def _pmf_grid(args, f) -> FrequencyGrid:
    if args.grid is not None:
        return FrequencyGrid(args.grid)
    return FrequencyGrid.for_width(support_width(f), DEFAULT_GRID_SIZE, args.n_max)


def _sample_grid(args, samples) -> FrequencyGrid:
    if args.grid is not None:
        return FrequencyGrid(args.grid)
    return grid_for_samples(samples, args.n_max)


def _render(args, payload: dict, rows=None) -> None:
    """Write ``payload`` as JSON, or with ``--output csv`` as the indexed CSV
    of ``rows = (label, indices, values)`` when given, else as flat CSV."""
    if args.output != "csv":
        sys.stdout.write(dumps_json(payload))
    elif rows is not None:
        sys.stdout.write(indexed_csv(*rows))
    else:
        sys.stdout.write(flat_csv(payload))


def _print_muculants(args, seq) -> None:
    _render(args, muculants_to_dict(seq), ("n", seq.indices, seq.values))


def _complex_seq_from_source(args) -> "object":
    kind, obj = _load_source(args)
    if kind == "muculants":
        raise ValueError("input already holds muculants; nothing to compute")
    if kind == "pmf":
        cf = eval_charfn(obj, _pmf_grid(args, obj))
        return complex_muculants(complex_log(cf), args.n_max)
    return estimate_muculants(obj, _sample_grid(args, obj), args.n_max)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_muculants(args) -> int:
    _print_muculants(args, _complex_seq_from_source(args))
    return 0


def _cmd_power_muculants(args) -> int:
    kind, obj = _load_source(args)
    if kind == "muculants":
        raise ValueError("input already holds muculants; nothing to compute")
    if kind == "pmf":
        cf = eval_charfn(obj, _pmf_grid(args, obj))
    else:
        cf = empirical_charfn(obj, _sample_grid(args, obj))
        require_modulus(cf.values, EMPIRICAL_FLOOR)
    _print_muculants(args, power_muculants(cf, args.n_max))
    return 0


def _cmd_cumulants(args) -> int:
    _require_one_source(args)
    if args.dist is not None:
        kv = zoo_cumulants(parse_spec(args.dist), args.k_max)
    else:
        kv = cumulants_from_muculants(_complex_seq_from_source(args), args.k_max)
    _render(args, cumulants_to_dict(kv), ("k", range(1, len(kv.values) + 1), kv.values))
    return 0


def _cmd_reconstruct(args) -> int:
    _require_one_source(args)
    if args.dist is not None:
        seq = zoo_muculants(parse_spec(args.dist), (-args.n_max, args.n_max))
    else:
        kind, obj = _load_source(args)
        if kind != "muculants":
            raise ValueError("reconstruct needs a muculant JSON input or --dist")
        seq = obj
    lo, hi = _parse_range(args.support, "--support")
    out = reconstruct_sequence(seq, (lo, hi))
    _render(args, sequence_to_dict(out), ("xi", out.support, out.values))
    return 0


def _cmd_decompose(args) -> int:
    kind, obj = _load_source(args)
    if kind != "pmf":
        raise ValueError("decompose needs a PMF input (.json) or --dist")
    grid = FrequencyGrid(args.grid) if args.grid is not None else None
    d = decompose(obj, args.n_max, grid=grid)
    _render(args, decomposition_to_dict(d))
    return 0


def _cmd_zoo(args) -> int:
    seq = zoo_muculants(parse_spec(args.dist), (-args.n_max, args.n_max))
    _print_muculants(args, seq)
    return 0


def _cmd_poisson_test(args) -> int:
    if not args.input.endswith(".txt"):
        raise ValueError("poisson-test reads newline-delimited samples (.txt)")
    samples = read_samples(args.input)
    window = _parse_range(args.window, "--window")
    result = poisson_test(
        samples,
        alpha=args.alpha,
        window=window,
        n_bootstrap=args.bootstrap,
        seed=args.seed,
    )
    _render(args, test_result_to_dict(result))
    return 3 if result.reject else 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muculants",
        description="Log-characteristic-function coefficients of integer-valued "
        "distributions: computation, reconstruction, decomposition, and a "
        "Poissonity test.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text, *, source=True, grid=True, n_max=None):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument(
            "--output", choices=("json", "csv"), default="json", help="output rendering"
        )
        if source:
            p.add_argument(
                "--input", metavar="PATH", help="PMF JSON (.json) or sample file (.txt)"
            )
            p.add_argument(
                "--dist", metavar="SPEC", help='family spec, e.g. "poisson:lambda=2"'
            )
        if grid:
            p.add_argument(
                "--grid",
                type=int,
                metavar="N",
                help="grid size, a power of two >= 64 (default: sized from the input)",
            )
        if n_max is not None:
            p.add_argument(
                "--n-max",
                type=int,
                default=n_max,
                metavar="M",
                help=f"largest coefficient index (default {n_max})",
            )
        return p

    add("muculants", _cmd_muculants, "complex coefficients of log charfn", n_max=20)
    add(
        "power-muculants",
        _cmd_power_muculants,
        "coefficients of the log squared charfn modulus",
        n_max=20,
    )
    p = add(
        "cumulants",
        _cmd_cumulants,
        "cumulants: exact recursion for --dist, coefficient sum for file input",
        n_max=60,
    )
    p.add_argument("--k-max", type=int, default=4, metavar="K", help="highest order (default 4)")

    p = add(
        "reconstruct",
        _cmd_reconstruct,
        "probability sequence from a coefficient sequence",
        grid=False,
        n_max=20,
    )
    p.add_argument(
        "--support",
        required=True,
        metavar="LO:HI",
        help="index window the reconstructed sequence must live on",
    )

    add(
        "decompose",
        _cmd_decompose,
        "minimum-phase / allpass factorization of a PMF",
        n_max=100,
    )

    p = sub.add_parser(
        "zoo",
        help="closed-form coefficients for a named family",
        description="closed-form coefficients for a named family",
    )
    p.set_defaults(handler=_cmd_zoo)
    p.add_argument("--output", choices=("json", "csv"), default="json", help="output rendering")
    p.add_argument("--dist", required=True, metavar="SPEC", help='family spec, e.g. "geometric:p=0.5"')
    p.add_argument("--n-max", type=int, default=20, metavar="M", help="largest index (default 20)")

    p = sub.add_parser(
        "poisson-test",
        help="parametric-bootstrap Poissonity test on integer samples",
        description="parametric-bootstrap Poissonity test on integer samples; "
        "exit code 3 signals rejection",
    )
    p.set_defaults(handler=_cmd_poisson_test)
    p.add_argument("--output", choices=("json", "csv"), default="json", help="output rendering")
    p.add_argument("--input", required=True, metavar="PATH", help="sample file (.txt)")
    p.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    p.add_argument(
        "--bootstrap", type=int, default=1000, metavar="B", help="replicates (default 1000)"
    )
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed (default 0)")
    p.add_argument(
        "--window",
        default="-8:8",
        metavar="LO:HI",
        help="statistic window, indices 0 and 1 excluded (default -8:8)",
    )
    return parser


# A constant description of the command line, built once at import.  Building
# it takes argparse about 2 ms (2-vCPU VM), which every in-process call of
# main would otherwise repeat.
_PARSER = _build_parser()


# Options whose LO:HI value may start with a minus sign.
_RANGE_FLAGS = ("--support", "--window")


def _attach_range_values(argv: list) -> list:
    """``--support -4:10`` as ``--support=-4:10``.  argparse takes any
    separate value that starts with "-" (and is not a plain number) for an
    option and stops with "expected one argument"; the joined spelling is
    read as the flag's value."""
    out = []
    for arg in argv:
        if out and out[-1] in _RANGE_FLAGS and arg.startswith("-") and arg[1:2].isdigit():
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _PARSER.parse_args(_attach_range_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except MuculantError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: ValueError: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
