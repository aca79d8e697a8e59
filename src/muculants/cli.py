"""Command-line front end: every pipeline stage behind one executable.

Exit codes: 0 success (or fail-to-reject), 1 domain error, 2 usage error,
3 Poissonity rejection.
"""

import argparse
import sys

from . import __version__
from .charfn import FrequencyGrid, complex_log, empirical_charfn, eval_charfn, grid_for_pmf
from .decompose import decompose
from .errors import MuculantError
from .inference import estimate_muculants, grid_for_samples, poisson_test
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


# The refusal of a --input kind a command cannot use; the others take PMFs and samples.
_WRONG_KIND = {
    "reconstruct": "reconstruct needs a muculant JSON input or --dist",
    "decompose": "decompose needs a PMF input (.json) or --dist",
}


def _load_source(args, *accept):
    """(kind, value) from exactly one of ``--dist`` ('spec' where accepted,
    else 'pmf') and ``--input`` ('pmf' or 'muculants' from .json, 'samples'
    from .txt); ValueError for a kind not in ``accept``."""
    if (args.input is None) == (args.dist is None):
        raise ValueError("exactly one of --input and --dist is required")
    if args.dist is not None:
        spec = parse_spec(args.dist)
        return ("spec", spec) if "spec" in accept else ("pmf", zoo_pmf(spec))
    path = args.input
    if path.endswith(".txt"):
        kind, value = "samples", read_samples(path)
    elif not path.endswith(".json"):
        raise ValueError(f"{path}: unknown input extension (expected .json or .txt)")
    elif "probs" in (payload := read_json(path)):
        kind, value = "pmf", pmf_from_dict(payload)
    elif "kind" in payload:
        kind, value = "muculants", muculants_from_dict(payload)
    else:
        raise ValueError(f"{path}: JSON object is neither a PMF nor a muculant sequence")
    if kind not in accept:
        raise ValueError(
            _WRONG_KIND.get(args.command, "input already holds muculants; nothing to compute")
        )
    return kind, value


# The flags a route parses but does not read, by command: its source flag
# and those flags.  Closed-form cumulants take no grid and no index range,
# and a muculant file carries its own index range.
_UNREAD = {"cumulants": ("dist", ("grid", "n_max")), "reconstruct": ("input", ("n_max",))}


def _settle_flags(args) -> None:
    """ValueError naming a flag that the chosen route would ignore; then
    ``--n-max``, when left out, takes its command's default."""
    source, unread = _UNREAD.get(args.command, (None, ()))
    if source is not None and getattr(args, source) is not None:
        for dest in unread:
            if getattr(args, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                raise ValueError(f"{flag} has no effect on {args.command} --{source}")
    if getattr(args, "n_max", 0) is None:
        args.n_max = args.default_n_max


def _grid(args, data, default_rule) -> FrequencyGrid:
    """``--grid`` when given, else the library's ``default_rule(data, n_max)``."""
    if args.grid is not None:
        return FrequencyGrid(args.grid)
    return default_rule(data, args.n_max)


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


def _complex_seq(args, kind, value):
    if kind == "pmf":
        cf = eval_charfn(value, _grid(args, value, grid_for_pmf))
        return complex_muculants(complex_log(cf), args.n_max)
    return estimate_muculants(value, _grid(args, value, grid_for_samples), args.n_max)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_muculants(args) -> int:
    _print_muculants(args, _complex_seq(args, *_load_source(args, "pmf", "samples")))
    return 0


def _cmd_power_muculants(args) -> int:
    kind, value = _load_source(args, "pmf", "samples")
    if kind == "pmf":
        cf = eval_charfn(value, _grid(args, value, grid_for_pmf))
    else:
        cf = empirical_charfn(value, _grid(args, value, grid_for_samples))
    _print_muculants(args, power_muculants(cf, args.n_max))
    return 0


def _cmd_cumulants(args) -> int:
    kind, value = _load_source(args, "spec", "pmf", "samples")
    if kind == "spec":
        kv = zoo_cumulants(value, args.k_max)
    else:
        kv = cumulants_from_muculants(_complex_seq(args, kind, value), args.k_max)
    _render(args, cumulants_to_dict(kv), ("k", range(1, len(kv.values) + 1), kv.values))
    return 0


def _cmd_reconstruct(args) -> int:
    kind, seq = _load_source(args, "spec", "muculants")
    if kind == "spec":
        seq = zoo_muculants(seq, (-args.n_max, args.n_max))
    out = reconstruct_sequence(seq, _parse_range(args.support, "--support"))
    _render(args, sequence_to_dict(out), ("xi", out.support, out.values))
    return 0


def _cmd_decompose(args) -> int:
    _, f = _load_source(args, "pmf")
    d = decompose(f, args.n_max, grid=_grid(args, f, grid_for_pmf))
    _render(args, decomposition_to_dict(d))
    return 0


def _cmd_zoo(args) -> int:
    _print_muculants(args, zoo_muculants(parse_spec(args.dist), (-args.n_max, args.n_max)))
    return 0


def _cmd_poisson_test(args) -> int:
    if not args.input.endswith(".txt"):
        raise ValueError("poisson-test reads newline-delimited samples (.txt)")
    samples = read_samples(args.input)
    window = _parse_range(args.window, "--window")
    result = poisson_test(
        samples, alpha=args.alpha, window=window, n_bootstrap=args.bootstrap, seed=args.seed
    )
    _render(args, test_result_to_dict(result))
    return 3 if result.reject else 0


# ---------------------------------------------------------------------------
# parser

_PMF_OR_SAMPLES = "PMF JSON (.json) or sample file (.txt)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muculants",
        description="Log-characteristic-function coefficients of integer-valued distributions: "
        "computation, reconstruction, decomposition, and a Poissonity test.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text, *, reads=_PMF_OR_SAMPLES, dist=True, grid=True, n_max=20):
        """A subcommand; ``reads`` is the help of ``--input`` (None: no
        ``--input``), a command with one source flag requires it, and
        ``n_max=None`` leaves out ``--n-max``."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--output", choices=("json", "csv"), default="json", help="output rendering")
        only = reads is None or not dist
        if reads is not None:
            p.add_argument("--input", required=only, metavar="PATH", help=reads)
        if dist:
            p.add_argument(
                "--dist", required=only, metavar="SPEC", help='family spec, e.g. "poisson:lambda=2"'
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
                metavar="M",
                help=f"largest coefficient index (default {n_max})",
            )
            p.set_defaults(default_n_max=n_max)
        return p

    add("muculants", _cmd_muculants, "complex coefficients of log charfn")
    add("power-muculants", _cmd_power_muculants, "coefficients of the log squared charfn modulus")
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
        reads="muculant JSON (.json)",
        grid=False,
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
        reads="PMF JSON (.json)",
        n_max=100,
    )
    add("zoo", _cmd_zoo, "closed-form coefficients for a named family", reads=None, grid=False)

    p = add(
        "poisson-test",
        _cmd_poisson_test,
        "parametric-bootstrap Poissonity test on integer samples; exit code 3 signals rejection",
        reads="sample file (.txt)",
        dist=False,
        grid=False,
        n_max=None,
    )
    test = poisson_test.__kwdefaults__  # the library's defaults, stated once
    p.add_argument(
        "--alpha", type=float, default=test["alpha"], help="test level (default %(default)s)"
    )
    p.add_argument(
        "--bootstrap",
        type=int,
        default=test["n_bootstrap"],
        metavar="B",
        help="replicates (default %(default)s)",
    )
    p.add_argument(
        "--seed", type=int, default=test["seed"], help="bootstrap seed (default %(default)s)"
    )
    p.add_argument(
        "--window",
        default="{}:{}".format(*test["window"]),
        metavar="LO:HI",
        help="statistic window, indices 0 and 1 excluded (default %(default)s)",
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
        _settle_flags(args)
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
