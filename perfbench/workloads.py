"""The benchmark's workloads: inputs made from a seed, operations, and checks.

A workload yields rounds, each a list of ``Op``.  The harness times
``Op.call`` and then runs ``Op.check`` on its outcome, untimed; ``check``
returns None when the outcome is right and a message otherwise.  An
exception listed in ``Op.expected`` is an outcome the check judges, not a
failure.  Rounds restart identically from the seed each time ``rounds`` is
called, so a traced replay runs exactly the operations an untraced pass ran.

Operations look muculants functions up through module attributes at call
time (``self.mu.poisson_test``), so the wrappers that ``tracing`` installs are
the ones called.
"""

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    expected: tuple = ()


def _within(label, got, want, tol):
    gap = float(np.max(np.abs(np.asarray(got, dtype=float) - want)))
    return None if gap <= tol else f"{label}: gap {gap:.3e} > {tol:.0e}"


# ---------------------------------------------------------------------------
# bootstrap

SAMPLE_SIZE = 10_000
BOOTSTRAP_B = 1000


# Units per round, by class: (null draw refused, alternative's grid size).
# The shares follow the population of units (over r = 0..299: 21% of null
# draws refused, 61% of alternative draws on the 512-point grid, the rest on
# 256), so every round, and so every run of whole rounds, holds the same mix
# of cheap refusals and of the two grid sizes.
BOOTSTRAP_ROUND = {(True, 512): 1, (False, 256): 2, (False, 512): 2}


class Bootstrap:
    """poisson_test at its defaults on criterion 7's two arms, alternating.

    A unit r is the null draw ``default_rng([31337, r]).poisson(3.0, m)``
    and the alternative draw ``default_rng([77001, r]).geometric(0.25, m) - 1``,
    each tested with ``seed=r``.  The seed samples r; units are sorted into
    the classes of ``BOOTSTRAP_ROUND`` by the benchmark's own reference, and
    the round takes its quota from each class (stratified sampling).  Every
    round repeats the same units, so each operation's median repetition
    can be taken.  Null draws whose empirical charfn dips below the floor
    are refused with CharFnVanishes, an expected outcome the check confirms.
    """

    name = "bootstrap"
    imports = ("muculants",)

    def __init__(self, seed, workdir):
        import muculants

        self.mu = muculants
        self.counts = Counter()
        rng = np.random.default_rng([seed, 0xB007])
        need = Counter(BOOTSTRAP_ROUND)
        units = []
        while need:
            r = int(rng.integers(0, 2**31 - 1))
            null = np.random.default_rng([31337, r]).poisson(3.0, SAMPLE_SIZE)
            alt = np.random.default_rng([77001, r]).geometric(0.25, SAMPLE_SIZE) - 1
            refused = reference.poisson_statistic(null).min_abs < reference.EMPIRICAL_FLOOR
            key = (refused, reference.grid_size(alt, 8))
            if need[key] > 0:
                need[key] -= 1
                need = +need
                units.append((r, null, alt))
        self.ops = []
        for i in rng.permutation(len(units)):
            r, null, alt = units[i]
            self.ops += [self._op("null", null, r), self._op("alternative", alt, r)]

    def rounds(self):
        while True:
            yield self.ops

    def _op(self, arm, x, r):
        def call():
            return self.mu.poisson_test(x, seed=r)

        def check(outcome):
            return self._check(x, outcome)

        return Op(f"poisson_test[{arm}, r={r}]", call, check, (self.mu.CharFnVanishes,))

    def _check(self, x, res):
        ref = reference.poisson_statistic(x)
        if isinstance(res, self.mu.CharFnVanishes):
            if ref.min_abs < reference.EMPIRICAL_FLOOR:
                return None
            return f"refused, but the reference min |Phi| is {ref.min_abs:.3e}"
        if ref.min_abs < reference.EMPIRICAL_FLOOR:
            return f"accepted, but the reference min |Phi| is {ref.min_abs:.3e}"
        self.counts["replicates_used"] += res.n_bootstrap_used
        self.counts["replicates_attempted"] += res.n_bootstrap
        if not math.isclose(res.statistic, ref.statistic, rel_tol=1e-8, abs_tol=1e-14):
            return f"statistic {res.statistic!r} != reference {ref.statistic!r}"
        if not math.isclose(res.lambda_hat, ref.lambda_hat, rel_tol=1e-12):
            return f"lambda_hat {res.lambda_hat!r} != reference {ref.lambda_hat!r}"
        if res.reject != (res.statistic > res.threshold):
            return "reject disagrees with statistic > threshold"
        if not 0.0 <= res.p_value <= 1.0:
            return f"p_value {res.p_value!r} outside [0, 1]"
        if not 1 <= res.n_bootstrap_used <= res.n_bootstrap == BOOTSTRAP_B:
            return f"n_bootstrap_used {res.n_bootstrap_used} of {res.n_bootstrap}"
        return None


# ---------------------------------------------------------------------------
# spectral

# Tolerances of the acceptance criteria: closed form against the grid
# pipeline (2), decomposition entries and mass (6), round trip (8), and the
# point-mass / winding sawtooth on a grid (3 and 8).
CLOSED_TOL = 1e-6
ENTRY_TOL = 1e-6
MASS_TOL = 1e-8
ROUND_TRIP_TOL = 1e-8
SAWTOOTH_TOL = 5e-3

N_COEF = 20
N_CUMULANT_COEF = 60
K_MAX = 4
N_DECOMPOSE = 100
N_RECURSION = 1000
N_RECONSTRUCT = 100


@dataclass
class Law:
    """A law the spectral workload builds from spec strings on every call."""

    name: str
    specs: tuple  # parse_spec strings; two specs mean their convolution
    mirrored: bool = False
    winding: bool = False


class Spectral:
    """A fixed mix of library operations on exact PMFs.

    Each round runs every operation once, in a fixed order that groups the
    operations by kind; the seed draws the family parameters within ranges
    where every check holds.  No inference and no RNG inside the operations.
    The order does not vary with the seed because an operation that runs
    right after the interpreter-bound recursion takes about 0.5 ms longer,
    twice a small operation's time: a seed-shuffled order decided which
    small operations paid that and moved op_p50_ms by a third between seeds.
    """

    name = "spectral"
    imports = ("muculants",)

    def __init__(self, seed, workdir):
        import muculants

        self.mu = muculants
        self.counts = Counter()
        rng = np.random.default_rng([seed, 0x5BEC])
        u = lambda lo, hi: round(float(rng.uniform(lo, hi)), 4)  # noqa: E731
        shift = int(rng.integers(2, 6))
        laws = [
            Law("poisson", (f"poisson:lambda={u(1.5, 2.5)}",)),
            Law("geometric", (f"geometric:p={u(0.18, 0.25)}",)),
            Law("bernoulli", (f"bernoulli:p={u(0.1, 0.3)}",)),
            Law("binomial", (f"binomial:n=5,p={u(0.1, 0.3)}",)),
            Law("negbinomial", (f"negbinomial:r=2,p={u(0.2, 0.35)}",)),
            Law("degenerate", (f"degenerate:m={int(rng.integers(2, 7))}",), winding=True),
            Law("shifted", (f"poisson:lambda={u(1.5, 2.5)}", f"degenerate:m={shift}"), winding=True),
            Law("bernoulli_winding", (f"bernoulli:p={u(0.65, 0.8)}",), winding=True),
            Law("mirrored_geometric", ("geometric:p=0.2",), mirrored=True),
            Law("wide_geometric", ("geometric:p=0.01",)),
        ]
        by_name = {law.name: law for law in laws}
        minphase = [by_name[n] for n in ("poisson", "geometric", "bernoulli", "binomial", "negbinomial")]
        # Ten recursions, a fifth of a round's operations, so that op_p90_ms
        # falls mid-way through the recursion's latencies, not at their edge.
        recursion_only = [
            Law("poisson_b", (f"poisson:lambda={u(3.0, 4.0)}",)),
            Law("geometric_b", (f"geometric:p={u(0.3, 0.5)}",)),
            Law("bernoulli_b", (f"bernoulli:p={u(0.3, 0.45)}",)),
            Law("binomial_b", (f"binomial:n=10,p={u(0.1, 0.3)}",)),
            Law("negbinomial_b", (f"negbinomial:r=3,p={u(0.2, 0.35)}",)),
        ]
        ops = []
        for law in laws:
            ops.append(self._coefficients(law))
            ops.append(self._power(law))
        for name in ("poisson", "bernoulli", "binomial", "negbinomial"):
            ops.append(self._cumulants(by_name[name]))
        for law in minphase:
            ops.append(self._reconstruct(law))
        for law in minphase + recursion_only:
            ops.append(self._recursion(law))
        for name in ("degenerate", "shifted", "bernoulli_winding"):
            ops.append(self._round_trip(by_name[name]))
        for name in ("mirrored_geometric", "geometric", "poisson", "negbinomial", "binomial"):
            ops.append(self._decompose_small(by_name[name]))
        ops.append(self._decompose_wide(by_name["wide_geometric"]))
        self.ops = ops

    def rounds(self):
        while True:
            yield self.ops

    # -- helpers; called both inside operations and at set-up ------------
    def build(self, law):
        mu = self.mu
        pmfs = [mu.zoo_pmf(mu.parse_spec(s)) for s in law.specs]
        f = pmfs[0] if len(pmfs) == 1 else mu.convolve(*pmfs)
        if law.mirrored:
            f = mu.validate_pmf(-(len(f) - 1), f.probs[::-1])
        return f

    def closed_form(self, law, lo, hi):
        """Closed-form coefficients on lo..hi, summed over the convolved specs
        and mirrored with the law."""
        mu = self.mu
        a, b = (-hi, -lo) if law.mirrored else (lo, hi)
        total = sum(mu.zoo_muculants(mu.parse_spec(s), (a, b)).values for s in law.specs)
        return total[::-1] if law.mirrored else total

    def _grid(self, f):
        mu = self.mu
        return mu.FrequencyGrid.for_width(mu.support_width(f), minimum=4096)

    # -- operations -------------------------------------------------------
    def _coefficients(self, law):
        want = self.closed_form(law, -N_COEF, N_COEF)
        tol = SAWTOOTH_TOL if law.winding else CLOSED_TOL

        def call():
            mu = self.mu
            f = self.build(law)
            cf = mu.eval_charfn(f, self._grid(f))
            return mu.complex_muculants(mu.complex_log(cf), N_COEF)

        return Op(f"coefficients[{law.name}]", call, lambda s: _within(law.name, s.values, want, tol))

    def _power(self, law):
        c = self.closed_form(law, -N_COEF, N_COEF)
        want = c + c[::-1]  # ln|Phi|^2 = log Phi + conj(log Phi)

        def call():
            mu = self.mu
            f = self.build(law)
            return mu.power_muculants(mu.eval_charfn(f, self._grid(f)), N_COEF)

        return Op(f"power[{law.name}]", call, lambda s: _within(law.name, s.values, want, CLOSED_TOL))

    def _cumulants(self, law):
        mu = self.mu
        want = mu.zoo_cumulants(mu.parse_spec(law.specs[0]), K_MAX).values
        tol = CLOSED_TOL * np.maximum(1.0, np.abs(want))

        def call():
            f = self.build(law)
            cf = mu.eval_charfn(f, self._grid(f))
            seq = mu.complex_muculants(mu.complex_log(cf), N_CUMULANT_COEF)
            return mu.cumulants_from_muculants(seq, K_MAX)

        def check(kv):
            gap = np.abs(kv.values - want)
            return None if np.all(gap <= tol) else f"{law.name}: cumulant gap {gap.max():.3e}"

        return Op(f"cumulants[{law.name}]", call, check)

    def _reconstruct(self, law):
        mu = self.mu
        f = self.build(law)
        window = (-5, len(f) + 5)
        want = np.array([f.probs[x] if 0 <= x < len(f) else 0.0 for x in range(window[0], window[1] + 1)])

        def call():
            seq = mu.zoo_muculants(mu.parse_spec(law.specs[0]), (-N_RECONSTRUCT, N_RECONSTRUCT))
            return mu.reconstruct_sequence(seq, window)

        def check(s):
            got = [s.value_at(x) for x in range(window[0], window[1] + 1)]
            return _within(law.name, got, want, ENTRY_TOL)

        return Op(f"reconstruct[{law.name}]", call, check)

    def _recursion(self, law):
        mu = self.mu
        want = mu.zoo_muculants(mu.parse_spec(law.specs[0]), (0, N_RECURSION)).values

        def call():
            f = self.build(law)
            return mu.is_minimum_phase(f), mu.recursive_minphase_muculants(f, N_RECURSION)

        def check(outcome):
            is_min, seq = outcome
            if not is_min:
                return f"{law.name}: not minimum phase"
            return _within(law.name, seq.values, want, CLOSED_TOL)

        return Op(f"recursion[{law.name}]", call, check)

    def _round_trip(self, law):
        mu = self.mu
        m0 = mu.MuculantSeq(-N_COEF, N_COEF, self.closed_form(law, -N_COEF, N_COEF), "complex", 0.0)
        grid = mu.FrequencyGrid(4096)
        tol = SAWTOOTH_TOL if law.name in ("degenerate", "shifted") else ROUND_TRIP_TOL

        def call():
            return mu.complex_muculants(mu.complex_log(mu.reconstruct_charfn(m0, grid)), N_COEF)

        return Op(f"round_trip[{law.name}]", call, lambda s: _within(law.name, s.values, m0.values, tol))

    def _decompose_small(self, law):
        """Criterion 6 for the mirrored law; identity factorization for a
        minimum-phase law (itself times a unit mass at zero)."""
        mu = self.mu
        f = self.build(law)
        if law.mirrored:
            g = mu.zoo_pmf(mu.parse_spec(law.specs[0]))
            xs = range(0, len(g) + 10)
            want_min = np.array([g.probs[x] if x < len(g) else 0.0 for x in xs])
        else:
            xs = range(f.offset - 5, f.offset + len(f) + 5)
            want_min = np.array([f.probs[x - f.offset] if 0 <= x - f.offset < len(f) else 0.0 for x in xs])

        def call():
            return mu.decompose(self.build(law), N_DECOMPOSE)

        def check(d):
            msg = _within(f"{law.name} minphase", [d.minphase_seq.value_at(x) for x in xs], want_min, ENTRY_TOL)
            if msg:
                return msg
            if not d.minphase_is_pmf:
                return f"{law.name}: minimum-phase factor is not a PMF"
            if abs(d.allpass_seq.sum - 1.0) > MASS_TOL:
                return f"{law.name}: allpass mass {d.allpass_seq.sum!r}"
            ap = d.allpass_seq
            if law.mirrored:
                q = 1.0 - float(law.specs[0].split("=")[1])
                if abs(ap.value_at(1) + q) > ENTRY_TOL or d.allpass_is_pmf:
                    return f"{law.name}: allpass[1] {ap.value_at(1)!r}, want {-q}"
                return None
            unit = np.where(ap.support == 0, 1.0, 0.0)
            return _within(f"{law.name} allpass", ap.values, unit, ENTRY_TOL)

        return Op(f"decompose[{law.name}]", call, check)

    def _decompose_wide(self, law):
        """At n_max = 100 the wide law's coefficients (0.99^n / n) are far from
        settled, so its sequences are not PMFs; the coefficient domain is
        still exact: the minimum-phase part is the law's own coefficients
        and the allpass part vanishes."""
        mu = self.mu
        want = self.closed_form(law, -N_DECOMPOSE, N_DECOMPOSE)

        def call():
            return mu.decompose(self.build(law), N_DECOMPOSE)

        def check(d):
            msg = _within(f"{law.name} minphase", d.minphase_muculants.values, want, CLOSED_TOL)
            if msg:
                return msg
            return _within(f"{law.name} allpass", d.allpass_muculants.values, 0.0, CLOSED_TOL)

        return Op(f"decompose[{law.name}]", call, check)


# ---------------------------------------------------------------------------
# cli

CLI_BOOTSTRAP = 20


def flatten(obj, prefix=""):
    """JSON value -> {key: leaf} with CSV's key convention: nested keys
    joined with '.', list entries as key[i]."""
    out = {}
    if isinstance(obj, dict):
        for key, val in obj.items():
            out.update(flatten(val, f"{prefix}.{key}" if prefix else key))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            out.update(flatten(val, f"{prefix}[{i}]"))
    else:
        out[prefix] = obj
    return out


def parse_csv(text):
    """CSV rendering -> (label, {key: str}); indexed tables map row i to values[i]."""
    lines = text.splitlines()
    label = lines[0].split(",")[0]
    rows = [line.split(",", 1) for line in lines[1:]]
    if label == "field":
        return label, dict(rows), None
    return label, {f"values[{i}]": v for i, (_, v) in enumerate(rows)}, [int(k) for k, _ in rows]


def _same(a, b) -> bool:
    """Equal as rendered: booleans as true/false, numbers by value."""
    a, b = (str(v).lower() if isinstance(v, bool) else v for v in (a, b))
    try:
        return float(a) == float(b)
    except ValueError:
        return a == b


@dataclass
class Command:
    name: str
    argv: list
    expected: dict  # key -> library value, in the JSON/CSV key convention
    index: list | None  # first column of an indexed CSV
    exit_code: int


class Cli:
    """``muculants.cli.main(argv)`` in-process with stdout captured.

    Every subcommand, in JSON and then CSV, over files written at set-up:
    two 10^4-line sample files, a PMF and a muculant JSON file.  Each
    rendering must carry exactly the library's numbers for the same input,
    so the JSON and CSV renderings of a command carry the same numbers.
    """

    name = "cli"
    imports = ("muculants", "muculants.cli")

    def __init__(self, seed, workdir):
        import muculants
        import muculants.cli

        self.mu = muculants
        self.cli = muculants.cli
        self.counts = Counter()
        rng = np.random.default_rng([seed, 0xC11])
        u = lambda lo, hi: round(float(rng.uniform(lo, hi)), 4)  # noqa: E731
        mu = self.mu
        pois = rng.poisson(u(1.2, 1.8), SAMPLE_SIZE)
        geo = rng.geometric(u(0.45, 0.55), SAMPLE_SIZE) - 1
        law = mu.zoo_pmf(mu.NegativeBinomial(2, u(0.2, 0.35)))
        muc = mu.zoo_muculants(mu.Geometric(u(0.4, 0.6)), (-40, 40))
        paths = {
            "pois": workdir / "poisson.txt",
            "geo": workdir / "geometric.txt",
            "law": workdir / "law.json",
            "muc": workdir / "muculants.json",
        }
        paths["pois"].write_text("".join(f"{int(v)}\n" for v in pois))
        paths["geo"].write_text("".join(f"{int(v)}\n" for v in geo))
        paths["law"].write_text(json.dumps({"offset": law.offset, "probs": law.probs.tolist()}))
        paths["muc"].write_text(
            json.dumps({"kind": "complex", "n_min": -40, "n_max": 40, "values": muc.values.tolist()})
        )
        p = {k: str(v) for k, v in paths.items()}
        f = mu.validate_pmf(law.offset, law.probs)
        pmf_grid = mu.FrequencyGrid.for_width(mu.support_width(f), minimum=4096)
        lam, p_bin, p_geo = u(1.5, 2.5), u(0.1, 0.3), u(0.3, 0.6)
        test_seed = int(rng.integers(0, 1000))

        commands = []

        def add(name, argv, fields, index, exit_code=0):
            commands.append(Command(name, argv, fields, index, exit_code))

        def add_seq(name, argv, s):
            add(name, argv, _muculant_fields(s), list(s.indices))

        add_seq("muculants-samples", ["muculants", "--input", p["pois"]],
                mu.estimate_muculants(pois, mu.grid_for_samples(pois), 20))
        add_seq("muculants-pmf", ["muculants", "--input", p["law"]],
                mu.complex_muculants(mu.complex_log(mu.eval_charfn(f, pmf_grid)), 20))
        g = mu.zoo_pmf(mu.Poisson(lam))
        g_grid = mu.FrequencyGrid.for_width(mu.support_width(g), minimum=4096)
        add_seq("muculants-dist", ["muculants", "--dist", f"poisson:lambda={lam}"],
                mu.complex_muculants(mu.complex_log(mu.eval_charfn(g, g_grid)), 20))
        add_seq("power-samples", ["power-muculants", "--input", p["geo"]],
                mu.power_muculants(mu.empirical_charfn(geo, mu.grid_for_samples(geo)), 20))
        add_seq("power-pmf", ["power-muculants", "--input", p["law"]],
                mu.power_muculants(mu.eval_charfn(f, pmf_grid), 20))
        kv = mu.cumulants_from_muculants(
            mu.complex_muculants(mu.complex_log(mu.eval_charfn(f, pmf_grid)), 60), 4
        )
        add("cumulants-pmf", ["cumulants", "--input", p["law"]], _cumulant_fields(kv), [1, 2, 3, 4])
        kv = mu.zoo_cumulants(mu.Binomial(5, p_bin), 4)
        add("cumulants-dist", ["cumulants", "--dist", f"binomial:n=5,p={p_bin}"],
            _cumulant_fields(kv), [1, 2, 3, 4])
        s = mu.reconstruct_sequence(muc, (0, 80))
        add("reconstruct-file", ["reconstruct", "--input", p["muc"], "--support", "0:80"],
            _sequence_fields(s), list(s.support))
        s = mu.reconstruct_sequence(mu.zoo_muculants(mu.Poisson(lam), (-20, 20)), (-5, 40))
        add("reconstruct-dist", ["reconstruct", "--dist", f"poisson:lambda={lam}", "--support=-5:40"],
            _sequence_fields(s), list(s.support))
        add("decompose", ["decompose", "--input", p["law"]], _decomposition_fields(mu.decompose(f, 100)), None)
        add_seq("zoo", ["zoo", "--dist", f"geometric:p={p_geo}"], mu.zoo_muculants(mu.Geometric(p_geo), (-20, 20)))
        # One test, on the non-Poisson sample (exit code 3 when rejected): at
        # about 18 ms it is the slowest command, and a second one would put
        # op_p90_ms on poisson-test alone, whose draws swing most with host load.
        r = mu.poisson_test(geo, n_bootstrap=CLI_BOOTSTRAP, seed=test_seed)
        add("poisson-test",
            ["poisson-test", "--input", p["geo"], "--bootstrap", str(CLI_BOOTSTRAP), "--seed", str(test_seed)],
            _test_fields(r), None, exit_code=3 if r.reject else 0)
        self.commands = commands

    def rounds(self):
        ops = []
        for cmd in self.commands:
            ops.append(self._op(cmd, "json"))
            ops.append(self._op(cmd, "csv"))
        while True:
            yield ops

    def _op(self, cmd, fmt):
        argv = [*cmd.argv, "--output", fmt]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse reports usage errors this way
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        return Op(f"{cmd.name}[{fmt}]", call, lambda outcome: self._check(cmd, fmt, outcome))

    def _check(self, cmd, fmt, outcome):
        code, out, err = outcome
        self.counts["bytes_out"] += len(out.encode())
        if code != cmd.exit_code:
            return f"{cmd.name}: exit {code}, documented {cmd.exit_code}; {err.strip()}"
        if fmt == "json":
            got = flatten(json.loads(out))
        else:
            label, got, index = parse_csv(out)
            if cmd.index is not None and index != [int(k) for k in cmd.index]:
                return f"{cmd.name}: CSV index column differs"
        if fmt == "csv" and label != "field":  # an indexed table holds the values only
            want = {k: v for k, v in cmd.expected.items() if k.startswith("values[")}
        else:
            want = cmd.expected
        if "n_bootstrap_used" in got:
            self.counts["replicates_used"] += int(got["n_bootstrap_used"])
            self.counts["replicates_attempted"] += int(got["n_bootstrap"])
        if set(got) != set(want):
            return f"{cmd.name}[{fmt}]: fields {sorted(set(got) ^ set(want))[:4]} differ from the library's"
        for key, value in want.items():
            if not _same(value, got[key]):
                return f"{cmd.name}[{fmt}]: {key}={got[key]!r}, library {value!r}"
        return None


def _values(arr, prefix=""):
    return {f"{prefix}values[{i}]": float(x) for i, x in enumerate(arr)}


def _muculant_fields(s, prefix=""):
    out = {f"{prefix}kind": s.kind, f"{prefix}n_min": s.n_min, f"{prefix}n_max": s.n_max}
    out.update(_values(s.values, prefix))
    out[f"{prefix}imag_residual"] = float(s.imag_residual)
    return out


def _sequence_fields(s, prefix=""):
    out = {f"{prefix}offset": s.offset, **_values(s.values, prefix)}
    out[f"{prefix}sum"] = float(s.sum)
    return out


def _cumulant_fields(kv):
    return {"k_max": len(kv.values), **_values(kv.values)}


def _decomposition_fields(d):
    out = {}
    for part, muc, seq, flag in (
        ("minphase", d.minphase_muculants, d.minphase_seq, d.minphase_is_pmf),
        ("allpass", d.allpass_muculants, d.allpass_seq, d.allpass_is_pmf),
    ):
        out.update(_muculant_fields(muc, f"{part}.muculants."))
        out.update(_sequence_fields(seq, f"{part}.sequence."))
        out[f"{part}.is_pmf"] = bool(flag)
    out["allpass.sum"] = float(d.allpass_seq.sum)
    return out


def _test_fields(r):
    return {
        "statistic": r.statistic,
        "lambda_hat": r.lambda_hat,
        "threshold": r.threshold,
        "p_value": r.p_value,
        "reject": bool(r.reject),
        "window[0]": r.window[0],
        "window[1]": r.window[1],
        "n_bootstrap": r.n_bootstrap,
        "n_bootstrap_used": r.n_bootstrap_used,
        "seed": r.seed,
    }


WORKLOADS = {w.name: w for w in (Bootstrap, Spectral, Cli)}
