"""Tests of the benchmark itself: checks catch wrong results, the tracer
accounts for operation time, end-to-end latencies are each operation's median
repetition scaled by the host's speed, and the compare rule gives the right
verdicts.

    python3 perfbench/selftest.py

Takes about ten seconds.
"""

import dataclasses
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import compare  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Replay:
    """A workload whose single round is the given operations."""

    def __init__(self, ops, counts=None):
        self.ops = ops
        self.counts = counts if counts is not None else Counter()

    def rounds(self):
        while True:
            yield self.ops


def corrupted(op, corrupt):
    return dataclasses.replace(op, call=lambda: corrupt(op.call()))


def error_rate(ops, counts=None):
    phase = harness.run_phase(Replay(ops, counts), rounds=1)
    return phase.failed / phase.attempted


class WrongResultsRaiseErrorRate(unittest.TestCase):
    def test_spectral(self):
        wl = workloads.Spectral(3, None)
        ops = [op for op in wl.ops if op.label.split("[")[0] in ("coefficients", "recursion", "decompose")]
        self.assertEqual(error_rate(ops), 0.0)

        def nudge(result):
            if isinstance(result, tuple):  # (is_minimum_phase, recursion)
                flag, seq = result
                return flag, dataclasses.replace(seq, values=seq.values + 1e-5)
            if hasattr(result, "minphase_seq"):
                seq = result.minphase_seq
                return dataclasses.replace(result, minphase_seq=dataclasses.replace(seq, values=seq.values * 1.001))
            return dataclasses.replace(result, values=result.values * 1.01)

        wrong = [corrupted(op, nudge) for op in ops]
        self.assertGreaterEqual(error_rate(wrong), 0.8)

    def test_cli(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.Cli(3, Path(tmp))
            ops = next(wl.rounds())
            self.assertEqual(error_rate(ops, wl.counts), 0.0)

            def bump_last_number(outcome):
                code, out, err = outcome
                i = out.rfind(".") + 1  # first fraction digit of the last number
                return code, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :], err

            wrong = [corrupted(op, bump_last_number) for op in ops]
            self.assertEqual(error_rate(wrong, wl.counts), 1.0)
            bad_exit = [corrupted(op, lambda o: (1, *o[1:])) for op in ops[:4]]
            self.assertEqual(error_rate(bad_exit, wl.counts), 1.0)

    def test_bootstrap(self):
        wl = workloads.Bootstrap(3, None)
        alt = next(op for op in next(wl.rounds()) if "alternative" in op.label)
        done = alt.call()
        replay = dataclasses.replace(alt, call=lambda: done)
        self.assertEqual(error_rate([replay], wl.counts), 0.0)
        for change in (
            {"statistic": done.statistic * (1 + 1e-6)},
            {"lambda_hat": done.lambda_hat + 1e-9},
            {"reject": not done.reject},
            {"p_value": 1.5},
            {"n_bootstrap_used": done.n_bootstrap + 1},
        ):
            wrong = dataclasses.replace(replay, call=lambda c=change: dataclasses.replace(done, **c))
            self.assertEqual(error_rate([wrong], wl.counts), 1.0, change)
        # A refusal the data does not warrant is wrong too.
        refused = dataclasses.replace(replay, call=lambda: wl.mu.CharFnVanishes("refused"))
        self.assertEqual(error_rate([refused], wl.counts), 1.0)


class ReferenceStatistic(unittest.TestCase):
    def test_matches_program_and_refusal(self):
        import muculants

        for r in range(12):
            x = np.random.default_rng([31337, r]).poisson(3.0, 2000)
            ref = reference.poisson_statistic(x)
            try:
                est = muculants.estimate_muculants(x, muculants.grid_for_samples(x), 8)
            except muculants.CharFnVanishes:
                self.assertLess(ref.min_abs, reference.EMPIRICAL_FLOOR)
                continue
            self.assertAlmostEqual(
                muculants.poisson_statistic(est, (-8, 8)) / ref.statistic, 1.0, places=9
            )


class Tracing(unittest.TestCase):
    def test_self_times_account_for_wall_and_callers_are_reached(self):
        wl = workloads.Spectral(4, None)
        untraced = harness.run_phase(wl, rounds=1)
        tracer = tracing.Tracer()
        with tracer:
            traced = harness.run_phase(wl, rounds=1, tracer=tracer)
        self.assertEqual(traced.failed, 0)
        layers, acc = tracer.summary(traced.attempted, traced.busy_s)
        self.assertAlmostEqual(acc["accounted_share"], 1.0, delta=0.02)
        # decompose calls these through its own namespace
        self.assertGreater(layers["transform.reconstruct_sequence"]["calls_per_op"], 0)
        self.assertGreater(layers["decompose.minphase_from_power"]["calls_per_op"], 0)
        self.assertGreater(layers["pmf.PMF.validate"]["calls_per_op"], 0)
        self.assertEqual(untraced.attempted, traced.attempted)
        # uninstall restores the originals
        import muculants

        module = sys.modules["muculants.decompose"]
        self.assertFalse(hasattr(module.reconstruct_sequence, "__wrapped__"))
        self.assertFalse(hasattr(muculants.PMF.__post_init__, "__wrapped__"))

    def test_nested_self_time(self):
        tracer = tracing.Tracer()
        span = tracer.begin_op(0)
        inner = tracer._open(1)
        tracer._close(inner)
        tracer.end_op(span)
        tracer.end[0], tracer.start[0] = 10.0, 0.0
        tracer.end[1], tracer.start[1] = 7.0, 2.0
        layers, acc = tracer.summary(1, 10.0)
        self.assertEqual(layers["op"]["self_ms_per_op"], 5e3)
        self.assertEqual(layers[tracer.names[1]]["self_ms_per_op"], 5e3)
        self.assertEqual(acc["accounted_share"], 1.0)


class EndToEnd(unittest.TestCase):
    def test_latency_is_median_of_host_scaled_repetitions(self):
        ref = hostspeed.REFERENCE_S
        # Two operations a round, three rounds; the host ran at half speed
        # (the probe took twice its reference time) around the last round.
        phase = harness.Phase(
            attempted=6, failed=3, labels=["a", "b"],
            latencies=[3e-3, 5e-3, 1e-3, 7e-3, 4e-3, 18e-3],
            slot_ids=[0, 1, 0, 1, 0, 1],
            marks=[10.0, 11.0, 20.0, 21.0, 30.0, 31.0],
            probe_at=[9.0, 10.5, 11.5, 19.0, 20.5, 21.5, 29.0, 30.5, 31.5],
            probe_s=[ref] * 6 + [2 * ref] * 3,
        )
        metrics, per_op = harness.end_to_end(phase)
        # scaled: op 0 -> 3, 1, 2 ms (median 2); op 1 -> 5, 7, 9 ms (median 7)
        self.assertAlmostEqual(metrics["op_p50_ms"], 4.5)
        self.assertAlmostEqual(metrics["op_p90_ms"], 6.5)
        self.assertAlmostEqual(metrics["ops_per_s"], 0.5 / 4.5e-3)
        self.assertAlmostEqual(metrics["unscaled_op_p50_ms"], (3.0 + 7.0) / 2)
        self.assertEqual(per_op, {"a": 2.0, "b": 7.0})

    def test_probe_window_takes_the_probes_around_an_op(self):
        phase = harness.Phase(probe_at=[0.0, 1.0, 1.2, 1.4, 5.0], probe_s=[9.0, 1.0, 2.0, 3.0, 7.0], marks=[1.1, 3.0])
        # within 0.5 s of 1.1: probes at 1.0, 1.2, 1.4; none near 3.0, so the neighbours 1.4 and 5.0
        self.assertEqual(list(phase.host_probe_s()), [2.0, 5.0])


class CompareRule(unittest.TestCase):
    def judge(self, parent, change, better="lower", bound=0.1):
        return compare.verdict(parent, change, list(zip(parent, change)), better, bound)[0]

    def test_verdicts(self):
        base = [100.0 + i % 3 for i in range(10)]
        self.assertEqual(self.judge(base, [v * 0.8 for v in base]), "improved")
        self.assertEqual(self.judge(base, [v * 1.02 for v in base]), "no worse within bound")
        self.assertEqual(self.judge(base, [v * 1.3 for v in base]), "worse")
        noisy = [100.0, 60.0, 140.0, 90.0, 120.0, 70.0, 130.0, 100.0, 80.0, 110.0]
        self.assertEqual(self.judge(noisy, [v * 1.05 for v in noisy]), "unresolved")
        self.assertEqual(self.judge(base, [v * 1.2 for v in base], better="higher"), "improved")

    def test_more_failed_operations_make_a_change_invalid(self):
        def runs(failed):
            return [compare.Run(i, i, {"op_p50_ms": 1.0}, 100, f) for i, f in enumerate(failed)]

        parent = runs([0] * 10)
        self.assertFalse(compare.invalid(parent, runs([0] * 10)))
        self.assertTrue(compare.invalid(parent, runs([0] * 9 + [1])))
        self.assertFalse(compare.invalid(runs([1] * 10), runs([0] * 10)))
        self.assertEqual(compare.overall(["improved", "invalid", "worse"]), "invalid")
        self.assertEqual(compare.overall(["improved", "unresolved", "worse"]), "worse")
        self.assertEqual(compare.overall(["improved"]), "no worse within bound")


if __name__ == "__main__":
    unittest.main()
