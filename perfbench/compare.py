"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run records as ``run.py`` writes them to
``.perfbench_out/results/``.  Only untraced runs count.  For each workload it
first compares the share of operations that failed their check: a change
that fails a larger share than the parent is invalid on that workload,
whatever its speed.  Otherwise, for each end-to-end metric of BENCHMARK.json,
it prints each side's median and quartiles, the pairs the change won, and a
verdict:

- improved: the change wins at least nine tenths of at least ten pairs, and
  the medians differ, in the better direction, by more than the distance
  between the parent's quartiles;
- unresolved: either side's quartile spread, as a share of its median, is
  wider than the metric's bound, and not every change run beats every
  parent run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- no worse within bound: otherwise.

Runs pair by seed when both sides ran the same seeds, else in run order.
The overall verdict is the first of invalid, worse, unresolved that any
workload or metric got, else no worse within bound.
"""

import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
SEVERITY = ("invalid", "worse", "unresolved", "no worse within bound")


@dataclass
class Run:
    order: int
    seed: int
    values: dict
    attempted: int
    failed: int


def load_side(directory) -> dict:
    """{workload: [Run]} for the untraced run records in ``directory``."""
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise SystemExit(f"{directory}: no run records")
    runs = defaultdict(list)
    for order, path in enumerate(paths):
        rec = json.loads(path.read_text())
        meta, result = rec["meta"], rec["result"]
        if meta["trace"]:
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs[meta["workload"]].append(Run(order, meta["seed"], values, result["attempted"], result["failed"]))
    return runs


def failed_share(runs) -> float:
    return sum(r.failed for r in runs) / sum(r.attempted for r in runs)


def invalid(parent, change) -> bool:
    """The change fails a larger share of its operations than the parent."""
    return failed_share(change) > failed_share(parent)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent, change):
    pseeds = [r.seed for r in parent]
    cseeds = [r.seed for r in change]
    if sorted(pseeds) == sorted(cseeds) and len(set(pseeds)) == len(pseeds):
        by_seed = {r.seed: r for r in change}
        return [(r, by_seed[r.seed]) for r in parent]
    by_order = lambda r: r.order  # noqa: E731
    return list(zip(sorted(parent, key=by_order), sorted(change, key=by_order)))


def verdict(p_vals, c_vals, paired, better, bound):
    """The benchmark's rule; ``paired`` holds (parent, change) values."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    wins = sum(1 for p, c in paired if sign * (c - p) < 0)
    gain = sign * (pm - cm)  # positive when the change is better
    if len(paired) >= MIN_PAIRS and wins >= WIN_SHARE * len(paired) and gain > (p3 - p1):
        return "improved", wins
    all_better = (max(c_vals) < min(p_vals)) if better == "lower" else (min(c_vals) > max(p_vals))
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > bound and not all_better:
        return "unresolved", wins
    if -gain / abs(pm) > bound:
        return "worse", wins
    return "no worse within bound", wins


def overall(verdicts) -> str:
    return min((v for v in verdicts if v in SEVERITY), key=SEVERITY.index, default=SEVERITY[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_side(argv[0]), load_side(argv[1])
    verdicts = []
    print("workload   metric        unit   parent median [q1, q3]            change median [q1, q3]"
          "            delta    won    verdict")
    for workload in sorted(set(parent) | set(change)):
        if not parent.get(workload) or not change.get(workload):
            print(f"{workload}: runs on one side only, not compared")
            verdicts.append("unresolved")
            continue
        p_runs, c_runs = parent[workload], change[workload]
        bad = invalid(p_runs, c_runs)
        print(f"{workload:10s} failed share: parent {failed_share(p_runs):.4g}, change {failed_share(c_runs):.4g}"
              + ("  invalid" if bad else ""))
        paired_runs = pairs(p_runs, c_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [r.values[name] for r in p_runs]
            c_vals = [r.values[name] for r in c_runs]
            paired = [(p.values[name], c.values[name]) for p, c in paired_runs]
            result, wins = verdict(p_vals, c_vals, paired, m["better"], m["bound"])
            if bad:
                result = "invalid"
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            print(
                f"{workload:10s} {name:13s} {m['unit']:6s} "
                f"{pm:11.5g} [{p1:.5g}, {p3:.5g}]".ljust(70)
                + f"{cm:11.5g} [{c1:.5g}, {c3:.5g}]".ljust(36)
                + f"{(cm - pm) / pm:+7.2%}  {wins:2d}/{len(paired):<2d}  {result}"
            )
            verdicts.append(result)
    print(f"overall: {overall(verdicts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
