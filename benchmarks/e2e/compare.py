"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent P1.json [P2.json ...] \\
                                      --change C1.json [C2.json ...]

Each file is a results file written by ``run.py`` (``--repeat N`` puts N
runs in one file).  Run both sides with the same seed, ``--seconds`` and
benchmark code, alternating which side runs first.  One row is printed
per workload and metric: each side's median and quartiles, the share of
(parent, change) run pairs the change wins (ties count for neither), and
a verdict against the metric's bound in ``BENCHMARK.json``:

* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``improved`` — the change wins at least nine tenths of the pairs and
  the medians differ by more than the parent's interquartile distance;
* ``unresolved`` — the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* ``unchanged`` — otherwise.

The simulated end-to-end metrics (``SIM_METRICS``) are pure functions
of the seed and the code, so their bound is 0 whatever ``BENCHMARK.json``
says: any worsening is a regression.  The bound there is wider only
because the benchmark's acceptance compares medians over different
seeds.  The other per-layer metrics of ``--trace 1`` runs get no
verdict.  A simulated figure (``SIM_METRICS`` and every unit starting
``sim``) that differs between runs of the same seed is reported as
drift.  The exit code is 1 when any metric regressed or drifted.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, spread

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: End-to-end metrics measured in simulated time (README.md), wherever
#: ``BENCHMARK.json`` declares them.
SIM_METRICS = frozenset({
    "sim_latency_ms",
    "first_visit_p50_ms", "first_visit_p99_ms",
    "revisit_p50_ms", "revisit_p99_ms",
    "request_p50_ms", "request_p99_ms",
    "max_rate_within_slo", "rollout_sim_s",
})


def load_runs(paths) -> dict:
    """(workload, metric) -> [(seed, value)] over every successful run."""
    values = defaultdict(list)
    for path in paths:
        results = json.loads(Path(path).read_text())
        for run in results["runs"]:
            if run.get("exit_code") != 0 or not run.get("result"):
                print(f"skipping failed run: {path} {run['workload']}")
                continue
            for metric, entry in run["result"]["metrics"].items():
                values[run["workload"], metric].append(
                    (results["seed"], entry["value"]))
    return values


def verdict(parent, change, better: str, bound) -> tuple:
    """(win share, verdict) for two lists of values of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return share, ""
    p1, p_median, p3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    worse = -sign * (c_median - p_median) / abs(p_median) if p_median else 0.0
    if worse > bound:
        return share, "regressed"
    if share >= 0.9 and abs(c_median - p_median) > (p3 - p1):
        return share, "improved"
    every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread(parent) > bound and not every_run_better:
        return share, "unresolved"
    return share, "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    declared = {entry["name"]: entry
                for entry in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)

    failing = False
    print(f"{'workload':<18} {'metric':<34} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        entry = declared.get(metric, {"unit": "", "better": "lower"})
        simulated = metric in SIM_METRICS
        before = [value for _, value in parent[key]]
        after = [value for _, value in change[key]]
        share, outcome = verdict(before, after, entry["better"],
                                 0.0 if simulated else entry.get("bound"))
        drifted = False
        if simulated or entry["unit"].startswith("sim"):
            expected = dict(parent[key])
            drifted = any(seed in expected and expected[seed] != value
                          for seed, value in change[key])
            if drifted:
                outcome = (outcome + " sim-drift").strip()
        failing |= drifted or outcome.startswith("regressed")
        cells = []
        for values in (before, after):
            q1, mid, q3 = quartiles(values)
            cells.append(f"{mid:.5g} [{q1:.5g}, {q3:.5g}]")
        print(f"{workload:<18} {metric:<34} {cells[0]:>34} {cells[1]:>34} "
              f"{share:>5.0%}  {outcome}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
