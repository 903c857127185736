"""Print one seed's simulated end-to-end figures as sorted JSON.

Runs every workload of ``BENCHMARK.json`` once through
``benchmarks/e2e/run.py`` at ``--scale 0.1 --seconds 1`` and keeps, per
workload, the ``detail`` line's ``sim`` section and its ``per_layer``
section without the host-timed keys.  What remains is a pure function
of the seed, so CI compares it byte for byte with the committed golden
(``benchmarks/goldens/e2e_seed<S>.json``).  A change that moves a
simulated figure on purpose regenerates the golden::

    PYTHONPATH=src python benchmarks/e2e_figures.py --seed 42 \\
        > benchmarks/goldens/e2e_seed42.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
DETAIL_PREFIX = "detail: "

#: ``per_layer`` keys read off the host clock; they differ between two
#: runs of one tree.
HOST_KEYS = frozenset({
    "sim.steps_per_host_s",
    "storage.rootfs_read_mib_per_s",
    "storage.data_read_mib_per_s",
    "storage.data_write_mib_per_s",
})


def figures(workload: str, seed: int) -> dict:
    """One workload's simulated figures at *seed*."""
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--scale", "0.1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        sys.exit(f"{workload} failed:\n{completed.stdout}{completed.stderr}")
    line = next(line for line in completed.stdout.splitlines()
                if line.startswith(DETAIL_PREFIX))
    detail = json.loads(line[len(DETAIL_PREFIX):])
    per_layer = {key: value for key, value in detail["per_layer"].items()
                 if key not in HOST_KEYS}
    return {"per_layer": per_layer, "sim": detail["sim"]}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {entry["name"]: figures(entry["name"], args.seed)
           for entry in spec["workloads"]}
    print(json.dumps(out, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
