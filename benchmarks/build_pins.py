"""Print the golden values of every reference build as sorted JSON.

The reference builds are the boundary-node and CryptPad images of
``examples/_common.py`` and the fleet build the e2e benchmark deploys
(``benchmarks/e2e/workloads.py::fleet_build``) at 1.0.0 and 2.0.0.  For
each one the output pins:

* ``launch_measurement`` — the golden value a verifier expects;
* ``verity_root`` — the root hash the measured command line carries;
* ``initrd_sha256`` and ``disk_sha256`` — digests of the initrd blob
  and of the whole disk image.

A build is a pure function of its spec, so the output is identical on
every machine and Python version.  ``tests/test_build_pins.py`` compares
it with the committed ``benchmarks/goldens/build_pins.json``, so a
change that moves any pinned value fails tier-1 and names the build.
A change that moves one on purpose regenerates the golden::

    PYTHONPATH=src python benchmarks/build_pins.py \\
        > benchmarks/goldens/build_pins.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "benchmarks" / "goldens" / "build_pins.json"

for _path in (ROOT / "examples", ROOT / "benchmarks" / "e2e"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from _common import boundary_node_spec, cryptpad_spec, sample_registry  # noqa: E402
from workloads import fleet_build  # noqa: E402

from repro.build import build_revelio_image  # noqa: E402


def reference_builds() -> dict:
    """Build name -> :class:`~repro.build.RevelioBuild`."""
    registry, pins = sample_registry()
    return {
        "boundary-node": build_revelio_image(boundary_node_spec(registry, pins)),
        "cryptpad": build_revelio_image(cryptpad_spec(registry, pins)),
        "fleet-1.0.0": fleet_build("1.0.0"),
        "fleet-2.0.0": fleet_build("2.0.0"),
    }


def pins_of(build) -> Dict[str, str]:
    """The pinned values of one build."""
    return {
        "launch_measurement": build.expected_measurement.hex(),
        "verity_root": build.root_hash.hex(),
        "initrd_sha256": hashlib.sha256(build.image.initrd).hexdigest(),
        "disk_sha256": hashlib.sha256(build.image.disk_image).hexdigest(),
    }


def build_pins() -> Dict[str, Dict[str, str]]:
    """Build name -> pinned values, for every reference build."""
    return {name: pins_of(build) for name, build in reference_builds().items()}


def pin_diff(expected: dict, actual: dict) -> List[str]:
    """One ``build field: old -> new`` line per value that moved (a
    build present on one side only is one line too)."""
    lines = []
    for name in sorted(set(expected) | set(actual)):
        if name not in actual or name not in expected:
            side = "missing" if name not in actual else "unpinned"
            lines.append(f"{name}: {side}")
            continue
        for key in sorted(set(expected[name]) | set(actual[name])):
            old, new = expected[name].get(key), actual[name].get(key)
            if old != new:
                lines.append(f"{name} {key}: {old} -> {new}")
    return lines


def main() -> None:
    print(json.dumps(build_pins(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
