"""Build pins: the reference builds' golden values, checked across commits.

``benchmarks/build_pins.py`` rebuilds the boundary-node and CryptPad
images and the e2e fleet build at 1.0.0 and 2.0.0, and pins each one's
launch measurement, verity root, and initrd and disk digests.  The
committed ``benchmarks/goldens/build_pins.json`` holds the values the
previous commit produced, so a change that moves a launch measurement
fails here by name instead of passing every same-commit check.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.build import build_revelio_image, expected_measurement_for_image

_spec = importlib.util.spec_from_file_location(
    "build_pins",
    Path(__file__).resolve().parents[1] / "benchmarks" / "build_pins.py",
)
build_pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(build_pins)

# build_pins put examples/ on the path.
from _common import cryptpad_spec, sample_registry  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return json.loads(build_pins.GOLDEN.read_text())


@pytest.fixture(scope="module")
def builds():
    return build_pins.reference_builds()


def test_reference_builds_match_the_committed_pins(golden, builds):
    actual = {name: build_pins.pins_of(build) for name, build in builds.items()}
    moved = build_pins.pin_diff(golden, actual)
    assert not moved, (
        "reference build pins moved (regenerate benchmarks/goldens/"
        "build_pins.json only for a deliberate change):\n" + "\n".join(moved)
    )


def test_golden_file_is_the_script_output(golden):
    text = build_pins.GOLDEN.read_text()
    assert text == json.dumps(golden, indent=2, sort_keys=True) + "\n"
    assert sorted(golden) == [
        "boundary-node", "cryptpad", "fleet-1.0.0", "fleet-2.0.0",
    ]


def test_one_rootfs_byte_moves_root_disk_and_measurement(golden):
    registry, pins = sample_registry()
    flipped = b"// e2ee client code " + b"a" * 1499 + b"b"  # last byte a -> b
    build = build_revelio_image(cryptpad_spec(
        registry, pins, extra_files={"/opt/cryptpad/www/app.js": flipped}
    ))
    moved = build_pins.pin_diff(
        golden, {**golden, "cryptpad": build_pins.pins_of(build)}
    )
    assert [line.split(":")[0] for line in moved] == [
        "cryptpad disk_sha256", "cryptpad launch_measurement",
        "cryptpad verity_root",
    ]


def test_one_initrd_byte_moves_initrd_and_measurement(golden, builds):
    build = builds["fleet-1.0.0"]
    initrd = bytearray(build.image.initrd)
    initrd[-1] ^= 0x01
    image = replace(build.image, initrd=bytes(initrd))
    tampered = replace(
        build, image=image,
        expected_measurement=expected_measurement_for_image(image),
    )
    moved = build_pins.pin_diff(
        golden, {**golden, "fleet-1.0.0": build_pins.pins_of(tampered)}
    )
    assert [line.split(":")[0] for line in moved] == [
        "fleet-1.0.0 initrd_sha256", "fleet-1.0.0 launch_measurement",
    ]
