"""Guest boot opens its dm stacks from the measured initrd's two tables
(``rootfs_table`` and ``data_table``) and from nothing else."""

from dataclasses import replace

import pytest

from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.build.image_builder import DATA_DM_TABLE, ROOTFS_DM_TABLE
from repro.core.guest import GuestError
from repro.crypto.drbg import HmacDrbg
from repro.virt.hypervisor import Hypervisor
from repro.virt.image import InitrdDescriptor
from repro.virt.vm import STATE_RUNNING, BootFailure


def _boot(build, parameters):
    """Launch *build* with an honestly measured initrd carrying
    *parameters*, and boot it."""
    initrd = InitrdDescriptor(
        init_steps=build.spec.init_steps, parameters=parameters
    ).encode()
    amd = AmdKeyInfrastructure(HmacDrbg(b"guest-boot"))
    hypervisor = Hypervisor(amd.provision_chip("guest-boot"), HmacDrbg(b"hv"))
    vm = hypervisor.launch(replace(build.image, initrd=initrd))
    vm.boot()
    return vm


def test_builder_emits_only_the_two_tables(built_image):
    assert built_image.image.initrd_descriptor().parameters == {
        "rootfs_table": ROOTFS_DM_TABLE,
        "data_table": DATA_DM_TABLE,
    }


def test_initrd_with_only_the_two_tables_boots(built_image):
    vm = _boot(built_image, {"rootfs_table": ROOTFS_DM_TABLE,
                             "data_table": DATA_DM_TABLE})
    assert vm.state == STATE_RUNNING
    assert vm.storage.roles() == ["verity", "data"]


@pytest.mark.parametrize("missing", ["rootfs_table", "data_table"])
def test_missing_table_fails_boot_by_name(built_image, missing):
    parameters = {"rootfs_table": ROOTFS_DM_TABLE, "data_table": DATA_DM_TABLE}
    del parameters[missing]
    with pytest.raises(BootFailure, match=missing) as excinfo:
        _boot(built_image, parameters)
    assert isinstance(excinfo.value.__cause__, GuestError)
