"""Fault injection for the gateway path and backend storage.

Failures from the operational threat model, each surfacing a stable
reason code or a typed storage error:

* :func:`kill_backend` — the VM's host vanishes mid-flight (hardware
  failure / hypervisor kill); in-flight forwards raise, the gateway
  evicts with ``backend_unreachable`` and retries on a healthy peer.
* :class:`KdsBlackhole` — AMD's KDS becomes unreachable during
  re-attestation; the gateway cannot confirm verdict freshness and
  evicts with ``kds_unreachable``.
* :func:`raise_tcb_floor` — the platform operator mandates a newer TCB
  than a family's backends report (stale firmware; by default the AMD
  families, SEV-SNP and the e-vTPM); their next re-attestation fails
  with the pipeline's ``tcb_too_old``.
* :func:`revoke_family` — an architectural break is disclosed for one
  TEE family in a mixed fleet; its active backends are evicted at once
  and its re-attestations fail with ``family_not_allowed``.
* :func:`slow_disk` — a degrading physical device: a ``delay`` target
  is spliced over a VM volume, charging per-block latency to the sim
  clock (the gateway sees the slow backend through its tail latency).
* :func:`corrupt_disk` — offline tampering with the host-controlled
  disk: a bit flip inside a named partition's extent; the next read
  through a verity/crypt stack rejects it.

Every injector returns a :class:`FaultHandle` whose ``revert()``
symmetrically undoes the fault mid-run (the ``repro.scenarios``
injector registry builds on this to make every campaign attack
revertible mid-storm).  Reverting restores *pre-attack admission
behaviour* — an evicted backend still needs a re-registration +
re-attestation to serve again, exactly like a recovered machine."""

from __future__ import annotations

from typing import Callable, Optional

from ..attest import AMD_FAMILIES, AttestationVerifier
from ..net.simnet import NetworkError
from ..storage.dm import DelayTarget
from ..storage.partition import PartitionTable
from .gateway import FleetGateway

_MISSING = object()


class FaultHandle:
    """A revertible fault: ``revert()`` undoes the injection once."""

    def __init__(self, name: str, undo: Optional[Callable[[], None]] = None):
        self.name = name
        self.active = True
        self._undo = undo

    def revert(self) -> None:
        """Undo the fault (idempotent; later calls are no-ops)."""
        if not self.active:
            return
        self.active = False
        if self._undo is not None:
            self._undo()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "reverted"
        return f"<FaultHandle {self.name} {state}>"


def kill_backend(gateway: FleetGateway, ip_address: str) -> FaultHandle:
    """Detach a backend's host from the network without telling anyone.

    ``revert()`` re-attaches the same host (machine repaired, listeners
    intact); the gateway still holds its eviction until the backend is
    re-registered and re-attested."""
    host = gateway.network.host_at(ip_address)
    gateway.network.remove_host(ip_address)
    return FaultHandle(
        f"kill_backend:{ip_address}",
        lambda: gateway.network.attach_host(host),
    )


class KdsBlackhole:
    """A :class:`~repro.core.kds_client.KdsClient` stand-in whose
    fetches fail while ``active`` — the WAN path to AMD is down.
    Cache-served lookups still work (the point of the VCEK cache)."""

    def __init__(self, inner):
        self.inner = inner
        self.active = True
        #: Set by :func:`blackhole_kds` so :meth:`revert` can undo the
        #: gateway-side swap, not just clear the flag.
        self._restore: Optional[Callable[[], None]] = None

    @property
    def clock(self):
        return self.inner.clock

    @property
    def latency(self):
        return self.inner.latency

    @property
    def fetches(self):
        return self.inner.fetches

    @property
    def cache_hits(self):
        return self.inner.cache_hits

    @property
    def coalesced_hits(self):
        return self.inner.coalesced_hits

    @property
    def trust_anchor(self):
        return self.inner.trust_anchor

    def get_vcek(self, chip_id, tcb):
        if self.active:
            # Fail closed: no new round trips, and no joining an
            # in-flight response either — the WAN path is down, so only
            # the local cache may answer.
            key = (bytes(chip_id), tcb)
            if self.inner.cache_enabled and key in self.inner._vcek_cache:
                self.inner.cache_hits += 1
                return self.inner._vcek_cache[key]
            raise NetworkError("KDS black-holed (no route to kdsintf.amd.com)")
        return self.inner.get_vcek(chip_id, tcb)

    def cert_chain(self):
        if self.active:
            if self.inner.cache_enabled and self.inner._chain_cache is not None:
                self.inner.cache_hits += 1
                return self.inner._chain_cache
            if self.inner._bundled_chain is not None:
                return self.inner._bundled_chain
            raise NetworkError("KDS black-holed (no route to kdsintf.amd.com)")
        return self.inner.cert_chain()

    def revert(self) -> None:
        """Route to AMD restored: clear the flag and swap the gateway
        back onto its original client/verifier (when installed via
        :func:`blackhole_kds`)."""
        self.active = False
        if self._restore is not None:
            restore, self._restore = self._restore, None
            restore()


def blackhole_kds(gateway: FleetGateway,
                  clear_cache: bool = False) -> KdsBlackhole:
    """Swap the gateway's verifier onto a black-holed KDS client; the
    returned handle's ``active`` flag restores service when cleared and
    its ``revert()`` swaps the original client/verifier back in.
    With ``clear_cache`` the cached VCEKs are dropped too (e.g. the
    backend's TCB changed, so the cache can't answer) — only then does
    re-attestation actually fail with ``kds_unreachable``."""
    original_kds = gateway.kds
    original_verifier = gateway.verifier
    blackhole = KdsBlackhole(original_kds)
    if clear_cache:
        gateway.kds.clear_cache()
    gateway.kds = blackhole
    # Per-family trust contexts (TDX PCS, CCA anchors, e-vTPM) and the
    # verify farm survive the swap: only the WAN path to AMD is down.
    gateway.verifier = AttestationVerifier(
        blackhole,
        site="fleet-gateway",
        contexts=gateway.verifier.contexts,
        farm=gateway.verifier.farm,
    )

    def restore():
        gateway.kds = original_kds
        gateway.verifier = original_verifier

    blackhole._restore = restore
    return blackhole


def raise_tcb_floor(gateway: FleetGateway, minimum_tcb,
                    families=AMD_FAMILIES) -> FaultHandle:
    """Mandate a TCB floor, in the families' native form, for admission
    of every family in *families*; their backends reporting an older
    TCB fail their next re-attestation with ``tcb_too_old``.
    ``revert()`` restores each family's previous floor (or removes
    it)."""
    families = tuple(str(family) for family in families)
    previous = {
        family: gateway.tcb_floors.get(family, _MISSING) for family in families
    }
    for family in families:
        gateway.tcb_floors[family] = minimum_tcb

    def restore():
        for family, floor in previous.items():
            if floor is _MISSING:
                gateway.tcb_floors.pop(family, None)
            else:
                gateway.tcb_floors[family] = floor

    return FaultHandle(f"raise_tcb_floor:{','.join(families)}", restore)


def revoke_family(gateway: FleetGateway, family,
                  reason: str = "family_not_allowed") -> FaultHandle:
    """Revoke one TEE family fleet-wide (a disclosed architectural
    break): active backends of that family are evicted immediately with
    the family-scoped *reason* code, and every later re-attestation of
    the family fails closed with ``family_not_allowed``.

    ``revert()`` lifts the revocation (vendor fix rolled out): the
    family is admissible again, but each evicted backend still needs a
    re-registration + passing re-attestation to serve."""
    family = str(family)
    already_revoked = family in gateway.revoked_families
    gateway.revoke_family(family, reason=reason)

    def restore():
        if not already_revoked:
            gateway.revoked_families.discard(family)

    return FaultHandle(f"revoke_family:{family}", restore)


def slow_disk(vm, role: str, read_ms: float = 0.0,
              write_ms: float = 0.0) -> FaultHandle:
    """Degrade a VM volume: splice a ``delay`` target over the volume
    registered under *role*, charging per-block latency to the VM's
    storage meter (and so to the sim clock it is attached to).

    The handle exposes the injected target as ``target``; ``revert()``
    un-splices it, restoring the original volume."""
    volume = vm.storage.open(role)
    delayed = DelayTarget(
        volume,
        vm.storage.meter,
        read_delay=read_ms / 1000.0,
        write_delay=write_ms / 1000.0,
    )
    vm.storage.replace(role, delayed)
    handle = FaultHandle(
        f"slow_disk:{role}", lambda: vm.storage.replace(role, volume)
    )
    handle.target = delayed
    return handle


def corrupt_disk(vm, partition: str, block_index: int = 0,
                 byte_offset: int = 0, xor_mask: int = 0x01) -> FaultHandle:
    """Flip bits on the *raw host disk* inside the named partition's
    extent — the offline-tampering attack (paper §6.1.3), injected
    below every device-mapper layer.  Reads through a verity- or
    crypt-backed volume covering that extent subsequently fail (cold or
    warm: the mutation invalidates every cache above it).

    The handle exposes the absolute byte offset corrupted as
    ``offset``; ``revert()`` re-applies the XOR mask (a second mutation
    — caches above stay invalidated, but reads verify again)."""
    table = PartitionTable.read_from(vm.disk)
    entry = table.find(partition)
    if not (0 <= block_index < entry.num_blocks):
        raise ValueError(
            f"block {block_index} outside partition {partition!r} "
            f"({entry.num_blocks} blocks)"
        )
    absolute = (entry.first_block + block_index) * vm.disk.block_size + byte_offset
    vm.disk.corrupt(absolute, xor_mask)
    handle = FaultHandle(
        f"corrupt_disk:{partition}", lambda: vm.disk.corrupt(absolute, xor_mask)
    )
    handle.offset = absolute
    return handle
