"""The injector registry: every campaign attack behind one protocol.

An :class:`Injection` adapts one of the repo's scattered fault hooks
(:mod:`repro.fleet.faults`, hypervisor tamper helpers, storage fault
targets, KDS blackholing, rogue evidence serving) to a uniform,
revertible lifecycle the :class:`~repro.scenarios.runner.CampaignRunner`
drives mid-storm:

``inject()``
    Arm the fault (swap a client, kill a host, flip a bit, stand up a
    rogue).  Must be fully revertible.
``provoke() -> bool``
    Drive the one code path that must surface the verdict —
    deterministically, instead of waiting for a monitor round to
    coincide — and return whether the *benign-path action succeeded*
    (admission granted, gossip applied, block read).  An attack arm is
    contained when this returns ``False`` **and** the expected reason
    code was reached; the benign twin must return ``True`` with zero
    hits on that code.
``revert()``
    Undo the injection (symmetric: hosts re-attach, clients swap back,
    XOR masks re-apply, routes restore, rogues vanish).
``recovered() -> bool``
    Post-revert health check: pre-attack admission behaviour is back
    (an evicted victim re-registers and re-attests clean, a corrupted
    block reads again).

``observed`` collects reason codes the injection saw directly —
:class:`~repro.fleet.gateway.GatewayError` reasons, pipeline outcome
reasons, boot failures — for codes that surface as raises rather than
counters.

Injectors are registered by name (``@register("...")``); scenario specs
reference them by that name, so campaigns stay declarative and the
registry is the single seam tests are allowed to construct faults
through (CI greps for raw hook use outside it).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Type

from ..amd.policy import GuestPolicy
from ..amd.tcb import TcbVersion
from ..attest import (
    AMD_FAMILIES,
    AttestationVerifier,
    Evidence,
    TeeFamily,
    cca_evidence,
    snp_evidence,
    tdx_evidence,
    vtpm_evidence,
)
from ..cca.realms import CcaToken
from ..core.guest import WELL_KNOWN_ATTESTATION_PATH
from ..crypto import ec, encoding, sigcache
from ..crypto.x509 import Name
from ..fleet import faults
from ..fleet.gateway import GatewayError
from ..fleet.mesh import GossipedVerdict
from ..net.http import HTTPS_PORT
from ..virt.firmware import build_firmware
from ..virt.hypervisor import LaunchAttack
from ..virt.image import KernelBlob
from ..virt.vm import BootFailure
from ..vtpm.monitoring import MonitoringEvidence
from ..vtpm.vtpm import PCR_SERVICES, Vtpm

REGISTRY: Dict[str, Type["Injection"]] = {}


def register(name: str) -> Callable[[Type["Injection"]], Type["Injection"]]:
    def wrap(cls: Type["Injection"]) -> Type["Injection"]:
        if name in REGISTRY:
            raise ValueError(f"injector {name!r} already registered")
        REGISTRY[name] = cls
        cls.injector_name = name
        return cls
    return wrap


def create(name: str, world, params: Optional[dict] = None) -> "Injection":
    try:
        cls = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown injector {name!r}; registered: {sorted(REGISTRY)}"
        ) from None
    return cls(world, params or {})


def registered_injectors():
    return tuple(sorted(REGISTRY))


class Injection:
    """Base lifecycle; see the module docstring for the contract."""

    injector_name = "?"

    def __init__(self, world, params: dict):
        self.world = world
        self.params = dict(params)
        self.observed = set()

    # -- lifecycle (override as needed) -----------------------------

    def inject(self) -> None:
        pass

    def provoke(self) -> bool:
        return True

    def revert(self) -> None:
        pass

    def recovered(self) -> bool:
        return True

    # -- shared helpers ---------------------------------------------

    def _victim_ip(self) -> str:
        return self.world.victim_ip(self.params.get("victim", 0))

    def _attest(self, ip_address: str):
        verdict = self.world.gateway.attest_and_admit(ip_address)
        if verdict.reason:
            self.observed.add(verdict.reason)
        return verdict

    def _readmit(self, ip_address: str) -> bool:
        """Re-register (if evicted/rejected) and re-attest a backend;
        the recovery bar every gateway-layer injector shares."""
        gateway = self.world.gateway
        backend = gateway.backends.get(ip_address)
        if backend is not None and backend.state not in ("pending", "admitted"):
            gateway.add_backend(ip_address, family=backend.family)
        verdict = gateway.attest_and_admit(ip_address)
        return verdict.ok


# ======================================================================
# Storm arena: hypervisor / network layer
# ======================================================================

@register("backend_kill")
class BackendKill(Injection):
    """The victim's host vanishes mid-storm (hypervisor kill).  Benign
    twin (``probe_only``): the same probe against a live backend."""

    def inject(self) -> None:
        self._ip = self._victim_ip()
        self._handle = None
        if not self.params.get("probe_only"):
            self._handle = faults.kill_backend(self.world.gateway, self._ip)

    def provoke(self) -> bool:
        return self._attest(self._ip).ok

    def revert(self) -> None:
        if self._handle is not None:
            self._handle.revert()

    def recovered(self) -> bool:
        return self._readmit(self._ip)


@register("slow_backend")
class SlowBackend(Injection):
    """The victim's report endpoint slows beyond the health budget (a
    degraded host); the monitor must evict with ``health_timeout``.
    Benign twin: a sub-budget slowdown rides through clean."""

    def inject(self) -> None:
        self._ip = self._victim_ip()
        node = self.world.node_for(self._ip).node
        self._server = node.https
        self._key = ("GET", WELL_KNOWN_ATTESTATION_PATH)
        self._saved = self._server._routes[self._key]
        handler, processing_time = self._saved
        self._server._routes[self._key] = (
            handler, processing_time + float(self.params.get("delay", 5.0))
        )

    def provoke(self) -> bool:
        monitor = self.world.monitor
        assert monitor is not None, "slow_backend needs a health monitor"
        for _ in range(monitor.failure_threshold):
            monitor.probe_all()
        backend = self.world.gateway.backends[self._ip]
        if backend.verdict_reason:
            self.observed.add(backend.verdict_reason)
        return backend.state == "admitted"

    def revert(self) -> None:
        self._server._routes[self._key] = self._saved

    def recovered(self) -> bool:
        return self._readmit(self._ip)


# ======================================================================
# Storm arena: KDS layer
# ======================================================================

@register("kds_blackhole")
class KdsBlackholeInjection(Injection):
    """AMD's KDS goes dark.  Cold cache (``clear_cache``): freshness is
    unconfirmable, the gateway fails closed with ``kds_unreachable``.
    Benign twin: warm cache rides out the outage."""

    def inject(self) -> None:
        self._ip = self._victim_ip()
        self._hole = faults.blackhole_kds(
            self.world.gateway,
            clear_cache=bool(self.params.get("clear_cache", True)),
        )

    def provoke(self) -> bool:
        return self._attest(self._ip).ok

    def revert(self) -> None:
        self._hole.revert()

    def recovered(self) -> bool:
        return self._readmit(self._ip)


class _ReplayKds:
    """A KDS client replaying stale-TCB endorsements (or passing
    through, for the benign twin)."""

    def __init__(self, inner, stale_tcb: Optional[TcbVersion]):
        self._inner = inner
        self._stale_tcb = stale_tcb

    def get_vcek(self, chip_id, tcb):
        if self._stale_tcb is not None:
            tcb = self._stale_tcb
        return self._inner.get_vcek(chip_id, tcb)

    def cert_chain(self):
        return self._inner.cert_chain()

    @property
    def trust_anchor(self):
        return self._inner.trust_anchor


@register("stale_chain_replay")
class StaleChainReplay(Injection):
    """A MITM replays a VCEK for an older TCB than the chip reports
    (stale-chain replay); the TCB-binding check must fail with
    ``tcb_mismatch``.  Benign twin: the same interposer passing the
    requested TCB through verifies clean."""

    def inject(self) -> None:
        self._ip = self._victim_ip()
        gateway = self.world.gateway
        self._kds, self._verifier = gateway.kds, gateway.verifier
        stale = None
        if self.params.get("stale", True):
            stale = TcbVersion(*self.params.get("tcb", (0, 0, 0, 1)))
        wrapper = _ReplayKds(gateway.kds, stale)
        gateway.kds = wrapper
        gateway.verifier = AttestationVerifier(
            wrapper,
            site=gateway.name,
            contexts=self._verifier.contexts,
            farm=gateway.farm,
        )

    def provoke(self) -> bool:
        return self._attest(self._ip).ok

    def revert(self) -> None:
        gateway = self.world.gateway
        gateway.kds, gateway.verifier = self._kds, self._verifier

    def recovered(self) -> bool:
        return self._readmit(self._ip)


# ======================================================================
# Storm arena: policy layer (TCB rollback, family controls)
# ======================================================================

@register("tcb_rollback")
class TcbRollback(Injection):
    """The fleet floor is raised above what backends report (i.e. their
    firmware was rolled back); re-attestation fails ``tcb_too_old``.
    The floor covers ``families`` (default: the AMD families).  Benign
    twin: a floor the fleet already meets."""

    def inject(self) -> None:
        self._ip = self._victim_ip()
        self._handle = faults.raise_tcb_floor(
            self.world.gateway,
            TcbVersion(*self.params.get("floor", (255, 255, 255, 255))),
            families=self.params.get("families", AMD_FAMILIES),
        )

    def provoke(self) -> bool:
        return self._attest(self._ip).ok

    def revert(self) -> None:
        self._handle.revert()

    def recovered(self) -> bool:
        return self._readmit(self._ip)


@register("family_revocation")
class FamilyRevocation(Injection):
    """One TEE family is revoked fleet-wide; its backends are evicted
    at once and re-attest ``family_not_allowed``.  Benign twin: revoking
    a family with no fleet presence is a no-op for everyone else."""

    def inject(self) -> None:
        family = str(self.params.get("family", str(TeeFamily.TDX)))
        self._family = family
        self._family_ips = self.world.hetero_ips.get(family, [])
        self._handle = faults.revoke_family(self.world.gateway, family)

    def provoke(self) -> bool:
        if self._family_ips:
            return self._attest(self._family_ips[0]).ok
        # No backend of that family: the fleet must be untouched.
        return self._attest(self._victim_ip()).ok

    def revert(self) -> None:
        self._handle.revert()

    def recovered(self) -> bool:
        ok = True
        for ip_address in self._family_ips:
            ok = self._readmit(ip_address) and ok
        return ok and self.world.gateway.backends[
            self._victim_ip()
        ].state == "admitted"


# ======================================================================
# Storm arena: rogue backends (evidence-level attacks)
# ======================================================================

@register("rogue_backend")
class RogueBackend(Injection):
    """A rogue machine registers as a fleet backend and serves crafted
    evidence over the fleet's (stolen or legitimately shared) identity.
    ``mode`` picks the §6.1 variant; the pipeline or probe must pin
    each on its own reason code.  Benign twin (``mode=honest``): a
    genuinely authorized scale-out node is admitted."""

    def inject(self) -> None:
        world = self.world
        gateway = world.gateway
        mode = self.params.get("mode", "honest")
        self._mode = mode
        self._ip = world.next_rogue_ip()
        self._saved_golden = dict(gateway.golden_measurements)
        self._saved_revoked = list(gateway.revoked_measurements)

        body, status = self._build_evidence(mode)
        world.serve_evidence(self._ip, body, status=status)
        register_family = self.params.get(
            "register_family",
            str(TeeFamily.TDX) if mode == "wrong_family"
            else str(TeeFamily.SEV_SNP),
        )
        gateway.add_backend(self._ip, family=register_family)

    def _launch_rogue(self, mode: str, policy: Optional[GuestPolicy] = None):
        world = self.world
        serial = f"rogue-{mode}-{world._rogue_counter}"
        chip = world.deployment.amd.provision_chip(serial)
        return chip.launch_vm(
            b"rogue-image:" + mode.encode(), policy or GuestPolicy()
        )

    def _build_evidence(self, mode: str):
        world = self.world
        gateway = world.gateway
        if mode == "junk_evidence":
            return b"\xde\xadnot-an-evidence-envelope", 200
        if mode == "missing_endpoint":
            return None, 404

        if mode == "foreign_chip":
            serial = f"rogue-foreign-{world._rogue_counter}"
            guest = world.foreign_amd().provision_chip(serial).launch_vm(
                b"rogue-image:foreign", GuestPolicy()
            )
        elif mode == "debug_guest":
            guest = self._launch_rogue(mode, GuestPolicy(debug_allowed=True))
        else:
            guest = self._launch_rogue(mode)
        report = guest.get_report(world.binding)

        if mode == "forged_signature":
            report = dataclasses.replace(report, measurement=b"\x00" * 48)
        elif mode == "revoked_image":
            # Previously authorized, since revoked: golden AND revoked
            # (revocation must win, proving the code is revocation).
            self._make_golden(guest.measurement)
            gateway.revoked_measurements = sorted(
                set(gateway.revoked_measurements) | {bytes(guest.measurement)}
            )
        elif mode == "honest":
            self._make_golden(guest.measurement)
        # tampered_image / wrong_family / forged_signature /
        # debug_guest / foreign_chip: measurement stays un-golden.
        return snp_evidence(report).encode(), 200

    def _make_golden(self, measurement: bytes) -> None:
        goldens = self.world.gateway.golden_measurements
        snp = str(TeeFamily.SEV_SNP)
        goldens[snp] = sorted({*goldens.get(snp, ()), bytes(measurement)})

    def provoke(self) -> bool:
        try:
            return self._attest(self._ip).ok
        except GatewayError as exc:  # pragma: no cover - defensive
            self.observed.add(exc.reason)
            return False

    def revert(self) -> None:
        world = self.world
        gateway = world.gateway
        gateway.backends.pop(self._ip, None)
        world.remove_host(self._ip)
        gateway.golden_measurements = self._saved_golden
        gateway.revoked_measurements = self._saved_revoked

    def recovered(self) -> bool:
        backends = self.world.gateway.backends
        return self._ip not in backends and all(
            backends[ip].state == "admitted" for ip in self.world.node_ips
        )


@register("cache_poison")
class CachePoison(RogueBackend):
    """Cache-layer laundering attempt: thrash the signature and EC
    point caches (drop every memoised verdict mid-storm), then present
    forged evidence — the cold path must still pin ``bad_signature``.
    Benign twin: an honest admission right after the same thrash."""

    def inject(self) -> None:
        enabled = sigcache.get_cache().enabled
        sigcache.reset_cache()
        sigcache.set_enabled(enabled)
        ec.reset_point_cache()
        super().inject()


@register("cert_misissuance")
class CertMisissuance(Injection):
    """A web-PKI intermediate mis-issues a valid leaf for the fleet's
    domain to an attacker key; the impostor replays a genuine node's
    evidence behind it.  The chain validates — only the REPORT_DATA
    binding (``report_data_mismatch``) separates it from the real
    fleet.  Benign twin: a legitimate clone holding the shared fleet
    key serves the same evidence and is admitted."""

    def inject(self) -> None:
        world = self.world
        self._ip = world.next_rogue_ip()
        replayed = snp_evidence(
            world.node_for(world.node_ips[0]).node.tls_report
        ).encode()
        if self.params.get("impostor", True):
            from ..crypto.keys import PrivateKey
            key = PrivateKey.generate_ecdsa(
                world.drbg.fork(b"mis-issued:" + self._ip.encode())
            )
            now = world.network.clock.epoch_seconds()
            pki = world.deployment.web_pki
            leaf = pki.intermediate.issue(
                Name(world.deployment.domain),
                key.public_key(),
                not_before=now,
                not_after=now + 90 * 86400,
                san=(world.deployment.domain,),
                key_usage=("digital_signature",),
            )
            chain = [leaf, pki.intermediate.certificate]
            world.serve_evidence(self._ip, replayed, chain=chain, tls_key=key)
        else:
            world.serve_evidence(self._ip, replayed)
        world.gateway.add_backend(self._ip)

    def provoke(self) -> bool:
        return self._attest(self._ip).ok

    def revert(self) -> None:
        self.world.gateway.backends.pop(self._ip, None)
        self.world.remove_host(self._ip)

    def recovered(self) -> bool:
        backends = self.world.gateway.backends
        return self._ip not in backends and all(
            backends[ip].state == "admitted" for ip in self.world.node_ips
        )


# ======================================================================
# Storm arena: mesh / gossip layer
# ======================================================================

@register("gossip_forgery")
class GossipForgery(Injection):
    """Forged or replayed verdict gossip against ``accept_gossip``:
    every abuse mode must be rejected with its own cause counter
    (DESIGN.md invariant 14).  Benign twin (``mode=fresh``): a genuine
    fresh passing record is applied."""

    def inject(self) -> None:
        self._mode = self.params.get("mode", "fresh")
        self._revoked_family = None
        if self._mode == "family_not_allowed":
            family = str(self.params.get("family", str(TeeFamily.TDX)))
            if family not in self.world.gateway.revoked_families:
                self.world.gateway.revoked_families.add(family)
                self._revoked_family = family

    def provoke(self) -> bool:
        world = self.world
        gateway = world.gateway
        now = world.network.clock.now
        victim = self._victim_ip()
        snp = str(TeeFamily.SEV_SNP)
        max_staleness = float(self.params.get("max_staleness", 900.0))
        mode = self._mode
        if mode == "stale":
            record = GossipedVerdict(victim, snp, True, "", now - 10_000.0)
            max_staleness = 30.0
        elif mode == "unknown_backend":
            record = GossipedVerdict("10.66.6.6", snp, True, "", now)
        elif mode == "family_mismatch":
            record = GossipedVerdict(victim, str(TeeFamily.TDX), True, "", now)
        elif mode == "older":
            held = gateway.backends[victim].verdict_time
            record = GossipedVerdict(
                victim, snp, False, "measurement_mismatch", held
            )
        elif mode == "family_not_allowed":
            family = str(self.params.get("family", str(TeeFamily.TDX)))
            ip = world.hetero_ips[family][0]
            record = GossipedVerdict(ip, family, True, "", now)
        else:  # fresh (benign)
            record = GossipedVerdict(victim, snp, True, "", now)
        return gateway.accept_gossip(record, max_staleness=max_staleness)

    def revert(self) -> None:
        if self._revoked_family is not None:
            self.world.gateway.revoked_families.discard(self._revoked_family)

    def recovered(self) -> bool:
        backends = self.world.gateway.backends
        return all(
            backends[ip].state == "admitted" for ip in self.world.node_ips
        )


# ======================================================================
# Storm arena: gateway envelope abuse
# ======================================================================

@register("gateway_abuse")
class GatewayAbuse(Injection):
    """Adversarial client traffic against the gateway's cleartext
    envelope: undecodable payloads, forged session ids, tier
    exhaustion, operations on unregistered backends.  Each raises a
    :class:`GatewayError` with its stable reason.  Benign twin
    (``mode=reattest_victim``): a well-formed control-plane call."""

    def provoke(self) -> bool:
        world = self.world
        mode = self.params.get("mode", "reattest_victim")
        gateway_ip = world.gateway.host.ip_address
        try:
            if mode == "malformed_envelope":
                world.attacker.request(
                    gateway_ip, HTTPS_PORT, b"\xff\xfenot-tlv-encoded"
                )
            elif mode == "forged_session":
                world.attacker.request(
                    gateway_ip, HTTPS_PORT,
                    encoding.encode(
                        {"type": "record", "session_id": b"forged-session"}
                    ),
                )
            elif mode == "empty_tier":
                world.attacker.request(
                    gateway_ip, HTTPS_PORT,
                    encoding.encode(
                        {"type": "client_hello",
                         "tier": world.campaign.empty_tier}
                    ),
                )
            elif mode == "unknown_backend":
                world.gateway.attest_and_admit("10.99.99.99")
            else:  # reattest_victim (benign)
                return self._attest(self._victim_ip()).ok
        except GatewayError as exc:
            self.observed.add(exc.reason)
            return False
        return True

    def recovered(self) -> bool:
        backends = self.world.gateway.backends
        return all(
            backends[ip].state == "admitted" for ip in self.world.node_ips
        )


# ======================================================================
# Storm arena: storage layer
# ======================================================================

@register("storage_bitflip")
class StorageBitflip(Injection):
    """The host flips bits on a running victim's raw disk inside the
    rootfs extent; the next read through the verity stack must reject
    (``corruption_rejections``).  Benign twin: the same read against an
    untampered disk."""

    def inject(self) -> None:
        self._ip = self._victim_ip()
        self._vm = self.world.node_for(self._ip).vm
        self._block = int(self.params.get("block", 2))
        self._handle = None
        if self.params.get("flip", True):
            self._handle = faults.corrupt_disk(
                self._vm,
                self.params.get("partition", "rootfs"),
                block_index=self._block,
                byte_offset=int(self.params.get("byte_offset", 3)),
                xor_mask=int(self.params.get("xor_mask", 0x40)),
            )

    def _read(self) -> bool:
        # The verity-covered rootfs volume registers under role
        # "verity"; the raw corruption targets the "rootfs" partition
        # beneath it.
        volume = self._vm.storage.open(
            self.params.get("role", "verity")
        )
        try:
            volume.read_block(self._block)
        except Exception:
            self.observed.add("corruption_rejections")
            return False
        return True

    def provoke(self) -> bool:
        return self._read()

    def revert(self) -> None:
        if self._handle is not None:
            self._handle.revert()

    def recovered(self) -> bool:
        return self._read() and self.world.gateway.backends[
            self._ip
        ].state == "admitted"


# ======================================================================
# Pipeline arena: the long tail of per-family reason codes
# ======================================================================

@register("pipeline_attack")
class PipelineAttack(Injection):
    """Direct :class:`~repro.attest.AttestationVerifier` scenarios for
    reason codes that need crafted evidence rather than live traffic.
    ``mode`` selects the attack; ``honest_snp`` / ``honest_tdx`` /
    ``honest_cca`` / ``honest_vtpm`` are the benign twins."""

    def provoke(self) -> bool:
        world = self.world
        mode = self.params["mode"]
        evidence, policy, verifier = self._case(world, mode)
        outcome = verifier.verify(
            evidence, now=int(world.clock.epoch_seconds()), policy=policy
        )
        if not outcome.ok:
            self.observed.add(outcome.reason)
        return outcome.ok

    # -- evidence factories -----------------------------------------

    def _policy(self, world, **overrides):
        from ..attest import VerificationPolicy
        kwargs = dict(
            golden_measurements=(world.guest.measurement,),
            expected_report_data=world.binding,
        )
        kwargs.update(overrides)
        return VerificationPolicy(**kwargs)

    def _vtpm_evidence(self, world, vtpm: Vtpm, quote=None, event_log=None,
                       endorsement=None) -> Evidence:
        return vtpm_evidence(
            MonitoringEvidence(
                quote=quote if quote is not None
                else vtpm.quote(world.binding, [PCR_SERVICES]),
                event_log=(
                    event_log if event_log is not None
                    else list(vtpm.event_log)
                ),
                ak_public=vtpm.ak_public,
                ak_endorsement=(
                    endorsement if endorsement is not None
                    else world.ak_endorsement(vtpm)
                ),
            )
        )

    def _case(self, world, mode: str):
        verifier = world.verifier
        policy = self._policy(world)
        binding = world.binding

        if mode == "honest_snp":
            evidence = snp_evidence(world.guest.get_report(binding))
        elif mode == "honest_tdx":
            evidence = tdx_evidence(world.td.get_quote(binding))
            policy = self._policy(
                world, golden_measurements=(world.td.mrtd,)
            )
        elif mode == "honest_cca":
            evidence = cca_evidence(world.realm.attest(binding))
            policy = self._policy(
                world, golden_measurements=(world.realm.rim,)
            )
        elif mode == "honest_vtpm":
            vtpm = world.fresh_vtpm(mode)
            evidence = self._vtpm_evidence(world, vtpm)
        elif mode == "evidence_malformed":
            evidence = Evidence(
                str(TeeFamily.SEV_SNP), b"\x00not-a-report"
            )
        elif mode == "family_not_allowed":
            evidence = snp_evidence(world.guest.get_report(binding))
            policy = self._policy(
                world, allowed_families=(str(TeeFamily.TDX),)
            )
        elif mode == "no_trust_context":
            evidence = tdx_evidence(world.td.get_quote(binding))
            verifier = world.make_verifier(contexts={})
        elif mode == "unknown_platform":
            serial = "pipeline-foreign"
            guest = world.foreign_amd().provision_chip(serial).launch_vm(
                b"scenario-snp-image", GuestPolicy()
            )
            evidence = snp_evidence(guest.get_report(binding))
        elif mode == "bad_cert_chain":
            from ..amd.kds import KeyDistributionServer
            fake = KeyDistributionServer(world.foreign_amd())
            evidence = snp_evidence(world.guest.get_report(binding))
            policy = self._policy(
                world, trust_anchors=(fake.ark_certificate,)
            )
        elif mode == "chip_id_mismatch":
            report = world.guest.get_report(binding)
            wrong_vcek = world.kds_server.get_vcek_certificate(
                world.other_chip.chip_id, report.reported_tcb
            )
            verifier = world.make_verifier(
                kds=_SubstituteVcek(world.kds, wrong_vcek)
            )
            evidence = snp_evidence(report)
        elif mode == "chip_id_not_allowed":
            evidence = snp_evidence(world.guest.get_report(binding))
            policy = self._policy(
                world, allowed_chip_ids=(world.other_chip.chip_id,)
            )
        elif mode == "tcb_mismatch":
            report = world.guest.get_report(binding)
            stale_vcek = world.kds_server.get_vcek_certificate(
                world.chip.chip_id, TcbVersion(0, 0, 0, 1)
            )
            verifier = world.make_verifier(
                kds=_SubstituteVcek(world.kds, stale_vcek)
            )
            evidence = snp_evidence(report)
        elif mode == "tcb_too_old":
            evidence = snp_evidence(world.guest.get_report(binding))
            policy = self._policy(
                world, minimum_tcb=TcbVersion(99, 99, 99, 255)
            )
        elif mode == "debug_policy":
            guest = world.chip.launch_vm(
                b"scenario-snp-image", GuestPolicy(debug_allowed=True)
            )
            evidence = snp_evidence(guest.get_report(binding))
        elif mode == "tdx_tcb_floor":
            evidence = tdx_evidence(world.td.get_quote(binding))
            policy = self._policy(
                world, golden_measurements=(world.td.mrtd,), minimum_tcb=99
            )
        elif mode == "lifecycle_not_secured":
            previous = world.cca_platform.lifecycle_state
            world.cca_platform.lifecycle_state = "debug"
            try:
                token = world.realm.attest(binding)
            finally:
                world.cca_platform.lifecycle_state = previous
            evidence = cca_evidence(token)
            policy = self._policy(
                world, golden_measurements=(world.realm.rim,)
            )
        elif mode == "rak_not_endorsed":
            # Realm token from platform A stitched onto platform B's
            # platform token: B never endorsed A's RAK.
            token_a = world.realm.attest(binding)
            token_b = world.realm_b.attest(binding)
            forged = CcaToken(
                realm_token=token_a.realm_token,
                platform_token=token_b.platform_token,
            )
            evidence = cca_evidence(forged)
            policy = self._policy(
                world, golden_measurements=(world.realm.rim,)
            )
        elif mode == "ak_not_endorsed":
            vtpm = world.fresh_vtpm(mode)
            other = world.fresh_vtpm(mode + ":other")
            evidence = self._vtpm_evidence(
                world, vtpm, endorsement=world.ak_endorsement(other)
            )
        elif mode == "quote_log_mismatch":
            vtpm = world.fresh_vtpm(mode)
            quote = vtpm.quote(world.binding, [PCR_SERVICES])
            vtpm.measure_event(
                PCR_SERVICES, b"post-quote-service", "late event"
            )
            evidence = self._vtpm_evidence(
                world, vtpm, quote=quote, event_log=list(vtpm.event_log)
            )
        elif mode == "service_not_allowed":
            from ..attest import VtpmTrust
            vtpm = world.fresh_vtpm(mode)
            vtpm.measure_event(
                PCR_SERVICES, b"unapproved-agent", "rogue service"
            )
            evidence = self._vtpm_evidence(world, vtpm)
            verifier = world.make_verifier(
                contexts=world.contexts(
                    vtpm_trust=VtpmTrust(
                        world.kds, allowed_service_digests=frozenset()
                    )
                )
            )
        else:
            raise KeyError(f"unknown pipeline mode {mode!r}")
        return evidence, policy, verifier


class _SubstituteVcek:
    """A KDS client serving a substituted VCEK (wrong chip or TCB)."""

    def __init__(self, inner, vcek):
        self._inner = inner
        self._vcek = vcek

    def get_vcek(self, chip_id, tcb):
        return self._vcek

    def cert_chain(self):
        return self._inner.cert_chain()

    @property
    def trust_anchor(self):
        return self._inner.trust_anchor


# ======================================================================
# Launch arena: §6.1 boot/provision-time attacks
# ======================================================================

@register("launch_attack")
class LaunchAttackInjection(Injection):
    """Boot-time attacks from the section-6.1 matrix against a fresh
    one-node deployment.  Firmware-caught substitutions surface as
    ``BootFailure`` (observed as ``boot_failure``); attestation-caught
    ones run the provisioning pipeline and land on its reason code.
    Benign twin (``mode=clean``): an untampered launch provisions."""

    _ATTACKS = {
        "kernel_substitution_honest_table": lambda: LaunchAttack(
            replace_kernel=KernelBlob("evil", "6").encode(),
            inject_expected_hashes=True,
        ),
        "kernel_substitution_matching_hashes": lambda: LaunchAttack(
            replace_kernel=KernelBlob("evil", "6").encode(),
        ),
        "malicious_firmware": lambda: LaunchAttack(
            replace_firmware_template=build_firmware(verify_hashes=False),
        ),
        "rootfs_bitflip": lambda: LaunchAttack(
            tamper_disk=lambda disk: disk.corrupt(4096 * 5 + 3),
        ),
        "clean": lambda: None,
    }

    def provoke(self) -> bool:
        from ..amd.verify import AttestationError
        from ..core import RevelioDeployment
        from ..net.latency import ZERO_LATENCY

        mode = self.params.get("mode", "clean")
        seed = str(self.params.get("seed", f"scn-{mode}")).encode()
        attack = self._ATTACKS[mode]()
        deployment = RevelioDeployment(
            self.world.build, num_nodes=1, latency=ZERO_LATENCY, seed=seed
        )
        try:
            if attack is None:
                deployment.launch_fleet()
            else:
                deployment.launch_fleet(attack_for=lambda i: attack)
        except BootFailure:
            self.observed.add("boot_failure")
            return False
        deployment.create_sp_node()
        try:
            deployment.sp.provision_fleet([deployment.node_ip(0)])
        except AttestationError as exc:
            self.observed.add(exc.reason)
            return False
        return True


# ======================================================================
# Update channel: signed-delta pipeline abuse
# ======================================================================

def _update_fixture(world):
    """Lazily built (then cached on the world) signed-update fixture:
    the deployed build, a rebuilt target version, their delta, and a
    genuine channel with the epoch-1 manifest published.  All update
    injectors share it, so the expensive image rebuild happens once per
    campaign run."""
    fixture = getattr(world, "_update_fixture", None)
    if fixture is None:
        from ..build import UpdateChannel, build_revelio_image, compute_delta
        from ..crypto.keys import PrivateKey

        spec_v2 = dataclasses.replace(
            world.build.spec, version=world.build.spec.version + "-update"
        )
        build_v2 = build_revelio_image(spec_v2)
        key = PrivateKey.generate_ecdsa(
            world.drbg.fork(b"update-channel"), "P-256"
        )
        channel = UpdateChannel(key, image_name=world.build.image.name)
        delta = compute_delta(world.build.image, build_v2.image)
        signed = channel.publish(
            delta,
            world.build.expected_measurement,
            build_v2.expected_measurement,
        )
        fixture = {
            "key": key,
            "channel": channel,
            "build_v2": build_v2,
            "delta": delta,
            "signed": signed,
            "blob": channel.blob(signed.manifest.delta_digest),
        }
        world._update_fixture = fixture
    return fixture


class _UpdateInjection(Injection):
    """Shared plumbing for the signed-update abuse injectors: a fresh
    per-arm :class:`~repro.build.channel.UpdateClient`, the cached
    fixture, and the common recovery bar (a clean client still applies
    the genuine manifest after revert)."""

    def _client(self, epoch: int = 0):
        from ..build import UpdateClient

        fixture = _update_fixture(self.world)
        return UpdateClient(fixture["key"].public_key(), epoch=epoch)

    def _apply(self, client, signed, blob, installed=None):
        """Run the client pipeline; records the rejection code (if any)
        and returns whether the update applied."""
        from ..build import ChannelError

        fixture = _update_fixture(self.world)
        installed = installed if installed is not None else (
            self.world.build.image
        )
        try:
            applied = client.apply(installed, signed, blob)
        except ChannelError as exc:
            self.observed.add(exc.code)
            return False
        return applied.disk_image == fixture["build_v2"].image.disk_image

    def recovered(self) -> bool:
        fixture = _update_fixture(self.world)
        return self._apply(
            self._client(), fixture["signed"], fixture["blob"]
        )


@register("update_rollback_replay")
class UpdateRollbackReplay(_UpdateInjection):
    """The classic update-channel attack: re-serve an old but genuinely
    *signed* manifest to roll a node back.  ``mode=stale_epoch`` hits a
    node whose applied epoch already passed the manifest's;
    ``mode=base_mismatch`` hits a node whose installed measurement
    already moved past the manifest's base.  Benign twin
    (``mode=fresh``): the same manifest applied by a node it is
    actually for."""

    def provoke(self) -> bool:
        fixture = _update_fixture(self.world)
        signed, blob = fixture["signed"], fixture["blob"]
        mode = self.params.get("mode", "stale_epoch")
        if mode == "stale_epoch":
            # The node already applied this epoch; the replayed
            # manifest must die on monotonicity, not re-apply.
            client = self._client(epoch=signed.manifest.epoch)
            return self._apply(client, signed, blob)
        if mode == "base_mismatch":
            # The node already runs the target build; the replayed
            # manifest's base chain no longer matches.
            return self._apply(
                self._client(), signed, blob,
                installed=fixture["build_v2"].image,
            )
        if mode == "fresh":
            return self._apply(self._client(), signed, blob)
        raise ValueError(f"unknown mode {mode!r}")


@register("update_unsigned_delta")
class UpdateUnsignedDelta(_UpdateInjection):
    """Payload attacks on the update channel.  ``mode=bad_signature``:
    an attacker-keyed channel re-signs the delta; ``mode=delta_corrupt``:
    a shipped block is flipped in transit; ``mode=digest_mismatch``: a
    compromised publisher signs a manifest whose target measurement
    disagrees with what the delta actually re-roots to.  Benign twin
    (``mode=honest``): the genuine manifest applies."""

    def provoke(self) -> bool:
        from ..build import UpdateChannel
        from ..crypto.keys import PrivateKey

        fixture = _update_fixture(self.world)
        signed, blob = fixture["signed"], fixture["blob"]
        mode = self.params.get("mode", "bad_signature")
        if mode == "bad_signature":
            attacker = PrivateKey.generate_ecdsa(
                self.world.drbg.fork(b"update-attacker"), "P-256"
            )
            rogue = UpdateChannel(
                attacker, image_name=self.world.build.image.name
            )
            forged = rogue.publish(
                fixture["delta"],
                self.world.build.expected_measurement,
                fixture["build_v2"].expected_measurement,
            )
            return self._apply(
                self._client(), forged, rogue.blob(
                    forged.manifest.delta_digest
                ),
            )
        if mode == "delta_corrupt":
            tampered = bytearray(blob)
            tampered[-1] ^= 0xFF
            return self._apply(self._client(), signed, bytes(tampered))
        if mode == "digest_mismatch":
            # A compromised (but correctly keyed) publisher lies about
            # the target: signature and epoch pass, the measurement
            # replay after re-rooting does not.
            lying = fixture["channel"].publish(
                fixture["delta"],
                self.world.build.expected_measurement,
                self.world.build.expected_measurement,  # wrong target
            )
            client = self._client(epoch=lying.manifest.epoch - 1)
            return self._apply(
                client, lying,
                fixture["channel"].blob(lying.manifest.delta_digest),
            )
        if mode == "honest":
            return self._apply(self._client(), signed, blob)
        raise ValueError(f"unknown mode {mode!r}")
