"""Verify-farm tests: queue semantics, the oracle seam, pipeline
wiring, and same-seed determinism."""

import json
from dataclasses import replace

import pytest

from repro.amd.kds import KeyDistributionServer
from repro.amd.policy import REVELIO_POLICY
from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.attest import (
    STEP_BATCH_PREPARE,
    STEP_CERT_CHAIN,
    STEP_SIGNATURE,
    AttestationTracer,
    AttestationVerifier,
    VerificationPolicy,
    VerifyFarm,
    snp_evidence,
)
from repro.core.kds_client import KdsClient
from repro.crypto import sigcache
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.crypto.ec import get_curve
from repro.net.latency import LatencyModel, SimClock

NOW = 1_000_000
REPORT_DATA = b"\x42" * 64


@pytest.fixture(autouse=True)
def clean_seams():
    """Farm tests install process-wide oracles and touch the signature
    cache; leave both exactly as found."""
    saved_oracle = sigcache.get_oracle()
    sigcache.reset_cache()
    yield
    sigcache.set_oracle(saved_oracle)
    sigcache.reset_cache()


def make_world(seed=b"attest-farm"):
    amd = AmdKeyInfrastructure(HmacDrbg(seed))
    kds_server = KeyDistributionServer(amd)
    chip = amd.provision_chip("farm-chip")
    guest = chip.launch_vm(b"revelio-fw", REVELIO_POLICY)
    clock = SimClock()
    client = KdsClient(
        kds_server, clock, LatencyModel(kds_rtt=0.4, kds_processing=0.0273)
    )
    return amd, chip, guest, clock, client


def make_jobs(count, seed=b"farm-jobs"):
    curve = get_curve("P-256")
    private = EcdsaPrivateKey.generate(curve, HmacDrbg(seed))
    public = private.public_key()
    return [
        (public, b"job-%d" % i, private.sign(b"job-%d" % i), "sha256")
        for i in range(count)
    ]


class TestQueue:
    def test_fills_to_max_batch_then_flushes(self):
        clock = SimClock()
        farm = VerifyFarm(clock=clock, latency=LatencyModel(), max_batch=4,
                          tracer=AttestationTracer())
        for job in make_jobs(3):
            farm.submit(*job)
        assert len(farm) == 3  # below max_batch: still queued
        farm.submit(*make_jobs(1, seed=b"fourth")[0])
        assert len(farm) == 0  # hit max_batch: flushed
        snapshot = farm.stats()
        assert snapshot["batches"] == 1 and snapshot["jobs"] == 4

    def test_linger_deadline_flushes_on_poll(self):
        clock = SimClock()
        farm = VerifyFarm(clock=clock, latency=LatencyModel(), max_batch=64,
                          max_linger=0.002, tracer=AttestationTracer())
        for job in make_jobs(2):
            farm.submit(*job)
        farm.poll()
        assert len(farm) == 2  # deadline not reached: keep lingering
        clock.advance(0.0021)
        farm.poll()
        assert len(farm) == 0
        assert farm.stats()["batches"] == 1

    def test_flush_advances_clock_by_amortised_price(self):
        clock = SimClock()
        latency = LatencyModel()
        farm = VerifyFarm(clock=clock, latency=latency, max_batch=64,
                          tracer=AttestationTracer())
        for job in make_jobs(8):
            farm.submit(*job)
        before = clock.now
        result = farm.flush()
        assert result.msm_checks == 1 and result.per_sig_fallbacks == 0
        expected = latency.batch_verify_base + 8 * latency.batch_verify_per_sig
        assert clock.now - before == pytest.approx(expected)
        # Amortised per-signature cost beats one naive verification.
        assert expected / 8 < latency.sig_verify

    def test_max_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            VerifyFarm(max_batch=0)


class TestOracleSeam:
    def test_verdict_consumed_exactly_once_per_job(self):
        farm = VerifyFarm(tracer=AttestationTracer())
        (key, message, signature, hash_name) = make_jobs(1)[0]
        assert farm.verify_many([(key, message, signature, hash_name)]) == [True]
        sigcache.set_enabled(False)
        try:
            hits_before = sigcache.oracle_hits()
            _, misses_before = sigcache.counters()
            # First consumption: served from the batch, no fresh math.
            assert sigcache.cached_verify(key, message, signature, hash_name)
            assert sigcache.oracle_hits() == hits_before + 1
            assert sigcache.counters()[1] == misses_before
            # The verdict was spent: the second check verifies fresh.
            assert sigcache.cached_verify(key, message, signature, hash_name)
            assert sigcache.oracle_hits() == hits_before + 1
            assert sigcache.counters()[1] == misses_before + 1
        finally:
            sigcache.set_enabled(True)

    def test_false_verdicts_are_served_too(self):
        farm = VerifyFarm(tracer=AttestationTracer())
        (key, message, signature, hash_name) = make_jobs(1, b"bad")[0]
        forged = bytes([signature[0] ^ 1]) + signature[1:]
        assert farm.verify_many([(key, message, forged, hash_name)]) == [False]
        assert sigcache.cached_verify(key, message, forged, hash_name) is False

    def test_uninstall_detaches_only_own_oracle(self):
        farm = VerifyFarm(tracer=AttestationTracer())
        assert sigcache.get_oracle() is not None
        newer = VerifyFarm(tracer=AttestationTracer())
        farm.uninstall()  # superseded: must not evict the newer farm
        assert sigcache.get_oracle() is not None
        newer.uninstall()
        assert sigcache.get_oracle() is None


class TestPipelineWiring:
    def test_farm_run_prepends_batch_prepare_and_frees_crypto_steps(self):
        _, _, guest, clock, client = make_world()
        tracer = AttestationTracer()
        farm = VerifyFarm(clock=clock, latency=client.latency,
                          tracer=tracer)
        verifier = AttestationVerifier(client, tracer=tracer, farm=farm)
        evidence = snp_evidence(guest.get_report(REPORT_DATA))
        outcome = verifier.verify(evidence, now=NOW)
        assert outcome.ok
        assert outcome.steps[0].name == STEP_BATCH_PREPARE
        assert "3 signature job(s)" in outcome.steps[0].detail
        # Chain and report-signature verdicts came from the batch: the
        # EC math was priced inside batch_prepare, not on the steps.
        assert outcome.step(STEP_CERT_CHAIN).sim_cost == 0.0
        assert outcome.step(STEP_SIGNATURE).sim_cost == 0.0
        assert tracer.farm.batches == 1 and tracer.farm.jobs == 3
        assert tracer.farm.oracle_served >= 3

    def test_farm_verdicts_survive_sigcache_ablation(self):
        """Ablating memoization must not ablate batching: the farm's
        verdicts are fresh crypto priced at flush, not memo hits."""
        _, _, guest, clock, client = make_world()
        tracer = AttestationTracer()
        farm = VerifyFarm(clock=clock, latency=client.latency, tracer=tracer)
        verifier = AttestationVerifier(client, tracer=tracer, farm=farm)
        evidence = snp_evidence(guest.get_report(REPORT_DATA))
        sigcache.set_enabled(False)
        try:
            outcome = verifier.verify(evidence, now=NOW)
        finally:
            sigcache.set_enabled(True)
        assert outcome.ok
        assert tracer.farm.oracle_served >= 3
        assert outcome.step(STEP_SIGNATURE).sim_cost == 0.0

    def test_forged_report_still_fails_through_the_farm(self):
        """Invariant 15 end-to-end: a batch never launders a forged
        report signature into a pass."""
        _, _, guest, clock, client = make_world()
        tracer = AttestationTracer()
        farm = VerifyFarm(clock=clock, latency=client.latency, tracer=tracer)
        verifier = AttestationVerifier(client, tracer=tracer, farm=farm)
        report = replace(
            guest.get_report(REPORT_DATA), measurement=b"\xee" * 48
        )
        outcome = verifier.verify(snp_evidence(report), now=NOW)
        assert not outcome.ok
        assert outcome.reason == "bad_signature"

    def test_verify_batch_shares_one_settlement(self):
        amd, chip, _, clock, client = make_world()
        guests = [
            chip.launch_vm(b"revelio-fw", REVELIO_POLICY) for _ in range(4)
        ]
        tracer = AttestationTracer()
        farm = VerifyFarm(clock=clock, latency=client.latency, max_batch=64,
                          tracer=tracer)
        verifier = AttestationVerifier(client, tracer=tracer, farm=farm)
        evidences = [snp_evidence(g.get_report(REPORT_DATA)) for g in guests]
        outcomes = verifier.verify_batch(evidences, now=NOW)
        assert all(outcome.ok for outcome in outcomes)
        # 4 reports x (2 chain links + report sig) land in one flush;
        # the shared VCEK->ASK->ARK links dedup inside the batch.
        assert tracer.farm.batches == 1
        assert tracer.farm.jobs == 12
        assert tracer.farm.deduplicated >= 6

    def test_verify_batch_without_farm_degrades_to_sequential(self):
        _, _, guest, _, client = make_world()
        verifier = AttestationVerifier(client, tracer=AttestationTracer())
        outcomes = verifier.verify_batch(
            [snp_evidence(guest.get_report(REPORT_DATA))] * 2, now=NOW
        )
        assert all(outcome.ok for outcome in outcomes)

    def test_policies_must_match_reports(self):
        _, _, guest, _, client = make_world()
        verifier = AttestationVerifier(client, tracer=AttestationTracer())
        with pytest.raises(ValueError, match="one-to-one"):
            verifier.verify_batch(
                [snp_evidence(guest.get_report(REPORT_DATA))], now=NOW,
                policies=[VerificationPolicy(), VerificationPolicy()],
            )


class TestDeterminism:
    def test_same_seed_runs_produce_byte_identical_counters(self):
        """Same world seed + same farm seed => the trace counters
        serialise byte-for-byte identically (CI gate)."""
        snapshots = []
        for _ in range(2):
            sigcache.reset_cache()
            _, chip, _, clock, client = make_world(seed=b"determinism")
            guests = [
                chip.launch_vm(b"revelio-fw", REVELIO_POLICY)
                for _ in range(3)
            ]
            tracer = AttestationTracer()
            farm = VerifyFarm(clock=clock, latency=client.latency,
                              seed=b"det-farm", tracer=tracer)
            verifier = AttestationVerifier(client, tracer=tracer, farm=farm)
            verifier.verify_batch(
                [snp_evidence(g.get_report(REPORT_DATA)) for g in guests],
                now=NOW,
            )
            for guest in guests:  # warm re-verify exercises serve paths
                verifier.verify(
                    snp_evidence(guest.get_report(REPORT_DATA)), now=NOW
                )
            snapshots.append(
                json.dumps(tracer.farm.snapshot(), sort_keys=True)
            )
            farm.uninstall()
        assert snapshots[0] == snapshots[1]
