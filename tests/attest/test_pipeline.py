"""Unified attestation pipeline tests: steps, outcomes, tracing."""

import pytest

from repro.amd.kds import KeyDistributionServer
from repro.amd.policy import REVELIO_POLICY
from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.amd.tcb import TcbVersion
from repro.amd.verify import AttestationError
from repro.attest import (
    STEP_CERT_CHAIN,
    STEP_CHIP_ID_ALLOWLIST,
    STEP_CHIP_ID_BINDING,
    STEP_DEBUG_POLICY,
    STEP_EVIDENCE_DECODE,
    STEP_MEASUREMENT,
    STEP_REPORT_DATA,
    STEP_REVOCATION,
    STEP_SIGNATURE,
    STEP_TCB_BINDING,
    STEP_TCB_FLOOR,
    STEP_VCEK_FETCH,
    AttestationTracer,
    AttestationVerifier,
    TraceSink,
    VerificationPolicy,
    get_tracer,
    reset_tracer,
    snp_evidence,
)
from repro.core.kds_client import KdsClient
from repro.crypto.drbg import HmacDrbg
from repro.net.latency import LatencyModel, SimClock

NOW = 1_000_000
REPORT_DATA = b"\x42" * 64
KDS_TRIP = 0.4 + 0.0273  # one charged KDS round trip (rtt + processing)
# calibrated crypto prices (LatencyModel defaults): signature, chain walk,
# measurement comparison — together the paper's ~13 ms client validation
CRYPTO_COST = 0.008 + 0.004 + 0.001
# fraction charged when the signature cache fully serves a crypto step
CACHED_DISCOUNT = 0.05


@pytest.fixture
def world():
    amd = AmdKeyInfrastructure(HmacDrbg(b"attest-pipeline"))
    kds_server = KeyDistributionServer(amd)
    chip = amd.provision_chip("pl-chip")
    guest = chip.launch_vm(b"revelio-fw", REVELIO_POLICY)
    clock = SimClock()
    client = KdsClient(
        kds_server, clock, LatencyModel(kds_rtt=0.4, kds_processing=0.0273)
    )
    return {
        "amd": amd,
        "kds_server": kds_server,
        "chip": chip,
        "guest": guest,
        "clock": clock,
        "client": client,
    }


def full_policy(world, **overrides):
    kwargs = dict(
        golden_measurements=(world["guest"].measurement,),
        revoked_measurements=(b"\x0d" * 48,),
        expected_report_data=REPORT_DATA,
        allowed_chip_ids=(world["chip"].chip_id,),
        minimum_tcb=TcbVersion(1, 0, 0, 0),
    )
    kwargs.update(overrides)
    return VerificationPolicy(**kwargs)


class TestHappyPath:
    def test_minimal_policy_runs_mandatory_steps_only(self, world):
        verifier = AttestationVerifier(world["client"], tracer=AttestationTracer())
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        outcome = verifier.verify(evidence, now=NOW)
        assert outcome.ok and outcome.verdict == "pass"
        assert [s.name for s in outcome.steps] == [
            STEP_EVIDENCE_DECODE,
            STEP_VCEK_FETCH,
            STEP_CERT_CHAIN,
            STEP_CHIP_ID_BINDING,
            STEP_TCB_BINDING,
            STEP_SIGNATURE,
            STEP_DEBUG_POLICY,
        ]
        assert all(s.passed and s.reason is None for s in outcome.steps)
        assert outcome.reason is None and outcome.detail == ""
        assert outcome.failure is None

    def test_full_policy_runs_every_step_in_order(self, world):
        verifier = AttestationVerifier(world["client"], tracer=AttestationTracer())
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        outcome = verifier.verify(evidence, now=NOW, policy=full_policy(world))
        assert outcome.ok
        assert [s.name for s in outcome.steps] == [
            STEP_EVIDENCE_DECODE,
            STEP_REVOCATION,
            STEP_VCEK_FETCH,
            STEP_CERT_CHAIN,
            STEP_CHIP_ID_BINDING,
            STEP_TCB_BINDING,
            STEP_SIGNATURE,
            STEP_DEBUG_POLICY,
            STEP_MEASUREMENT,
            STEP_REPORT_DATA,
            STEP_CHIP_ID_ALLOWLIST,
            STEP_TCB_FLOOR,
        ]

    def test_vcek_fetch_costs_one_round_trip(self, world):
        """The chain rides along with the VCEK response: one trip total,
        plus the calibrated crypto prices on the signature-bearing steps."""
        verifier = AttestationVerifier(world["client"], tracer=AttestationTracer())
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        outcome = verifier.verify(evidence, now=NOW, policy=full_policy(world))
        fetch = outcome.step(STEP_VCEK_FETCH)
        assert fetch.sim_cost == pytest.approx(KDS_TRIP)
        assert outcome.step(STEP_SIGNATURE).sim_cost == pytest.approx(0.008)
        assert outcome.step(STEP_CERT_CHAIN).sim_cost == pytest.approx(0.004)
        assert outcome.step(STEP_MEASUREMENT).sim_cost == pytest.approx(0.001)
        assert outcome.sim_cost == pytest.approx(KDS_TRIP + CRYPTO_COST)
        priced = {STEP_VCEK_FETCH, STEP_SIGNATURE, STEP_CERT_CHAIN, STEP_MEASUREMENT}
        for step in outcome.steps:
            if step.name not in priced:
                assert step.sim_cost == 0.0

    def test_cached_rerun_avoids_kds_and_discounts_crypto(self, world):
        """A warm rerun pays no KDS trip and its signature/chain steps
        are served from the verification cache at the discounted rate."""
        verifier = AttestationVerifier(world["client"], tracer=AttestationTracer())
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        cold = verifier.verify(evidence, now=NOW)
        warm = verifier.verify(evidence, now=NOW)
        assert warm.step(STEP_VCEK_FETCH).sim_cost == 0.0
        assert warm.step(STEP_SIGNATURE).sim_cost == pytest.approx(
            0.008 * CACHED_DISCOUNT
        )
        assert warm.step(STEP_CERT_CHAIN).sim_cost == pytest.approx(
            0.004 * CACHED_DISCOUNT
        )
        assert warm.sim_cost < cold.sim_cost


class TestFailureOutcomes:
    def test_failure_stops_pipeline_and_records_reason(self, world):
        verifier = AttestationVerifier(world["client"], tracer=AttestationTracer())
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        policy = full_policy(world, golden_measurements=(b"\xff" * 48,))
        outcome = verifier.verify(evidence, now=NOW, policy=policy)
        assert not outcome.ok and outcome.verdict == "fail"
        assert outcome.steps[-1].name == STEP_MEASUREMENT
        assert not outcome.steps[-1].passed
        assert outcome.reason == "measurement_mismatch"
        assert "golden" in outcome.detail
        # Later steps never ran.
        assert outcome.step(STEP_REPORT_DATA) is None
        assert outcome.step(STEP_TCB_FLOOR) is None
        # Earlier steps are all recorded as passed.
        assert all(s.passed for s in outcome.steps[:-1])

    def test_raise_for_failure_carries_stable_code(self, world):
        verifier = AttestationVerifier(world["client"], tracer=AttestationTracer())
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        policy = full_policy(world, expected_report_data=b"\xff" * 64)
        outcome = verifier.verify(evidence, now=NOW, policy=policy)
        with pytest.raises(AttestationError) as excinfo:
            outcome.raise_for_failure()
        assert excinfo.value.reason == "report_data_mismatch"

    def test_revocation_beats_golden_membership(self, world):
        verifier = AttestationVerifier(world["client"], tracer=AttestationTracer())
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        measurement = bytes(world["guest"].measurement)
        policy = full_policy(world, revoked_measurements=(measurement,))
        outcome = verifier.verify(evidence, now=NOW, policy=policy)
        assert outcome.reason == "measurement_revoked"
        assert "revoked" in outcome.detail
        # The pipeline never reached the KDS.
        assert [s.name for s in outcome.steps] == [
            STEP_EVIDENCE_DECODE, STEP_REVOCATION,
        ]
        assert outcome.sim_cost == 0.0

    def test_trust_anchor_override(self, world):
        fake = KeyDistributionServer(AmdKeyInfrastructure(HmacDrbg(b"fake")))
        verifier = AttestationVerifier(world["client"], tracer=AttestationTracer())
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        policy = full_policy(world, trust_anchors=(fake.ark_certificate,))
        outcome = verifier.verify(evidence, now=NOW, policy=policy)
        assert outcome.reason == "bad_cert_chain"
        assert outcome.steps[-1].name == STEP_CERT_CHAIN


class TestTracing:
    def test_counters_aggregate_verdicts_and_reasons(self, world):
        tracer = AttestationTracer()
        verifier = AttestationVerifier(world["client"], tracer=tracer)
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        verifier.verify(evidence, now=NOW, policy=full_policy(world))
        verifier.verify(
            evidence,
            now=NOW,
            policy=full_policy(world, golden_measurements=(b"\xff" * 48,)),
        )
        counters = tracer.counters
        assert counters.verifications_by_verdict == {"pass": 1, "fail": 1}
        assert counters.failures_by_reason == {"measurement_mismatch": 1}
        snapshot = counters.snapshot()
        assert snapshot["verifications_by_verdict"] == {"pass": 1, "fail": 1}
        assert snapshot["failures_by_reason"] == {"measurement_mismatch": 1}

    def test_kds_cache_hit_rate(self, world):
        tracer = AttestationTracer()
        verifier = AttestationVerifier(world["client"], tracer=tracer)
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        verifier.verify(evidence, now=NOW)  # cold: 1 fetch (+1 chain cache hit)
        verifier.verify(evidence, now=NOW)  # warm: served from cache
        counters = tracer.counters
        assert counters.kds_fetches == 1
        assert counters.kds_cache_hits == 3
        assert counters.kds_cache_hit_rate() == pytest.approx(3 / 4)

    def test_step_latency_histograms(self, world):
        tracer = AttestationTracer()
        verifier = AttestationVerifier(world["client"], tracer=tracer)
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        verifier.verify(evidence, now=NOW)
        verifier.verify(evidence, now=NOW)
        histogram = tracer.counters.step_latency[STEP_VCEK_FETCH]
        assert histogram.count == 2
        assert histogram.mean() == pytest.approx(KDS_TRIP / 2)
        means = tracer.counters.snapshot()["step_latency_ms_mean"]
        assert means[STEP_VCEK_FETCH] == pytest.approx(KDS_TRIP / 2 * 1000)

    def test_ring_buffer_keeps_recent_events(self, world):
        tracer = AttestationTracer(ring_capacity=2)
        verifier = AttestationVerifier(world["client"], tracer=tracer)
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        for site in ("first", "second", "third"):
            verifier.verify(evidence, now=NOW, site=site)
        assert len(tracer.ring) == 2
        assert [e.site for e in tracer.ring.events] == ["second", "third"]
        # Counters still saw everything.
        assert tracer.counters.verifications_by_verdict["pass"] == 3

    def test_custom_sink_receives_events(self, world):
        class Collect(TraceSink):
            def __init__(self):
                self.seen = []

            def record(self, event):
                self.seen.append(event)

        tracer = AttestationTracer()
        sink = Collect()
        tracer.add_sink(sink)
        verifier = AttestationVerifier(world["client"], tracer=tracer)
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        verifier.verify(evidence, now=NOW)
        assert len(sink.seen) == 1
        assert sink.seen[0].verdict == "pass"
        assert sink.seen[0].kds_fetches == 1

    def test_default_tracer_is_process_wide(self, world):
        tracer = reset_tracer()
        try:
            verifier = AttestationVerifier(world["client"])  # no tracer given
            evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
            verifier.verify(evidence, now=NOW)
            assert get_tracer() is tracer
            assert tracer.counters.verifications_by_verdict["pass"] == 1
        finally:
            reset_tracer()

    def test_counter_reset(self, world):
        tracer = AttestationTracer()
        verifier = AttestationVerifier(world["client"], tracer=tracer)
        evidence = snp_evidence(world["guest"].get_report(REPORT_DATA))
        verifier.verify(evidence, now=NOW)
        tracer.counters.reset()
        assert tracer.counters.verifications_by_verdict == {}
        assert tracer.counters.kds_fetches == 0
