"""Cold vs cached attestation through the unified pipeline.

Runs the full engine (KDS fetch -> chain -> signature -> policy checks)
with VCEK caching disabled and enabled, recording both the simulated
network cost per verification (the paper's 427.3 ms KDS figure) and the
real wall-clock verification throughput.  Writes ``BENCH_attest.json``
next to this script.

Run directly: ``PYTHONPATH=src python benchmarks/bench_attest.py``
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.amd.kds import KeyDistributionServer
from repro.amd.policy import REVELIO_POLICY
from repro.amd.secure_processor import AmdKeyInfrastructure
from repro.attest import (
    AttestationTracer,
    AttestationVerifier,
    VerificationPolicy,
    snp_evidence,
)
from repro.core.kds_client import KdsClient
from repro.crypto import ec, sigcache
from repro.crypto.drbg import HmacDrbg
from repro.net.latency import LatencyModel, SimClock

ROUNDS = 20
REPORT_DATA = b"\x42" * 64
NOW = 1_000_000


def _world():
    amd = AmdKeyInfrastructure(HmacDrbg(b"bench-attest"))
    kds_server = KeyDistributionServer(amd)
    chip = amd.provision_chip("bench-chip")
    guest = chip.launch_vm(b"revelio-fw", REVELIO_POLICY)
    return kds_server, chip, guest


def _measure(cache_enabled: bool) -> dict:
    # Fresh crypto caches so cold/cached scenarios don't leak into each
    # other; within a scenario the caches fill naturally, which is the
    # effect being measured.
    sigcache.reset_cache()
    ec.reset_point_cache()
    kds_server, chip, guest = _world()
    clock = SimClock()
    client = KdsClient(
        kds_server,
        clock,
        LatencyModel(kds_rtt=0.400, kds_processing=0.0273),
        cache_enabled=cache_enabled,
    )
    tracer = AttestationTracer()
    verifier = AttestationVerifier(
        client,
        tracer=tracer,
        site="bench:cached" if cache_enabled else "bench:cold",
    )
    policy = VerificationPolicy(
        golden_measurements=(guest.measurement,),
        expected_report_data=REPORT_DATA,
        allowed_chip_ids=(chip.chip_id,),
    )
    evidence = snp_evidence(guest.get_report(REPORT_DATA))
    if cache_enabled:
        verifier.verify(evidence, now=NOW, policy=policy)  # warm the cache

    sim_before = clock.now
    started = time.perf_counter()
    for _ in range(ROUNDS):
        outcome = verifier.verify(evidence, now=NOW, policy=policy)
        assert outcome.ok, outcome.reason
    wall_seconds = time.perf_counter() - started
    sim_seconds = clock.now - sim_before

    counters = tracer.counters
    return {
        "rounds": ROUNDS,
        "sim_ms_per_verification": sim_seconds / ROUNDS * 1000.0,
        "sim_ms_total": sim_seconds * 1000.0,
        "wall_verifications_per_sec": ROUNDS / wall_seconds,
        "kds_fetches": counters.kds_fetches,
        "kds_cache_hit_rate": counters.kds_cache_hit_rate(),
        "sig_cache_hit_rate": counters.sig_cache_hit_rate(),
        "step_latency_ms_mean": counters.snapshot()["step_latency_ms_mean"],
    }


def main() -> dict:
    cold = _measure(cache_enabled=False)
    cached = _measure(cache_enabled=True)
    assert cached["sim_ms_per_verification"] < cold["sim_ms_per_verification"], (
        "cached verification must be strictly cheaper in simulated time"
    )
    results = {
        "benchmark": "attest-pipeline cold vs cached",
        "paper_kds_round_trip_ms": 427.3,
        "cold": cold,
        "cached": cached,
        "cached_saves_sim_ms": (
            cold["sim_ms_per_verification"] - cached["sim_ms_per_verification"]
        ),
    }
    output = Path(__file__).resolve().parent / "BENCH_attest.json"
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"cold:   {cold['sim_ms_per_verification']:8.1f} sim ms/verification "
          f"({cold['wall_verifications_per_sec']:.0f}/s wall)")
    print(f"cached: {cached['sim_ms_per_verification']:8.1f} sim ms/verification "
          f"({cached['wall_verifications_per_sec']:.0f}/s wall)")
    print(f"wrote {output}")
    return results


if __name__ == "__main__":
    main()
