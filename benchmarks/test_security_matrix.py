"""Section 6.1 security matrix: every attack, its detector, and the
cost of detection.

Not a table in the paper, but its security analysis is the evaluation's
first half.  The boot-time attack matrix itself now lives in the
campaign catalog (``repro.scenarios``, campaign ``launch-61``) where
containment, recovery, and benign twins are asserted uniformly — the
matrix test here is a thin parity wrapper that runs that campaign and
re-derives the bench's historical (attack, detected) outcome shape.
The cost-of-detection benchmarks (report verification throughput,
fresh-session extension validation) are unchanged.
"""

import pytest

from repro.attest import (
    STEP_MEASUREMENT,
    AttestationVerifier,
    VerificationPolicy,
    snp_evidence,
)
from repro.bench import Reporter
from repro.core import RevelioDeployment
from repro.crypto import sigcache
from repro.net.latency import ZERO_LATENCY
from repro.scenarios import CampaignRunner, get_campaign


@pytest.fixture(scope="module")
def reporter():
    reporter = Reporter("security_matrix", "Section 6.1 attacks and detection costs")
    yield reporter
    reporter.finish()


@pytest.fixture(scope="module")
def deployment(bn_build):
    return RevelioDeployment(
        bn_build, num_nodes=1, latency=ZERO_LATENCY, seed=b"sec"
    ).deploy()


#: Campaign scenario -> the bench's historical attack label.
_LAUNCH_PARITY = {
    "kernel-substitution-honest-table": "kernel substitution (honest table)",
    "kernel-substitution-matching-hashes": "kernel substitution (matching hashes)",
    "malicious-firmware": "malicious OVMF",
    "rootfs-bitflip": "rootfs bit flip",
}


def test_attack_detection_matrix(benchmark, bn_build, reporter):
    """Run the boot-time matrix once via the launch-61 campaign and
    assert the same outcomes the hand-rolled matrix used to."""

    def run_matrix():
        report = CampaignRunner(
            bn_build, get_campaign("launch-61"), seed=0
        ).run()
        outcomes = []
        for entry in report.scenarios:
            label = _LAUNCH_PARITY[entry["name"]]
            detected = (
                entry["landed"] and entry["contained"] and entry["recovered"]
            )
            outcomes.append((label, detected, entry["expect"]))
        return report, outcomes

    report, outcomes = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    reporter.line("\n  attack -> detected (stable reason code):")
    for attack, detected, expect in outcomes:
        status = "DETECTED" if detected else "MISSED"
        reporter.line(f"    {attack:<42s} {status}  {expect}")
    assert report.ok, report.violations
    assert sorted(label for label, _, _ in outcomes) == sorted(
        _LAUNCH_PARITY.values()
    )
    assert all(detected for _, detected, _ in outcomes)


def test_report_verification_throughput(benchmark, deployment, reporter):
    """How many full report verifications per second a verifier manages
    (chain + ECDSA P-384 + field checks).  The signature cache is off,
    so every round does the chain and P-384 work."""
    evidence = snp_evidence(deployment.nodes[0].node.tls_report)
    verifier = AttestationVerifier(
        deployment._new_kds_client(), site="bench:security_matrix"
    )
    policy = VerificationPolicy(
        golden_measurements=(deployment.build.expected_measurement,)
    )
    enabled = sigcache.get_cache().enabled
    sigcache.set_enabled(False)
    try:
        outcome = benchmark(
            lambda: verifier.verify(evidence, now=0, policy=policy)
        )
    finally:
        sigcache.set_enabled(enabled)
    assert outcome.ok, outcome.reason
    assert outcome.step(STEP_MEASUREMENT) is not None
    reporter.line(
        "\n  one full report verification (see pytest-benchmark table for ops/s)"
    )


def test_extension_validation_cost(benchmark, deployment, reporter):
    """Real compute of a complete extension attestation (fresh session,
    warm VCEK): the client-side work behind Table 3's row 3."""
    browser, extension = deployment.make_user("sec-user", "10.2.4.1")
    url = f"https://{deployment.domain}/"
    browser.navigate(url)  # warm caches

    def fresh_attestation():
        browser.new_session()
        return browser.navigate(url)

    result = benchmark(fresh_attestation)
    assert not result.blocked
    reporter.line("  one fresh-session extension validation benchmarked")
