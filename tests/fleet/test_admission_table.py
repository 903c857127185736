"""Every admission state × every admission event, through the public
gateway API (DESIGN.md invariant 11).

Each case brings one backend to a state, applies one event, and pins
the state it lands in, its admission fields, its failure count, the
gateway's counter deltas, and whether its session affinity was
severed.  The expected moves are written out below; the field and
counter effects follow from a few rules: an event that carries a
verdict records it, eviction clears the verdict and names its reason,
retirement clears it, and admission resets the failure count.
"""

import itertools

import pytest

from repro.core import RevelioDeployment
from repro.fleet import FleetGateway, GossipedVerdict

STATES = ("pending", "admitted", "rejected", "draining", "evicted", "retired")

#: event -> the state each of ``STATES`` lands in ("-": ignored).
MOVES = {
    #               pending     admitted    rejected   draining    evicted    retired
    "pass":        ("admitted", "admitted", "-",       "-",        "-",       "-"),
    "gossip_pass": ("admitted", "-",        "-",       "-",        "-",       "-"),
    "fail":        ("rejected", "evicted",  "-",       "evicted",  "-",       "-"),
    "gossip_fail": ("-",        "evicted",  "-",       "evicted",  "-",       "-"),
    "evict":       ("evicted",  "evicted",  "evicted", "evicted",  "-",       "-"),
    "drain":       ("-",        "draining", "-",       "-",        "-",       "-"),
    "retire":      ("retired",  "retired",  "retired", "retired",  "retired", "-"),
}

#: The verdict (ok, reason) an event carries, if any.
VERDICTS = {
    "pass": (True, ""),
    "fail": (False, "measurement_mismatch"),
    "gossip_pass": (True, ""),
    "gossip_fail": (False, "tcb_too_old"),
}

#: The reason an event evicts with.
EVICT_REASONS = {
    "fail": "measurement_mismatch",
    "gossip_fail": "tcb_too_old",
    "evict": "health_timeout",
}

FAMILY = "sev-snp"
PLANTED = b"planted-session"


@pytest.fixture(scope="module")
def deployment(fleet_build):
    return RevelioDeployment(fleet_build, num_nodes=1).deploy()


_gateway_ips = itertools.count(1)


def _fail_attestation(gateway, ip_address):
    """A failing local verdict: the family's goldens are withdrawn for
    one attestation."""
    goldens = gateway.golden_measurements.pop(FAMILY)
    try:
        verdict = gateway.attest_and_admit(ip_address)
    finally:
        gateway.golden_measurements[FAMILY] = goldens
    assert not verdict.ok and verdict.reason == "measurement_mismatch"


def _reach(gateway, ip_address, state):
    """Bring the backend from pending to *state* through the API."""
    if state == "rejected":
        _fail_attestation(gateway, ip_address)
    elif state != "pending":
        assert gateway.attest_and_admit(ip_address).ok
        if state in ("draining", "retired"):
            gateway.mark_draining(ip_address)
        if state == "evicted":
            gateway.evict(ip_address, "backend_unreachable")
        if state == "retired":
            gateway.retire(ip_address)
    assert gateway.backends[ip_address].state == state


def _apply(gateway, ip_address, event):
    clock = gateway.network.clock
    if event == "pass":
        gateway.attest_and_admit(ip_address)
    elif event == "fail":
        _fail_attestation(gateway, ip_address)
    elif event in ("gossip_pass", "gossip_fail"):
        ok, reason = VERDICTS[event]
        record = GossipedVerdict(ip_address, FAMILY, ok, reason, clock.now)
        assert gateway.accept_gossip(record, max_staleness=120.0)
    elif event == "evict":
        gateway.evict(ip_address, EVICT_REASONS["evict"])
    elif event == "drain":
        gateway.mark_draining(ip_address)
    else:
        gateway.retire(ip_address)


def _expected(state, event, held, now):
    """(state, fields, counter deltas, severed) that the gateway must
    produce for *event* on a backend in *state* whose admission fields
    are *held*."""
    target = MOVES[event][STATES.index(state)]
    moved = target != "-"
    target = target if moved else state
    ok, reason, verdict_time = held
    failures = 1
    deltas = {}
    if event in VERDICTS:
        ok, reason = VERDICTS[event]
        verdict_time = now
    if event in ("pass", "fail"):
        outcome = "attestations_ok" if ok else f"attestations_failed.{reason}"
        deltas[outcome] = 1
        deltas[f"family.{FAMILY}.{outcome}"] = 1
    elif event in ("gossip_pass", "gossip_fail"):
        deltas["gossip.applied"] = 1
    severed = False
    if moved and target == "admitted":
        failures = 0
        if state == "pending":
            deltas[f"admissions.{FAMILY}"] = 1
            if event == "gossip_pass":
                deltas["gossip.admissions"] = 1
    elif moved and target == "rejected":
        deltas[f"admissions_rejected.{reason}"] = 1
    elif moved and target == "draining":
        deltas["drains_started"] = 1
    elif moved and target == "evicted":
        ok, reason = False, EVICT_REASONS[event]
        deltas[f"evictions.{reason}"] = 1
        deltas[f"family.{FAMILY}.evictions.{reason}"] = 1
        severed = True
    elif moved and target == "retired":
        ok = False
        deltas["retirements"] = 1
        severed = True
    if severed:
        deltas["sessions_severed"] = 1
    return target, (ok, reason, verdict_time, failures), deltas, severed


@pytest.mark.parametrize("event", sorted(MOVES))
@pytest.mark.parametrize("state", STATES)
def test_admission_move(deployment, state, event):
    ip_address = deployment.nodes[0].host.ip_address
    gateway = FleetGateway.for_deployment(
        deployment, ip_address=f"10.9.7.{next(_gateway_ips)}"
    )
    _reach(gateway, ip_address, state)
    clock = gateway.network.clock
    clock.advance(1.0)  # the event's verdict is newer than the held one
    backend = gateway.backends[ip_address]
    held = (backend.verdict_ok, backend.verdict_reason, backend.verdict_time)
    backend.consecutive_failures = 1
    gateway._affinity[PLANTED] = ip_address
    before = dict(gateway.counters)

    _apply(gateway, ip_address, event)

    target, fields, deltas, severed = _expected(state, event, held, clock.now)
    assert backend.state == target
    assert (
        backend.verdict_ok, backend.verdict_reason, backend.verdict_time,
        backend.consecutive_failures,
    ) == fields
    after = gateway.counters
    assert {
        key: after[key] - before.get(key, 0)
        for key in after if after[key] != before.get(key, 0)
    } == deltas
    assert gateway.counters_snapshot()["sessions_active"] == (0 if severed else 1)
