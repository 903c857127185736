"""Simulated time and the calibrated latency model.

Absolute latencies cannot be reproduced without the authors' testbed
(EPYC 7313 server, Apple M2 client on WiFi, the real AMD KDS), so the
network carries a :class:`SimClock` — a virtual clock that components
advance as messages travel and servers work.  The default
:class:`LatencyModel` is calibrated to the paper's Table 3 base
numbers; benchmarks report simulated milliseconds whose *composition*
(who dominates, what caching saves) matches the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class ClockScope:
    """One :meth:`SimClock.isolated` timeline segment, and its own
    context manager.

    Entering pushes a fresh offset onto the clock, so every advance in
    the ``with`` block is charged to the scope; exiting pops it, stores
    it in ``elapsed`` and rolls it up into the enclosing scope, if any.
    Exiting on an exception does the same and lets the exception
    propagate.
    """

    __slots__ = ("elapsed", "_offsets")

    def __init__(self, offsets: List[float]) -> None:
        self.elapsed: float = 0.0
        self._offsets = offsets

    def __enter__(self) -> "ClockScope":
        self._offsets.append(0.0)
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        offsets = self._offsets
        elapsed = offsets.pop()
        self.elapsed = elapsed
        if offsets:
            offsets[-1] += elapsed


class SimClock:
    """A monotonically advancing virtual clock (seconds).

    Besides plain :meth:`advance`, the clock supports *isolated scopes*
    for event-driven simulations: inside ``with clock.isolated() as
    scope:`` every advance is charged to the scope (and, transitively,
    to any enclosing scope) instead of the shared timeline, while
    ``now`` keeps reporting base-plus-scope time so timestamps taken
    mid-scope stay consistent.  A discrete-event kernel measures an
    in-flight exchange this way, then re-plays the elapsed time as a
    kernel sleep — concurrent exchanges each advance only their own
    timeline.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._offsets: List[float] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds (scope-local when isolated)."""
        if self._offsets:
            return self._now + sum(self._offsets)
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward."""
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        if self._offsets:
            self._offsets[-1] += seconds
        else:
            self._now += seconds

    def advance_to(self, timestamp: float) -> None:
        """Jump to an absolute virtual time (event-kernel scheduling)."""
        if self._offsets:
            raise RuntimeError("cannot jump the clock inside an isolated scope")
        if timestamp < self._now:
            raise ValueError("time cannot move backwards")
        self._now = float(timestamp)

    def isolated(self) -> ClockScope:
        """Charge every advance in the block to a scope, not the shared
        timeline.  Nested scopes roll their elapsed time up into the
        enclosing scope; the outermost scope discards it (the caller
        replays it, e.g. as an event-kernel sleep)."""
        return ClockScope(self._offsets)

    def epoch_seconds(self) -> int:
        """Integer timestamp for certificate validity checks."""
        return int(self.now)


@dataclass
class LatencyModel:
    """Per-link and per-operation virtual latencies (seconds).

    Defaults are calibrated so that the Table 3 scenario reproduces the
    paper's composition: 5.2 ms base RTT, ~100.9 ms plain page access,
    ~427.3 ms KDS round trip.
    """

    #: one network round trip between two hosts (client <-> server)
    base_rtt: float = 0.0052
    #: WAN round trip to AMD's KDS (dominates fresh attestations)
    kds_rtt: float = 0.400
    #: KDS server-side lookup/issuance work
    kds_processing: float = 0.0273
    #: web-server work to serve the minimal test page
    page_processing: float = 0.090
    #: serving the attestation bundle from the well-known URL
    report_endpoint_processing: float = 0.010
    #: ACME CA work to validate a DNS-01 challenge and sign (certbot
    #: round trips included) — Table 2's ~3 s certificate generation
    acme_issuance: float = 2.95
    #: client-side report validation in the browser extension (JS crypto
    #: on the paper's M2 notebook; our Python ECDSA is faster, so the
    #: difference is charged to the virtual clock)
    client_validation: float = 0.250
    #: per-request connection-context query + pinned-key comparison by
    #: the extension (Table 3: 115.0 ms monitored vs 100.9 ms plain)
    connection_monitor: float = 0.014
    #: one ECDSA P-384 report-signature verification (the three below
    #: sum to Table 2's ~13 ms client-side validation figure)
    sig_verify: float = 0.008
    #: VCEK -> ASK -> ARK chain walk (two chain signatures + windows)
    cert_chain_verify: float = 0.004
    #: golden-measurement / policy comparison
    measurement_check: float = 0.001
    #: fixed cost of one verify-farm batch flush: the shared doubling
    #: chain + generator-table pass of the randomized batch MSM
    #: (~half a single joint multiplication)
    batch_verify_base: float = 0.004
    #: marginal cost per signature inside a batch MSM (table build +
    #: per-digit mixed additions; ~1/5 of a full ``sig_verify``,
    #: matching the measured amortisation in ``bench_crypto``)
    batch_verify_per_sig: float = 0.0015
    #: per-host-pair overrides
    pair_rtt: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: inter-region round trips, keyed on ``(region_a, region_b)``
    #: (either order); hosts in the same (or no) region use ``base_rtt``
    region_rtt: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def rtt(self, src: str, dst: str) -> float:
        """Round-trip latency between two named hosts."""
        key = (src, dst)
        if key in self.pair_rtt:
            return self.pair_rtt[key]
        reverse = (dst, src)
        if reverse in self.pair_rtt:
            return self.pair_rtt[reverse]
        return self.base_rtt

    def rtt_between(
        self,
        src: str,
        dst: str,
        src_region: Optional[str] = None,
        dst_region: Optional[str] = None,
    ) -> float:
        """Topology-priced round trip: a host-pair override wins, then
        the inter-region map (when the endpoints sit in different
        regions), then ``base_rtt``."""
        key = (src, dst)
        if key in self.pair_rtt:
            return self.pair_rtt[key]
        reverse = (dst, src)
        if reverse in self.pair_rtt:
            return self.pair_rtt[reverse]
        if (
            src_region is not None
            and dst_region is not None
            and src_region != dst_region
        ):
            region_key = (src_region, dst_region)
            if region_key in self.region_rtt:
                return self.region_rtt[region_key]
            region_reverse = (dst_region, src_region)
            if region_reverse in self.region_rtt:
                return self.region_rtt[region_reverse]
        return self.base_rtt


#: A model with everything zeroed — unit tests that don't care about
#: time use this so assertions stay exact.
ZERO_LATENCY = LatencyModel(
    base_rtt=0.0,
    kds_rtt=0.0,
    kds_processing=0.0,
    page_processing=0.0,
    report_endpoint_processing=0.0,
    acme_issuance=0.0,
    client_validation=0.0,
    connection_monitor=0.0,
    sig_verify=0.0,
    cert_chain_verify=0.0,
    measurement_check=0.0,
    batch_verify_base=0.0,
    batch_verify_per_sig=0.0,
)
