"""Periodic liveness probes and re-attestation for gateway backends.

Runs as one kernel process: every ``interval`` virtual seconds each
active backend is probed through the real end-user path (fresh TLS
handshake + well-known fetch).  A probe that errors or exceeds
``timeout`` counts a consecutive failure; at ``failure_threshold`` the
backend is evicted (``backend_unreachable`` / ``health_timeout``).
Backends whose attestation verdict is older than ``reattest_every`` are
re-verified through the pipeline — a failing re-attestation evicts with
the pipeline's own reason code (e.g. ``tcb_too_old``), and an
unreachable KDS evicts with ``kds_unreachable`` (the gateway cannot
confirm freshness, so it stops serving; DESIGN.md invariant 11).
"""

from __future__ import annotations

from ..sim.kernel import Interrupt, sleep
from .gateway import BackendState, FleetGateway


class HealthMonitor:
    """The probe loop; spawn :meth:`process` on the kernel."""

    def __init__(
        self,
        gateway: FleetGateway,
        interval: float = 5.0,
        timeout: float = 1.0,
        failure_threshold: int = 2,
        reattest_every: float = 60.0,
        backend_filter=None,
    ):
        self.gateway = gateway
        self.interval = interval
        self.timeout = timeout
        self.failure_threshold = failure_threshold
        self.reattest_every = reattest_every
        #: Optional predicate over :class:`BackendState` restricting
        #: which backends this monitor probes — a mesh runs one monitor
        #: per region so each backend is re-attested once per round and
        #: gossip (not duplicate probes) keeps the other gateways fresh.
        self.backend_filter = backend_filter
        self.probes_ok = 0
        self.probes_failed = 0
        self.reattestations = 0

    def process(self):
        """Kernel process: probe until interrupted."""
        try:
            while True:
                yield sleep(self.interval)
                self.probe_all()
        except Interrupt:
            return

    def probe_all(self) -> None:
        """One synchronous probe round over the active backends.

        Liveness probes run per backend; the backends whose verdicts
        went stale are collected and re-attested as one group at the end
        of the round, so a verify-farm-wired gateway settles the whole
        round's signature checks in a single batch equation."""
        due = []
        for ip_address in sorted(self.gateway.backends):
            backend = self.gateway.backends[ip_address]
            if not backend.active():
                continue
            if self.backend_filter is not None and not self.backend_filter(backend):
                continue
            if self._probe(backend):
                due.append(ip_address)
        if due:
            self.reattestations += len(due)
            self.gateway.attest_and_admit_many(due)

    def _probe(self, backend: BackendState) -> bool:
        network = self.gateway.network
        try:
            with network.measure() as scope:
                _, response = self.gateway.fetch_evidence(backend.ip_address)
        except ConnectionError:
            self._failure(backend, "backend_unreachable")
            return False
        if scope.elapsed > self.timeout:
            self._failure(backend, "health_timeout")
            return False
        if response.status != 200:
            self._failure(backend, "report_unavailable")
            return False
        backend.consecutive_failures = 0
        self.probes_ok += 1
        verdict_age = (
            network.clock.now - backend.verdict_time
            if backend.verdict_time is not None
            else None
        )
        # Stale verdicts are re-attested by the caller, batched per round.
        return backend.state == "admitted" and (
            verdict_age is None or verdict_age >= self.reattest_every
        )

    def _failure(self, backend: BackendState, reason: str) -> None:
        self.probes_failed += 1
        backend.consecutive_failures += 1
        if backend.consecutive_failures >= self.failure_threshold:
            self.gateway.evict(backend.ip_address, reason)
