"""End-user traffic generators on the event kernel.

Each simulated user is a real :class:`~repro.core.browser.Browser` with
the Revelio extension attached: a session opens a fresh browser context,
does a *first visit* (attested TLS — well-known fetch, KDS, pipeline
verification, key pinning), then cached *revisits* separated by
exponential think time.  Sessions run concurrently; a visit's virtual
cost is measured in an isolated clock scope, the backend's share is
replayed against that backend's kernel :class:`Server` (modelling its
concurrency limit and queueing), and the client-side remainder is slept
— so tail latency reflects real contention.

Two drive modes: *open-loop* (Poisson arrivals at a target session
rate, independent of system state) and *closed-loop* (a fixed worker
population, each running sessions back to back).
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.kernel import EventKernel, sleep, spawn, wait
from ..sim.metrics import MetricsRegistry
from ..sim.resources import FifoQueue
from ..sim.rng import SimRng
from .gateway import FleetGateway


def pick_tier(tier_weights, rng):
    """Draw a session tier from *tier_weights* (tier name -> weight)
    with one ``rng.random()``; None when there are no weights (the
    session stays untagged)."""
    if not tier_weights:
        return None
    total = sum(tier_weights.values())
    draw = rng.random() * total
    cumulative = 0.0
    for tier, weight in sorted(tier_weights.items()):
        cumulative += weight
        if draw < cumulative:
            return tier
    return sorted(tier_weights)[-1]


def replay_routes(gateway: FleetGateway, elapsed: float):
    """``yield from`` this after an exchange that took *elapsed* virtual
    seconds in an isolated clock scope: replay each backend's share of
    it against that backend's service station (the queueing model),
    then sleep the client-side remainder."""
    replayed = 0.0
    for backend_ip, share in gateway.take_routes():
        backend = gateway.backends.get(backend_ip)
        if backend is not None and backend.server is not None:
            yield from backend.server.process(share)
        elif share > 0:
            yield sleep(share)
        replayed += share
    remainder = elapsed - replayed
    if remainder > 0:
        yield sleep(remainder)


class UserPool:
    """A fixed population of browsers, checked out per session.

    Users are created once (host + extension + browser) and reused —
    their KDS/VCEK caches persist across sessions, exactly like a real
    returning user's extension storage.
    """

    def __init__(
        self,
        deployment,
        kernel: EventKernel,
        size: int,
        expected_measurements=None,
        reattest_on_rekey: bool = True,
        ip_prefix: str = "10.2",
        extension_setup=None,
    ):
        self.size = size
        self._queue = FifoQueue(kernel, name="user-pool")
        self.browsers: List = []
        for index in range(size):
            ip_address = f"{ip_prefix}.{index // 250}.{index % 250 + 1}"
            browser, extension = deployment.make_user(
                name=f"user-{index}",
                ip_address=ip_address,
                reattest_on_rekey=reattest_on_rekey,
            )
            if expected_measurements is not None:
                extension.register_site(
                    deployment.domain,
                    expected_measurements=expected_measurements,
                )
            # Heterogeneous fleets need more than a flat golden set:
            # the hook registers per-family goldens / trust contexts.
            if extension_setup is not None:
                extension_setup(extension)
            self.browsers.append(browser)
            self._queue.put(browser)

    def checkout(self):
        """``yield from`` this; waits until a browser is free."""
        browser = yield from self._queue.get()
        return browser

    def checkin(self, browser) -> None:
        self._queue.put(browser)


class FleetWorkload:
    """Session generators driving a gateway-fronted fleet."""

    def __init__(
        self,
        kernel: EventKernel,
        gateway: FleetGateway,
        pool: UserPool,
        url: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        rng: Optional[SimRng] = None,
        think_time_mean: float = 2.0,
        revisits_per_session: int = 3,
        tier_weights=None,
    ):
        self.kernel = kernel
        self.gateway = gateway
        self.pool = pool
        self.url = url or f"https://{gateway.domain}/"
        rng = rng or SimRng(0)
        self._think_rng = rng.fork("think")
        self._arrival_rng = rng.fork("arrivals")
        #: tier name -> weight; each session draws its sensitivity tier
        #: from this distribution and tags the browser's client hello.
        #: ``None`` keeps sessions untagged (the gateway's default tier).
        self.tier_weights = dict(tier_weights) if tier_weights else None
        self._tier_rng = rng.fork("tiers")
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            kernel.clock, rng=rng.fork("metrics")
        )
        self.think_time_mean = think_time_mean
        self.revisits_per_session = revisits_per_session
        self.sessions_completed = 0
        self._sessions_remaining = 0

    # -- one visit --------------------------------------------------

    def _visit(self, browser, kind: str, tier=None):
        network = self.gateway.network
        started = network.clock.now
        blocked = failed = False
        with network.measure() as scope:
            try:
                result = browser.navigate(self.url)
                blocked = result.blocked
            except ConnectionError:
                failed = True
        yield from replay_routes(self.gateway, scope.elapsed)

        latency = network.clock.now - started
        metrics = self.metrics
        metrics.increment("requests_total")
        if failed:
            metrics.increment("requests_failed")
            return
        if blocked:
            metrics.increment("requests_blocked")
            return
        metrics.increment("requests_ok")
        metrics.reservoir("latency.all").observe(latency)
        metrics.reservoir(f"latency.{kind}").observe(latency)
        if tier is not None:
            metrics.reservoir(f"latency.tier.{tier}").observe(latency)
        metrics.window("throughput").record()

    def _session(self, browser):
        tier = pick_tier(self.tier_weights, self._tier_rng)
        browser.session_tier = tier
        browser.new_session()
        yield from self._visit(browser, "first_visit", tier=tier)
        for _ in range(self.revisits_per_session):
            yield sleep(self._think_rng.expovariate(1.0 / self.think_time_mean))
            yield from self._visit(browser, "revisit", tier=tier)
        self.sessions_completed += 1

    def _session_with_checkin(self, browser):
        try:
            yield from self._session(browser)
        finally:
            self.pool.checkin(browser)

    # -- drive modes ------------------------------------------------

    def open_loop(self, sessions: int, arrival_rate: float):
        """Kernel process: Poisson session arrivals at *arrival_rate*
        per virtual second, then wait for every session to finish."""
        processes = []
        for index in range(sessions):
            yield sleep(self._arrival_rng.expovariate(arrival_rate))
            browser = yield from self.pool.checkout()
            process = yield spawn(
                self._session_with_checkin(browser), name=f"session-{index}"
            )
            processes.append(process)
        for process in processes:
            yield wait(process)

    def closed_loop(self, sessions: int, workers: int):
        """Kernel process: *workers* concurrent users running sessions
        back to back until *sessions* have been generated."""
        self._sessions_remaining = sessions
        processes = []
        for index in range(workers):
            process = yield spawn(self._worker(), name=f"worker-{index}")
            processes.append(process)
        for process in processes:
            yield wait(process)

    def _worker(self):
        while self._sessions_remaining > 0:
            self._sessions_remaining -= 1
            browser = yield from self.pool.checkout()
            try:
                yield from self._session(browser)
            finally:
                self.pool.checkin(browser)

    # -- results ----------------------------------------------------

    def snapshot(self) -> dict:
        """Workload metrics + gateway counters, sorted and JSON-safe."""
        out = dict(self.metrics.snapshot())
        for key, value in self.gateway.counters_snapshot().items():
            out[f"gateway.{key}"] = value
        out["sessions_completed"] = self.sessions_completed
        return {key: out[key] for key in sorted(out)}
