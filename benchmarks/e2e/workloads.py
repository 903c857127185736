"""The benchmark's four workloads, driven through the public ``repro`` API.

Every workload runs in *rounds*.  A round builds a fresh simulated world
(``setup``, timed as set-up), drives seeded open-loop traffic through it
(``drive``, the timed section), then checks the outputs and collects
statistics (``check``, untimed).  Rounds ``0 .. sim_rounds - 1`` pool
their samples into the simulated-time results, which are therefore a
pure function of the seed; later rounds only add host-time samples.
Round *r* of seed *s* always builds and drives the same world.

``drive`` is a generator: it yields between *slices* of its work (every
``SLICE_SIM_S`` simulated seconds, or every few storage requests) so the
benchmark can time each slice against the machine's speed at that
moment.  A slice boundary only pauses the work.  Same-seed runs stay
byte-identical; against one uninterrupted run, only mesh_ladder differs,
in the 14th digit, because its next rate starts at a slice edge.

Why these four (README.md has the full table):

* ``attested_sessions`` — the paper's Table 3 path: attested first
  visits and pinned revisits through a gateway.  ``core``, ``attest``,
  the KDS client, ``net.tls`` and the EC/AEAD crypto do the work.
* ``mesh_ladder`` — lite sessions over a 4-region gateway mesh at three
  fixed rates around the knee.  ``sim``, ``fleet`` routing and gossip,
  ``net`` and ``crypto.encoding`` do the work; almost no attestation.
* ``sealed_storage`` — the image's own dm tables: crypt writes and
  read-back at three request sizes, verity reads with a hot set plus
  sequential scans.  Only ``storage`` and ``crypto.xts`` run.
* ``fleet_update`` — a signed delta rollout across a mixed-family fleet
  under a live storm: membership churn and re-attestation in ``fleet``
  and ``attest``, plus ``build.delta`` and the update channel.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace

from hostclock import lapped
from repro.attest import reset_tracer
from repro.attest.trace import get_tracer
from repro.build import (
    BuildCache,
    ImageSpec,
    Package,
    PackagePin,
    PackageRegistry,
    build_revelio_image,
)
from repro.core import RevelioDeployment
from repro.crypto import ec, sigcache
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import PrivateKey
from repro.fleet import (
    FleetGateway,
    FleetProvisioner,
    FleetWorkload,
    GatewayMesh,
    LiteFleet,
    MeshWorkload,
    UserPool,
)
from repro.net.latency import SimClock
from repro.sim import EventKernel, MetricsRegistry, SimRng
from repro.sim.kernel import sleep
from repro.storage.blockdev import RamBlockDevice
from repro.storage.dm import DmContext, DmTable, StorageMeter
from repro.storage.dm_verity import VerityError
from repro.storage.partition import PartitionTable

BLOCK = 4096
MIB = 1024 * 1024

#: Regions of the meshed workloads and their inter-region round trips (s).
REGIONS = ("us-east", "us-west", "eu-central", "ap-south")
REGION_RTT = {
    ("us-east", "us-west"): 0.060,
    ("us-east", "eu-central"): 0.080,
    ("us-east", "ap-south"): 0.180,
    ("us-west", "eu-central"): 0.140,
    ("us-west", "ap-south"): 0.120,
    ("eu-central", "ap-south"): 0.160,
}
LITE_FAMILIES = ("sev-snp", "tdx", "arm-cca", "e-vtpm")
#: Registry counters a storm workload keeps per request outcome.
REQUEST_COUNTERS = ("requests_total", "requests_ok", "requests_failed",
                    "requests_blocked")
#: Simulated seconds per timed slice of an event-kernel workload.
SLICE_SIM_S = 0.25


# -- shared helpers -----------------------------------------------------------


def exact_quantile(reservoir, failures: int, q: float) -> float:
    """Inclusive-method quantile over the reservoir's samples plus
    *failures* samples counted as over every limit (``inf``).

    Exact only while the reservoir holds every observation, which the
    workloads guarantee by sizing reservoirs up front."""
    if reservoir.count > reservoir.capacity:
        raise ValueError("reservoir overflowed: the quantile is an estimate")
    total = reservoir.count + failures
    if total == 0:
        return 0.0
    rank = (total - 1) * q
    if math.ceil(rank) >= reservoir.count:
        return math.inf
    if reservoir.count == 1:
        return reservoir.quantile(0.0)
    return reservoir.quantile(rank / (reservoir.count - 1))


def beyond(count: int, q: float) -> int:
    """Samples ranked above the *q* quantile of *count* samples."""
    return count - 1 - math.floor((count - 1) * q) if count else 0


def latency_stats(reservoir, failures: int = 0) -> dict:
    """p50/p99/mean in sim-ms, the sample count, samples beyond p99, and
    the highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    count = reservoir.count + failures
    tail = next((q for q in (0.99, 0.95, 0.90) if beyond(count, q) >= 10), 0.50)
    return {
        "p50_ms": exact_quantile(reservoir, failures, 0.50) * 1000.0,
        "p99_ms": exact_quantile(reservoir, failures, 0.99) * 1000.0,
        "mean_ms": reservoir.mean * 1000.0,
        "count": count,
        "beyond_p99": beyond(count, 0.99),
        "tail_q": tail,
        "tail_ms": exact_quantile(reservoir, failures, tail) * 1000.0,
        "beyond_tail": beyond(count, tail),
    }


def new_registry(capacities: dict) -> MetricsRegistry:
    """A metrics registry whose latency reservoirs hold every sample.

    Its clock only feeds throughput windows, which the benchmark does
    not read, so one registry can pool several worlds' samples."""
    registry = MetricsRegistry(SimClock())
    for name, capacity in capacities.items():
        registry.reservoir(name, capacity=capacity)
    return registry


def request_counts(registry) -> Counter:
    snapshot = registry.snapshot()
    return Counter({key: snapshot.get(key, 0) for key in REQUEST_COUNTERS})


def volume_counts(*volumes) -> Counter:
    """Every dm target's I/O counters, summed by ``<kind>.<counter>``."""
    counts = Counter()
    for volume in volumes:
        for layer in volume.stats():
            for key, value in layer.items():
                if key != "kind":
                    counts[f"{layer['kind']}.{key}"] += value
    return counts


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def reset_process_caches() -> None:
    """Start a round from cold process-wide caches, as a fresh process."""
    sigcache.reset_cache()
    ec.reset_point_cache()
    reset_tracer()


def fleet_build(version: str = "1.0.0", cache=None):
    """The small service image every fleet workload deploys; only the
    agent package changes between versions."""
    registry = PackageRegistry()
    pins = []
    for package in (
        Package.create("nginx", "1.24.0", files={
            "/usr/sbin/nginx": b"\x7fELF-nginx" + b"n" * 2000,
            "/etc/nginx/nginx.conf": b"server { listen 443 ssl; }",
        }),
        Package.create("ic-boundary-node", "0.9.0", files={
            "/opt/ic/boundary-node": b"\x7fELF-bn" + b"b" * 4000,
        }),
        Package.create("revelio-agent", version, files={
            "/usr/bin/revelio-agent":
                b"\x7fELF-agent-" + version.encode() + b"r" * 1000,
        }),
    ):
        pins.append(PackagePin(package.name, package.version,
                               registry.publish(package)))
    spec = ImageSpec(
        name="boundary-node", version=version, registry=registry,
        package_pins=pins, service_domain="e2e.example",
        services=("https",), data_volume_blocks=16,
    )
    return build_revelio_image(spec, cache=cache)


def event_world(build, nodes: int, seed: str):
    """A deployed fleet on a fresh event kernel."""
    deployment = RevelioDeployment(build, num_nodes=nodes,
                                   seed=seed.encode()).deploy()
    kernel = EventKernel(deployment.network.clock, SimRng(seed))
    deployment.network.enable_event_mode(kernel)
    return deployment, kernel


def regioned_mesh(deployment, kernel, lite_backends: int):
    """A 4-region gateway mesh over the deployment's SNP nodes plus
    *lite_backends* mixed-family lite backends, all admitted, with the
    admission gossip delivered."""
    for pair, rtt in sorted(REGION_RTT.items()):
        deployment.latency.region_rtt[pair] = rtt
    mesh = GatewayMesh.for_deployment(deployment, kernel, regions=REGIONS)
    for gateway in mesh.gateways.values():
        # Provisioning re-attests a region's nodes inside one kernel
        # step; time each node's admission as its own segment.
        gateway.attest_and_admit = lapped(gateway.attest_and_admit)
    lite = LiteFleet(deployment)
    for index in range(lite_backends):
        lite.add_backend(
            f"10.8.{index // 200}.{1 + index % 200}",
            LITE_FAMILIES[index % len(LITE_FAMILIES)],
            region=REGIONS[index % len(REGIONS)],
        )
    lite.adopt_deployment_nodes()
    mesh.attach_lite_fleet(lite)
    verdicts = mesh.admit_all()
    kernel.run(until=kernel.clock.now + 1.0)
    return mesh, lite, verdicts


def run_sliced(kernel, *processes):
    """Run the kernel until every process has finished and its events
    have drained, yielding every ``SLICE_SIM_S`` simulated seconds."""
    while not all(process.finished for process in processes):
        kernel.run(until=kernel.clock.now + SLICE_SIM_S)
        yield
    kernel.run()


def backend_servers(gateway) -> list:
    """The kernel service stations behind a gateway, one per backend
    (a mesh shares them across its gateways)."""
    return [
        gateway.backends[ip].server
        for ip in sorted(gateway.backends)
        if gateway.backends[ip].server is not None
    ]


def summed_counter(counters: dict, suffix: str) -> int:
    """Sum of every counter named *suffix* or ending in ``.suffix``."""
    return sum(value for key, value in counters.items()
               if key == suffix or key.endswith("." + suffix))


class ArrivalLag:
    """Measures how late an open-loop generator ran.

    Wraps a :class:`~repro.fleet.workload.UserPool`'s ``checkout``, the
    one place ``FleetWorkload.open_loop`` can block: time spent waiting
    for a free browser delays that arrival and every later one, and
    appears in no request latency."""

    def __init__(self, pool, clock):
        self.lags = []
        self._behind = 0.0
        original = pool.checkout

        def checkout():
            started = clock.now
            browser = yield from original()
            self._behind += clock.now - started
            self.lags.append(self._behind)
            return browser

        pool.checkout = checkout

    @property
    def late_arrivals(self) -> int:
        return sum(1 for lag in self.lags if lag > 0)


class Workload:
    """One workload: seeded world construction, traffic and checks.

    Subclasses implement ``setup(index, pooled) -> world``,
    ``drive(world)`` (the timed section: a generator that yields the name
    of the part of the work each slice belongs to, or None, and returns
    the *ops*, the units of ``ops_per_s``), ``observe(world) ->
    (attempted, failed, stats, peaks, digest)`` and ``sim_results() ->
    dict``; ``host_rates(world, part_s)`` turns the host seconds each
    named part took into per-layer rates."""

    name = ""
    #: The unit of work ``ops_per_s`` counts.
    op = ""
    #: Rounds pooled into the simulated-time results.
    sim_rounds = 3

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        #: Output-check failures, as messages; any one fails the run.
        self.failures = []
        self.attempted = 0
        self.failed = 0
        #: Per-round host-time samples of per-layer rates.
        self.host_samples = {}
        #: Pooled simulated-time sums (and, for peaks, maxima).
        self.sim = Counter()

    def scaled(self, count: float, minimum: int = 1) -> int:
        return max(minimum, int(round(count * self.scale)))

    def round_seed(self, index: int) -> str:
        return f"e2e/{self.name}/{self.seed}/{index}"

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def check(self, world, part_s=None) -> dict:
        """Check a driven round's outputs, pool its statistics, and
        return its deterministic digest.  *part_s*, the host seconds of
        each named part of the drive, is None for the replays, which must
        only reproduce the digest."""
        attempted, failed, stats, peaks, digest = self.observe(world)
        self.expect(failed == 0, f"{failed} of {attempted} operations failed")
        if part_s is not None:
            self.attempted += attempted
            self.failed += failed
            for name, value in self.host_rates(world, part_s).items():
                self.host_samples.setdefault(name, []).append(value)
        if world.pooled:
            self.sim.update(stats)
            for key, value in peaks.items():
                self.sim[key] = max(self.sim[key], value)
        return {
            "attempted": attempted, "failed": failed,
            "stats": dict(sorted(stats.items())),
            "peaks": dict(sorted(peaks.items())), **digest,
        }

    def host_rates(self, world, part_s: dict) -> dict:
        return {}

    def common_stats(self, world) -> Counter:
        """Kernel, crypto-cache and attestation counts every fleet
        workload reports."""
        kernel = world.kernel
        sig_hits, sig_misses = sigcache.counters()
        points = ec.get_point_cache().stats()
        verdicts = get_tracer().counters.verifications_by_verdict
        return Counter({
            "attest.verifications": sum(verdicts.values()),
            "attest.failures": verdicts.get("fail", 0),
            "sim.steps": kernel.stats.steps - world.kernel_before[0],
            "sim.stale_entries": kernel.stats.stale_entries - world.kernel_before[1],
            "sig.hits": sig_hits - world.sig_before[0],
            "sig.misses": sig_misses - world.sig_before[1],
            "point.hits": points["hits"] - world.point_before["hits"],
            "point.misses": points["misses"] - world.point_before["misses"],
        })

    @staticmethod
    def mark_drive_start(world) -> None:
        """Baselines for the per-round deltas, taken at the end of setup:
        only what the traffic causes counts."""
        world.kernel_before = (world.kernel.stats.steps,
                               world.kernel.stats.stale_entries)
        world.sig_before = sigcache.counters()
        world.point_before = dict(ec.get_point_cache().stats())
        reset_tracer()

    def fleet_layer(self) -> dict:
        """Per-layer metrics every fleet workload reports."""
        sim = self.sim
        steps = sim["sim.steps"]
        return {
            "sim.steps": steps,
            "sim.stale_ratio": ratio(sim["sim.stale_entries"],
                                     steps + sim["sim.stale_entries"]),
            "sim.peak_heap": sim["sim.peak_heap"],
            "crypto.sigcache.hit_ratio": ratio(
                sim["sig.hits"], sim["sig.hits"] + sim["sig.misses"]),
            "crypto.point_cache.hit_ratio": ratio(
                sim["point.hits"], sim["point.hits"] + sim["point.misses"]),
            "attest.verifications": sim["attest.verifications"],
            "attest.failures": sim["attest.failures"],
            "fleet.backend_utilisation": ratio(sim["backend.busy_s"],
                                               sim["backend.slot_s"]),
            "fleet.backend_wait_ms_per_request": ratio(
                sim["backend.wait_s"] * 1000.0, sim["backend.served"]),
            "fleet.backend_peak_queue": sim["backend.peak_queue"],
            "fleet.requests_routed": sim["fleet.requests_routed"],
            "fleet.retries": sim["fleet.retries"],
            "fleet.rejected": sim["fleet.rejected"],
        }


def backend_stats(servers, sim_span: float) -> tuple:
    stats = Counter({
        "backend.busy_s": sum(s.busy_seconds for s in servers),
        "backend.wait_s": sum(s.wait_seconds for s in servers),
        "backend.served": sum(s.served for s in servers),
        "backend.slot_s": sum(s.concurrency for s in servers) * sim_span,
    })
    peaks = {"backend.peak_queue": max((s.peak_queue_depth for s in servers),
                                       default=0)}
    return stats, peaks


def routing_stats(counters: dict) -> Counter:
    return Counter({
        "fleet.requests_routed": summed_counter(counters, "requests_routed"),
        "fleet.retries": summed_counter(counters, "retries"),
        "fleet.rejected": sum(
            value for key, value in counters.items()
            if "routing_failed." in key or "admissions_rejected." in key
        ),
    })


# -- attested_sessions ----------------------------------------------------------


class AttestedSessions(Workload):
    name = "attested_sessions"
    op = "session (a first visit plus 3 revisits)"
    nodes = 8
    rate = 40.0
    think_time = 0.5
    revisits = 3

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.sessions = self.scaled(350, 10)
        # Enough browsers that no arrival waits for one: a session lasts
        # ~2.7 sim-s, so ~110 are in flight at 40/s.
        self.pool_size = min(self.sessions, 160)
        self.registry = self.new_registry()
        self.lags = []

    def new_registry(self):
        visits = self.sim_rounds * self.sessions
        return new_registry({
            "latency.all": visits * (1 + self.revisits),
            "latency.first_visit": visits,
            "latency.revisit": visits * self.revisits,
        })

    def setup(self, index: int, pooled: bool):
        reset_process_caches()
        deployment, kernel = event_world(fleet_build(), self.nodes,
                                         self.round_seed(index))
        gateway = FleetGateway.for_deployment(deployment, kernel=kernel)
        verdicts = gateway.admit_all()
        pool = UserPool(deployment, kernel, size=self.pool_size)
        world = SimpleNamespace(
            index=index, pooled=pooled, kernel=kernel, gateway=gateway,
            verdicts=verdicts, pool=pool, lag=ArrivalLag(pool, kernel.clock),
            registry=self.registry if pooled else self.new_registry(),
        )
        world.counts_before = request_counts(world.registry)
        self.mark_drive_start(world)
        return world

    def drive(self, world):
        world.workload = FleetWorkload(
            world.kernel, world.gateway, world.pool, metrics=world.registry,
            rng=SimRng(self.round_seed(world.index) + "/sessions"),
            think_time_mean=self.think_time, revisits_per_session=self.revisits,
        )
        world.sim_started = world.kernel.clock.now
        world.storm = world.kernel.spawn(
            world.workload.open_loop(self.sessions, self.rate), name="storm"
        )
        yield from run_sliced(world.kernel, world.storm)
        return world.workload.sessions_completed

    def observe(self, world):
        workload, kernel, gateway = world.workload, world.kernel, world.gateway
        self.expect(world.storm.error is None, f"storm raised {world.storm.error!r}")
        self.expect(all(v.ok for v in world.verdicts),
                    "a backend failed gateway admission")
        self.expect(workload.sessions_completed == self.sessions,
                    f"{workload.sessions_completed}/{self.sessions} sessions done")
        self.expect(world.lag.late_arrivals == 0,
                    f"{world.lag.late_arrivals} arrivals waited for a browser")
        verdicts = get_tracer().counters.verifications_by_verdict
        self.expect(verdicts.get("fail", 0) == 0,
                    f"{verdicts.get('fail', 0)} attestation verdicts failed")
        self.expect(verdicts.get("pass", 0) == self.sessions,
                    f"{verdicts.get('pass', 0)} passing verdicts for "
                    f"{self.sessions} first visits")

        counts = request_counts(world.registry) - world.counts_before
        failed = counts["requests_failed"] + counts["requests_blocked"]
        kds = Counter()
        for browser in world.pool.browsers:
            kds["kds.fetches"] += browser.extension.kds.fetches
            kds["kds.cache_hits"] += browser.extension.kds.cache_hits
            kds["kds.coalesced"] += browser.extension.kds.coalesced_hits
        servers = backend_servers(gateway)
        served, peaks = backend_stats(servers, kernel.clock.now - world.sim_started)
        stats = self.common_stats(world) + kds + served + counts
        stats += routing_stats(gateway.counters_snapshot())
        peaks["sim.peak_heap"] = kernel.stats.peak_heap
        if world.pooled:
            self.lags.extend(world.lag.lags)
        digest = {"snapshot": workload.snapshot(), "lags": world.lag.lags}
        return counts["requests_total"], failed, stats, peaks, digest

    def sim_results(self) -> dict:
        registry, sim = self.registry, self.sim
        failures = sim["requests_failed"] + sim["requests_blocked"]
        first = latency_stats(registry.reservoir("latency.first_visit"), failures)
        revisit = latency_stats(registry.reservoir("latency.revisit"), failures)
        lag_ms = sorted(lag * 1000.0 for lag in self.lags)
        per_layer = {
            "first_visit_p50_ms": first["p50_ms"],
            "first_visit_p99_ms": first["p99_ms"],
            "revisit_p50_ms": revisit["p50_ms"],
            "revisit_p99_ms": revisit["p99_ms"],
            "fleet.late_arrivals": sum(1 for lag in lag_ms if lag > 0),
            "fleet.generator_lag_ms_p99": (
                lag_ms[math.ceil(0.99 * (len(lag_ms) - 1))] if lag_ms else 0.0),
            "core.kds.fetches": sim["kds.fetches"],
            "core.kds.cache_hit_ratio": ratio(
                sim["kds.cache_hits"], sim["kds.cache_hits"] + sim["kds.fetches"]),
            "core.kds.coalesced": sim["kds.coalesced"],
            **self.fleet_layer(),
        }
        return {
            "sim_latency_ms": registry.reservoir("latency.all").mean * 1000.0,
            "latency": {"first_visit": first, "revisit": revisit},
            "p99_beyond": {"first_visit": first["beyond_p99"],
                           "revisit": revisit["beyond_p99"]},
            "per_layer": per_layer,
        }


# -- mesh_ladder ----------------------------------------------------------------


class MeshLadder(Workload):
    name = "mesh_ladder"
    op = "lite session (a hello plus 2 records)"
    rates = (500.0, 1000.0, 2000.0)
    #: The rate the request-latency metrics report (below the knee).
    report_rate = 1000.0
    slo_ms = 1000.0
    #: Short think times keep a session ~1 sim-s long, so each rate
    #: reaches its steady state early in its arrival window.
    think_time = 0.25
    max_failed_ratio = 0.001
    #: A round's 8-sim-s windows hold 24 000 requests at the reported
    #: rate and take ~11 host-s (up to ~17 s of wall time on a slowed
    #: machine), so one round holds enough samples and fits a run.
    sim_rounds = 1

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.snp_nodes = self.scaled(8, 2)
        self.lite_backends = self.scaled(92, 4)
        self.window = 8.0 * min(1.0, max(scale, 0.1))
        self.sessions = {rate: max(10, int(rate * self.window))
                         for rate in self.rates}
        self.registries = self.new_registries()

    def new_registries(self):
        # A session sends a hello and two records.
        return {
            rate: new_registry({
                name: 3 * self.sim_rounds * sessions
                for name in ("latency.all", "latency.hello", "latency.record")
            })
            for rate, sessions in self.sessions.items()
        }

    def setup(self, index: int, pooled: bool):
        reset_process_caches()
        deployment, kernel = event_world(fleet_build(), self.snp_nodes,
                                         self.round_seed(index))
        mesh, _, verdicts = regioned_mesh(deployment, kernel, self.lite_backends)
        world = SimpleNamespace(
            index=index, pooled=pooled, kernel=kernel, mesh=mesh,
            verdicts=verdicts,
            registries=self.registries if pooled else self.new_registries(),
        )
        world.counts_before = {rate: request_counts(registry)
                               for rate, registry in world.registries.items()}
        self.mark_drive_start(world)
        return world

    def drive(self, world):
        """The rates one after another; each ends when its last session
        does, so the next starts on a drained mesh."""
        kernel, mesh = world.kernel, world.mesh
        world.sim_started = kernel.clock.now
        world.rungs = []
        for offset, rate in enumerate(self.rates):
            workload = MeshWorkload(
                mesh, kernel, metrics=world.registries[rate],
                rng=SimRng(f"{self.round_seed(world.index)}/{rate:g}"),
                think_time_mean=self.think_time,
                client_ip_prefix=f"10.{3 + offset}",
            )
            storm = kernel.spawn(
                workload.open_loop(self.sessions[rate], rate),
                name=f"ladder-{rate:g}",
            )
            yield from run_sliced(kernel, storm)
            world.rungs.append((rate, workload, storm))
        return sum(workload.sessions_completed for _, workload, _ in world.rungs)

    def observe(self, world):
        kernel, mesh = world.kernel, world.mesh
        self.expect(all(v.ok for v in world.verdicts),
                    "a backend failed mesh admission")
        attempted = failed = 0
        stats = self.common_stats(world)
        for rate, workload, storm in world.rungs:
            self.expect(storm.error is None, f"rung {rate:g} raised {storm.error!r}")
            self.expect(
                workload.sessions_completed == self.sessions[rate]
                and workload.sessions_failed == 0,
                f"rung {rate:g}: {workload.sessions_completed}/"
                f"{self.sessions[rate]} sessions completed, "
                f"{workload.sessions_failed} failed",
            )
            counts = (request_counts(world.registries[rate])
                      - world.counts_before[rate])
            attempted += counts["requests_total"]
            failed += counts["requests_failed"]
            for key, value in counts.items():
                stats[f"rung_{rate:g}.{key}"] = value
        counters = mesh.counters_snapshot()
        stats += routing_stats(counters)
        stats["fleet.gossip_applied"] = summed_counter(counters, "gossip.applied")
        servers = backend_servers(mesh.gateways[sorted(mesh.gateways)[0]])
        served, peaks = backend_stats(servers, kernel.clock.now - world.sim_started)
        stats += served
        peaks["sim.peak_heap"] = kernel.stats.peak_heap
        digest = {
            "registries": {f"{rate:g}": registry.snapshot()
                           for rate, registry in world.registries.items()},
        }
        return attempted, failed, stats, peaks, digest

    def sim_results(self) -> dict:
        rungs = {}
        for rate in self.rates:
            failures = self.sim[f"rung_{rate:g}.requests_failed"]
            stats = latency_stats(self.registries[rate].reservoir("latency.all"),
                                  failures)
            stats["failed_ratio"] = ratio(
                failures, self.sim[f"rung_{rate:g}.requests_total"])
            stats["within_slo"] = (
                stats["p99_ms"] <= self.slo_ms
                and stats["failed_ratio"] <= self.max_failed_ratio
            )
            rungs[rate] = stats
        passing = [rate for rate in self.rates if rungs[rate]["within_slo"]]
        report = rungs[self.report_rate]
        per_layer = {
            "request_p50_ms": report["p50_ms"],
            "request_p99_ms": report["p99_ms"],
            "max_rate_within_slo": max(passing, default=0.0),
            "fleet.gossip_applied": self.sim["fleet.gossip_applied"],
            **{f"fleet.rung_{rate:g}.request_p99_ms": rungs[rate]["p99_ms"]
               for rate in self.rates},
            **self.fleet_layer(),
        }
        return {
            "sim_latency_ms": report["mean_ms"],
            "latency": {f"rung_{rate:g}": rungs[rate] for rate in self.rates},
            "p99_beyond": {f"rung_{rate:g}": rungs[rate]["beyond_p99"]
                           for rate in self.rates},
            "per_layer": per_layer,
        }


# -- sealed_storage -------------------------------------------------------------


class SealedStorage(Workload):
    name = "sealed_storage"
    op = "4 KiB block moved through a dm stack"
    #: Data-volume requests per round, by size in blocks (4 KiB, 64 KiB, 1 MiB).
    data_requests = {1: 256, 16: 32, 256: 4}
    hot_blocks = 64
    hot_share = 0.8
    scan_blocks = 256
    #: Requests per timed slice (~50 host-ms each), by part of the drive.
    slice_requests = {"data_write": 8, "rootfs_read": 4000, "data_read": 8}

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.rootfs_mib = self.scaled(32, 2)
        self.data_blocks = max(512, self.scaled(1024))
        self.requests = {size: self.scaled(count)
                         for size, count in self.data_requests.items()}
        self.rootfs_reads = self.scaled(40_000, 200)
        self.scans = self.scaled(64, 2)
        self.registry = self.new_registry()

    def new_registry(self):
        writes = sum(self.requests.values())
        rootfs = self.rootfs_reads + self.scans
        return new_registry({
            name: self.sim_rounds * count for name, count in (
                ("data_write", writes), ("data_read", writes),
                ("rootfs_read", self.rootfs_reads), ("rootfs_scan", self.scans),
                ("all", 2 * writes + rootfs),
            )
        })

    def setup(self, index: int, pooled: bool):
        reset_process_caches()
        seed = self.round_seed(index)
        rng = SimRng(seed)
        chunk = 512 * 1024
        filler = {
            f"/usr/share/filler/blob-{i:03d}": rng.randbytes(chunk)
            for i in range(self.rootfs_mib * MIB // chunk)
        }
        build = build_revelio_image(ImageSpec(
            name="sealed-storage", version="1.0.0", registry=PackageRegistry(),
            package_pins=[], service_domain="storage.e2e.example",
            data_volume_blocks=self.data_blocks + 2, extra_files=filler,
        ))
        disk = RamBlockDevice(len(build.image.disk_image) // BLOCK, BLOCK,
                              initial=build.image.disk_image)
        meter = StorageMeter(clock=SimClock())
        context = DmContext(
            disk=disk,
            cmdline_args={"verity_root_hash": build.root_hash.hex()},
            keys={"sealing": HmacDrbg((seed + "/sealing").encode()).generate(64)},
            rng=HmacDrbg((seed + "/luks").encode()),
            meter=meter,
        )
        rootfs = DmTable.parse("rootfs", build.dm_tables["rootfs"]).open(context)
        data = DmTable.parse("data", build.dm_tables["data"]).open(context)
        world = SimpleNamespace(
            index=index, pooled=pooled, disk=disk, meter=meter, rootfs=rootfs,
            data=data, registry=self.registry if pooled else self.new_registry(),
            rootfs_first=PartitionTable.read_from(disk).find("rootfs").first_block,
        )
        self.plan(world, rng)
        world.stats_before = volume_counts(world.rootfs, world.data)
        world.sim_before = meter.sim_seconds
        return world

    def plan(self, world, rng) -> None:
        """Seeded requests: data writes at random aligned offsets, their
        read-back (expected bytes replayed from the writes), and rootfs
        4 KiB reads — 80% to a hot set that fits the 128-block cache —
        interleaved with sequential 1 MiB scans."""
        blocks = world.data.num_blocks
        sizes = [size for size, count in sorted(self.requests.items())
                 for _ in range(count)]
        rng.shuffle(sizes)
        shadow = bytearray(blocks * BLOCK)  # the volume is zero-filled
        world.writes = []
        for size in sizes:
            first = rng.randrange(blocks - size + 1)
            payload = rng.randbytes(size * BLOCK)
            shadow[first * BLOCK:(first + size) * BLOCK] = payload
            world.writes.append((first, payload))
        world.reads = [
            (first, len(payload) // BLOCK,
             bytes(shadow[first * BLOCK:first * BLOCK + len(payload)]))
            for first, payload in world.writes
        ]
        rng.shuffle(world.reads)
        rootfs_blocks = world.rootfs.num_blocks
        hot = rng.sample(range(rootfs_blocks), self.hot_blocks)
        every = max(1, self.rootfs_reads // self.scans)
        cursor, scans_left = 0, self.scans
        world.rootfs_ops = []
        for index in range(self.rootfs_reads):
            if rng.random() < self.hot_share:
                world.rootfs_ops.append((hot[rng.randrange(len(hot))], 1))
            else:
                world.rootfs_ops.append((rng.randrange(rootfs_blocks), 1))
            if scans_left and index % every == every - 1:
                count = min(self.scan_blocks, rootfs_blocks - cursor)
                world.rootfs_ops.append((cursor, count))
                cursor = (cursor + count) % rootfs_blocks
                scans_left -= 1
        world.hot = hot

    def drive(self, world):
        """The three parts one after another, yielding each part's name
        after every ``slice_requests[part]`` requests and at its end."""
        meter, registry = world.meter, world.registry
        data, rootfs = world.data, world.rootfs
        observe_all = registry.reservoir("all").observe
        world.moved = moved = {"data_write": 0, "data_read": 0, "rootfs_read": 0}

        observe = registry.reservoir("data_write").observe
        for index, (first, payload) in enumerate(world.writes, 1):
            before = meter.sim_seconds
            data.write_blocks(first, payload)
            observe(meter.sim_seconds - before)
            observe_all(meter.sim_seconds - before)
            moved["data_write"] += len(payload) // BLOCK
            if index % self.slice_requests["data_write"] == 0:
                yield "data_write"
        yield "data_write"

        read_one = registry.reservoir("rootfs_read").observe
        scan = registry.reservoir("rootfs_scan").observe
        for index, (first, count) in enumerate(world.rootfs_ops, 1):
            before = meter.sim_seconds
            if count == 1:
                rootfs.read_block(first)
                read_one(meter.sim_seconds - before)
            else:
                rootfs.read_blocks(first, count)
                scan(meter.sim_seconds - before)
            observe_all(meter.sim_seconds - before)
            moved["rootfs_read"] += count
            if index % self.slice_requests["rootfs_read"] == 0:
                yield "rootfs_read"
        yield "rootfs_read"

        observe = registry.reservoir("data_read").observe
        world.mismatches = 0
        for index, (first, count, expected) in enumerate(world.reads, 1):
            before = meter.sim_seconds
            if data.read_blocks(first, count) != expected:
                world.mismatches += 1
            observe(meter.sim_seconds - before)
            observe_all(meter.sim_seconds - before)
            moved["data_read"] += count
            if index % self.slice_requests["data_read"] == 0:
                yield "data_read"
        yield "data_read"
        return sum(moved.values())

    def host_rates(self, world, part_s: dict) -> dict:
        return {
            f"storage.{part}_mib_per_s": blocks * BLOCK / MIB / part_s[part]
            for part, blocks in world.moved.items()
        }

    def observe(self, world):
        self.expect(world.mismatches == 0,
                    f"{world.mismatches} crypt read-backs differ from the writes")
        counts = volume_counts(world.rootfs, world.data) - world.stats_before
        stats = Counter({
            "sim.storage_s": world.meter.sim_seconds - world.sim_before,
            "io.blocks": sum(world.moved.values()),
            "cache.hits": counts["cache.cache_hits"],
            "cache.misses": counts["cache.cache_misses"],
            "verity.hits": counts["verity.verify_hits"],
            "verity.misses": counts["verity.verify_misses"],
        })
        # One bit flipped under a hot (cached) rootfs block must be
        # rejected on the next read, never served from a cache.
        block = world.hot[0]
        world.disk.corrupt((world.rootfs_first + block) * BLOCK + 17, 0x04)
        try:
            world.rootfs.read_block(block)
            rejected = False
        except VerityError:
            rejected = True
        self.expect(rejected, "a rootfs bit flip was served, not rejected")
        attempted = len(world.writes) + len(world.reads) + len(world.rootfs_ops)
        digest = {"snapshot": world.registry.snapshot(),
                  "moved": world.moved, "bit_flip_rejected": rejected}
        return attempted, world.mismatches, stats, {}, digest

    def sim_results(self) -> dict:
        registry, sim = self.registry, self.sim
        latency = {name: latency_stats(registry.reservoir(name)) for name in
                   ("data_write", "data_read", "rootfs_read", "rootfs_scan")}
        mib = sim["io.blocks"] * BLOCK / MIB
        per_layer = {
            "storage.cache_hit_ratio": ratio(
                sim["cache.hits"], sim["cache.hits"] + sim["cache.misses"]),
            "storage.verify_hit_ratio": ratio(
                sim["verity.hits"], sim["verity.hits"] + sim["verity.misses"]),
            "storage.sim_ms_per_mib": ratio(sim["sim.storage_s"] * 1000.0, mib),
        }
        return {
            "sim_latency_ms": registry.reservoir("all").mean * 1000.0,
            "latency": latency,
            "p99_beyond": {"rootfs_read": latency["rootfs_read"]["beyond_p99"]},
            "per_layer": per_layer,
        }


# -- fleet_update ---------------------------------------------------------------


class FleetUpdate(Workload):
    name = "fleet_update"
    op = "node updated and re-attested"
    snp_nodes = 4
    #: Storm traffic heavy enough that drains wait on in-flight requests.
    storm_rate = 100.0
    provision_at = 5.0
    #: A round takes ~7 host-s (~11 s of wall time on a slowed machine);
    #: two hold 8000 storm sessions and 300 node updates.
    sim_rounds = 2

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.nodes = self.scaled(150, self.snp_nodes + 4)
        self.storm_sessions = self.scaled(4000, 20)
        self.registry = self.new_registry()

    def new_registry(self):
        capacity = self.sim_rounds * self.storm_sessions
        return new_registry({name: capacity for name in
                             ("latency.all", "latency.hello")})

    def setup(self, index: int, pooled: bool):
        reset_process_caches()
        seed = self.round_seed(index)
        cache = BuildCache()
        base = fleet_build("1.0.0", cache=cache)
        target = fleet_build("2.0.0", cache=cache)
        deployment, kernel = event_world(base, self.snp_nodes, seed)
        mesh, lite, verdicts = regioned_mesh(
            deployment, kernel, self.nodes - self.snp_nodes)
        key = PrivateKey.generate_ecdsa(HmacDrbg((seed + "/channel").encode()),
                                        "P-256")
        world = SimpleNamespace(
            index=index, pooled=pooled, kernel=kernel, mesh=mesh,
            deployment=deployment, target=target, verdicts=verdicts,
            provisioner=FleetProvisioner(mesh, deployment, key, lite_fleet=lite),
            registry=self.registry if pooled else self.new_registry(),
        )
        world.counts_before = request_counts(world.registry)
        self.mark_drive_start(world)
        return world

    def drive(self, world):
        kernel = world.kernel
        # Storm sessions are single hellos.  The provisioner re-attests
        # inside single kernel steps, stalling every other process for up
        # to ~18 sim-s per region; a session holding affinity across such
        # stalls can be severed three times and abandoned (a failure).
        world.workload = MeshWorkload(
            world.mesh, kernel, metrics=world.registry,
            rng=SimRng(self.round_seed(world.index) + "/storm"),
            records_per_session=0,
        )
        world.sim_started = kernel.clock.now
        world.storm = kernel.spawn(
            world.workload.open_loop(self.storm_sessions, self.storm_rate),
            name="storm",
        )

        def delayed_rollout():
            yield sleep(self.provision_at)
            report = yield from world.provisioner.provision(world.target)
            return report

        world.rollout = kernel.spawn(delayed_rollout(), name="rollout")
        yield from run_sliced(kernel, world.storm, world.rollout)
        report = world.rollout.value
        return report.admitted if report is not None else 0

    def observe(self, world):
        kernel, report = world.kernel, world.rollout.value
        self.expect(world.storm.error is None, f"storm raised {world.storm.error!r}")
        self.expect(world.rollout.error is None,
                    f"rollout raised {world.rollout.error!r}")
        self.expect(all(v.ok for v in world.verdicts),
                    "a backend failed mesh admission")
        self.expect(world.workload.sessions_failed == 0,
                    f"{world.workload.sessions_failed} storm sessions failed")
        if report is None:
            return self.nodes, self.nodes, Counter(), {}, {}
        nodes = self.nodes
        phases = report.phase_counters()
        self.expect(phases == {
            "discovered": nodes, "delivered": nodes, "verified": nodes,
            "applied": nodes, "apply_cache_hits": nodes - 1,
            "reattested": nodes, "admitted": nodes,
        }, f"rollout phases {phases} for {nodes} nodes")
        self.expect(report.requests_to_unattested == 0,
                    f"{report.requests_to_unattested} requests reached a "
                    "non-re-attested node")
        self.expect(world.deployment.build is world.target,
                    "the deployment did not move to the target build")

        counts = request_counts(world.registry) - world.counts_before
        attempted = counts["requests_total"] + nodes
        failed = counts["requests_failed"] + nodes - report.admitted
        update = get_tracer().update
        counters = world.mesh.counters_snapshot()
        servers = backend_servers(world.mesh.gateways[sorted(world.mesh.gateways)[0]])
        served, peaks = backend_stats(servers, kernel.clock.now - world.sim_started)
        stats = self.common_stats(world) + counts + served
        stats += routing_stats(counters)
        stats.update({
            "rollout.sim_s": report.sim_seconds,
            "rollout.nodes": report.admitted,
            "rollout.reattested": report.reattested,
            "rollout.unattested": report.requests_to_unattested,
            "rollout.delta_bytes": report.delta_bytes_shipped,
            "rollout.full_bytes": report.full_bytes_equivalent,
            "fleet.gossip_applied": summed_counter(counters, "gossip.applied"),
            "update.manifests_verified": update.manifests_accepted,
            "update.rejections": sum(update.rejections.values()),
        })
        peaks["sim.peak_heap"] = kernel.stats.peak_heap
        digest = {"snapshot": world.workload.snapshot(), "report": report.to_dict()}
        return attempted, failed, stats, peaks, digest

    def sim_results(self) -> dict:
        sim = self.sim
        storm = latency_stats(self.registry.reservoir("latency.all"),
                              sim["requests_failed"])
        per_layer = {
            "request_p50_ms": storm["p50_ms"],
            "request_p99_ms": storm["p99_ms"],
            "rollout_sim_s": sim["rollout.sim_s"] / self.sim_rounds,
            "fleet.gossip_applied": sim["fleet.gossip_applied"],
            "fleet.reattestations": sim["rollout.reattested"],
            "fleet.requests_to_unattested": sim["rollout.unattested"],
            "build.delta_ratio": ratio(sim["rollout.delta_bytes"],
                                       sim["rollout.full_bytes"]),
            "build.update.manifests_verified": sim["update.manifests_verified"],
            "build.update.rejections": sim["update.rejections"],
            **self.fleet_layer(),
        }
        return {
            # The mean simulated time the rollout spent per node.
            "sim_latency_ms": ratio(sim["rollout.sim_s"] * 1000.0,
                                    sim["rollout.nodes"]),
            "latency": {"storm": storm},
            "p99_beyond": {"storm": storm["beyond_p99"]},
            "per_layer": per_layer,
        }


WORKLOADS = {cls.name: cls for cls in
             (AttestedSessions, MeshLadder, SealedStorage, FleetUpdate)}
