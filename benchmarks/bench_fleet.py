"""Gateway throughput, tail latency, and rollout disruption under load.

Drives the :mod:`repro.fleet` gateway with the :mod:`repro.sim` event
kernel through two phases:

* **Phase A — signature-cache ablation.**  The same seeded open-loop
  session storm twice, with the PR-3 signature-verification cache
  enabled and disabled.  Every first visit runs the full attestation
  pipeline client-side, so the cache's discounted verify price shows up
  directly in the first-visit tail (p95/p99).
* **Phase B — storm through a rolling rollout.**  A large open-loop
  storm (default 10 000 sessions over 8 backends) with the health
  monitor running; mid-storm the whole fleet is replaced one node at a
  time (drain -> replace -> key hand-over -> re-admit).  The acceptance
  bar: zero failed requests, zero blocked requests, and zero requests
  routed to a retired backend.
* **Phase C — mixed-fleet smoke.**  SNP nodes plus TDX, CCA, and
  e-vTPM backends behind one tier-aware gateway; tiered traffic
  (high-sensitivity sessions pinned to SNP/e-vTPM), one family revoked
  mid-storm.  Emits per-family admission counts, family-scoped eviction
  counters, and per-tier p99s; zero failed and zero blocked requests on
  the surviving families.
* **Phase D — million-session mesh storm.**  ~100 mixed-family
  backends behind a 4-region :class:`~repro.fleet.mesh.GatewayMesh`
  (consistent-hash session routing + verdict gossip), stormed with one
  million lite sessions.  Each backend is attested once by its home
  gateway and admitted fleet-wide by gossip; regional health monitors
  keep verdicts fresh.  Acceptance: zero failed requests and a
  wall-clock kernel events/sec floor (``--mesh-events-floor``) that
  fails the run on kernel regressions.

Everything recorded in ``BENCH_fleet.json`` is derived from simulated
time and deterministic counters — two runs with the same ``--seed`` are
byte-identical (wall-clock timings, including the measured wall
events/sec, go to stdout only; the JSON records the deterministic
events-per-sim-second figure and the configured floor).

Run directly: ``PYTHONPATH=src python benchmarks/bench_fleet.py``
(``--phases D`` runs the mesh storm alone).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.build import (
    ImageSpec,
    Package,
    PackagePin,
    PackageRegistry,
    build_revelio_image,
)
from repro.attest import VerifyFarm, get_tracer, reset_tracer
from repro.core import RevelioDeployment
from repro.crypto import ec, sigcache
from repro.fleet import (
    FleetGateway,
    FleetWorkload,
    GatewayMesh,
    HealthMonitor,
    HeterogeneousFleet,
    LiteFleet,
    MeshWorkload,
    UserPool,
    revoke_family,
)
from repro.fleet.drain import rolling_rollout
from repro.sim import EventKernel, SimRng
from repro.sim.kernel import sleep

#: Phase D topology: regions and the inter-region RTT map (seconds).
MESH_REGIONS = ("us-east", "us-west", "eu-central", "ap-south")
MESH_REGION_RTT = {
    ("us-east", "us-west"): 0.060,
    ("us-east", "eu-central"): 0.080,
    ("us-east", "ap-south"): 0.180,
    ("us-west", "eu-central"): 0.140,
    ("us-west", "ap-south"): 0.120,
    ("eu-central", "ap-south"): 0.160,
}


def _registry():
    registry = PackageRegistry()
    pins = {}
    for package in [
        Package.create(
            "nginx",
            "1.24.0",
            files={
                "/usr/sbin/nginx": b"\x7fELF-nginx" + b"n" * 2000,
                "/etc/nginx/nginx.conf": b"server { listen 443 ssl; }",
            },
        ),
        Package.create(
            "ic-boundary-node",
            "0.9.0",
            files={"/opt/ic/boundary-node": b"\x7fELF-bn" + b"b" * 4000},
        ),
        Package.create(
            "revelio-agent",
            "1.0.0",
            files={"/usr/bin/revelio-agent": b"\x7fELF-agent" + b"r" * 1000},
        ),
    ]:
        digest = registry.publish(package)
        pins[package.name] = PackagePin(package.name, package.version, digest)
    return registry, pins


def _build(version: str = "1.0.0"):
    registry, pins = _registry()
    return build_revelio_image(
        ImageSpec(
            name="boundary-node",
            version=version,
            registry=registry,
            package_pins=[
                pins[p] for p in ("nginx", "ic-boundary-node", "revelio-agent")
            ],
            service_domain="bench-fleet.example",
            services=("https",),
            data_volume_blocks=16,
        )
    )


def _world(build, backends: int, seed: int, balancer: str):
    """A gateway-fronted fleet on a fresh event kernel."""
    deployment = RevelioDeployment(
        build, num_nodes=backends, seed=f"bench-fleet-{seed}".encode()
    ).deploy()
    kernel = EventKernel(deployment.network.clock, SimRng(seed))
    deployment.network.enable_event_mode(kernel)
    gateway = FleetGateway.for_deployment(
        deployment, kernel=kernel, balancer=balancer
    )
    verdicts = gateway.admit_all()
    assert all(v.ok for v in verdicts), [v.reason for v in verdicts if not v.ok]
    return deployment, gateway, kernel


def _run_storm(
    deployment,
    gateway,
    kernel,
    seed: int,
    sessions: int,
    users: int,
    arrival_rate: float,
    expected_measurements,
    rollout=None,
    monitor: bool = True,
    extension_setup=None,
    tier_weights=None,
):
    """Open-loop storm; optionally a concurrent process (the rollout)."""
    pool = UserPool(
        deployment, kernel, size=users,
        expected_measurements=expected_measurements,
        extension_setup=extension_setup,
    )
    workload = FleetWorkload(
        kernel, gateway, pool, rng=SimRng(seed), tier_weights=tier_weights
    )
    health = None
    health_process = None
    if monitor:
        health = HealthMonitor(
            gateway, interval=10.0, timeout=2.0, reattest_every=120.0
        )
        health_process = kernel.spawn(health.process(), name="health-monitor")
    storm = kernel.spawn(
        workload.open_loop(sessions=sessions, arrival_rate=arrival_rate),
        name="storm",
    )
    rollout_process = None
    if rollout is not None:
        rollout_process = kernel.spawn(rollout, name="rollout")
    while not storm.finished or (
        rollout_process is not None and not rollout_process.finished
    ):
        kernel.run(until=kernel.clock.now + 10.0)
    if health_process is not None:
        health_process.interrupt("storm over")
    kernel.run()
    if storm.error is not None:
        raise storm.error
    if rollout_process is not None and rollout_process.error is not None:
        raise rollout_process.error
    return workload, health, rollout_process


def phase_sig_cache_ablation(args, build) -> dict:
    """Same seeded storm three ways: signature cache on, off, and off
    with every client's attestation routed through a verify farm.  The
    farm arm isolates honest batching from memoization — its verdicts
    are fresh crypto priced at batch-flush time, so a lower first-visit
    tail than plain ``cache_off`` is pure batch-amortisation win."""

    def measure(cache_on: bool, with_farm: bool = False) -> dict:
        sigcache.reset_cache()
        ec.reset_point_cache()
        reset_tracer()
        sigcache.set_enabled(cache_on)
        deployment, gateway, kernel = _world(
            build, args.backends, args.seed, args.balancer
        )
        farm = None
        extension_setup = None
        if with_farm:
            farm = VerifyFarm(
                clock=deployment.network.clock,
                latency=deployment.network.latency,
                seed=b"bench-fleet-farm",
            )

            def extension_setup(extension):
                extension.verifier.farm = farm

        try:
            workload, _, _ = _run_storm(
                deployment, gateway, kernel,
                seed=args.seed,
                sessions=args.ablation_sessions,
                users=max(8, args.ablation_sessions // 4),
                arrival_rate=args.arrival_rate,
                expected_measurements=None,  # default registration (v1 golden)
                monitor=False,
                extension_setup=extension_setup,
            )
        finally:
            if farm is not None:
                farm.uninstall()
        snapshot = workload.snapshot()
        result = {
            "sessions": args.ablation_sessions,
            "first_visit_ms": {
                key: snapshot[f"latency.first_visit.{key}"]
                for key in ("p50", "p95", "p99", "max")
            },
            "all_requests_ms": {
                key: snapshot[f"latency.all.{key}"]
                for key in ("p50", "p95", "p99")
            },
            "requests_ok": snapshot["requests_ok"],
            "requests_failed": snapshot.get("requests_failed", 0),
        }
        if farm is not None:
            result["farm"] = get_tracer().farm.snapshot()
        return result

    try:
        cache_off = measure(cache_on=False)
        cache_off_farm = measure(cache_on=False, with_farm=True)
        cache_on = measure(cache_on=True)
    finally:
        sigcache.set_enabled(True)
        sigcache.reset_cache()
        reset_tracer()
    delta = {
        key: cache_off["first_visit_ms"][key] - cache_on["first_visit_ms"][key]
        for key in ("p50", "p95", "p99")
    }
    farm_delta = {
        key: cache_off["first_visit_ms"][key]
        - cache_off_farm["first_visit_ms"][key]
        for key in ("p50", "p95", "p99")
    }
    assert farm_delta["p99"] > 0, (
        "verify farm failed to improve the sigcache-ablated first-visit "
        f"p99 (saved {farm_delta['p99']:.3f} sim ms)"
    )
    return {
        "cache_on": cache_on,
        "cache_off": cache_off,
        "cache_off_farm": cache_off_farm,
        "first_visit_tail_saved_ms": delta,
        "farm_first_visit_saved_ms": farm_delta,
    }


def phase_storm_with_rollout(args, build_v1, build_v2) -> dict:
    sigcache.reset_cache()
    ec.reset_point_cache()
    deployment, gateway, kernel = _world(
        build_v1, args.backends, args.seed, args.balancer
    )

    def delayed_rollout():
        yield sleep(args.rollout_at)
        report = yield from rolling_rollout(
            gateway, deployment, build_v2, drain_poll=0.1, concurrency=4
        )
        return report

    workload, health, rollout_process = _run_storm(
        deployment, gateway, kernel,
        seed=args.seed,
        sessions=args.sessions,
        users=args.users,
        arrival_rate=args.arrival_rate,
        # Riding through the rollout needs both goldens client-side.
        expected_measurements=[
            build_v1.expected_measurement, build_v2.expected_measurement
        ],
        rollout=delayed_rollout(),
    )
    snapshot = workload.snapshot()
    report = rollout_process.value

    failed = snapshot.get("requests_failed", 0)
    blocked = snapshot.get("requests_blocked", 0)
    after_retired = {
        ip: backend.requests_after_retired
        for ip, backend in sorted(gateway.backends.items())
        if backend.requests_after_retired
    }
    assert failed == 0, f"{failed} failed requests during the rollout storm"
    assert blocked == 0, f"{blocked} blocked requests during the rollout storm"
    assert not after_retired, f"requests hit retired backends: {after_retired}"

    return {
        "sessions": args.sessions,
        "backends": args.backends,
        "balancer": args.balancer,
        "arrival_rate_per_sec": args.arrival_rate,
        "sim_seconds": round(kernel.clock.now, 6),
        "requests_total": snapshot["requests_total"],
        "requests_ok": snapshot["requests_ok"],
        "requests_failed": failed,
        "requests_blocked": blocked,
        "latency_ms": {
            "all": {
                key: snapshot[f"latency.all.{key}"]
                for key in ("p50", "p95", "p99", "max")
            },
            "first_visit": {
                key: snapshot[f"latency.first_visit.{key}"]
                for key in ("p50", "p95", "p99")
            },
            "revisit": {
                key: snapshot[f"latency.revisit.{key}"]
                for key in ("p50", "p95", "p99")
            },
        },
        "throughput_per_sec": {
            "mean": snapshot["throughput.mean_per_sec"],
            "peak_window": snapshot["throughput.peak_window_per_sec"],
        },
        "health": {
            "probes_ok": health.probes_ok,
            "probes_failed": health.probes_failed,
            "reattestations": health.reattestations,
        },
        "rollout": {
            "started_at_sim_s": args.rollout_at,
            "sim_seconds": round(report.sim_seconds, 6),
            "replacements": len(report.replacements),
            "sessions_severed": gateway.counters.get("sessions_severed", 0),
            "records_severed": gateway.counters.get("records_severed", 0),
            "requests_after_retired": 0,
        },
        "gateway": {
            "requests_routed": gateway.counters.get("requests_routed", 0),
            "sessions_opened": gateway.counters.get("sessions_opened", 0),
            "retries": gateway.counters.get("retries", 0),
        },
    }


def phase_mixed_fleet(args, build) -> dict:
    """SNP + TDX + CCA + e-vTPM behind one tier-aware gateway; one
    family revoked mid-storm; tiered traffic."""
    sigcache.reset_cache()
    ec.reset_point_cache()
    snp_backends = max(2, args.backends // 2)
    deployment, gateway, kernel = _world(
        build, snp_backends, args.seed, args.balancer
    )
    fleet = HeterogeneousFleet(deployment)
    for index in range(args.hetero_per_family):
        fleet.add_backend(f"10.1.0.{10 + index}", "tdx")
        fleet.add_backend(f"10.1.0.{40 + index}", "arm-cca")
        fleet.add_backend(f"10.1.0.{70 + index}", "e-vtpm")
    verdicts = fleet.attach_gateway(gateway)
    assert all(v.ok for v in verdicts), [
        (v.ip_address, v.reason) for v in verdicts if not v.ok
    ]

    def extension_setup(extension):
        extension.verifier.contexts.update(fleet.contexts())
        extension.register_site(
            deployment.domain, family_measurements=fleet.goldens
        )

    def delayed_revocation():
        yield sleep(args.revoke_at)
        revoke_family(gateway, "tdx")

    workload, _, _ = _run_storm(
        deployment, gateway, kernel,
        seed=args.seed,
        sessions=args.hetero_sessions,
        users=min(400, max(8, args.hetero_sessions // 5)),
        arrival_rate=args.arrival_rate,
        expected_measurements=[build.expected_measurement],
        rollout=delayed_revocation(),
        # The monitor keeps verdicts fresh (admission requires a verdict
        # younger than verdict_ttl) — long storms stall without it.
        monitor=True,
        extension_setup=extension_setup,
        tier_weights={"high": 0.3, "bulk": 0.7},
    )
    snapshot = workload.snapshot()

    failed = snapshot.get("requests_failed", 0)
    blocked = snapshot.get("requests_blocked", 0)
    assert failed == 0, f"{failed} failed requests in the mixed-fleet storm"
    assert blocked == 0, f"{blocked} blocked requests in the mixed-fleet storm"
    evictions = gateway.counters.get(
        "family.tdx.evictions.family_not_allowed", 0
    )
    assert evictions == args.hetero_per_family, (
        f"expected {args.hetero_per_family} tdx evictions, saw {evictions}"
    )

    families = sorted(
        {"sev-snp", *(backend.family for backend in fleet.backends)}
    )
    tiers = ("bulk", "high")
    return {
        "sessions": args.hetero_sessions,
        "snp_backends": snp_backends,
        "hetero_backends_per_family": args.hetero_per_family,
        "revoked_family": "tdx",
        "revoked_at_sim_s": args.revoke_at,
        "requests_total": snapshot["requests_total"],
        "requests_ok": snapshot["requests_ok"],
        "requests_failed": failed,
        "requests_blocked": blocked,
        "admissions_by_family": {
            family: gateway.counters.get(f"admissions.{family}", 0)
            for family in families
        },
        "evictions_by_family": {
            "tdx.family_not_allowed": evictions,
        },
        "sessions_by_tier": {
            tier: gateway.counters.get(f"tier.{tier}.sessions_opened", 0)
            for tier in tiers
        },
        "latency_ms_by_tier": {
            tier: {
                key: snapshot[f"latency.tier.{tier}.{key}"]
                for key in ("p50", "p95", "p99")
            }
            for tier in tiers
        },
    }


def phase_mesh_storm(args, build) -> dict:
    """Million-session lite storm over a regioned gateway mesh."""
    sigcache.reset_cache()
    ec.reset_point_cache()
    regions = MESH_REGIONS[: max(1, min(args.mesh_regions, len(MESH_REGIONS)))]
    deployment = RevelioDeployment(
        build, num_nodes=args.mesh_snp_nodes,
        seed=f"bench-mesh-{args.seed}".encode(),
    ).deploy()
    kernel = EventKernel(deployment.network.clock, SimRng(args.seed))
    deployment.network.enable_event_mode(kernel)
    for (region_a, region_b), rtt in sorted(MESH_REGION_RTT.items()):
        if region_a in regions and region_b in regions:
            deployment.latency.region_rtt[(region_a, region_b)] = rtt

    mesh = GatewayMesh.for_deployment(deployment, kernel, regions=regions)
    lite = LiteFleet(deployment)
    lite_families = ("sev-snp", "tdx", "arm-cca", "e-vtpm")
    extra = max(0, args.mesh_backends - args.mesh_snp_nodes)
    for index in range(extra):
        lite.add_backend(
            f"10.8.{index // 200}.{1 + index % 200}",
            lite_families[index % len(lite_families)],
            region=regions[index % len(regions)],
        )
    lite.adopt_deployment_nodes()
    mesh.attach_lite_fleet(lite)

    verdicts = mesh.admit_all()
    total_backends = args.mesh_snp_nodes + extra
    assert len(verdicts) == total_backends, (
        f"expected {total_backends} admissions, saw {len(verdicts)}"
    )
    assert all(v.ok for v in verdicts), [
        (v.ip_address, v.reason) for v in verdicts if not v.ok
    ]
    # Let the gossiped verdicts land on the remote shards before traffic.
    kernel.run(until=kernel.clock.now + 1.0)

    monitors = mesh.monitors(interval=15.0, timeout=2.0, reattest_every=120.0)
    monitor_processes = [
        kernel.spawn(monitor.process(), name=f"mesh-health-{monitor.gateway.name}")
        for monitor in monitors
    ]
    gossip_process = kernel.spawn(mesh.gossip_process(), name="mesh-gossip")
    workload = MeshWorkload(mesh, kernel, rng=SimRng(args.seed))
    workload.metrics.attach_kernel(kernel)
    storm = kernel.spawn(
        workload.open_loop(args.mesh_sessions, args.mesh_arrival_rate),
        name="mesh-storm",
    )
    steps_before = kernel.stats.steps
    wall_started = time.perf_counter()
    while not storm.finished:
        kernel.run(until=kernel.clock.now + 60.0)
    wall = time.perf_counter() - wall_started
    storm_steps = kernel.stats.steps - steps_before
    for process in monitor_processes:
        process.interrupt("storm over")
    gossip_process.interrupt("storm over")
    kernel.run()
    if storm.error is not None:
        raise storm.error

    snapshot = workload.snapshot()
    failed = snapshot.get("requests_failed", 0)
    assert failed == 0, f"{failed} failed requests in the mesh storm"
    assert workload.sessions_failed == 0, (
        f"{workload.sessions_failed} failed sessions in the mesh storm"
    )
    assert workload.sessions_completed == args.mesh_sessions, (
        f"{workload.sessions_completed}/{args.mesh_sessions} sessions completed"
    )
    wall_events_per_sec = storm_steps / wall if wall > 0 else float("inf")
    print(f"  kernel: {storm_steps} events in {wall:.1f}s wall "
          f"= {wall_events_per_sec:,.0f} events/sec "
          f"(floor {args.mesh_events_floor:,.0f})")
    if args.mesh_events_floor > 0:
        assert wall_events_per_sec >= args.mesh_events_floor, (
            f"kernel regression: {wall_events_per_sec:,.0f} events/sec wall "
            f"< floor {args.mesh_events_floor:,.0f}"
        )

    def gateway_sum(suffix: str) -> int:
        return sum(
            gateway.counters.get(suffix, 0)
            for gateway in mesh.gateways.values()
        )

    families = sorted({"sev-snp", *lite_families})
    by_family = {family: 0 for family in families}
    by_family["sev-snp"] += args.mesh_snp_nodes
    for index in range(extra):
        by_family[lite_families[index % len(lite_families)]] += 1
    return {
        "sessions": args.mesh_sessions,
        "arrival_rate_per_sec": args.mesh_arrival_rate,
        "gateways": len(mesh.gateways),
        "regions": list(regions),
        "backends": {
            "total": total_backends,
            "deployment_snp_nodes": args.mesh_snp_nodes,
            "by_family": by_family,
        },
        "sim_seconds": round(kernel.clock.now, 6),
        "sessions_completed": workload.sessions_completed,
        "sessions_failed": workload.sessions_failed,
        "requests_total": snapshot["requests_total"],
        "requests_ok": snapshot["requests_ok"],
        "requests_failed": failed,
        "latency_ms": {
            kind: {
                key: snapshot[f"latency.{kind}.{key}"]
                for key in ("p50", "p95", "p99")
            }
            for kind in ("all", "hello", "record")
        },
        "attestation": {
            # One probe per backend at bring-up plus periodic
            # re-attestations by the home shard only; gossip admits the
            # other shards without duplicate probes.
            "attestations_ok": gateway_sum("attestations_ok"),
            "reattestations": sum(m.reattestations for m in monitors),
            "gossip_published": mesh.counters.get("gossip.published", 0),
            "gossip_deliveries": mesh.counters.get("gossip.deliveries", 0),
            "gossip_applied": gateway_sum("gossip.applied"),
            "gossip_admissions": gateway_sum("gossip.admissions"),
        },
        "kernel": {
            # Deterministic figures only: the wall-clock events/sec is
            # printed above and gated by --mesh-events-floor, never
            # persisted (same-seed reports must stay byte-identical).
            "storm_events": storm_steps,
            "events_per_sim_sec": snapshot["kernel.events_per_sim_sec"],
            "peak_heap": snapshot["kernel.peak_heap"],
            "stale_ratio": snapshot["kernel.stale_ratio"],
            "wall_events_per_sec_floor": args.mesh_events_floor,
        },
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--sessions", type=int, default=10_000)
    parser.add_argument("--backends", type=int, default=8)
    parser.add_argument("--users", type=int, default=400)
    parser.add_argument("--arrival-rate", type=float, default=40.0,
                        help="open-loop session arrivals per sim second")
    parser.add_argument("--ablation-sessions", type=int, default=600)
    parser.add_argument("--rollout-at", type=float, default=30.0,
                        help="sim seconds into the storm to start the rollout")
    parser.add_argument("--hetero-sessions", type=int, default=10_000)
    parser.add_argument("--hetero-per-family", type=int, default=2,
                        help="TDX/CCA/e-vTPM backends each in phase C")
    parser.add_argument("--revoke-at", type=float, default=20.0,
                        help="sim seconds into phase C to revoke the tdx family")
    parser.add_argument("--balancer", default="round_robin")
    parser.add_argument("--phases", default="ABCD",
                        help="which phases to run, e.g. 'D' or 'ABC'")
    parser.add_argument("--mesh-sessions", type=int, default=1_000_000)
    parser.add_argument("--mesh-backends", type=int, default=100,
                        help="total phase D backends (SNP nodes + lite)")
    parser.add_argument("--mesh-snp-nodes", type=int, default=8,
                        help="full deployment SNP nodes inside phase D")
    parser.add_argument("--mesh-regions", type=int, default=4,
                        help="gateway regions in phase D (max 4)")
    parser.add_argument("--mesh-arrival-rate", type=float, default=2500.0,
                        help="phase D session arrivals per sim second")
    parser.add_argument("--mesh-events-floor", type=float, default=0.0,
                        help="minimum wall-clock kernel events/sec in "
                             "phase D (0 disables the gate)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent / "BENCH_fleet.json")
    args = parser.parse_args(argv)
    phases = set(args.phases.upper())
    unknown = phases - set("ABCD")
    if unknown:
        parser.error(f"unknown phases: {sorted(unknown)}")

    started = time.perf_counter()
    build_v1 = _build("1.0.0")
    build_v2 = _build("2.0.0")
    results = {
        "benchmark": "fleet gateway storm + rolling rollout",
        "seed": args.seed,
        "phases": "".join(sorted(phases)),
    }

    if "A" in phases:
        ablation = phase_sig_cache_ablation(args, build_v1)
        print("phase A (sig-cache ablation, first-visit tail, sim ms):")
        for scenario in ("cache_off", "cache_off_farm", "cache_on"):
            tail = ablation[scenario]["first_visit_ms"]
            print(f"  {scenario:<14} p50 {tail['p50']:8.1f}   "
                  f"p95 {tail['p95']:8.1f}   p99 {tail['p99']:8.1f}")
        saved = ablation["first_visit_tail_saved_ms"]
        farm_saved = ablation["farm_first_visit_saved_ms"]
        farm_stats = ablation["cache_off_farm"]["farm"]
        print(f"  cache saves p99 {saved['p99']:.1f} sim ms; farm saves "
              f"p99 {farm_saved['p99']:.1f} sim ms with the cache ablated "
              f"({farm_stats['batches']} batches, "
              f"mean size {farm_stats['mean_batch_size']:.1f})")
        results["sig_cache_ablation"] = ablation

    if "B" in phases:
        storm = phase_storm_with_rollout(args, build_v1, build_v2)
        print(f"phase B ({storm['sessions']} sessions, "
              f"{storm['backends']} backends, rollout mid-storm):")
        print(f"  {storm['requests_ok']}/{storm['requests_total']} requests ok, "
              f"0 failed, 0 to retired backends")
        print(f"  p99 all {storm['latency_ms']['all']['p99']:.1f} sim ms, "
              f"revisit p50 {storm['latency_ms']['revisit']['p50']:.1f} sim ms")
        print(f"  rollout replaced {storm['rollout']['replacements']} nodes in "
              f"{storm['rollout']['sim_seconds']:.1f} sim s under load")
        results["storm_with_rollout"] = storm

    if "C" in phases:
        mixed = phase_mixed_fleet(args, build_v1)
        print(f"phase C ({mixed['sessions']} sessions, mixed fleet, "
              f"tdx revoked mid-storm):")
        print(f"  admissions by family: {mixed['admissions_by_family']}")
        print(f"  {mixed['requests_ok']}/{mixed['requests_total']} requests ok, "
              f"0 failed, 0 blocked; "
              f"{mixed['evictions_by_family']['tdx.family_not_allowed']} "
              f"tdx backends evicted")
        for tier in sorted(mixed["latency_ms_by_tier"]):
            tail = mixed["latency_ms_by_tier"][tier]
            print(f"  tier {tier:<5} p50 {tail['p50']:8.1f}   "
                  f"p95 {tail['p95']:8.1f}   p99 {tail['p99']:8.1f}")
        results["mixed_fleet"] = mixed

    if "D" in phases:
        print(f"phase D (mesh storm):")
        mesh_result = phase_mesh_storm(args, build_v1)
        attestation = mesh_result["attestation"]
        print(f"  {mesh_result['sessions_completed']} sessions over "
              f"{mesh_result['gateways']} gateways / "
              f"{mesh_result['backends']['total']} backends "
              f"({len(mesh_result['regions'])} regions), "
              f"{mesh_result['requests_ok']}/{mesh_result['requests_total']} "
              f"requests ok, 0 failed")
        print(f"  hello p99 {mesh_result['latency_ms']['hello']['p99']:.1f} "
              f"sim ms, record p99 "
              f"{mesh_result['latency_ms']['record']['p99']:.1f} sim ms")
        print(f"  attestations {attestation['attestations_ok']} "
              f"(one home probe per backend + "
              f"{attestation['reattestations']} re-attestations); gossip "
              f"applied {attestation['gossip_applied']} / admitted "
              f"{attestation['gossip_admissions']} remotely")
        results["mesh_storm"] = mesh_result
    args.output.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.output} "
          f"(wall {time.perf_counter() - started:.1f}s)")
    return results


if __name__ == "__main__":
    main()
