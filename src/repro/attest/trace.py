"""Observability for the attestation pipeline: sinks, counters, traces.

Every :class:`~repro.attest.engine.AttestationVerifier` run emits one
:class:`TraceEvent` to a tracer with pluggable sinks.  The default
tracer keeps an in-memory ring buffer of recent events plus a
:class:`CounterRegistry` — verifications by verdict, failures by stable
reason code, KDS cache hit rate, and per-step simulated-latency
histograms — that the bench harness, the CLI, and tests read.
"""

from __future__ import annotations

import bisect
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

#: Upper bucket edges (simulated seconds) for per-step latency
#: histograms; the last bucket is unbounded.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, float("inf"),
)


@dataclass(frozen=True)
class TraceEvent:
    """One completed verification, as seen by the observability layer."""

    site: str
    verdict: str  # "pass" | "fail"
    reason: Optional[str]  # stable failure code, None on pass
    steps: Tuple  # the outcome's StepRecord tuple
    sim_cost: float  # total simulated seconds across steps
    kds_fetches: int  # KDS round trips charged by this verification
    kds_cache_hits: int  # KDS cache hits served to this verification
    sig_cache_hits: int = 0  # signature-cache hits during this verification
    sig_cache_misses: int = 0  # signature-cache misses (fresh EC math)
    family: str = "sev-snp"  # the evidence's TEE family


class Histogram:
    """A fixed-bucket latency histogram (simulated seconds)."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0

    def record(self, value: float) -> None:
        """Count *value* into its bucket."""
        index = bisect.bisect_left(self.buckets, value)
        self.counts[min(index, len(self.buckets) - 1)] += 1
        self.total += value
        self.count += 1

    def mean(self) -> float:
        """Average recorded value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


class TraceSink:
    """A consumer of trace events; subclass and register on a tracer."""

    def record(self, event: TraceEvent) -> None:
        """Consume one event."""
        raise NotImplementedError


class RingBufferSink(TraceSink):
    """Keeps the last *capacity* events for inspection."""

    def __init__(self, capacity: int = 256):
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)

    def record(self, event: TraceEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class CounterRegistry(TraceSink):
    """Aggregated counters over every verification seen."""

    def __init__(self):
        self.verifications_by_verdict: Counter = Counter()
        self.failures_by_reason: Counter = Counter()
        self.verifications_by_family: Dict[str, Counter] = {}
        self.failures_by_family: Dict[str, Counter] = {}
        self.step_latency: Dict[str, Histogram] = {}
        self.kds_fetches = 0
        self.kds_cache_hits = 0
        self.sig_cache_hits = 0
        self.sig_cache_misses = 0

    def record(self, event: TraceEvent) -> None:
        self.verifications_by_verdict[event.verdict] += 1
        family_verdicts = self.verifications_by_family.get(event.family)
        if family_verdicts is None:
            family_verdicts = self.verifications_by_family[event.family] = Counter()
        family_verdicts[event.verdict] += 1
        if event.reason is not None:
            self.failures_by_reason[event.reason] += 1
            family_failures = self.failures_by_family.get(event.family)
            if family_failures is None:
                family_failures = self.failures_by_family[event.family] = Counter()
            family_failures[event.reason] += 1
        self.kds_fetches += event.kds_fetches
        self.kds_cache_hits += event.kds_cache_hits
        self.sig_cache_hits += event.sig_cache_hits
        self.sig_cache_misses += event.sig_cache_misses
        for step in event.steps:
            histogram = self.step_latency.get(step.name)
            if histogram is None:
                histogram = self.step_latency[step.name] = Histogram()
            histogram.record(step.sim_cost)

    def kds_cache_hit_rate(self) -> float:
        """Fraction of KDS lookups served from cache (0.0 when idle)."""
        lookups = self.kds_fetches + self.kds_cache_hits
        return self.kds_cache_hits / lookups if lookups else 0.0

    def reasons_reached(self) -> frozenset:
        """Every stable failure reason code observed so far — the
        coverage half of the campaign taxonomy check."""
        return frozenset(
            reason for reason, count in self.failures_by_reason.items() if count
        )

    def failures_since(self, before: Mapping[str, int]) -> Dict[str, int]:
        """Per-reason failure deltas against an earlier
        ``dict(failures_by_reason)`` snapshot — how scenario runners
        attribute reason codes to the attack window that produced them.
        Only positive deltas are reported."""
        deltas = {}
        for reason, count in self.failures_by_reason.items():
            delta = count - before.get(reason, 0)
            if delta > 0:
                deltas[reason] = delta
        return deltas

    def sig_cache_hit_rate(self) -> float:
        """Fraction of signature verifications served from the
        memoization cache (0.0 when idle)."""
        lookups = self.sig_cache_hits + self.sig_cache_misses
        return self.sig_cache_hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        """A plain-data view for reports and JSON persistence."""
        return {
            "verifications_by_verdict": dict(self.verifications_by_verdict),
            "failures_by_reason": dict(self.failures_by_reason),
            "verifications_by_family": {
                family: dict(counter)
                for family, counter in sorted(self.verifications_by_family.items())
            },
            "failures_by_family": {
                family: dict(counter)
                for family, counter in sorted(self.failures_by_family.items())
            },
            "kds_fetches": self.kds_fetches,
            "kds_cache_hits": self.kds_cache_hits,
            "kds_cache_hit_rate": self.kds_cache_hit_rate(),
            "signature_cache_hits": self.sig_cache_hits,
            "signature_cache_misses": self.sig_cache_misses,
            "signature_cache_hit_rate": self.sig_cache_hit_rate(),
            "step_latency_ms_mean": {
                name: histogram.mean() * 1000.0
                for name, histogram in sorted(self.step_latency.items())
            },
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.__init__()


class StorageCounters:
    """Aggregated device-mapper I/O counters (``repro.storage.dm``).

    Storage targets report per-operation counts (reads, writes, verity
    hits/misses, corruption rejections, cache hits) and simulated
    latency here, alongside their per-target stats, so the CLI summary
    and the bench harness see boot-to-mount I/O cost in the same place
    as verification cost.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.sim_seconds = 0.0

    def add(self, name: str, amount: int = 1) -> None:
        """Count *amount* operations under *name*."""
        self.counts[name] += amount

    def charge(self, seconds: float) -> None:
        """Accumulate simulated storage latency."""
        self.sim_seconds += seconds

    def verify_hit_rate(self) -> float:
        """Fraction of verity reads served without a full Merkle walk."""
        hits = self.counts["verify_hits"]
        lookups = hits + self.counts["verify_misses"]
        return hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        """A plain-data view for reports and JSON persistence."""
        return {
            "io": dict(sorted(self.counts.items())),
            "verify_hit_rate": self.verify_hit_rate(),
            "sim_ms": self.sim_seconds * 1000.0,
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.__init__()


class FarmCounters:
    """Aggregated verify-farm batch counters (:mod:`repro.attest.farm`).

    One record per batch flush: the batch-size histogram, the amortised
    simulated cost charged at flush time, and the batch verifier's own
    counters (MSM checks, bisections, per-signature fallbacks,
    dedup/hint rates).  ``oracle_served`` counts pipeline steps whose
    verdict was consumed from a precomputed batch.  Snapshots are
    plain sorted data so same-seed runs serialise byte-identically.
    """

    def __init__(self):
        self.batches = 0
        self.jobs = 0
        self.batch_sizes: Counter = Counter()
        self.amortised_sim_seconds = 0.0
        self.msm_checks = 0
        self.bisections = 0
        self.per_sig_fallbacks = 0
        self.deduplicated = 0
        self.hinted = 0
        self.oracle_served = 0

    def record_batch(self, size: int, sim_seconds: float, stats: dict) -> None:
        """Count one flushed batch and fold in its verifier stats."""
        self.batches += 1
        self.jobs += size
        self.batch_sizes[size] += 1
        self.amortised_sim_seconds += sim_seconds
        self.msm_checks += stats.get("msm_checks", 0)
        self.bisections += stats.get("bisections", 0)
        self.per_sig_fallbacks += stats.get("per_sig_fallbacks", 0)
        self.deduplicated += stats.get("deduplicated", 0)
        self.hinted += stats.get("hinted", 0)

    def serve(self, count: int = 1) -> None:
        """Count verdicts consumed from precomputed batches."""
        self.oracle_served += count

    def bisection_rate(self) -> float:
        """Fraction of batch equations that failed and split."""
        return self.bisections / self.msm_checks if self.msm_checks else 0.0

    def mean_batch_size(self) -> float:
        """Average jobs per flushed batch (0.0 when idle)."""
        return self.jobs / self.batches if self.batches else 0.0

    def amortised_cost_ms(self) -> float:
        """Mean simulated milliseconds charged per job (0.0 when idle)."""
        return (
            self.amortised_sim_seconds / self.jobs * 1000.0 if self.jobs else 0.0
        )

    def snapshot(self) -> dict:
        """A plain-data view for reports and JSON persistence."""
        return {
            "batches": self.batches,
            "jobs": self.jobs,
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(self.batch_sizes.items())
            },
            "mean_batch_size": self.mean_batch_size(),
            "amortised_cost_ms_per_job": self.amortised_cost_ms(),
            "amortised_sim_ms": self.amortised_sim_seconds * 1000.0,
            "msm_checks": self.msm_checks,
            "bisections": self.bisections,
            "bisection_rate": self.bisection_rate(),
            "per_sig_fallbacks": self.per_sig_fallbacks,
            "deduplicated": self.deduplicated,
            "hinted": self.hinted,
            "oracle_served": self.oracle_served,
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.__init__()


class UpdateCounters:
    """Signed update-channel counters (:mod:`repro.build.channel`).

    The channel records every manifest verification outcome here —
    acceptances, rejections by stable reason code, bytes shipped as
    deltas vs the full images they replace, and apply-cache hits — so
    the fleet provisioner's per-phase summary and ``BENCH_update.json``
    read from the same place as attestation failures.  Snapshots are
    plain sorted data so same-seed runs serialise byte-identically.
    """

    def __init__(self):
        self.manifests_published = 0
        self.manifests_accepted = 0
        self.applied = 0
        self.rejections: Counter = Counter()
        self.delta_bytes_shipped = 0
        self.full_bytes_replaced = 0
        self.apply_cache_hits = 0

    def record_publish(self) -> None:
        """Count one signed manifest published to the channel."""
        self.manifests_published += 1

    def record_accept(self) -> None:
        """Count one manifest passing full verification."""
        self.manifests_accepted += 1

    def record_reject(self, code: str) -> None:
        """Count one typed rejection (manifest or delta)."""
        self.rejections[code] += 1

    def record_apply(self, delta_bytes: int, full_bytes: int,
                     cached: bool = False) -> None:
        """Count one applied update and its shipped-vs-full byte sizes."""
        self.applied += 1
        self.delta_bytes_shipped += delta_bytes
        self.full_bytes_replaced += full_bytes
        if cached:
            self.apply_cache_hits += 1

    def delta_ratio(self) -> float:
        """Shipped delta bytes as a fraction of the full images."""
        if not self.full_bytes_replaced:
            return 0.0
        return self.delta_bytes_shipped / self.full_bytes_replaced

    def snapshot(self) -> dict:
        """A plain-data view for reports and JSON persistence."""
        return {
            "manifests_published": self.manifests_published,
            "manifests_accepted": self.manifests_accepted,
            "applied": self.applied,
            "apply_cache_hits": self.apply_cache_hits,
            "rejections": dict(sorted(self.rejections.items())),
            "delta_bytes_shipped": self.delta_bytes_shipped,
            "full_bytes_replaced": self.full_bytes_replaced,
            "delta_ratio": self.delta_ratio(),
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.__init__()


class AttestationTracer:
    """Fans events out to its sinks.

    The default construction wires a ring buffer and a counter registry
    (exposed as :attr:`ring` and :attr:`counters`); additional sinks can
    be attached with :meth:`add_sink`.  The tracer also owns the
    process-wide :class:`StorageCounters` (:attr:`storage`) that the
    device-mapper targets report into, the :class:`FarmCounters`
    (:attr:`farm`) the verify farm reports its batches to, and the
    :class:`UpdateCounters` (:attr:`update`) the signed update channel
    reports manifest verdicts and delta sizes to.
    """

    def __init__(self, ring_capacity: int = 256):
        self.ring = RingBufferSink(ring_capacity)
        self.counters = CounterRegistry()
        self.storage = StorageCounters()
        self.farm = FarmCounters()
        self.update = UpdateCounters()
        self._sinks: List[TraceSink] = [self.ring, self.counters]

    def add_sink(self, sink: TraceSink) -> None:
        """Register an extra consumer of trace events."""
        self._sinks.append(sink)

    def emit(self, event: TraceEvent) -> None:
        """Deliver *event* to every sink."""
        for sink in self._sinks:
            sink.record(event)


_default_tracer = AttestationTracer()


def get_tracer() -> AttestationTracer:
    """The process-wide tracer engines emit to by default."""
    return _default_tracer


def set_tracer(tracer: AttestationTracer) -> None:
    """Replace the process-wide tracer."""
    global _default_tracer
    _default_tracer = tracer


def reset_tracer() -> AttestationTracer:
    """Install (and return) a fresh process-wide tracer."""
    tracer = AttestationTracer()
    set_tracer(tracer)
    return tracer
