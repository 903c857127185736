"""The unified attestation verification engine.

One :class:`AttestationVerifier` replaces the hand-rolled
fetch-VCEK/verify/map-error blocks that used to live in every verifier
(web extension, gateway, RA-TLS, key sharing, SP node, vTPM monitor).
It runs an explicit ordered step list, producing a
:class:`VerificationOutcome` that records *per-step* results — name,
pass/fail, stable reason code, simulated-clock cost — instead of
raising opaquely on the first failure; callers that want an exception
use :meth:`VerificationOutcome.raise_for_failure`.  Every run is
reported to the tracing layer (:mod:`repro.attest.trace`).

Its one input is a tagged :class:`~repro.attest.evidence.Evidence`
envelope (callers holding a native SNP report wrap it with
:func:`~repro.attest.evidence.snp_evidence`).  The envelope is routed
to the registered :mod:`~repro.attest.families` provider for its TEE
family (SEV-SNP, TDX, CCA, e-vTPM), after family admissibility and
decode steps.  One engine, one reason-code taxonomy, four backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..amd.verify import AttestationError
from ..crypto import sigcache
from ..crypto.x509 import Certificate
from .evidence import Evidence, TeeFamily
from .families import (
    STEP_BATCH_PREPARE,
    STEP_CERT_CHAIN,
    STEP_EVIDENCE_DECODE,
    STEP_FAMILY_ALLOWED,
    STEP_MEASUREMENT,
    STEP_PLATFORM_SIGNATURE,
    STEP_QUOTE_SIGNATURE,
    STEP_SIGNATURE,
    STEP_TRUST_CONTEXT,
    VtpmTrust,
    provider_for,
)
from .policy import VerificationPolicy
from .trace import AttestationTracer, TraceEvent, get_tracer

#: Crypto steps priced on the simulated clock, mapped to the
#: LatencyModel attribute carrying their calibrated cost.  Together the
#: defaults reproduce the paper's Table 2 ~13 ms client-side validation
#: — so cached-KDS runs no longer report 0.0 sim-ms per verification.
_CRYPTO_STEP_PRICES: dict = {
    STEP_CERT_CHAIN: "cert_chain_verify",
    STEP_SIGNATURE: "sig_verify",
    STEP_PLATFORM_SIGNATURE: "sig_verify",
    STEP_QUOTE_SIGNATURE: "sig_verify",
    STEP_MEASUREMENT: "measurement_check",
}

#: Fraction of the crypto price charged when the signature-verification
#: cache fully served a step (a hash + dict lookup instead of EC math).
#: The measurement step never hits the cache: policy checks are always
#: run fresh, so it is always charged in full.
_CACHED_VERIFY_DISCOUNT = 0.05


@dataclass(frozen=True)
class StepRecord:
    """One executed pipeline step."""

    name: str
    passed: bool
    reason: Optional[str] = None  # stable failure code, None on pass
    detail: str = ""
    sim_cost: float = 0.0  # simulated seconds spent in this step


@dataclass(frozen=True)
class VerificationOutcome:
    """A full verification result, step by step.

    The pipeline stops at the first failing step (later checks would be
    meaningless without, e.g., a validated VCEK), so ``steps`` lists
    every executed step and, on failure, ends with the failing one.
    """

    site: str
    verdict: str  # "pass" | "fail"
    steps: Tuple[StepRecord, ...]
    #: The family-native evidence object (an SNP AttestationReport, a
    #: TdQuote, a CcaToken, a MonitoringEvidence) — or ``None`` when the
    #: run failed before/at decode.
    report: object
    policy: VerificationPolicy
    vcek_certificate: Optional[Certificate] = None
    sim_cost: float = 0.0
    #: The evidence's TEE family name.
    family: str = str(TeeFamily.SEV_SNP)

    @property
    def ok(self) -> bool:
        """Did every step pass?"""
        return self.verdict == "pass"

    @property
    def failure(self) -> Optional[StepRecord]:
        """The failing step record (None on success)."""
        if self.steps and not self.steps[-1].passed:
            return self.steps[-1]
        return None

    @property
    def reason(self) -> Optional[str]:
        """The stable failure code (None on success)."""
        failure = self.failure
        return failure.reason if failure is not None else None

    @property
    def detail(self) -> str:
        """Human-readable failure detail ("" on success)."""
        failure = self.failure
        return failure.detail if failure is not None else ""

    def step(self, name: str) -> Optional[StepRecord]:
        """The record for a named step, if it executed."""
        for record in self.steps:
            if record.name == name:
                return record
        return None

    def raise_for_failure(self) -> None:
        """Re-raise a failed outcome as an :class:`AttestationError`
        carrying the failing step's stable reason code."""
        failure = self.failure
        if failure is not None:
            raise AttestationError(failure.reason, failure.detail)


class AttestationVerifier:
    """Runs the verification pipeline for one or more TEE families.

    ``kds`` must provide ``get_vcek``/``cert_chain``/``trust_anchor``
    and the ``fetches``/``cache_hits`` counters (i.e. a
    :class:`~repro.core.kds_client.KdsClient`); its simulated clock, if
    exposed as ``clock``, prices the per-step cost records.  It doubles
    as the SEV-SNP (and, wrapped in a
    :class:`~repro.attest.families.VtpmTrust`, the e-vTPM) trust
    context; ``contexts`` maps additional family names to their trust
    material (:class:`~repro.attest.families.TdxTrust`,
    :class:`~repro.attest.families.CcaTrust`, ...).  ``kds`` may be
    ``None`` for a verifier that only handles non-SNP families.
    """

    def __init__(
        self,
        kds,
        policy: Optional[VerificationPolicy] = None,
        tracer: Optional[AttestationTracer] = None,
        site: str = "verifier",
        contexts: Optional[dict] = None,
        farm=None,
    ):
        self.kds = kds
        self.policy = policy if policy is not None else VerificationPolicy()
        self.site = site
        #: None means "whatever the process-wide tracer is at run time".
        self.tracer = tracer
        #: family name -> trust context, consulted before the KDS
        #: defaults; mutable so fault injectors and fleet wiring can
        #: extend a live verifier.
        self.contexts: dict = {
            str(family): context for family, context in (contexts or {}).items()
        }
        #: Optional :class:`~repro.attest.farm.VerifyFarm`.  When set,
        #: every run starts with a speculative ``batch_prepare`` pass
        #: that fetches endorsements and settles all the pipeline's
        #: signature equations in one batch; the unchanged steps then
        #: consume the verdicts through the signature-cache oracle seam.
        self.farm = farm

    def _context_for(self, family: TeeFamily):
        """The trust material for *family* (None when unavailable)."""
        context = self.contexts.get(str(family))
        if context is not None:
            return context
        if family is TeeFamily.SEV_SNP:
            return self.kds
        if family is TeeFamily.VTPM and self.kds is not None:
            return VtpmTrust(self.kds)
        return None

    def verify(
        self,
        evidence: Evidence,
        now: int,
        policy: Optional[VerificationPolicy] = None,
        site: Optional[str] = None,
        _prepared: Optional[dict] = None,
    ) -> VerificationOutcome:
        """Run the pipeline; never raises on a failed check.

        *evidence* is an :class:`~repro.attest.evidence.Evidence`
        envelope: family admissibility and decode steps run before the
        family provider's own checks.

        *_prepared* is a state dict that :meth:`verify_batch` already
        ran the farm prepare pass over (endorsements fetched, signature
        verdicts parked); a farm-wired verifier skips its own prepare
        for it.
        """
        policy = policy if policy is not None else self.policy
        site = site if site is not None else self.site
        clock = getattr(self.kds, "clock", None)
        latency = getattr(self.kds, "latency", None)
        fetches_before = getattr(self.kds, "fetches", 0)
        hits_before = getattr(self.kds, "cache_hits", 0)
        sig_hits_before, sig_misses_before = sigcache.counters()

        state = (
            _prepared
            if _prepared is not None
            else {"vcek": None, "chain": None, "native": None}
        )
        records = []
        if self.farm is not None and _prepared is None:
            prepare_record = self._prepare(evidence, now, policy, state, clock)
            if prepare_record is not None:
                records.append(prepare_record)
        family = evidence.family
        step_iter = self._dispatched_steps(evidence, now, policy, state)

        failed = False
        for name, run_check in step_iter:
            started = clock.now if clock is not None else 0.0
            step_hits, step_misses = sigcache.counters()
            step_oracle = sigcache.oracle_hits()
            reason: Optional[str] = None
            detail = ""
            passed = True
            try:
                run_check()
            except AttestationError as exc:
                passed = False
                reason, detail = exc.reason, exc.detail
            if clock is not None and latency is not None:
                self._charge_crypto_step(
                    name, clock, latency, step_hits, step_misses, step_oracle
                )
            cost = (clock.now - started) if clock is not None else 0.0
            records.append(StepRecord(name, passed, reason, detail, cost))
            if not passed:
                failed = True
                break

        outcome = VerificationOutcome(
            site=site,
            verdict="fail" if failed else "pass",
            steps=tuple(records),
            report=state["native"],
            policy=policy,
            vcek_certificate=state["vcek"],
            sim_cost=sum(record.sim_cost for record in records),
            family=str(family),
        )
        sig_hits_after, sig_misses_after = sigcache.counters()
        tracer = self.tracer if self.tracer is not None else get_tracer()
        tracer.emit(
            TraceEvent(
                site=site,
                verdict=outcome.verdict,
                reason=outcome.reason,
                steps=outcome.steps,
                sim_cost=outcome.sim_cost,
                kds_fetches=getattr(self.kds, "fetches", 0) - fetches_before,
                kds_cache_hits=getattr(self.kds, "cache_hits", 0) - hits_before,
                sig_cache_hits=sig_hits_after - sig_hits_before,
                sig_cache_misses=sig_misses_after - sig_misses_before,
                family=str(family),
            )
        )
        return outcome

    def _collect_jobs(
        self,
        evidence: Evidence,
        now: int,
        policy: VerificationPolicy,
        state: dict,
    ) -> list:
        """The farm prepare pass for one envelope: ask the family
        provider to fetch endorsements into *state* and enumerate the
        signature equations its step list will check.  Returns ``[]``
        whenever the pipeline could not be prejudged (unknown/forbidden
        family, undecodable evidence, fetch failure) — the run then
        proceeds, and fails, through the normal steps."""
        family = evidence.family
        if not policy.family_allowed(family):
            return []
        provider = provider_for(family)
        if provider is None:
            return []
        try:
            native = provider.decode(evidence.body)
        except AttestationError:
            return []
        context = self._context_for(family)
        if context is None:
            return []
        try:
            return provider.signature_jobs(native, now, policy, context, state)
        except AttestationError:
            return []

    def _prepare(
        self, evidence, now: int, policy: VerificationPolicy, state: dict, clock
    ) -> Optional[StepRecord]:
        """Run the farm prepare pass for a single verification and
        settle it immediately; the endorsement-fetch and batch cost land
        on a leading ``batch_prepare`` step record."""
        started = clock.now if clock is not None else 0.0
        jobs = self._collect_jobs(evidence, now, policy, state)
        if jobs:
            self.farm.verify_many(jobs)
        cost = (clock.now - started) if clock is not None else 0.0
        if not jobs and cost == 0.0:
            return None
        return StepRecord(
            STEP_BATCH_PREPARE,
            True,
            detail=f"{len(jobs)} signature job(s) batched",
            sim_cost=cost,
        )

    def verify_batch(
        self,
        evidences,
        now: int,
        policies=None,
        site: Optional[str] = None,
    ) -> list:
        """Verify a group of :class:`~repro.attest.evidence.Evidence`
        envelopes with one shared farm settlement.

        All envelopes' signature equations (chain links, report
        signatures) are queued together, so fleet-wide common terms —
        the shared ARK/ASK certificates, duplicate chain links — are
        verified once per *batch* rather than once per envelope.
        *policies* is an optional per-envelope policy sequence.  Without
        a farm this degrades to sequential :meth:`verify` calls."""
        evidences = list(evidences)
        if policies is not None and len(policies) != len(evidences):
            raise ValueError("policies must match evidences one-to-one")
        if self.farm is None:
            return [
                self.verify(
                    evidence,
                    now,
                    policy=policies[index] if policies is not None else None,
                    site=site,
                )
                for index, evidence in enumerate(evidences)
            ]
        prepared = []
        for index, evidence in enumerate(evidences):
            policy = (
                policies[index] if policies is not None else self.policy
            )
            state = {"vcek": None, "chain": None, "native": None}
            for job in self._collect_jobs(evidence, now, policy, state):
                self.farm.submit(*job)
            prepared.append((evidence, policy, state))
        self.farm.flush()
        return [
            self.verify(evidence, now, policy=policy, site=site, _prepared=state)
            for evidence, policy, state in prepared
        ]

    def _dispatched_steps(
        self,
        evidence: Evidence,
        now: int,
        policy: VerificationPolicy,
        state: dict,
    ):
        """Family dispatch for tagged evidence: admissibility, decode,
        trust-context lookup, then the provider's own step list."""
        family = evidence.family
        provider = provider_for(family)

        def family_allowed():
            if not policy.family_allowed(family):
                raise AttestationError(
                    "family_not_allowed",
                    f"TEE family {family} is not admissible under this policy",
                )

        if policy.allowed_families is not None:
            yield STEP_FAMILY_ALLOWED, family_allowed

        def evidence_decode():
            state["native"] = provider.decode(evidence.body)

        yield STEP_EVIDENCE_DECODE, evidence_decode

        context = self._context_for(family)
        if context is None:

            def trust_context():
                raise AttestationError(
                    "no_trust_context",
                    f"verifier has no trust material for family {family}",
                )

            yield STEP_TRUST_CONTEXT, trust_context
            return

        # state["native"] is populated by the time the engine pulls the
        # first provider step (decode either ran or broke the loop).
        yield from provider.steps(state["native"], now, policy, context, state)

    @staticmethod
    def _charge_crypto_step(
        name: str,
        clock,
        latency,
        hits_before: int,
        misses_before: int,
        oracle_before: int = 0,
    ) -> None:
        """Advance the simulated clock by the step's calibrated crypto
        cost.  A step whose verdicts all came from the verify farm's
        batch (oracle served, nothing missed) is free here — that EC
        math was performed and priced at batch-flush time.  A step fully
        served by the signature-verification cache (lookups happened,
        none missed) is charged the discounted rate; the measurement
        step never consults the cache and always pays full price."""
        attribute = _CRYPTO_STEP_PRICES.get(name)
        if attribute is None:
            return
        price = getattr(latency, attribute, 0.0)
        if price <= 0.0:
            return
        if name != STEP_MEASUREMENT:
            hits, misses = sigcache.counters()
            if (
                misses == misses_before
                and sigcache.oracle_hits() > oracle_before
            ):
                return  # served from a verify-farm batch, priced at flush
            served_from_cache = misses == misses_before and hits > hits_before
            if served_from_cache:
                price *= _CACHED_VERIFY_DISCOUNT
        clock.advance(price)
