"""Per-TEE-family step providers for the unified verification engine.

Each supported :class:`~repro.attest.evidence.TeeFamily` registers a
:class:`StepProvider` that adapts its native verification primitives
(:mod:`repro.amd.verify`, :mod:`repro.tdx.module`,
:mod:`repro.cca.realms`, :mod:`repro.vtpm.vtpm`) into the engine's
ordered ``(step name, check callable)`` pipeline.  The engine stays
family-agnostic: it asks the provider to decode the evidence body, then
runs the steps :meth:`StepProvider.steps` yields, recording each one
with the same :class:`~repro.attest.engine.StepRecord` machinery.

A provider supplies only what differs between families: decoding,
accessors for the fields the policy checks read (launch measurement,
REPORT_DATA, platform id, TCB), its authenticity steps (endorsement
fetch, chain, bindings, signatures) and, for the e-vTPM, runtime steps.
:meth:`StepProvider.steps` runs the policy checks around them once, for
every family, in one order::

    revocation -> authenticity steps -> measurement -> report_data
      -> chip_id_allowlist -> tcb_floor -> runtime steps

so a policy violation fails the same step with the same reason code in
every family: a TDX MRTD not in the golden set fails ``measurement``
with ``measurement_mismatch``, exactly like an SNP launch digest.
Checks with no SNP analogue get family-scoped names (``lifecycle``,
``rak_binding``, ``quote_log``, ...).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..amd.report import AttestationReport, ReportError
from ..amd.verify import (
    AttestationError,
    check_certificate_chain,
    check_chip_id_binding,
    check_debug_policy,
    check_signature,
    check_tcb_binding,
)
from ..crypto import sigcache
from ..crypto.x509 import (
    Certificate,
    CertificateError,
    _find_anchor_for,
    validate_chain,
)
from .evidence import TeeFamily
from .policy import VerificationPolicy

# -- step names ----------------------------------------------------------------
#
# The SNP pipeline's original step vocabulary (PR 2), now shared by
# every family that runs the equivalent check.

STEP_REVOCATION = "revocation"
STEP_VCEK_FETCH = "vcek_fetch"
STEP_CERT_CHAIN = "cert_chain"
STEP_CHIP_ID_BINDING = "chip_id_binding"
STEP_TCB_BINDING = "tcb_binding"
STEP_SIGNATURE = "signature"
STEP_DEBUG_POLICY = "debug_policy"
STEP_MEASUREMENT = "measurement"
STEP_REPORT_DATA = "report_data"
STEP_CHIP_ID_ALLOWLIST = "chip_id_allowlist"
STEP_TCB_FLOOR = "tcb_floor"

# Family-dispatch steps run by the engine before any provider step.
STEP_FAMILY_ALLOWED = "family_allowed"
STEP_EVIDENCE_DECODE = "evidence_decode"
STEP_TRUST_CONTEXT = "trust_context"

# Speculative verify-farm pass (engine-emitted, farm-wired runs only):
# endorsement fetch + one batched settlement of every signature the
# pipeline is about to check.
STEP_BATCH_PREPARE = "batch_prepare"

# Family-specific checks with no SNP analogue.
STEP_ENDORSEMENT_FETCH = "endorsement_fetch"
STEP_PLATFORM_SIGNATURE = "platform_signature"
STEP_LIFECYCLE = "lifecycle"
STEP_RAK_BINDING = "rak_binding"
STEP_AK_ENDORSEMENT = "ak_endorsement"
STEP_QUOTE_SIGNATURE = "quote_signature"
STEP_QUOTE_LOG = "quote_log"
STEP_SERVICE_ALLOWLIST = "service_allowlist"

#: The SNP pipeline in execution order; optional steps are skipped
#: (not recorded) when the policy does not configure them.
STEP_ORDER: Tuple[str, ...] = (
    STEP_REVOCATION,
    STEP_VCEK_FETCH,
    STEP_CERT_CHAIN,
    STEP_CHIP_ID_BINDING,
    STEP_TCB_BINDING,
    STEP_SIGNATURE,
    STEP_DEBUG_POLICY,
    STEP_MEASUREMENT,
    STEP_REPORT_DATA,
    STEP_CHIP_ID_ALLOWLIST,
    STEP_TCB_FLOOR,
)


def _report_data_for(payload_digest: bytes) -> bytes:
    """A 32-byte digest in the 64-byte REPORT_DATA field (the
    :func:`repro.core.key_sharing.report_data_for` convention, local to
    avoid a layering cycle)."""
    return payload_digest + b"\x00" * 32


def _chain_signature_jobs(chain, anchors) -> list:
    """The ``(issuer key, tbs bytes, signature, hash)`` equations
    :func:`~repro.crypto.x509.validate_chain` will check for *chain*
    (leaf first) against *anchors* — mirrored exactly, so verify-farm
    batch verdicts land on the same signature-cache keys the chain walk
    looks up.  Link structure that the walk would reject (issuer
    mismatch, missing signature) stops enumeration: the pipeline step
    reports those failures itself."""
    jobs = []
    for child, parent in zip(chain, chain[1:]):
        if child.issuer != parent.subject or not child.signature:
            return jobs
        jobs.append(
            (parent.public_key, child.tbs_bytes(), child.signature,
             child.signature_hash)
        )
    top = chain[-1]
    anchor_map = {anchor.fingerprint(): anchor for anchor in anchors}
    if top.fingerprint() not in anchor_map and top.signature:
        anchor = _find_anchor_for(top, anchor_map.values())
        if anchor is not None:
            jobs.append(
                (anchor.public_key, top.tbs_bytes(), top.signature,
                 top.signature_hash)
            )
    return jobs


# -- trust contexts ------------------------------------------------------------
#
# What each family's verifier needs beyond the policy.  SEV-SNP and the
# e-vTPM use the KDS client the engine already holds; the others carry
# their own endorsement services.


@dataclass
class TdxTrust:
    """Verifier-side trust material for Intel TDX."""

    #: A :class:`~repro.tdx.module.ProvisioningCertificationService`.
    pcs: object
    #: Pinned anchors; ``None`` defaults to the PCS root certificate.
    trust_anchors: Optional[Tuple[Certificate, ...]] = None


@dataclass
class CcaTrust:
    """Verifier-side trust material for ARM CCA."""

    #: ``cpak_lookup(platform_id) -> Certificate`` (the CPAK endorsement).
    cpak_lookup: Callable[[bytes], Certificate]
    #: Pinned ARM root anchors.
    trust_anchors: Tuple[Certificate, ...] = ()


@dataclass
class VtpmTrust:
    """Verifier-side trust material for the SNP-endorsed e-vTPM."""

    #: The KDS client validating the AK endorsement report.
    kds: object
    #: Runtime-event allow-list; ``None`` skips the check.
    allowed_service_digests: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.allowed_service_digests is not None:
            self.allowed_service_digests = frozenset(
                bytes(d) for d in self.allowed_service_digests
            )


# -- provider protocol and registry --------------------------------------------


class StepProvider:
    """One family's adapter: decode native evidence, expose the fields
    the policy checks read, and yield the family's own check steps."""

    family: TeeFamily
    #: Failure detail of a REPORT_DATA mismatch.
    report_data_detail = "REPORT_DATA does not match expectation"

    def decode(self, body: bytes):
        """Parse the envelope body into the family's native evidence;
        raise ``AttestationError("evidence_malformed", ...)`` on junk."""
        raise NotImplementedError

    def measurement(self, native) -> bytes:
        """The native evidence's launch measurement."""
        raise NotImplementedError

    def report_data(self, native) -> bytes:
        """The native evidence's challenge/REPORT_DATA binding."""
        raise NotImplementedError

    def platform_id(self, native) -> bytes:
        """The platform identity the chip-id allow-list names (the SNP
        chip id, the TDX or CCA platform id); the ``chip_id_binding``
        step binds it to the endorsement certificate."""
        raise NotImplementedError

    def tcb_at_least(self, native, floor) -> bool:
        """Does the native evidence's platform TCB meet *floor*, given
        in the family's native form?"""
        raise NotImplementedError

    def authenticity_steps(
        self,
        native,
        now: int,
        policy: VerificationPolicy,
        context,
        state: dict,
    ) -> Iterator[Tuple[str, Callable[[], None]]]:
        """Yield the endorsement and signature steps, in order."""
        raise NotImplementedError

    def runtime_steps(
        self, native, context
    ) -> Iterator[Tuple[str, Callable[[], None]]]:
        """Yield the checks of runtime state that follow the policy
        checks (none by default)."""
        return iter(())

    def signature_jobs(
        self,
        native,
        now: int,
        policy: VerificationPolicy,
        context,
        state: dict,
    ) -> list:
        """The speculative verify-farm pass: fetch endorsements into
        *state* (so the pipeline's fetch step becomes a no-op) and
        return every ``(key, message, signature, hash_name)`` the step
        list is about to verify, for one batched settlement.  Families
        that cannot prejudge (fetch failure, custom signature formats)
        return ``[]`` and the pipeline runs — and fails — normally."""
        return []

    def steps(
        self,
        native,
        now: int,
        policy: VerificationPolicy,
        context,
        state: dict,
    ) -> Iterator[Tuple[str, Callable[[], None]]]:
        """Yield ``(step name, check)`` pairs in verification order: the
        policy checks, the same for every family, around the family's
        authenticity and runtime steps."""
        measurement = bytes(self.measurement(native))
        revoked = frozenset(policy.revoked_measurements)

        def revocation():
            if measurement in revoked:
                raise AttestationError(
                    "measurement_revoked",
                    "measurement has been revoked (rollback?)",
                )

        if revoked:
            yield STEP_REVOCATION, revocation

        yield from self.authenticity_steps(native, now, policy, context, state)

        golden = policy.effective_golden()

        def measurement_check():
            if measurement not in golden:
                raise AttestationError(
                    "measurement_mismatch",
                    f"measurement {measurement.hex()[:16]}... is not in the "
                    f"golden set ({len(golden)} value(s))",
                )

        if golden is not None:
            yield STEP_MEASUREMENT, measurement_check

        def report_data():
            if self.report_data(native) != policy.expected_report_data:
                raise AttestationError(
                    "report_data_mismatch", self.report_data_detail
                )

        if policy.expected_report_data is not None:
            yield STEP_REPORT_DATA, report_data

        def chip_id_allowlist():
            if bytes(self.platform_id(native)) not in policy.allowed_chip_ids:
                raise AttestationError(
                    "chip_id_not_allowed", "platform is not on the approved list"
                )

        if policy.allowed_chip_ids is not None:
            yield STEP_CHIP_ID_ALLOWLIST, chip_id_allowlist

        def tcb_floor():
            if not self.tcb_at_least(native, policy.minimum_tcb):
                raise AttestationError(
                    "tcb_too_old", "platform TCB below the required minimum"
                )

        if policy.minimum_tcb is not None:
            yield STEP_TCB_FLOOR, tcb_floor

        yield from self.runtime_steps(native, context)


_PROVIDERS: Dict[TeeFamily, StepProvider] = {}


def register_step_provider(provider: StepProvider) -> StepProvider:
    """Register a family's step provider (module import time)."""
    _PROVIDERS[provider.family] = provider
    return provider


def provider_for(family: TeeFamily) -> Optional[StepProvider]:
    """The registered provider for *family* (None if unknown)."""
    return _PROVIDERS.get(family)


def _malformed(exc: Exception) -> AttestationError:
    return AttestationError("evidence_malformed", f"undecodable evidence: {exc}")


# -- SEV-SNP -------------------------------------------------------------------
#
# The SNP report checks, shared by the SNP provider and the e-vTPM's
# AK endorsement (the AK is only as strong as the hardware RoT vouching
# for it).


def _snp_anchors(policy: VerificationPolicy, kds) -> list:
    if policy.trust_anchors is not None:
        return list(policy.trust_anchors)
    return [kds.trust_anchor]


def _snp_signature_jobs(report: AttestationReport, policy, kds, state) -> list:
    try:
        state["vcek"] = kds.get_vcek(report.chip_id, report.reported_tcb)
        state["chain"] = kds.cert_chain()
    except LookupError:
        return []  # the vcek_fetch step reports unknown_platform
    jobs = _chain_signature_jobs(
        [state["vcek"], *state["chain"]], _snp_anchors(policy, kds)
    )
    vcek_key = state["vcek"].public_key
    if vcek_key.algorithm == "ecdsa" and report.signature:
        jobs.append(
            (vcek_key.inner, report.signed_bytes(), report.signature, "sha384")
        )
    return jobs


def _snp_report_steps(report: AttestationReport, now, policy, kds, state):
    def vcek_fetch():
        if state["vcek"] is not None and state["chain"] is not None:
            return  # the verify-farm prepare pass already fetched
        try:
            state["vcek"] = kds.get_vcek(report.chip_id, report.reported_tcb)
            state["chain"] = kds.cert_chain()
        except LookupError as exc:
            raise AttestationError(
                "unknown_platform", f"KDS has no VCEK for this chip: {exc}"
            ) from exc

    yield STEP_VCEK_FETCH, vcek_fetch

    anchors = _snp_anchors(policy, kds)
    yield STEP_CERT_CHAIN, lambda: check_certificate_chain(
        state["vcek"], state["chain"], anchors, now
    )
    yield STEP_CHIP_ID_BINDING, lambda: check_chip_id_binding(
        report, state["vcek"]
    )
    yield STEP_TCB_BINDING, lambda: check_tcb_binding(report, state["vcek"])
    yield STEP_SIGNATURE, lambda: check_signature(report, state["vcek"])
    yield STEP_DEBUG_POLICY, lambda: check_debug_policy(
        report, policy.allow_debug
    )


class SnpStepProvider(StepProvider):
    """The original PR-2 pipeline, expressed as a step provider.

    *context* is the engine's :class:`~repro.core.kds_client.KdsClient`.
    """

    family = TeeFamily.SEV_SNP

    def decode(self, body: bytes) -> AttestationReport:
        try:
            return AttestationReport.decode(body)
        except (ReportError, ValueError, KeyError, TypeError) as exc:
            raise _malformed(exc) from exc

    def measurement(self, native: AttestationReport) -> bytes:
        return native.measurement

    def report_data(self, native: AttestationReport) -> bytes:
        return native.report_data

    def platform_id(self, native: AttestationReport) -> bytes:
        return native.chip_id

    def tcb_at_least(self, native: AttestationReport, floor) -> bool:
        return native.reported_tcb.at_least(floor)

    def signature_jobs(self, report, now, policy, kds, state):
        return _snp_signature_jobs(report, policy, kds, state)

    def authenticity_steps(self, report, now, policy, kds, state):
        return _snp_report_steps(report, now, policy, kds, state)


# -- Intel TDX -----------------------------------------------------------------


class TdxStepProvider(StepProvider):
    """TDX quote verification (the go-tdx-guest flow) as engine steps.

    *context* is a :class:`TdxTrust`.
    """

    family = TeeFamily.TDX

    def decode(self, body: bytes):
        from ..tdx.module import TdQuote

        try:
            return TdQuote.decode(body)
        except (ValueError, KeyError, TypeError) as exc:
            raise _malformed(exc) from exc

    def measurement(self, native) -> bytes:
        return native.mrtd

    def report_data(self, native) -> bytes:
        return native.report_data

    def platform_id(self, native) -> bytes:
        return native.platform_id

    def tcb_at_least(self, native, floor) -> bool:
        return native.tee_tcb_svn >= floor

    @staticmethod
    def _anchors(policy, trust: TdxTrust):
        return (
            policy.trust_anchors
            or trust.trust_anchors
            or (trust.pcs.root_certificate,)
        )

    def signature_jobs(self, quote, now, policy, context, state):
        from ..tdx.module import TdxError

        pcs = context.pcs
        try:
            state["vcek"] = pcs.get_pck_certificate(
                quote.platform_id, quote.tee_tcb_svn
            )
            state["chain"] = pcs.cert_chain()
        except (TdxError, LookupError):
            return []  # the endorsement_fetch step reports unknown_platform
        jobs = _chain_signature_jobs(
            [state["vcek"], *state["chain"]], list(self._anchors(policy, context))
        )
        if quote.signature:
            jobs.append(
                (state["vcek"].public_key, quote.signed_payload(),
                 quote.signature, "sha384")
            )
        return jobs

    def authenticity_steps(self, quote, now, policy, context, state):
        from ..tdx.module import TdxError

        pcs = context.pcs

        def endorsement_fetch():
            if state["vcek"] is not None and state["chain"] is not None:
                return  # the verify-farm prepare pass already fetched
            try:
                state["vcek"] = pcs.get_pck_certificate(
                    quote.platform_id, quote.tee_tcb_svn
                )
                state["chain"] = pcs.cert_chain()
            except (TdxError, LookupError) as exc:
                raise AttestationError(
                    "unknown_platform", f"PCS has no PCK for this platform: {exc}"
                ) from exc

        yield STEP_ENDORSEMENT_FETCH, endorsement_fetch

        anchors = self._anchors(policy, context)

        def cert_chain():
            try:
                validate_chain(
                    [state["vcek"], *state["chain"]], list(anchors), now=now
                )
            except CertificateError as exc:
                raise AttestationError("bad_cert_chain", str(exc)) from exc

        yield STEP_CERT_CHAIN, cert_chain

        def chip_id_binding():
            cert_platform = state["vcek"].extension("intel.platform_id")
            if cert_platform is None or cert_platform != quote.platform_id:
                raise AttestationError(
                    "chip_id_mismatch",
                    "PCK certificate platform id does not match the quote",
                )

        yield STEP_CHIP_ID_BINDING, chip_id_binding

        def tcb_binding():
            cert_svn = state["vcek"].extension("intel.tcb_svn")
            if (
                cert_svn is None
                or int.from_bytes(cert_svn, "little") != quote.tee_tcb_svn
            ):
                raise AttestationError(
                    "tcb_mismatch", "PCK certificate TCB SVN mismatch"
                )

        yield STEP_TCB_BINDING, tcb_binding

        def signature():
            if not state["vcek"].public_key.verify(
                quote.signed_payload(), quote.signature, "sha384"
            ):
                raise AttestationError(
                    "bad_signature",
                    "quote signature does not verify under the PCK",
                )

        yield STEP_SIGNATURE, signature


# -- ARM CCA -------------------------------------------------------------------


class CcaStepProvider(StepProvider):
    """CCA two-token verification (token chaining) as engine steps.

    *context* is a :class:`CcaTrust`.
    """

    family = TeeFamily.CCA

    def decode(self, body: bytes):
        from ..cca.realms import CcaError, CcaToken

        try:
            return CcaToken.decode(body)
        except (CcaError, ValueError, KeyError, TypeError) as exc:
            raise _malformed(exc) from exc

    def measurement(self, native) -> bytes:
        return native.realm_token.rim

    def report_data(self, native) -> bytes:
        return native.realm_token.challenge

    def platform_id(self, native) -> bytes:
        return native.platform_token.platform_id

    def tcb_at_least(self, native, floor) -> bool:
        return native.platform_token.platform_svn >= floor

    def signature_jobs(self, token, now, policy, context, state):
        from ..cca.realms import CcaError
        from ..crypto.ecdsa import EcdsaPublicKey, SignatureError

        realm = token.realm_token
        platform = token.platform_token
        try:
            state["vcek"] = context.cpak_lookup(platform.platform_id)
        except (CcaError, LookupError):
            return []  # the endorsement_fetch step reports unknown_platform
        anchors = policy.trust_anchors or tuple(context.trust_anchors)
        jobs = _chain_signature_jobs([state["vcek"]], list(anchors))
        if platform.signature:
            jobs.append(
                (state["vcek"].public_key, platform.signed_payload(),
                 platform.signature, "sha384")
            )
        try:
            rak = EcdsaPublicKey.decode(realm.rak_public)
        except (SignatureError, ValueError):
            return jobs  # the signature step reports the bad RAK
        if realm.signature:
            jobs.append(
                (rak, realm.signed_payload(), realm.signature, "sha384")
            )
        return jobs

    def authenticity_steps(self, token, now, policy, context, state):
        from ..cca.realms import CcaError
        from ..crypto.ecdsa import EcdsaPublicKey

        realm = token.realm_token
        platform = token.platform_token

        def endorsement_fetch():
            if state["vcek"] is not None:
                return  # the verify-farm prepare pass already fetched
            try:
                state["vcek"] = context.cpak_lookup(platform.platform_id)
            except (CcaError, LookupError) as exc:
                raise AttestationError(
                    "unknown_platform", f"no CPAK for this platform: {exc}"
                ) from exc

        yield STEP_ENDORSEMENT_FETCH, endorsement_fetch

        anchors = policy.trust_anchors or tuple(context.trust_anchors)

        def cert_chain():
            try:
                validate_chain([state["vcek"]], list(anchors), now=now)
            except CertificateError as exc:
                raise AttestationError("bad_cert_chain", str(exc)) from exc

        yield STEP_CERT_CHAIN, cert_chain

        def chip_id_binding():
            cert_platform = state["vcek"].extension("arm.platform_id")
            if cert_platform is None or cert_platform != platform.platform_id:
                raise AttestationError(
                    "chip_id_mismatch",
                    "CPAK certificate is for a different platform",
                )

        yield STEP_CHIP_ID_BINDING, chip_id_binding

        def platform_signature():
            if not state["vcek"].public_key.verify(
                platform.signed_payload(), platform.signature, "sha384"
            ):
                raise AttestationError(
                    "bad_signature", "platform token signature invalid"
                )

        yield STEP_PLATFORM_SIGNATURE, platform_signature

        def lifecycle():
            if platform.lifecycle_state != "secured":
                raise AttestationError(
                    "lifecycle_not_secured",
                    f"platform lifecycle is {platform.lifecycle_state!r}, "
                    "not secured",
                )

        yield STEP_LIFECYCLE, lifecycle

        def rak_binding():
            if hashlib.sha256(realm.rak_public).digest() != platform.rak_hash:
                raise AttestationError(
                    "rak_not_endorsed",
                    "platform token does not endorse this realm's RAK",
                )

        yield STEP_RAK_BINDING, rak_binding

        def signature():
            rak = EcdsaPublicKey.decode(realm.rak_public)
            if not sigcache.cached_verify(
                rak, realm.signed_payload(), realm.signature, "sha384"
            ):
                raise AttestationError(
                    "bad_signature", "realm token signature invalid"
                )

        yield STEP_SIGNATURE, signature


# -- SNP-endorsed e-vTPM -------------------------------------------------------


class VtpmStepProvider(StepProvider):
    """e-vTPM monitoring-evidence verification as engine steps.

    *context* is a :class:`VtpmTrust`.  The SNP endorsement report is
    verified with the SNP report steps, then the quote/log half runs
    after the policy checks: quote signature, event-log replay, and the
    runtime allow-list.  The policy's measurement, chip-id and TCB
    expectations apply to the endorsement; ``expected_report_data``
    binds the *quote nonce*, and the endorsement's own REPORT_DATA
    binding to the AK is the dedicated ``ak_endorsement`` step.
    """

    family = TeeFamily.VTPM
    report_data_detail = "quote nonce mismatch (replay?)"

    def decode(self, body: bytes):
        from ..vtpm.monitoring import MonitoringEvidence

        try:
            return MonitoringEvidence.decode(body)
        except (ReportError, ValueError, KeyError, TypeError) as exc:
            raise _malformed(exc) from exc

    def measurement(self, native) -> bytes:
        return native.ak_endorsement.measurement

    def report_data(self, native) -> bytes:
        return native.quote.nonce

    def platform_id(self, native) -> bytes:
        return native.ak_endorsement.chip_id

    def tcb_at_least(self, native, floor) -> bool:
        return native.ak_endorsement.reported_tcb.at_least(floor)

    def signature_jobs(self, evidence, now, policy, context, state):
        # The TPM quote signature (STEP_QUOTE_SIGNATURE) uses the
        # quote's own composite verify and is not batchable here.
        return _snp_signature_jobs(
            evidence.ak_endorsement, policy, context.kds, state
        )

    def authenticity_steps(self, evidence, now, policy, context, state):
        yield from _snp_report_steps(
            evidence.ak_endorsement, now, policy, context.kds, state
        )

        def ak_endorsement():
            expected = _report_data_for(
                hashlib.sha256(evidence.ak_public.encode()).digest()
            )
            if evidence.ak_endorsement.report_data != expected:
                raise AttestationError(
                    "ak_not_endorsed",
                    "endorsement REPORT_DATA does not bind this AK",
                )

        yield STEP_AK_ENDORSEMENT, ak_endorsement

    def runtime_steps(self, evidence, context):
        from ..vtpm.vtpm import PCR_SERVICES, VtpmError, replay_event_log

        def quote_signature():
            if not evidence.quote.verify(evidence.ak_public):
                raise AttestationError(
                    "bad_signature", "quote signature invalid"
                )

        yield STEP_QUOTE_SIGNATURE, quote_signature

        def quote_log():
            try:
                replayed = replay_event_log(evidence.event_log)
            except VtpmError as exc:
                raise AttestationError("quote_log_mismatch", str(exc)) from exc
            for index, value in evidence.quote.pcr_values:
                expected = replayed.get(index, b"\x00" * 32)
                if value != expected:
                    raise AttestationError(
                        "quote_log_mismatch",
                        f"PCR {index} does not match the event log "
                        "(unlogged runtime event detected)",
                    )

        yield STEP_QUOTE_LOG, quote_log

        def service_allowlist():
            for entry in evidence.event_log:
                if entry.pcr_index != PCR_SERVICES:
                    continue
                if entry.digest not in context.allowed_service_digests:
                    raise AttestationError(
                        "service_not_allowed",
                        f"unapproved runtime event: {entry.description!r}",
                    )

        if context.allowed_service_digests is not None:
            yield STEP_SERVICE_ALLOWLIST, service_allowlist


register_step_provider(SnpStepProvider())
register_step_provider(TdxStepProvider())
register_step_provider(CcaStepProvider())
register_step_provider(VtpmStepProvider())
