"""The Revelio web extension.

Implements section 5.3.2 end to end:

* **Registration** — sites are registered manually with expected
  measurements (computed by the user or obtained out of band / from a
  trusted registry), or discovered *opportunistically* by probing the
  well-known attestation URL while browsing.
* **Interception** — the first access to a registered domain in a new
  browser context is intercepted: the attestation report is fetched
  from the well-known URL, the VCEK chain is pulled from the (cached)
  KDS, the report signature and measurement are validated, and the
  TLS-connection public key is compared against the report's
  ``REPORT_DATA`` binding (F1, F3, D1).
* **Monitoring** — every subsequent request is checked to still ride on
  a connection authenticated by the *pinned* key, defeating the
  certificate-swap / DNS-redirect attack a malicious provider can mount.
* **Delegation** — expected measurements can come from a
  :mod:`~repro.core.trusted_registry` (auditor or DAO) instead of the
  user's own computation (D2), and revocations are honoured (6.1.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..amd.tcb import TcbVersion
from ..attest import (
    AttestationVerifier,
    TeeFamily,
    VerificationPolicy,
    amd_tcb_floors,
)
from ..net.http import HttpError
from .guest import WELL_KNOWN_ATTESTATION_PATH, decode_attestation_evidence
from .kds_client import KdsClient
from .key_sharing import report_data_for


@dataclass
class Verdict:
    """Outcome of an extension check."""

    blocked: bool = False
    reason: str = ""
    #: Stable machine-readable code for the failed check ("" on pass);
    #: pipeline failures carry the engine's step reason code.
    reason_code: str = ""
    warnings: List[str] = field(default_factory=list)


@dataclass
class SiteRegistration:
    """A domain the user asked the extension to protect."""

    domain: str
    #: TEE family name -> golden measurements.  Evidence of a family
    #: without an entry is checked against an empty set and fails
    #: closed.
    measurements: Dict[str, Set[bytes]] = field(default_factory=dict)
    #: Use the trusted registry for golden values instead of (or in
    #: addition to) the user-supplied ones.
    use_registry: bool = False
    #: Per-site TCB floors (family name -> floor in the family's native
    #: form); each overrides the extension-wide floor of its family.
    tcb_floors: Dict[str, object] = field(default_factory=dict)


@dataclass
class AttestationEvent:
    """An entry in the extension's activity log (the UI surface)."""

    domain: str
    kind: str  # "validated" | "violation" | "discovered" | "blocked"
    detail: str = ""


class RevelioExtension:
    """The web extension's logic, browser-agnostic."""

    def __init__(
        self,
        kds: KdsClient,
        trusted_registry=None,
        opportunistic_discovery: bool = True,
        user_override=None,
        reattest_on_rekey: bool = False,
        minimum_tcb: Optional[TcbVersion] = None,
        tee_contexts=None,
        farm=None,
    ):
        self.kds = kds
        self.trusted_registry = trusted_registry
        self.opportunistic_discovery = opportunistic_discovery
        #: Extension-wide TCB floors (family name -> floor) enforced on
        #: every attested site (per-site registrations can override
        #: them); an AMD *minimum_tcb* covers SEV-SNP and the e-vTPM.
        self.tcb_floors: Dict[str, object] = amd_tcb_floors(minimum_tcb)
        #: All site attestations run through the unified pipeline;
        #: *tee_contexts* adds trust material for non-SNP families
        #: (TDX PCS, CCA anchors, e-vTPM) — also mutable afterwards via
        #: ``verifier.contexts``.  *farm* optionally routes first-visit
        #: signature checks through a shared
        #: :class:`~repro.attest.farm.VerifyFarm` batch.
        self.verifier = AttestationVerifier(
            kds, site="web_extension", contexts=tee_contexts, farm=farm
        )
        #: Section 6.4's suggestion: instead of flagging a re-keyed
        #: connection outright, "a re-establishment of a connection
        #: could simply trigger a re-validation".  When enabled, a pin
        #: mismatch runs a fresh attestation; only if *that* fails is
        #: the access flagged/blocked.
        self.reattest_on_rekey = reattest_on_rekey
        #: Callback(domain, reason) -> bool: True means the user chose to
        #: proceed despite a failed check.  Default: never proceed.
        self.user_override = user_override if user_override is not None else (
            lambda domain, reason: False
        )
        self._sites: Dict[str, SiteRegistration] = {}
        #: domain -> pinned TLS public-key fingerprint for this session
        self._pinned: Dict[str, bytes] = {}
        self._probed: Set[str] = set()
        self.events: List[AttestationEvent] = []
        self._browser = None

    # -- wiring ----------------------------------------------------------------

    def attach(self, browser) -> None:
        """Bind the extension to a browser instance."""
        self._browser = browser

    def on_new_session(self) -> None:
        """Fresh browser context: validations must be redone, but the
        KDS/VCEK cache is persistent storage and survives."""
        self._pinned.clear()
        self._probed.clear()

    # -- registration (section 5.3.2, 'Register Revelio-conformed websites') ----

    def register_site(
        self,
        domain: str,
        expected_measurements=(),
        use_registry: bool = False,
        minimum_tcb: Optional[TcbVersion] = None,
        family_measurements=None,
    ) -> None:
        """Manual registration with expected measurement(s); the secure
        path for security-sensitive sites.  *expected_measurements* are
        SEV-SNP goldens; *family_measurements* maps any TEE family name
        to that family's golden set (heterogeneous fleets).  An AMD
        *minimum_tcb* floors SEV-SNP and the e-vTPM for this site."""
        domain = domain.lower()
        registration = self._sites.get(domain)
        if registration is None:
            registration = SiteRegistration(domain=domain)
            self._sites[domain] = registration
        for family, values in (
            (TeeFamily.SEV_SNP, expected_measurements),
            *(family_measurements or {}).items(),
        ):
            registration.measurements.setdefault(str(family), set()).update(
                bytes(m) for m in values
            )
        registration.use_registry = registration.use_registry or use_registry
        registration.tcb_floors.update(amd_tcb_floors(minimum_tcb))

    def is_registered(self, domain: str) -> bool:
        """Whether the domain is registered with the extension."""
        return domain.lower() in self._sites

    def pinned_key_fingerprint(self, domain: str) -> Optional[bytes]:
        """The pinned TLS key fingerprint for a domain (or None)."""
        return self._pinned.get(domain.lower())

    # -- browser hooks -----------------------------------------------------------

    def before_request(self, browser, hostname: str, url: str) -> Optional[Verdict]:
        """Intercept the first access per session to a registered domain
        and attest the site *before* the page request goes out."""
        domain = hostname.lower()
        registration = self._sites.get(domain)
        if registration is None:
            if self.opportunistic_discovery and domain not in self._probed:
                self._probed.add(domain)
                self._probe(browser, domain)
            return None
        if domain in self._pinned:
            return None  # already validated this session; after_response monitors
        return self._attest_site(browser, domain, registration)

    def after_response(self, browser, hostname: str, connection) -> Optional[Verdict]:
        """Monitor every response from a registered, validated domain:
        the connection must still be rooted in the pinned key."""
        domain = hostname.lower()
        pinned = self._pinned.get(domain)
        if pinned is None:
            return None
        # Querying the browser's connection context costs a little on
        # every request (Table 3: monitored vs plain access).
        browser.network.clock.advance(browser.network.latency.connection_monitor)
        current = None
        if connection is not None and connection.peer_public_key is not None:
            current = connection.peer_public_key.fingerprint()
        if current != pinned:
            self._pinned.pop(domain, None)
            if self.reattest_on_rekey:
                registration = self._sites.get(domain)
                if registration is not None:
                    verdict = self._attest_site(browser, domain, registration)
                    if not verdict.blocked:
                        verdict.warnings.append(
                            "connection re-keyed; re-attestation succeeded"
                        )
                    return verdict
            return self._violation(
                domain,
                "TLS connection re-keyed to an unattested certificate "
                "(possible redirect to a different endpoint)",
                code="connection_rekeyed",
            )
        return None

    # -- the attestation procedure -------------------------------------------------

    def _attest_site(self, browser, domain: str, registration) -> Verdict:
        goldens = {
            family: set(values)
            for family, values in registration.measurements.items()
        }
        revoked: Set[bytes] = set()
        if registration.use_registry and self.trusted_registry is not None:
            goldens.setdefault(str(TeeFamily.SEV_SNP), set()).update(
                self.trusted_registry.golden_measurements(domain)
            )
            revoked = set(self.trusted_registry.revoked_measurements(domain))
        if not any(values - revoked for values in goldens.values()):
            return self._violation(
                domain,
                "no (unrevoked) golden measurement known",
                code="no_golden_measurement",
            )

        # 1. Fetch the attestation report from the well-known URL.  This
        #    also establishes the TLS connection whose key we then check.
        try:
            response, info = browser.client.get(
                f"https://{domain}{WELL_KNOWN_ATTESTATION_PATH}"
            )
        except (ConnectionError, HttpError) as exc:
            return self._violation(
                domain,
                f"cannot fetch attestation report: {exc}",
                code="report_unavailable",
            )
        if response.status != 200:
            return self._violation(
                domain,
                f"attestation endpoint returned {response.status}",
                code="report_unavailable",
            )
        try:
            evidence = decode_attestation_evidence(response.body)
        except Exception as exc:  # malformed payloads are violations too
            return self._violation(
                domain,
                f"malformed attestation payload: {exc}",
                code="malformed_report",
            )
        if info.peer_public_key is None:
            return self._violation(
                domain, "no TLS connection context", code="no_tls_context"
            )
        fingerprint = info.peer_public_key.fingerprint()

        # 2. One pipeline run covers revocation, the endorsement chain
        #    to the family's trust anchor, the signature, the evidence
        #    family's golden set, the TLS-key REPORT_DATA binding (the
        #    key authenticating the very connection we fetched the
        #    evidence over), and the family's TCB floor — dispatched on
        #    evidence family.
        family = str(evidence.family)
        floors = {**self.tcb_floors, **registration.tcb_floors}
        policy = VerificationPolicy(
            golden_measurements=sorted(goldens.get(family, set()) - revoked),
            revoked_measurements=sorted(revoked),
            expected_report_data=report_data_for(fingerprint),
            minimum_tcb=floors.get(family),
        )
        outcome = self.verifier.verify(
            evidence, now=browser.network.clock.epoch_seconds(), policy=policy
        )
        if not outcome.ok:
            return self._violation(
                domain,
                f"report validation failed: {outcome.reason}: {outcome.detail}",
                code=outcome.reason,
            )

        # Charge the client-side validation work (browser JS crypto).
        browser.network.clock.advance(browser.network.latency.client_validation)
        self._pinned[domain] = fingerprint
        self.events.append(AttestationEvent(domain, "validated"))
        return Verdict(blocked=False)

    def _probe(self, browser, domain: str) -> None:
        """Opportunistic discovery: does this site offer Revelio?"""
        try:
            response, _ = browser.client.get(
                f"https://{domain}{WELL_KNOWN_ATTESTATION_PATH}"
            )
        except (ConnectionError, HttpError):
            return
        if response.status == 200:
            self.events.append(
                AttestationEvent(
                    domain,
                    "discovered",
                    "site offers Revelio attestation; register it to validate",
                )
            )

    def _violation(self, domain: str, reason: str, code: str = "") -> Verdict:
        self.events.append(AttestationEvent(domain, "violation", reason))
        if self.user_override(domain, reason):
            self.events.append(
                AttestationEvent(domain, "validated",
                                 "user chose to proceed despite a failed check")
            )
            return Verdict(blocked=False, reason_code=code, warnings=[reason])
        self.events.append(AttestationEvent(domain, "blocked", reason))
        return Verdict(blocked=True, reason=reason, reason_code=code)
