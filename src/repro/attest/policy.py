"""Declarative verification expectations for the attestation pipeline.

Revelio's security argument rests on one verification procedure run by
many parties (the web extension, RA-TLS peers, the SP node, the vTPM
monitor, key-sharing recipients).  What differs between them is not the
*procedure* but the *expectations*: which measurements are golden,
which are revoked, what REPORT_DATA must bind, which platforms are
approved, and how old the TCB may be.  :class:`VerificationPolicy`
captures those expectations as one immutable value that call sites
construct declaratively instead of threading positional arguments into
the low-level verifier.

The value means the same thing for every TEE family.  Its goldens are
compared against the family's launch measurement (SNP measurement, TDX
MRTD, CCA RIM, the e-vTPM endorsement's measurement) and its TCB floor
against the family's native TCB.  A verifier that serves several
families (the fleet gateway, the web extension) keeps plain
``family -> value`` maps and builds the policy for the evidence's
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..crypto.x509 import Certificate
from .evidence import TeeFamily

#: Families whose platform TCB is an AMD :class:`~repro.amd.tcb.TcbVersion`
#: (the e-vTPM's is its SNP endorsement's): an AMD floor covers both.
AMD_FAMILIES: Tuple[str, ...] = (str(TeeFamily.SEV_SNP), str(TeeFamily.VTPM))


def amd_tcb_floors(minimum_tcb) -> Dict[str, object]:
    """The ``family -> floor`` map for an AMD TCB floor (empty for
    ``None``)."""
    if minimum_tcb is None:
        return {}
    return {family: minimum_tcb for family in AMD_FAMILIES}


def _frozen_bytes(items: Optional[Iterable[bytes]]) -> Optional[Tuple[bytes, ...]]:
    if items is None:
        return None
    return tuple(bytes(item) for item in items)


@dataclass(frozen=True)
class VerificationPolicy:
    """Everything a verifier expects of a report, in one value.

    ``None`` for an optional expectation means "do not check it"; the
    corresponding pipeline step is skipped entirely (and therefore does
    not appear in the outcome's step records).
    """

    #: Acceptable launch measurements; ``None`` skips the check.
    golden_measurements: Optional[Tuple[bytes, ...]] = None
    #: Measurements revoked after rollouts (section 6.1.4); always
    #: checked first, so a revoked value loses even if also golden.
    revoked_measurements: Tuple[bytes, ...] = ()
    #: Exact REPORT_DATA binding (64 bytes); ``None`` skips the check.
    expected_report_data: Optional[bytes] = None
    #: Platform-id allow-list (SNP chip id, TDX/CCA platform id);
    #: ``None`` skips the check.
    allowed_chip_ids: Optional[Tuple[bytes, ...]] = None
    #: TCB floor in the evidence family's native form: a
    #: :class:`~repro.amd.tcb.TcbVersion` (component-wise) for SEV-SNP
    #: and the e-vTPM, an SVN integer for TDX and CCA; ``None`` skips
    #: the check.
    minimum_tcb: Optional[object] = None
    #: Accept debug-enabled guests (never set in production).
    allow_debug: bool = False
    #: Override the pinned trust anchors (defaults to the family's
    #: shipped root); used by tests to cross-examine hierarchies.
    trust_anchors: Optional[Tuple[Certificate, ...]] = None
    #: TEE families acceptable to this verifier ("sev-snp", "tdx",
    #: "arm-cca", "e-vtpm"); ``None`` accepts any family the verifier
    #: has trust material for, non-membership fails ``family_allowed``
    #: with the ``family_not_allowed`` code.
    allowed_families: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "golden_measurements", _frozen_bytes(self.golden_measurements)
        )
        object.__setattr__(
            self,
            "revoked_measurements",
            _frozen_bytes(self.revoked_measurements) or (),
        )
        object.__setattr__(
            self, "allowed_chip_ids", _frozen_bytes(self.allowed_chip_ids)
        )
        if self.expected_report_data is not None:
            object.__setattr__(
                self, "expected_report_data", bytes(self.expected_report_data)
            )
        if self.trust_anchors is not None:
            object.__setattr__(self, "trust_anchors", tuple(self.trust_anchors))
        if self.allowed_families is not None:
            object.__setattr__(
                self,
                "allowed_families",
                tuple(str(family) for family in self.allowed_families),
            )

    def effective_golden(self) -> Optional[FrozenSet[bytes]]:
        """The golden set minus revocations (``None`` if unchecked)."""
        if self.golden_measurements is None:
            return None
        return frozenset(self.golden_measurements) - frozenset(
            self.revoked_measurements
        )

    def family_allowed(self, family) -> bool:
        """Is evidence of *family* admissible under this policy?"""
        if self.allowed_families is None:
            return True
        return str(family) in self.allowed_families
