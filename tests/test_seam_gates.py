"""Seam gates: repository-wide searches that keep one way to do each thing.

Each gate is a ``grep -rnE`` over some trees of the repository: a line
that matches one of its patterns, in a file it scans, is a violation.
The patterns are the extended regexes the gates were written in, with
the POSIX class ``[:alnum:]`` spelled ``A-Za-z0-9``.  Every gate runs on
the repository, where it must find nothing, and on a temporary tree
holding one planted violation, where it must find exactly that line.

This module holds the patterns and the planted lines as strings, so
every gate skips it.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
THIS = Path(__file__).resolve().relative_to(ROOT).as_posix()


@dataclass(frozen=True)
class Gate:
    name: str
    #: A line violates the gate if any of these matches it.
    patterns: Tuple[str, ...]
    #: Repository-relative trees to scan, recursively.
    trees: Tuple[str, ...]
    #: One (path, line) per pattern that a planted tree must catch.
    plants: Tuple[Tuple[str, str], ...]
    #: Scan only ``*.py`` files; otherwise every file outside
    #: ``__pycache__`` directories.
    python_only: bool = True
    #: Repository-relative paths this matches (at their start) are exempt.
    exempt: Optional[str] = None

    def hits(self, root: Path) -> "list[str]":
        """Every violating line under *root*, as ``path:line:text``."""
        regexes = [re.compile(pattern) for pattern in self.patterns]
        exempt = re.compile(self.exempt) if self.exempt else None
        found = []
        for tree in self.trees:
            for directory, subdirs, files in os.walk(root / tree):
                subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
                for name in sorted(files):
                    path = Path(directory, name)
                    relative = path.relative_to(root).as_posix()
                    if self.python_only and not name.endswith(".py"):
                        continue
                    if relative == THIS or (exempt and exempt.match(relative)):
                        continue
                    text = path.read_bytes().decode("utf-8", errors="replace")
                    for number, line in enumerate(text.splitlines(), 1):
                        if any(regex.search(line) for regex in regexes):
                            found.append(f"{relative}:{number}:{line}")
        return found


GATES = [
    # The unified pipeline (repro.attest) is the only caller of the
    # per-family verifiers (TDX quotes, CCA tokens, vTPM quote/log
    # replay): they may only be called from repro/attest and their home
    # packages; repro/core and repro/fleet go through the verdict seam.
    # (The SNP half of this gate is part of the evidence-shape gate.)
    Gate(
        "verification",
        ("verify_td_quote|verify_cca_token|verify_quote_against_log",),
        ("src/repro",),
        (("src/repro/core/planted.py", "ok = verify_td_quote(quote)"),),
        exempt="src/repro/(attest|tdx|cca|vtpm|amd)/",
    ),
    # Attestation step providers never do raw EC math: every signature
    # check in repro/attest routes through the farm's verdict seam or
    # sigcache.cached_verify, so batching, pricing and trace counters
    # cannot be bypassed per call site.
    Gate(
        "batch",
        (r"verify_rs(_reference)?\(",),
        ("src/repro/attest",),
        (("src/repro/attest/planted.py", "ok = key.verify_rs(message, r, s)"),),
    ),
    # Boot and VM code opens storage only through declarative DmTable
    # specs (repro.storage.dm); the low-level verity/crypt constructors
    # stay private to the storage layer.
    Gate(
        "device-mapper",
        ("verity_open|luks_open",),
        ("src/repro/core", "src/repro/virt"),
        (("src/repro/virt/planted.py", "device = luks_open(disk, key)"),),
    ),
    # The table-driven core in repro.crypto.aes is the only AES:
    # everything outside repro/crypto encrypts through the modes (XTS
    # for dm-crypt, the AEAD for TLS records and sealed payloads), never
    # by importing the block cipher itself.
    Gate(
        "aes",
        (r"crypto\.aes|crypto import .*\bAES\b|(^|[^_A-Za-z0-9])AES\(",),
        ("src/repro",),
        (("src/repro/net/planted.py", "cipher = AES(key)"),),
        exempt="src/repro/crypto/",
    ),
    # The signed update channel is the only image-mutation path: a
    # VmImage is patched exclusively by apply_delta, which lives in
    # repro.build and is reached through UpdateClient's verified
    # pipeline; nothing in core, fleet or virt rewrites image bytes
    # around the manifest checks (DESIGN.md invariant 17).
    Gate(
        "update",
        ("apply_delta",),
        ("src/repro",),
        (("src/repro/fleet/planted.py", "image = apply_delta(image, delta)"),),
        exempt="src/repro/build/",
    ),
    # Attacks are expressed as campaign scenarios, not ad-hoc fault
    # calls: tests build attacks through the injector registry
    # (repro.scenarios.injectors), which arms and undoes each fault on
    # the component itself.  The hypervisor's runtime tamper helper may
    # only be called by the scenario tests and by the components whose
    # *reaction* to it is the unit under test (the hypervisor, the
    # attack integration tests, and test_faults, which also tests its
    # undo).
    Gate(
        "fault-injection",
        (r"tamper_disk_at_runtime\(",),
        ("tests",),
        (("tests/fleet/test_planted.py",
          "undo = hypervisor.tamper_disk_at_runtime(vm, offset)"),),
        exempt=r"tests/(scenarios/|fleet/test_faults\.py"
               r"|virt/test_hypervisor_vm\.py|integration/test_attacks\.py)",
    ),
    # One fault layer: the registered injector is the only way to arm
    # a fault.  The fault-hook module and its handle, its six hooks,
    # the dm delay/fault targets and the extra KDS doubles must not
    # come back.
    Gate(
        "fault-layer",
        (r"repro\.fleet\.faults", r"FaultHandle", r"kill_backend\(",
         r"blackhole_kds\(", r"raise_tcb_floor\(", r"raise_family_tcb_floor\(",
         r"corrupt_disk\(", r"slow_disk\(", r"DelayTarget", r"FaultTarget",
         r"_ReplayKds", r"_SubstituteVcek", r"SubstituteVcekKds"),
        ("src", "tests", "benchmarks", "examples"),
        (("src/repro/fleet/planted.py", "from repro.fleet.faults import kill"),
         ("tests/fleet/planted.py", "handle = FaultHandle(name, undo)"),
         ("tests/fleet/planted.py", "handle = faults.kill_backend(gw, ip)"),
         ("benchmarks/planted.py", "hole = blackhole_kds(gateway)"),
         ("benchmarks/planted.py", "raise_tcb_floor(gateway, floor)"),
         ("examples/planted.py", "raise_family_tcb_floor(gateway, 4)"),
         ("tests/storage/planted.py", "handle = corrupt_disk(vm, 'rootfs')"),
         ("tests/storage/planted.py", "handle = slow_disk(vm, 'verity')"),
         ("src/repro/storage/planted.py", "target = DelayTarget(dev, meter)"),
         ("src/repro/storage/planted.py", "target = FaultTarget(dev, meter)"),
         ("src/repro/scenarios/planted.py", "kds = _ReplayKds(kds, tcb)"),
         ("src/repro/scenarios/planted.py", "kds = _SubstituteVcek(kds, v)"),
         ("tests/attest/planted.py", "kds = SubstituteVcekKds(kds, v)")),
        python_only=False,
    ),
    # One policy shape: VerificationPolicy is one flat value that means
    # the same thing for every TEE family, and multi-family verifiers
    # (gateway, web extension) keep plain family -> value maps.  The
    # per-family overlay type, its merge, and the family-scoped floor
    # code must not come back.
    Gate(
        "policy-shape",
        (r"FamilyPolicy|for_family\(|family_policies|family_tcb_floor",),
        ("src", "tests", "benchmarks"),
        (("benchmarks/planted.json", '{"family_policies": {}}'),),
        python_only=False,
    ),
    # One evidence shape: attest.Evidence is the only thing a verifier
    # takes and, encoded, the only payload a node serves at the
    # well-known URL.  The second envelope type and its verifier, the
    # bare-report entry points, the second SNP check composition, and
    # the {"report": ...} wire format must not come back.
    Gate(
        "evidence-shape",
        (r"repro\.tee|TeeEvidence|TeeVerifier|verify_or_raise|verified_report\("
         r"|VerifiedReport|verify_attestation_report|decode_attestation_payload"
         r'|registered_families|encode\(\{"report"',),
        ("src", "tests", "benchmarks", "examples"),
        (("examples/planted.py", 'payload = encoding.encode({"report": raw})'),),
        python_only=False,
    ),
    # repro.sim and repro.fleet must be fully deterministic: no ambient
    # RNG (module-level random.*) and no wall-clock reads; randomness
    # flows from seeded SimRng, time from SimClock.
    Gate(
        "simulation-determinism",
        (r"(^|[^.A-Za-z0-9_])random\.[a-z]", r"time\.(time|perf_counter|monotonic)\("),
        ("src/repro/sim", "src/repro/fleet"),
        (("src/repro/sim/planted.py", "jitter = random.random()"),
         ("src/repro/fleet/planted.py", "started = time.monotonic()")),
    ),
]

_IDS = [gate.name for gate in GATES]


@pytest.mark.parametrize("gate", GATES, ids=_IDS)
def test_gate_holds_on_the_repository(gate):
    assert gate.hits(ROOT) == []


@pytest.mark.parametrize(
    "gate,plant",
    [(gate, plant) for gate in GATES for plant in gate.plants],
    ids=[f"{gate.name}-{index}" for gate in GATES for index in range(len(gate.plants))],
)
def test_gate_catches_a_planted_violation(gate, plant, tmp_path):
    relative, line = plant
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"# planted\n{line}\n")
    assert gate.hits(tmp_path) == [f"{relative}:2:{line}"]
