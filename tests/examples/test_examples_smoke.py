"""Smoke-run the example scripts end to end (reduced scale)."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def run_example(name: str, **env_overrides):
    return subprocess.run(
        [sys.executable, str(REPO / "examples" / name)],
        capture_output=True,
        text=True,
        timeout=600,
        env={
            **os.environ,
            "PYTHONPATH": str(REPO / "src"),
            **env_overrides,
        },
    )


class TestExtensionsTour:
    def test_verifies_every_family_behind_one_verifier(self):
        result = run_example("extensions_tour.py")
        assert result.returncode == 0, result.stderr[-2000:]
        for workload, family in (
            ("SEV-SNP guest", "sev-snp"),
            ("TDX trust domain", "tdx"),
            ("CCA realm", "arm-cca"),
        ):
            lines = [
                line for line in result.stdout.splitlines()
                if line.strip().startswith(workload)
            ]
            assert len(lines) == 1, (workload, result.stdout[-2000:])
            assert "verified: measurement" in lines[0]
            assert lines[0].endswith(f"[{family}]")


class TestFleetOperations:
    def test_runs_clean_with_reduced_storm(self):
        result = run_example(
            "fleet_operations.py", REVELIO_FLEET_SESSIONS="30"
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "30-session storm through a rolling rollout" in result.stdout
        assert "0 failed, 0 blocked" in result.stdout
        assert "all 4 nodes replaced" in result.stdout
        assert "Done" in result.stdout
