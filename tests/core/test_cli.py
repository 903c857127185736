"""CLI tests (direct main() invocation; no subprocesses)."""

import pytest

from repro.cli import main


class TestBuildMeasureVerify:
    def test_build_writes_image(self, tmp_path, capsys):
        out = tmp_path / "image.rvm"
        assert main(["build", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert out.exists()
        assert "measurement:" in captured

    def test_measure_matches_build(self, tmp_path, capsys):
        out = tmp_path / "image.rvm"
        main(["build", "--out", str(out)])
        build_output = capsys.readouterr().out
        golden = next(
            line.split()[-1] for line in build_output.splitlines()
            if line.startswith("measurement:")
        )
        assert main(["measure", str(out)]) == 0
        measure_output = capsys.readouterr().out
        assert golden in measure_output

    def test_verify_image_ok(self, tmp_path, capsys):
        out = tmp_path / "image.rvm"
        main(["build", "--out", str(out)])
        golden = next(
            line.split()[-1] for line in capsys.readouterr().out.splitlines()
            if line.startswith("measurement:")
        )
        assert main(["verify-image", str(out), golden]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_image_mismatch(self, tmp_path, capsys):
        out = tmp_path / "image.rvm"
        main(["build", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify-image", str(out), "00" * 48]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_tampered_image_file_detected(self, tmp_path, capsys):
        out = tmp_path / "image.rvm"
        main(["build", "--out", str(out)])
        golden = next(
            line.split()[-1] for line in capsys.readouterr().out.splitlines()
            if line.startswith("measurement:")
        )
        # Tamper with the stored image: flip a byte in the kernel blob.
        from repro.virt.image import VmImage
        from dataclasses import replace

        image = VmImage.decode(out.read_bytes())
        tampered = replace(image, cmdline=image.cmdline + " init=/bin/backdoor")
        out.write_bytes(tampered.encode())
        assert main(["verify-image", str(out), golden]) == 1

    def test_cryptpad_use_case(self, tmp_path):
        out = tmp_path / "cp.rvm"
        assert main(["build", "--use-case", "cryptpad", "--out", str(out)]) == 0

    def test_builds_are_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.rvm"
        out_b = tmp_path / "b.rvm"
        main(["build", "--out", str(out_a)])
        main(["build", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


class TestDemos:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--nodes", "2"]) == 0
        output = capsys.readouterr().out
        assert "attested access: OK" in output

    def test_attack_demo_detects_everything(self, capsys):
        assert main(["attack-demo"]) == 0
        assert "3/3 attacks detected" in capsys.readouterr().out


class TestScenarios:
    def test_list_names_every_campaign(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        output = capsys.readouterr().out
        for name in ("launch-61", "pipeline-tail", "storm-core"):
            assert name in output

    def test_pipeline_campaign_runs_clean(self, capsys):
        assert main(["scenarios", "pipeline-tail"]) == 0
        assert "campaign OK" in capsys.readouterr().out

    def test_unknown_campaign_rejected(self, capsys):
        assert main(["scenarios", "no-such-campaign"]) == 2
        assert "unknown campaign" in capsys.readouterr().out


class TestUpdate:
    def test_update_prints_a_signed_manifest(self, capsys):
        assert main(["update"]) == 0
        output = capsys.readouterr().out
        assert "update:      boundary-node 1.0.0 -> 2.0.0" in output
        for field_name in ("base_measurement", "target_measurement",
                           "base_root", "target_root", "delta_digest"):
            assert f"  {field_name}: " in output
        assert "phases:" not in output  # no rollout without --apply

    def test_update_apply_rolls_out_to_every_backend(self, capsys):
        assert main(["update", "--apply"]) == 0
        output = capsys.readouterr().out
        assert "fleet:       6 backend(s) across 2 region(s), epoch 1" in output
        for phase in ("discovered", "delivered", "verified", "applied",
                      "reattested", "admitted"):
            assert f"  {phase}: 6\n" in output
        assert "unattested requests: 0" in output


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])
