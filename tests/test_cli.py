import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from enslab import cli
from enslab.errors import NumericsError

SMALL_CONFIGS = {
    "entropy": {},
    "field": {"side": 27, "max_level": 3, "two_point_r": [1.0], "isotropy_r": 1.5},
    "canonical": {"energies": [0.0, 1.0], "temperature": 1.0 / math.log(2.0)},
    "measure": {
        "n_microstates": 500,
        "n_members": 2000,
        "suppression_m": [50, 100],
        "suppression_seeds": 20,
        "ledger_n_micro": 128,
    },
    "cone": {"n_members": 40, "max_steps": 20_000},
    "spinecho": {"n": 500, "tau": 10.0, "samples_per_leg": 10},
}


def run_cli(subcommand, out_dir, extra=None, seed=11, config=None, tmp_path=None):
    argv = [subcommand, "--out", str(out_dir), "--seed", str(seed)]
    params = dict(SMALL_CONFIGS[subcommand])
    params.update(extra or {})
    if config is None:
        config = tmp_path / f"{subcommand}.json"
        config.write_text(json.dumps(params))
    argv += ["--config", str(config)]
    return cli.main(argv)


def digests(out_dir):
    out = {}
    for p in sorted(out_dir.iterdir()):
        if p.name == "manifest.json":
            continue
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestReproducibility:
    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_identical_runs_are_byte_identical(self, name, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(name, a, tmp_path=tmp_path) == 0
        assert run_cli(name, b, tmp_path=tmp_path) == 0
        assert digests(a) == digests(b)

    def test_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("measure", a, seed=1, tmp_path=tmp_path)
        run_cli("measure", b, seed=2, tmp_path=tmp_path)
        assert digests(a) != digests(b)


class TestManifest:
    def test_digests_match_emitted_files(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("field", out, tmp_path=tmp_path) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "field"
        assert manifest["seed"] == 11
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
        assert "summary.json" in manifest["outputs"]

    def test_every_run_writes_a_manifest(self, tmp_path):
        for name in SMALL_CONFIGS:
            out = tmp_path / name
            assert run_cli(name, out, tmp_path=tmp_path) == 0
            assert (out / "manifest.json").exists()
            assert (out / "summary.json").exists()


class TestSchema:
    def test_unknown_subcommand_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_unknown_key_names_offender(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sides": 27}))
        code = cli.main(["field", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "sides" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_wrong_type_names_offender(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"side": "huge"}))
        code = cli.main(["field", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "side" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, key, value",
        [
            ("field", "interval", ["a", 1]),
            ("field", "interval", [1]),
            ("field", "interval", [1, 2, 3]),
            ("field", "two_point_r", ["x"]),
            ("entropy", "blocks", [["a"]]),
            ("entropy", "blocks", [0.5, 0.5]),
            ("measure", "coefficients", ["x", 1]),
            ("measure", "coefficients", [0.6, [0.8, 0.0]]),
            ("measure", "coefficients", [[0.6, 0.0, 0.0]]),
            ("measure", "suppression_m", [1.5]),
            ("measure", "suppression_m", [True]),
            ("canonical", "energies", ["a"]),
            ("canonical", "energies", "abc"),
        ],
    )
    def test_ill_typed_array_names_offender(self, subcommand, key, value, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        code = cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_malformed_json_exits_two(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert cli.main(["entropy", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_invalid_domain_value_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"energies": [0.0, 1.0], "target_mean_energy": 0.9}))
        code = cli.main(["canonical", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_negative_seed_flag_names_seed(self, tmp_path, capsys):
        code = cli.main(["field", "--seed", "-1", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'seed'" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_negative_config_seed_names_seed(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": -3}))
        code = cli.main(["cone", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "'seed'" in capsys.readouterr().err

    def test_numerics_error_exits_three(self, tmp_path, monkeypatch):
        def boom(params, seed, out_dir):
            raise NumericsError("synthetic runtime failure")

        monkeypatch.setitem(cli.RUNNERS, "entropy", boom)
        assert cli.main(["entropy", "--out", str(tmp_path / "x")]) == 3


class TestSummaries:
    def test_measure_summary_values(self, tmp_path):
        out = tmp_path / "m"
        cfg = tmp_path / "m.json"
        cfg.write_text(
            json.dumps(
                {
                    "coefficients": [0.6, 0.8],
                    "n_microstates": 10_000,
                    "n_members": 10_000,
                    "suppression_m": [100, 1000],
                    "suppression_seeds": 50,
                    "ledger_n_micro": 1000,
                }
            )
        )
        assert cli.main(["measure", "--config", str(cfg), "--seed", "42", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fractions"] == pytest.approx([0.36, 0.64], abs=1e-12)
        sigma = math.sqrt(10_000 * 0.36 * 0.64)
        assert abs(summary["counts"][0] - 3600) <= 3 * sigma
        assert summary["ledger"]["final_total"] == pytest.approx(math.log(1000), abs=1e-12)
        assert summary["K"] == 2 and summary["M"] == 10_000

    def test_entropy_summary_reports_base_and_identity(self, tmp_path):
        out = tmp_path / "e"
        assert run_cli("entropy", out, tmp_path=tmp_path) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "nats" in summary["log_base"]
        assert summary["entropy"]["identity_defect"] <= 1e-12

    def test_canonical_distribution_csv(self, tmp_path):
        out = tmp_path / "c"
        assert run_cli("canonical", out, tmp_path=tmp_path) == 0
        rows = (out / "distribution.csv").read_text().strip().split("\n")
        assert rows[0] == "level,energy,prob"
        probs = [float(r.split(",")[2]) for r in rows[1:]]
        assert probs == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kkt_spread"] <= 1e-10

    def test_point_mass_entropy_is_not_negative_zero(self, tmp_path):
        out = tmp_path / "cp"
        cfg = tmp_path / "cp.json"
        cfg.write_text(json.dumps({"energies": [0.0, 50.0], "temperature": 0.01}))
        assert cli.main(["canonical", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        assert '"entropy": 0.0' in text and "-0.0" not in text

    def test_canonical_solves_temperature_from_target(self, tmp_path):
        out = tmp_path / "ct"
        cfg = tmp_path / "ct.json"
        cfg.write_text(json.dumps({"energies": [0.0, 1.0], "target_mean_energy": 1.0 / 3.0}))
        assert cli.main(["canonical", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["temperature"] == pytest.approx(1.0 / math.log(2.0), abs=1e-8)
        assert summary["mean_energy"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["target_mean_energy"] == pytest.approx(1.0 / 3.0)

    def test_canonical_accepts_null_target_as_its_default(self, tmp_path):
        runs = {}
        for name, params in (("omitted", {}), ("null", {"target_mean_energy": None})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"energies": [0.0, 1.0, 2.0], **params}))
            assert cli.main(["canonical", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            runs[name] = (tmp_path / name / "summary.json").read_bytes()
        assert runs["null"] == runs["omitted"]

    def test_spinecho_summary(self, tmp_path):
        out = tmp_path / "s"
        assert run_cli("spinecho", out, tmp_path=tmp_path) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["magnetization_at_echo"] == pytest.approx(1.0, abs=1e-12)
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "t,magnetization,binned_entropy"

    def test_cone_summary(self, tmp_path):
        out = tmp_path / "k"
        assert run_cli("cone", out, tmp_path=tmp_path) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sum(summary["sector_counts"]) + summary["n_unresolved"] == 40
        members = (out / "members.csv").read_text().strip().split("\n")
        assert members[0] == "member,seed,fall_time,final_azimuth,sector"
        assert len(members) == 41

    def test_field_sidecar_and_binary(self, tmp_path):
        out = tmp_path / "f"
        assert run_cli("field", out, tmp_path=tmp_path) == 0
        sidecar = json.loads((out / "field.json").read_text())
        raw = np.frombuffer((out / "field.bin").read_bytes(), dtype="<f8")
        assert raw.size == sidecar["side"] ** sidecar["dim"]
        est = (out / "estimates.csv").read_text().strip().split("\n")
        assert est[0] == "query,estimate,mc_sigma,n_samples"

    def test_one_dimensional_field_skips_isotropy(self, tmp_path):
        # a 1-d lattice has a single direction, so there is no isotropy query
        out = tmp_path / "f1"
        extra = {"dim": 1, "side": 81, "two_point_r": [1.0, 2.0], "isotropy_r": 1.0}
        assert run_cli("field", out, extra=extra, tmp_path=tmp_path) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["isotropy_spread"] is None
        queries = [row.split(",")[0] for row in (out / "estimates.csv").read_text().split()[1:]]
        assert queries == ["one_point", "two_point_r=1", "two_point_r=2"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "entropy", "--out", str(out), "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (out / "summary.json").exists()
