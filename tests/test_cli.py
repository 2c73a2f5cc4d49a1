import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from block_helpers import force_cpus, public_calls_off_the_main_thread
from enslab import _blocks, cli, conefall, measurement, probcore, randomfield, spinecho
from enslab.errors import NumericsError, ValidationError

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
    @pytest.mark.parametrize("subcommand", sorted(SMALL_CONFIGS))
    def test_digests_match_emitted_files(self, subcommand, tmp_path):
        # every digest is taken in memory as its file is written
        out = tmp_path / "run"
        assert run_cli(subcommand, out, tmp_path=tmp_path) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == subcommand
        assert manifest["seed"] == 11
        assert sorted(manifest["outputs"]) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
        assert "summary.json" in manifest["outputs"]

    def test_manifest_records_the_environment(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("spinecho", out, tmp_path=tmp_path) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
            "cpu_count": _blocks._cpu_count(),
        }

    def test_measure_coefficients_in_the_pair_wire_format(self, tmp_path):
        # [re, im] pairs in, the same pairs out in summary.json; plain reals
        # come out with zero imaginary parts
        pairs = [[0.6, 0.0], [0.0, -0.8]]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("measure", a, extra={"coefficients": pairs}, tmp_path=tmp_path) == 0
        assert json.loads((a / "summary.json").read_text())["c"] == pairs
        assert run_cli("measure", b, extra={"coefficients": [0.6, 0.8]}, tmp_path=tmp_path) == 0
        assert json.loads((b / "summary.json").read_text())["c"] == [[0.6, 0.0], [0.8, 0.0]]

    def test_complex_coefficients_round_trip_exactly(self, tmp_path):
        # a coefficient with both parts nonzero comes back bit for bit
        pairs = [[0.6, 0.0], [-0.48, 0.64]]
        assert run_cli("measure", tmp_path / "a", extra={"coefficients": pairs}, tmp_path=tmp_path) == 0
        assert json.loads((tmp_path / "a" / "summary.json").read_text())["c"] == pairs

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
        def boom(params, seed):
            raise NumericsError("synthetic runtime failure")

        monkeypatch.setitem(cli.RUNNERS, "entropy", boom)
        assert cli.main(["entropy", "--out", str(tmp_path / "x")]) == 3

    def test_coarse_cone_step_exits_three_naming_dt(self, tmp_path, capsys):
        # at dt = 10 the rod direction leaves the unit sphere before the falls
        out = tmp_path / "k"
        assert run_cli("cone", out, extra={"dt": 10.0, "n_members": 50}, tmp_path=tmp_path) == 3
        err = capsys.readouterr().err
        assert "dt=10.0" in err and "Traceback" not in err
        assert not out.exists()

    def test_failed_run_removes_the_directories_it_created(self, tmp_path, capsys):
        # exit 2 from inside the runner: the squared coefficients sum to 0.72
        out = tmp_path / "a" / "b" / "m"
        assert run_cli("measure", out, extra={"coefficients": [0.6, 0.6]}, tmp_path=tmp_path) == 2
        assert "squared coefficients sum to" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and tmp_path.exists()

    def test_failed_run_keeps_a_directory_that_existed(self, tmp_path):
        out = tmp_path / "m"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert run_cli("measure", out, extra={"coefficients": [0.6, 0.6]}, tmp_path=tmp_path) == 2
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize(
        "subcommand, key, text",
        [
            pytest.param("spinecho", "tau", '{"tau": 1%s}' % ("0" * 400), id="float"),
            pytest.param("canonical", "energies", '{"energies": [0, 1%s]}' % ("0" * 400), id="numbers"),
            pytest.param(
                "measure", "coefficients", '{"coefficients": [[0.6, 0], [-1%s, 0]]}' % ("0" * 400), id="pairs"
            ),
            pytest.param("field", "config file", '{"side": 1%s}' % ("0" * 5000), id="int-digits"),
            pytest.param("measure", "n_microstates", '{"n_microstates": 1%s}' % ("0" * 400), id="int"),
            pytest.param("measure", "suppression_m", '{"suppression_m": [100, 1%s]}' % ("0" * 400), id="integers"),
            pytest.param(
                "field", "index=1e+300", '{"spectrum": "power_law", "index": 1e300}', id="power_law-index"
            ),
        ],
    )
    def test_oversized_integer_exits_two_naming_key(self, subcommand, key, text, tmp_path):
        # no float holds 10**400, and no int64; json refuses to parse an int
        # over 4300 digits. A power law's k**1e300 overflows at every mode
        # past k = 1, and the message names the index with its value.
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "x"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", subcommand, "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert key in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, config, message",
        [
            pytest.param("measure", {"n_microstates": 2**50}, "Unable to allocate ", id="measure-n_microstates"),
            pytest.param("spinecho", {"n": 2**50}, "Unable to allocate ", id="spinecho-n"),
            pytest.param("cone", {"n_members": 2**50}, "Unable to allocate ", id="cone-n_members"),
            *[
                pytest.param(subcommand, {key: 2**62}, "array is too big", id=f"{subcommand}-{key}-2^62")
                for subcommand, key in [
                    ("measure", "n_microstates"),
                    ("measure", "suppression_seeds"),
                    ("spinecho", "n"),
                    ("spinecho", "n_bins"),
                    ("spinecho", "samples_per_leg"),
                    ("cone", "n_members"),
                    ("cone", "n_sectors"),
                ]
            ],
            # from 2^63 - 513 up np.linspace raises IndexError: the size error must come first
            *[
                pytest.param("spinecho", {key: value}, message, id=f"spinecho-{key}-{label}")
                for key in ("n_bins", "samples_per_leg")
                for value, label, message in [
                    (2**63 - 513, "2^63-513", "array is too big"),
                    (2**63 - 1, "2^63-1", "Maximum allowed dimension exceeded"),
                ]
            ],
            # max_level 0: 3^3 does not divide 2^40, and a config error comes first
            pytest.param("field", {"side": 2**40, "max_level": 0}, "array is too big", id="field-side-2^40"),
        ],
    )
    def test_unallocatable_size_exits_three(self, subcommand, config, message, tmp_path):
        # 2^50 members: numpy refuses the first table of 8 PiB or more before
        # it touches any memory. The address-space cap keeps that so on a host
        # that overcommits every allocation. At 2^62 elements (2^80 points of
        # a side-2^40 field) the byte count overflows, and numpy raises its
        # "array is too big" ValueError instead of MemoryError; at 2^63 the
        # length itself overflows, and numpy says "Maximum allowed dimension
        # exceeded".
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", subcommand, "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**33, 2**33)),
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"out of memory: {message}") and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_other_value_errors_are_not_out_of_memory(self, tmp_path, monkeypatch):
        def boom(params, seed):
            raise ValueError("not a size")

        monkeypatch.setitem(cli.RUNNERS, "entropy", boom)
        with pytest.raises(ValueError, match="not a size"):
            cli.main(["entropy", "--out", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()

    def test_huge_max_level_exits_two_at_once(self, tmp_path):
        # 3^max_level is never built once it must exceed the side
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"max_level": 10**9}))
        out = tmp_path / "x"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "field", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 2
        assert "3^1000000000" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, config, message",
        [
            ("field", {"cutoff": -3.0}, "cutoff must be > 0, got -3.0"),
            ("cone", {"max_steps": -1}, "max_steps must be >= 0, got -1"),
            (
                "cone",
                {"damping": 1e300},
                "damping=1e+300 at dt=0.001 is beyond RK4's stability limit damping*dt <= 2.785",
            ),
            *[
                ("cone", {key: 1e300}, f"{key}=1e+300 overflows the kinetic energy p^2/(2 m l^2)")
                for key in ("tilt_momentum_radius", "azimuth_momentum_radius")
            ],
            ("measure", {"ledger_n_micro": 1}, "n_micro=1 microstates cannot cover 2 outcomes"),
            ("spinecho", {"n_bins": 1}, "need at least 2 bins, got 1"),
        ],
        ids=[
            "field-cutoff",
            "cone-max_steps",
            "cone-damping",
            "cone-tilt_momentum_radius",
            "cone-azimuth_momentum_radius",
            "measure-ledger_n_micro",
            "spinecho-n_bins",
        ],
    )
    def test_negative_bound_exits_two_before_any_work(
        self, subcommand, config, message, tmp_path, monkeypatch, capsys
    ):
        # cutoff 0 means none and max_steps 0 runs no step; below 0 neither
        # is a value, so neither may fall back to a run. A cone flow that
        # overflows on its first steps names its key, not a coarse dt. A
        # ledger or bin count that cannot be met fails before the curve's
        # ensembles or the spins are drawn.
        def unreachable(*args, **kwargs):
            raise AssertionError("work began for a config that fails")

        monkeypatch.setattr(randomfield, "generate", unreachable)
        monkeypatch.setattr(conefall, "sample_initial", unreachable)
        monkeypatch.setattr(measurement, "suppression_curve", unreachable)
        monkeypatch.setattr(spinecho, "init_ensemble", unreachable)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"invalid configuration: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_oversized_sector_table_fails_before_any_step(self, tmp_path, monkeypatch, capsys):
        # the sector-count table is allocated before the members are drawn
        def unreachable(*args):
            raise AssertionError("the ensemble ran before its sector table existed")

        monkeypatch.setattr(conefall, "sample_initial", unreachable)
        monkeypatch.setattr(conefall._Lockstep, "step", unreachable)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_sectors": 2**62}))
        assert cli.main(["cone", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("out of memory: array is too big") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"max_level": 5}, "side 162 is not divisible by 3^5; hierarchy does not fit"),
            ({"interval": [1, 0]}, "interval must satisfy a < b, got [1.0, 0.0)"),
            ({"spacing": -1.0}, "spacing must be positive, got -1.0"),
            ({"two_point_r": [500.0]}, "separation bin reaches 500.5, beyond half the torus (81.0)"),
            ({"isotropy_r": 500.0}, "separation bin reaches 500.5, beyond half the torus (81.0)"),
            ({"isotropy_r": 0.2}, "no nonzero lattice offset has length within half a spacing of r=0.2"),
            ({"dim": 2, "side": 2**40}, f"side {2**40} is not divisible by 3^3; hierarchy does not fit"),
        ],
        ids=["max_level", "interval", "spacing", "two_point_r", "isotropy_r", "isotropy_r-empty", "side-2^40"],
    )
    def test_field_config_rules_run_before_the_field_is_built(self, extra, message, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the field was built for a config that fails")

        monkeypatch.setattr(randomfield, "generate", unreachable)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dim": 3, "side": 162, **extra}))
        assert cli.main(["field", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"invalid configuration: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "subcommand, key, text",
        [
            ("field", "index", '{"index": NaN}'),
            ("field", "width", '{"width": Infinity}'),
            ("canonical", "energies", '{"energies": [0, -Infinity]}'),
            ("measure", "coefficients", '{"coefficients": [[0.6, NaN], [0.8, 0]]}'),
        ],
    )
    def test_non_finite_number_exits_two_naming_key(self, subcommand, key, text, tmp_path, capsys):
        # Python's json reads NaN and Infinity, which standard JSON lacks; a
        # parameter holding one would reach the manifest
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"'{key}' holds a number that is not finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_finite_summary_exits_three_naming_entry(self, tmp_path, capsys):
        # at mean 1e300 the squared deviations overflow: the variance is
        # infinite, and no warning is printed on the way to exit 3. The files
        # the run wrote go too, from a directory that existed before.
        out = tmp_path / "f"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert run_cli("field", out, extra={"mean": 1e300}, tmp_path=tmp_path) == 3
        err = capsys.readouterr().err
        assert err == "numerics error: summary entry 'sample_variance' is not finite\n"
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_written_json_is_standard(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.encode_json({"a": [1.0, math.inf]})

    def test_numpy_values_encode_as_their_python_values(self):
        # the runners hand numpy arrays and scalars straight to the encoder
        plain = {
            "ints": [[1, -2], [2**62, 0]],
            "floats": [0.1, 1e-300, -2.5],
            "int": 7,
            "float": 0.30000000000000004,
            "flag": True,
            "empty": [],
        }
        numpy = {
            "ints": np.array(plain["ints"], dtype=np.int64),
            "floats": np.array(plain["floats"]),
            "int": np.int64(7),
            "float": np.float64(0.1) + np.float64(0.2),
            "flag": np.bool_(True),
            "empty": np.empty(0),
        }
        assert cli.encode_json(numpy) == cli.encode_json(plain)
        with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
            cli.encode_json({"a": {1}})

    def test_non_finite_entry_is_found_inside_an_array(self):
        summary = {"a": 1.0, "c": np.array([[0.6, 0.0], [0.8, np.nan]]), "d": [np.float64(np.inf)]}
        assert cli._non_finite_entry(summary) == "c.1.1"
        assert cli._non_finite_entry({"c": np.array([[0.6, -np.inf]])}) == "c.0.1"
        assert cli._non_finite_entry({"d": [np.float64(np.inf)]}) == "d.0"
        assert cli._non_finite_entry({"n": np.arange(3), "x": np.float64(2.0)}) is None

    def test_overflowing_coefficients_exit_two_without_a_warning(self, tmp_path, capsys):
        # the squared norm overflows to inf and is rejected; the RuntimeWarning
        # filter of this suite turns any overflow warning into an error
        out = tmp_path / "m"
        assert run_cli("measure", out, extra={"coefficients": [1e300, 0]}, tmp_path=tmp_path) == 2
        assert "squared coefficients sum to inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    def test_integer_tags_hold_int64(self, value):
        with pytest.raises(ValidationError, match="'n_bins' holds an integer outside the int64 range"):
            cli.resolve_parameters("spinecho", {"n_bins": value})
        with pytest.raises(ValidationError, match="'suppression_m' holds an integer outside the int64 range"):
            cli.resolve_parameters("measure", {"suppression_m": [1, value]})
        assert cli.resolve_parameters("spinecho", {"n_bins": value // 2})["n_bins"] == value // 2

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_naming_a_file_exits_two_before_any_work(self, under, tmp_path, capsys, monkeypatch):
        # mkdir cannot make a directory there: FileExistsError at the file
        # itself, NotADirectoryError under it
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / under if under else afile
        ran, runner = [], cli.RUNNERS["entropy"]
        monkeypatch.setitem(cli.RUNNERS, "entropy", lambda params, seed: ran.append(seed) or runner(params, seed))
        assert cli.main(["entropy", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: --out {str(out)!r}: {str(afile)!r} is not a directory\n"
        assert ran == [] and afile.read_text() == "kept"

    def test_failed_rerun_leaves_no_stale_outputs(self, tmp_path):
        # the first run's outputs go before the second starts; a file that no
        # manifest lists stays
        out = tmp_path / "e"
        assert run_cli("entropy", out, tmp_path=tmp_path) == 0
        (out / "notes.txt").write_text("kept")
        assert run_cli("entropy", out, extra={"blocks": [[0.5], [0.3, 0.1]]}, tmp_path=tmp_path) == 2
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    def test_rerun_removes_only_listed_plain_files(self, tmp_path):
        out = tmp_path / "e"
        out.mkdir()
        (out / "keep").mkdir()
        (tmp_path / "outside.csv").write_text("kept")
        listed = {"blocks.csv": "0", "keep": "0", "../outside.csv": "0", "keep/../summary.json": "0"}
        (out / "manifest.json").write_text(json.dumps({"outputs": listed}))
        (out / "blocks.csv").write_text("stale")
        cli._remove_previous_outputs(out)
        assert sorted(p.name for p in out.iterdir()) == ["keep"]
        assert (tmp_path / "outside.csv").exists()
        (out / "manifest.json").write_text("not json")
        cli._remove_previous_outputs(out)
        assert sorted(p.name for p in out.iterdir()) == ["keep"]

    def test_canonical_overflowing_shift_is_silent(self, tmp_path):
        # a gap over the ground state, (E - E_min) / T, that overflows to
        # inf weighs exp(-inf) = 0, which is exact: a spread of levels past
        # the float range, or a temperature far below every gap
        cases = [
            ({"energies": [0.0, 1e308, -1e308]}, [0.0, 0.0, 1.0]),
            ({"energies": [0.0, 1.0], "temperature": 1e-320}, [1.0, 0.0]),
            ({"energies": [-1.0, 0.0], "temperature": 1e-320}, [1.0, 0.0]),
        ]
        for i, (config, probs) in enumerate(cases):
            cfg = tmp_path / f"c{i}.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / f"c{i}"
            proc = subprocess.run(
                [sys.executable, "-m", "enslab", "canonical", "--config", str(cfg), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, config
            assert proc.stderr == ""
            rows = (out / "distribution.csv").read_text().split()[1:]
            assert [float(row.split(",")[2]) for row in rows] == probs
            assert json.loads((out / "summary.json").read_text())["kkt_spread"] == 0.0

    def test_solving_past_a_level_over_the_float_range_is_silent(self, tmp_path):
        # while the temperature is solved for, -E/T of the level at 1.7e308
        # overflows to -inf, whose weight exp(-inf) = 0 is exact
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"energies": [0.0, 1.7e308, 3.0], "target_mean_energy": 1e-308}))
        out = tmp_path / "c"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "canonical", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "config, message",
        [
            pytest.param(
                {"spread_scale": 1e300, "tau": 1e10},
                "tau=10000000000.0 at spread scale 1e+300 overflows a spin's phase omega*tau",
                id="phase",
            ),
            pytest.param(
                {"spread_scale": 0.0, "tau": 1e308},
                "tau must be > 0 with a finite echo time 2*tau, got 1e+308",
                id="echo-time",
            ),
            pytest.param(
                {"spread_kind": "uniform", "spread_scale": 1e308},
                "uniform spread scale 1e+308 spans past the float range",
                id="uniform-span",
            ),
            pytest.param(
                {"spread_scale": 1e308},
                "normal spread scale 1e+308 overflows a spin's frequency",
                id="normal-frequency",
            ),
        ],
    )
    def test_spinecho_overflow_exits_two_silently(self, config, message, tmp_path):
        # each overflowed in numpy first: a RuntimeWarning and "phases must
        # be finite", a non-finite echo time, numpy's OverflowError, or a
        # RuntimeWarning and "frequencies must be finite"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "s"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "spinecho", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"invalid configuration: {message}\n"
        assert not out.exists()

    def test_bad_suppression_m_fails_before_any_curve_ensemble(self, tmp_path, monkeypatch, capsys):
        # no apparatus is built: not one of the curve's 200 at M = 100, nor
        # the run's own, which is drawn after the curve
        builds, build = [], measurement.build_apparatus
        monkeypatch.setattr(measurement, "build_apparatus", lambda *a: builds.append(a[0]) or build(*a))
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"n_microstates": 10, "suppression_m": [100, 0]}))
        assert cli.main(["measure", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        assert capsys.readouterr().err == (
            "invalid configuration: suppression curve M=0: apparatus needs at least one microstate\n"
        )
        assert builds == []
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_members", 0, "need at least one ensemble member"),
            ("suppression_seeds", 0, "need at least one seed per curve point"),
            ("suppression_m", [0], "suppression curve M=0: apparatus needs at least one microstate"),
        ],
    )
    def test_measure_keys_fail_before_the_apparatus_is_drawn(self, key, value, message, tmp_path):
        # at 2^50 microstates the run's phase table cannot be allocated; a
        # bad key exits 2 with its own message, not 3 with the table's
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"n_microstates": 2**50, key: value}))
        out = tmp_path / "m"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "measure", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**33, 2**33)),
        )
        assert proc.returncode == 2
        assert proc.stderr == f"invalid configuration: {message}\n"
        assert not out.exists()

    def test_narrow_gaussian_bump_is_silent(self, tmp_path):
        # (k - center) / width squares past the float range off the bump's
        # centre, whose weight exp(-inf) = 0 is exact; the mode at k = 8 keeps
        # the spectrum normalizable
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"spectrum": "gaussian_bump", "center": 8.0, "width": 1e-300}))
        out = tmp_path / "f"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "field", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "config, status",
        [
            pytest.param({"spacing": 1.7e308, "two_point_r": [1e308]}, 2, id="bin-edge"),
            pytest.param({"spacing": 1e308, "isotropy_r": 1e308}, 0, id="isotropy_r"),
            pytest.param({"spacing": 1.7e308}, 2, id="spacing"),
        ],
    )
    def test_separation_bins_at_a_huge_spacing_are_silent(self, config, status, tmp_path):
        # a bin's edge r + s/2 and its offsets' lengths |y| s overflowed the
        # float range: an OverflowError out of main, or numpy's overflow
        # warning. In units of the spacing both stay finite
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "f"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "field", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == status
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.stderr.startswith("invalid configuration: ") if status else proc.stderr == ""

    @pytest.mark.parametrize(
        "subcommand, config, message",
        [
            pytest.param(
                # max - min overflowed to inf, and the temperature bracket,
                # which scales with it, never closed
                "canonical",
                {"energies": [1e308, -1e308], "target_mean_energy": -1.0},
                "energies span inf, past the float range",
                id="canonical-span",
            ),
            pytest.param(
                # the block sum overflowed with numpy's RuntimeWarning first
                "entropy",
                {"blocks": [[1e308, 1e308]]},
                "joint probabilities sum to inf, expected 1 within 1e-12",
                id="entropy-sum",
            ),
        ],
    )
    def test_sum_past_the_float_range_exits_two_silently(self, subcommand, config, message, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", subcommand, "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"invalid configuration: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [
            # the levels' sum overflows, and so did the weighted sum of the
            # bisection: two warnings, then "bisection stalled" (exit 3)
            pytest.param({"energies": [1.7e308, 1.7e308, 1.6e308], "target_mean_energy": 1.65e308}, id="stalled"),
            # the levels' sum overflows: one warning, then exit 0
            pytest.param({"energies": [1e308, 1e308, 0.0], "target_mean_energy": 1.0}, id="warned"),
        ],
    )
    def test_canonical_near_the_float_maximum_is_silent(self, config, tmp_path):
        # a target strictly inside (min, mean) is reachable, although the
        # levels' sum is past the float range
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "canonical", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        summary = json.loads((out / "summary.json").read_text())
        energies, target = config["energies"], config["target_mean_energy"]
        # the solver's final tolerance check, read from the written mean
        span = max(energies) - min(energies)
        assert abs(summary["mean_energy"] - target) <= max(probcore.MEAN_ENERGY_TOL, 1e-12 * span)
        assert 0.0 < summary["temperature"] < math.inf


    @pytest.mark.parametrize(
        "subcommand, config, message",
        [
            pytest.param(
                # variance * side^dim / total overflowed: numpy warned in the
                # multiply and the transform, then "field values must be finite"
                "field",
                {"variance": 1e305},
                "variance=1e+305 overflows the spectrum's normalization on 81^2 points",
                id="field-variance",
            ),
            pytest.param(
                # 1e-12 * span, the bracket's lowest temperature, underflowed
                # to 0: numpy warned at -E / 0, and the run exited 0
                "canonical",
                {"energies": [0.0, 1e-320], "target_mean_energy": 1e-321},
                "energies span 1e-320, too narrow to bracket a temperature",
                id="canonical-subnormal-span",
            ),
        ],
    )
    def test_scale_past_the_float_range_exits_two_silently(self, subcommand, config, message, tmp_path):
        proc, out = run_module(subcommand, config, tmp_path)
        assert proc.returncode == 2
        assert "Warning" not in proc.stderr
        assert proc.stderr == f"invalid configuration: {message}\n"
        assert not out.exists()


def run_module(subcommand, config, tmp_path):
    """``python -m enslab`` in a fresh process: (the completed process, its
    output directory)."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    argv = [sys.executable, "-m", "enslab", subcommand, "--config", str(cfg), "--out", str(out)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60), out


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
        assert 0.0 < summary["diagnostics"]["max_norm_drift"] < 1e-12
        members = (out / "members.csv").read_text().strip().split("\n")
        assert members[0] == "member,seed,fall_time,final_azimuth,sector"
        assert len(members) == 41

    def test_member_seed_is_the_first_word_of_the_member_stream(self, tmp_path):
        # the member is drawn from its SeedSequence, not from this word
        out = tmp_path / "k"
        assert run_cli("cone", out, tmp_path=tmp_path) == 0
        s0 = int(np.random.SeedSequence(11, spawn_key=(0,)).generate_state(1, np.uint64)[0])
        words = [conefall.member_seed_sequence(s0, m).generate_state(1, np.uint64)[0] for m in range(40)]
        rows = (out / "members.csv").read_text().split()[1:]
        assert [int(row.split(",")[1]) for row in rows] == [int(w) for w in words]

    @pytest.mark.parametrize(
        "coefficients, n_micro",
        [
            pytest.param([0.6, 0.8000000000001], 10**13, id="two-over"),
            pytest.param([0.6, 0.8], 2**63 - 1, id="int64-max"),
        ],
    )
    def test_ledger_counts_sum_to_the_microstates(self, coefficients, n_micro, tmp_path):
        # float floors of |c_k|^2 n overshot n: two microstates too many at
        # 10^13, and at 2^63 - 1 an overflow warning as well
        proc, out = run_module("measure", {"coefficients": coefficients, "ledger_n_micro": n_micro}, tmp_path)
        assert proc.returncode == 0 and proc.stderr == ""
        counts = json.loads((out / "summary.json").read_text())["ledger"]["microstate_counts"]
        assert sum(counts) == n_micro and min(counts) >= 0

    def test_cone_energy_drift_beside_norm_drift(self, tmp_path):
        drifts = {}
        for damping in (0.0, 0.05):
            out = tmp_path / f"k{damping}"
            assert run_cli("cone", out, extra={"damping": damping}, tmp_path=tmp_path) == 0
            drifts[damping] = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert sorted(drifts[0.0]) == ["max_energy_drift", "max_norm_drift"]
        assert 0.0 < drifts[0.0]["max_energy_drift"] < 1e-12
        assert drifts[0.05]["max_energy_drift"] is None

    def test_field_sidecar_and_binary(self, tmp_path):
        out = tmp_path / "f"
        assert run_cli("field", out, tmp_path=tmp_path) == 0
        sidecar = json.loads((out / "field.json").read_text())
        raw = np.frombuffer((out / "field.bin").read_bytes(), dtype="<f8")
        assert raw.size == sidecar["side"] ** sidecar["dim"]
        est = (out / "estimates.csv").read_text().strip().split("\n")
        assert est[0] == "query,estimate,mc_sigma,n_samples"

    def test_field_diagnostics(self, tmp_path):
        out = tmp_path / "f"
        assert run_cli("field", out, extra={"variance": 2.0}, tmp_path=tmp_path) == 0
        summary = json.loads((out / "summary.json").read_text())
        diagnostics = summary["diagnostics"]
        assert 0.0 <= diagnostics["fft_rounding_residual"] < 1e-9
        assert diagnostics["variance_ratio"] == summary["sample_variance"] / 2.0
        values = np.fromfile(out / "field.bin", dtype="<f8")
        assert (summary["sample_mean"], summary["sample_variance"]) == (values.mean(), values.var())
        flat = tmp_path / "flat"
        assert run_cli("field", flat, extra={"variance": 0.0}, tmp_path=tmp_path) == 0
        assert json.loads((flat / "summary.json").read_text())["diagnostics"]["variance_ratio"] is None

    def test_one_dimensional_field_skips_isotropy(self, tmp_path):
        # a 1-d lattice has a single direction, so there is no isotropy query
        out = tmp_path / "f1"
        extra = {"dim": 1, "side": 81, "two_point_r": [1.0, 2.0], "isotropy_r": 1.0}
        assert run_cli("field", out, extra=extra, tmp_path=tmp_path) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["isotropy_spread"] is None
        queries = [row.split(",")[0] for row in (out / "estimates.csv").read_text().split()[1:]]
        assert queries == ["one_point", "two_point_r=1", "two_point_r=2"]

    @pytest.mark.parametrize("max_steps", [0, 10])
    def test_cone_where_no_member_falls_exits_zero(self, max_steps, tmp_path):
        # every member unresolved is a result, not a bad config: there is no
        # sector count to test, so the chi-square statistic is null
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"max_steps": max_steps}))
        out = tmp_path / "cone"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "cone", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["chi_square_uniform"] is None
        assert summary["n_unresolved"] == cli.SCHEMAS["cone"]["n_members"][1]
        assert summary["sector_counts"] == [0] * summary["n_sectors"]
        assert summary["fall_time_stats"] == {"count": 0}


POWER_LAW_27 = {
    "dim": 3,
    "side": 27,
    "spectrum": "power_law",
    "index": -3.0,
    "max_level": 3,
    "two_point_r": [1.0, 4.0],
    "isotropy_r": 2.0,
}


def field_config(params, out_dir, seed=5):
    return cli.RunConfig("field", cli.resolve_parameters("field", params), seed, out_dir)


@pytest.fixture(params=[{}, POWER_LAW_27], ids=["default", "power-law-27"])
def manifests_by_cpus(request, tmp_path, monkeypatch):
    """The manifest of one field run on 1, 2 and 3 forced CPUs."""
    manifests = {}
    for cpus in (1, 2, 3):
        force_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.run(field_config(request.param, out)) == 0
        manifests[cpus] = json.loads((out / "manifest.json").read_text())
        for name, digest in manifests[cpus]["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    return manifests


class TestFieldOnEveryCpuCount:
    def test_digests_do_not_depend_on_the_cpu_count(self, manifests_by_cpus):
        outputs = [m["outputs"] for m in manifests_by_cpus.values()]
        assert sorted(outputs[0]) == ["estimates.csv", "field.bin", "field.json", "summary.json"]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_workers_call_no_public_function_and_none_outlives_the_run(self, tmp_path, monkeypatch):
        force_cpus(monkeypatch, 3)
        calls = public_calls_off_the_main_thread(monkeypatch)
        before = threading.active_count()
        assert cli.run(field_config(POWER_LAW_27, tmp_path / "f")) == 0
        assert threading.active_count() == before
        assert calls == []

    def test_small_field_starts_no_thread(self, tmp_path, monkeypatch):
        # a 2-CPU host with the real block floor: the default 81^2 field
        monkeypatch.setattr(_blocks.os, "sched_getaffinity", lambda pid: {0, 1})
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        assert cli.run(field_config({}, tmp_path / "f")) == 0
        assert started == []

    def test_hash_worker_exception_reaches_the_caller(self, tmp_path, monkeypatch):
        force_cpus(monkeypatch, 2)
        before = threading.active_count()
        sha256 = hashlib.sha256

        def failing_off_the_main_thread(data=b""):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError(f"hashing {len(memoryview(data).cast('B'))} bytes")
            return sha256(data)

        monkeypatch.setattr(cli.hashlib, "sha256", failing_off_the_main_thread)
        with pytest.raises(FloatingPointError, match=f"hashing {27**3 * 8} bytes"):
            cli.run(field_config(POWER_LAW_27, tmp_path / "f"))
        assert threading.active_count() == before
        assert not (tmp_path / "f").exists()


# every way the CLI could create, write or delete a file or a directory
FILE_CHANGES = [
    (pathlib.Path, "write_bytes"),
    (pathlib.Path, "write_text"),
    (pathlib.Path, "mkdir"),
    (pathlib.Path, "touch"),
    (pathlib.Path, "unlink"),
    (os, "mkdir"),
    (os, "makedirs"),
]


def is_write_mode(args, kwargs) -> bool:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "r")
    return any(flag in mode for flag in "wax+")


class TestRunnersOnlyCompute:
    @pytest.mark.parametrize("name", sorted(cli.RUNNERS))
    def test_runner_returns_its_outputs_and_touches_no_file(self, name, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a runner touched the file system")

        params = cli.resolve_parameters(name, {})
        for owner, attr in [*FILE_CHANGES, (pathlib.Path, "open"), (builtins, "open")]:
            monkeypatch.setattr(owner, attr, refused)
        summary, outputs = cli.RUNNERS[name](params, 0)
        monkeypatch.undo()
        assert isinstance(summary, dict) and outputs
        for data, digest in outputs.values():
            assert hashlib.sha256(data).hexdigest() == digest

    @staticmethod
    def file_changes(monkeypatch) -> list:
        """A list that records every file or directory the process creates,
        writes or deletes through pathlib, os or open."""
        changes = []

        def spy(fn, name, only_writes=False):
            def wrapped(*args, **kwargs):
                if not only_writes or is_write_mode(args, kwargs):
                    changes.append(name)
                return fn(*args, **kwargs)

            return wrapped

        for owner, attr in FILE_CHANGES:
            monkeypatch.setattr(owner, attr, spy(getattr(owner, attr), attr))
        monkeypatch.setattr(pathlib.Path, "open", spy(pathlib.Path.open, "open", only_writes=True))
        monkeypatch.setattr(builtins, "open", spy(builtins.open, "open", only_writes=True))
        return changes

    @pytest.mark.parametrize(
        "subcommand, params, status",
        [
            pytest.param("field", {**SMALL_CONFIGS["field"], "mean": 1e300}, 3, id="non-finite-summary"),
            pytest.param("entropy", {}, 3, id="numerics-error"),
            pytest.param("field", {"dim": 3, "side": 162, "max_level": 5}, 2, id="config-error"),
        ],
    )
    def test_failed_run_creates_and_writes_nothing(self, subcommand, params, status, tmp_path, monkeypatch):
        def boom(params, seed):
            raise NumericsError("synthetic runtime failure")

        monkeypatch.setitem(cli.RUNNERS, "entropy", boom)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(params))
        changes = self.file_changes(monkeypatch)
        code = cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "a" / "x")])
        monkeypatch.undo()
        assert code == status
        assert changes == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


class TestEntryPoint:
    def test_import_loads_no_pool_or_logging(self):
        # start-up cost paid by every run: numpy does not load these itself;
        # the cone loads mmap only when it runs, and forks without a pool
        names = {"concurrent.futures", "queue", "logging", "multiprocessing", "mmap"}
        code = f"import sys, enslab.cli; print(*sorted({names!r} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == ""

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "enslab", "entropy", "--out", str(out), "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (out / "summary.json").exists()


# Every CLI key, each with a small base config where the key is live and a
# changed value: (subcommand, key, base config, changed value). The base
# config is the subcommand's SMALL_CONFIGS entry updated with the one given.
CONE_QUICK = {"n_members": 20, "dt": 1e-2, "max_steps": 3000}
KEY_CHANGES = [
    ("entropy", "blocks", {}, [[0.4], [0.4, 0.2]]),
    ("field", "dim", {}, 1),
    ("field", "side", {}, 81),
    ("field", "mean", {}, 1.0),
    ("field", "variance", {}, 2.0),
    ("field", "spectrum", {}, "power_law"),
    ("field", "index", {"spectrum": "power_law"}, -3.0),
    ("field", "center", {"spectrum": "gaussian_bump"}, 4.0),
    ("field", "width", {"spectrum": "gaussian_bump"}, 1.0),
    ("field", "cutoff", {}, 4.0),
    ("field", "spacing", {}, 0.5),
    ("field", "interval", {}, [0.0, 1.0]),
    ("field", "max_level", {}, 2),
    ("field", "two_point_r", {}, [2.0]),
    ("field", "isotropy_r", {}, 2.0),
    ("canonical", "energies", {}, [0.0, 2.0]),
    ("canonical", "temperature", {}, 2.0),
    ("canonical", "target_mean_energy", {}, 0.25),
    ("measure", "coefficients", {}, [0.8, 0.6]),
    ("measure", "n_microstates", {}, 1000),
    ("measure", "n_members", {}, 3000),
    ("measure", "ledger_n_micro", {}, 256),
    ("measure", "suppression_m", {}, [50, 200]),
    ("measure", "suppression_seeds", {}, 30),
    ("cone", "tilt_center", CONE_QUICK, 0.015),
    ("cone", "tilt_radius", CONE_QUICK, 0.005),
    ("cone", "azimuth_center", CONE_QUICK, 1.0),
    ("cone", "azimuth_radius", CONE_QUICK, 1.0),
    ("cone", "tilt_momentum_radius", CONE_QUICK, 0.02),
    ("cone", "azimuth_momentum_radius", CONE_QUICK, 1e-3),
    ("cone", "n_members", CONE_QUICK, 21),
    ("cone", "n_sectors", CONE_QUICK, 5),
    ("cone", "fall_threshold", CONE_QUICK, 0.8),
    ("cone", "dt", CONE_QUICK, 5e-3),
    ("cone", "max_steps", {**CONE_QUICK, "max_steps": 500}, 600),
    ("cone", "damping", CONE_QUICK, 0.5),
    ("spinecho", "n", {}, 600),
    ("spinecho", "spread_kind", {}, "uniform"),
    ("spinecho", "spread_scale", {}, 2.0),
    ("spinecho", "tau", {}, 12.0),
    ("spinecho", "n_bins", {}, 16),
    ("spinecho", "samples_per_leg", {}, 12),
]
# keys that change only their own echo, each with where its removal is planned
KNOWN_DEAD_KEYS: dict = {}
# summary.json entries that only repeat a key, and a file that repeats the
# field's config: a change there shows the key was read, not that it was used
ECHOED_ENTRIES = {"M", "seed", "tau", "n_bins", "n_sectors", "interval"}
ECHO_FILES = {"manifest.json", "field.json"}


def results(subcommand, config, out_dir, tmp_path):
    """The outputs of a run with ``config`` on top of the small config,
    less the manifest and every echo of the config."""
    assert run_cli(subcommand, out_dir, extra=config, tmp_path=tmp_path) == 0
    out = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name not in ECHO_FILES}
    summary = json.loads(out.pop("summary.json"))
    out["summary.json"] = {k: v for k, v in summary.items() if k not in ECHOED_ENTRIES}
    return out


class TestEveryKeyIsLive:
    def test_the_table_names_every_key(self):
        named = [(sub, key) for sub, key, _, _ in KEY_CHANGES] + list(KNOWN_DEAD_KEYS)
        assert sorted(named) == sorted((sub, key) for sub, schema in cli.SCHEMAS.items() for key in schema)

    @pytest.mark.parametrize(
        "subcommand, key, base, changed", KEY_CHANGES, ids=[f"{sub}.{key}" for sub, key, _, _ in KEY_CHANGES]
    )
    def test_changing_a_key_changes_an_output(self, subcommand, key, base, changed, tmp_path):
        assert base.get(key, SMALL_CONFIGS[subcommand].get(key)) != changed
        before = results(subcommand, base, tmp_path / "a", tmp_path)
        after = results(subcommand, {**base, key: changed}, tmp_path / "b", tmp_path)
        assert before != after


# The contract fuzz's values. Each key draws from a small valid range, where
# every run ends well under a second, or from the edge values below, written
# as JSON literals: the float maximum among them, and an edge inside a list.
# Sizes between about 10^6 and 2^62 are left out: in-process they can
# allocate gigabytes, and test_unallocatable_size_exits_three covers
# allocation failure under RLIMIT_AS.
EDGE_LITERALS = [
    "0", "-1", "5e-324", "1e308", "-1e308", "NaN", "Infinity", "-Infinity",
    str(2**62), str(2**63 - 513), str(2**63 - 1), str(2**63),
    '"x"', "[1]", "null", "true", "[1e308]", "1.7976931348623157e308",
]  # fmt: skip


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def _numbers(lo, hi, min_size=1):
    return st.lists(_floats(lo, hi), min_size=min_size, max_size=4)


FUZZ_RANGES = {
    "entropy": {"blocks": st.lists(_numbers(0.0, 1.0), min_size=1, max_size=3)},
    "field": {
        "dim": st.integers(1, 3),
        "side": st.integers(1, 60),
        "mean": _floats(-10.0, 10.0),
        "variance": _floats(0.0, 10.0),
        "spectrum": st.sampled_from(randomfield.SPECTRUM_KINDS),
        "index": _floats(-4.0, 0.0),
        "center": _floats(0.0, 10.0),
        "width": _floats(0.0, 5.0),
        "cutoff": _floats(0.0, 10.0),
        "spacing": _floats(0.1, 3.0),
        "interval": _numbers(-3.0, 3.0, min_size=2).map(lambda v: sorted(v[:2])),
        "max_level": st.integers(0, 4),
        "two_point_r": _numbers(0.0, 5.0, min_size=0),
        "isotropy_r": _floats(0.0, 5.0),
    },
    "canonical": {
        "energies": _numbers(-5.0, 5.0),
        "temperature": _floats(0.01, 10.0),
        "target_mean_energy": _floats(-5.0, 5.0),
    },
    "measure": {
        "coefficients": st.one_of(st.sampled_from([[0.6, 0.8], [1.0, 0.0], [[0.0, 0.6], 0.8]]), _numbers(-1.0, 1.0)),
        "n_microstates": st.integers(1, 1000),
        "n_members": st.integers(1, 5000),
        "ledger_n_micro": st.integers(1, 1000),
        "suppression_m": st.lists(st.integers(1, 1000), max_size=3),
        "suppression_seeds": st.integers(1, 30),
    },
    "cone": {
        "tilt_center": _floats(0.0, 0.5),
        "tilt_radius": _floats(0.0, 0.5),
        "azimuth_center": _floats(0.0, 7.0),
        "azimuth_radius": _floats(0.0, 4.0),
        "tilt_momentum_radius": _floats(0.0, 0.1),
        "azimuth_momentum_radius": _floats(0.0, 0.01),
        "n_members": st.integers(1, 40),
        "n_sectors": st.integers(1, 16),
        "fall_threshold": _floats(0.1, 1.5),
        "dt": _floats(1e-3, 0.1),
        "max_steps": st.integers(0, 20_000),
        "damping": _floats(0.0, 1.0),
    },
    "spinecho": {
        "n": st.integers(1, 2000),
        "spread_kind": st.sampled_from(spinecho.SPREAD_KINDS),
        "spread_scale": _floats(0.0, 5.0),
        "tau": _floats(0.1, 100.0),
        "n_bins": st.integers(2, 64),
        "samples_per_leg": st.integers(1, 30),
    },
}
# A huge max_steps with a tiny dt can run without bound: no dt that small
# reaches a fall, and every step is taken (ROADMAP item 3's open question).
# So max_steps draws no edge integer above 20,000.
BOUNDED_KEYS = {("cone", "max_steps")}


def _literal(subcommand, key):
    edges = EDGE_LITERALS
    if (subcommand, key) in BOUNDED_KEYS:
        edges = [e for e in edges if not e.isdigit() or int(e) <= 20_000]
    return st.one_of(FUZZ_RANGES[subcommand][key].map(json.dumps), st.sampled_from(edges))


@st.composite
def fuzzed_configs(draw):
    """(subcommand, config JSON): a SMALL_CONFIGS base with one to three keys
    replaced."""
    subcommand = draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    keys = draw(st.permutations(sorted(cli.SCHEMAS[subcommand])))[: draw(st.integers(1, 3))]
    config = {key: json.dumps(value) for key, value in SMALL_CONFIGS[subcommand].items()}
    config.update({key: draw(_literal(subcommand, key)) for key in keys})
    return subcommand, "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in config.items()) + "}"


class TestContractFuzz:
    def test_the_ranges_name_every_key(self):
        assert {sub: sorted(keys) for sub, keys in FUZZ_RANGES.items()} == {
            sub: sorted(schema) for sub, schema in cli.SCHEMAS.items()
        }

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(fuzzed_configs())
    def test_every_config_keeps_the_contract(self, case):
        # exit 0, 2 or 3; no exception out of main; no traceback or warning
        # on stderr; a failed run leaves no directory, and a run that
        # succeeds writes a manifest whose digests match its files
        subcommand, text = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = pathlib.Path(tmp, "c.json"), pathlib.Path(tmp, "out")
            cfg.write_text(text)
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                status = cli.main([subcommand, "--config", str(cfg), "--out", str(out), "--seed", "3"])
            assert status in (0, 2, 3)
            assert "Traceback" not in stderr.getvalue() and "Warning" not in stderr.getvalue()
            if status != 0:
                assert not out.exists()
                return
            manifest = json.loads((out / "manifest.json").read_bytes())
            written = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir() if p.name != "manifest.json"
            }
            assert manifest["outputs"] == written
