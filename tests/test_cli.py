import json
import os
import subprocess
import sys

import pytest

import manoma.cli as cli

from manoma.cli import CSV_HEADER, main
from manoma.sim import SCHEMES

FAST_CONFIG = """
# small scenario for quick runs
num_users = 2
paths_per_user = 2
realizations = 2
seed = 11
sca_max_iterations = 60
"""


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


# --- validate ---


def test_validate_echoes_defaults(capsys):
    code, out, err = run_cli(["validate"], capsys)
    assert code == 0
    assert 'num_users = 6' in out
    assert 'paths_per_user = 5' in out
    assert 'p_max = "10.0 dBm"' in out
    assert 'noise = "-80.0 dBm"' in out
    assert "pathloss_exponent = 3.9" in out
    assert 'distance_range = "[80.0, 100.0] m"' in out
    assert 'region_side = "2.0 wavelengths"' in out
    assert 'r_min = "0.25 bps/Hz"' in out
    assert "realizations = 1000" in out
    assert "seed = 0" in out


def test_validate_output_round_trips(tmp_path, capsys):
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 0
    echo = tmp_path / "echo.cfg"
    echo.write_text(out)
    code2, out2, _ = run_cli(["validate", "--config", str(echo)], capsys)
    assert code2 == 0
    assert out2 == out


def test_validate_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frequency = 5\n")
    code, _, err = run_cli(["validate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "frequency" in err


def test_validate_rejects_zero_users(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("num_users = 0\n")
    code, _, err = run_cli(["validate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "num_users" in err


def test_validate_rejects_reversed_distance_range(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text('distance_range = "[100, 80] m"\n')
    code, _, err = run_cli(["validate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "min <= max" in err


def test_validate_requires_unit_suffix(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("noise = 1e-8\n")
    code, _, err = run_cli(["validate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "dBm" in err


def test_validate_rejects_missing_file(capsys):
    code, _, err = run_cli(["validate", "--config", "/no/such/file.cfg"], capsys)
    assert code == 2
    assert "/no/such/file.cfg" in err


# --- optimize ---


def test_optimize_single_user_full_power(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text('num_users = 1\npaths_per_user = 2\nr_min = "0 bps/Hz"\nseed = 3\n')
    code, out, _ = run_cli(["optimize", "--config", str(cfg)], capsys)
    assert code == 0
    assert "sum rate:" in out
    # single user is decoded first and transmits at the 10 mW cap
    row = out.splitlines()[2]
    fields = row.split()
    assert fields[0] == "1"
    assert fields[6] == "10"


def test_optimize_is_deterministic(fast_config, capsys):
    _, out1, _ = run_cli(["optimize", "--config", fast_config], capsys)
    _, out2, _ = run_cli(["optimize", "--config", fast_config], capsys)
    assert out1 == out2


def test_optimize_infeasible_exit_code(tmp_path, capsys):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text('num_users = 4\npaths_per_user = 2\nr_min = "8 bps/Hz"\nseed = 1\n')
    code, out, _ = run_cli(["optimize", "--config", str(cfg)], capsys)
    assert code == 3
    assert "infeasible" in out


# --- sweep ---


def test_sweep_row_count_and_schema(fast_config, tmp_path, capsys):
    out_csv = tmp_path / "one_point.csv"
    code, out, err = run_cli(
        ["sweep", "--config", fast_config, "--points", "10", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(SCHEMES)
    for line, scheme in zip(lines[1:], SCHEMES):
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[0] == "10"
        assert fields[1] == scheme
        assert fields[5] == "2"
        assert fields[6] == "11"
        # numeric fields parse and reformat to the same bytes (no hidden
        # precision loss in the writer)
        for value in (fields[2], fields[3], fields[4]):
            assert f"{float(value):.12g}" == value
    assert "point 1/1" in err
    assert str(out_csv) in out


def test_sweep_same_config_is_byte_identical(fast_config, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run_cli(
            ["sweep", "--config", fast_config, "--points", "5,10", "--out", str(target)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_worker_count_invariance(fast_config, tmp_path, capsys):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    base = ["sweep", "--config", fast_config, "--points", "10", "--realizations", "4"]
    assert run_cli(base + ["--out", str(a), "--workers", "1"], capsys)[0] == 0
    assert run_cli(base + ["--out", str(b), "--workers", "2"], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_manifest_replay_reproduces_csv(fast_config, tmp_path, capsys):
    first = tmp_path / "first.csv"
    code, _, _ = run_cli(
        [
            "sweep",
            "--config",
            fast_config,
            "--sweep",
            "users",
            "--points",
            "1,2",
            "--out",
            str(first),
        ],
        capsys,
    )
    assert code == 0
    manifest_path = str(first) + ".manifest.json"
    manifest = json.loads(open(manifest_path).read())
    assert manifest["sweep"] == "users"
    assert manifest["points"] == [1, 2]
    assert manifest["config"]["seed"] == "11"

    replay = tmp_path / "replay.csv"
    code, _, _ = run_cli(["sweep", "--config", manifest_path, "--out", str(replay)], capsys)
    assert code == 0
    assert replay.read_bytes() == first.read_bytes()


def test_sweep_users_points_must_be_integers(fast_config, tmp_path, capsys):
    code, _, err = run_cli(
        [
            "sweep",
            "--config",
            fast_config,
            "--sweep",
            "users",
            "--points",
            "2.5,4",
            "--out",
            str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 2
    assert "integers" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_nonpositive_workers(fast_config, tmp_path, capsys, monkeypatch, workers):
    def no_compute(*args, **kwargs):
        raise AssertionError("the sweep ran despite an invalid worker count")

    monkeypatch.setattr(cli, "sweep_power", no_compute)
    out_csv = tmp_path / "never.csv"
    code, _, err = run_cli(
        ["sweep", "--config", fast_config, "--out", str(out_csv), "--workers", workers], capsys
    )
    assert code == 2
    assert "--workers" in err
    assert workers in err
    assert not out_csv.exists()
    assert not (tmp_path / "never.csv.manifest.json").exists()


def test_import_leaves_scipy_optimize_unloaded():
    # The LP oracle is the only user of scipy.optimize; loading it eagerly
    # used to dominate the CLI's start-up time.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, manoma.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.strip() == "False"


def test_sweep_unwritable_output_is_io_error(fast_config, capsys):
    code, _, err = run_cli(
        ["sweep", "--config", fast_config, "--points", "10", "--out", "/no/such/dir/out.csv"],
        capsys,
    )
    assert code == 4
    assert "/no/such/dir/out.csv" in err


def test_seed_flag_overrides_config(fast_config, tmp_path, capsys):
    out_csv = tmp_path / "seeded.csv"
    code, _, _ = run_cli(
        [
            "sweep",
            "--config",
            fast_config,
            "--points",
            "10",
            "--seed",
            "99",
            "--out",
            str(out_csv),
        ],
        capsys,
    )
    assert code == 0
    for line in out_csv.read_text().splitlines()[1:]:
        assert line.split(",")[6] == "99"
