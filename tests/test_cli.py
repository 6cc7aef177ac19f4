import errno
import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import manoma.cli as cli
import manoma.sim as sim

from manoma.cli import CSV_HEADER, main, serialize_config
from manoma.sim import SCHEMES, ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = ROOT / "perfbench" / "reference"
PINNED_DIR = ROOT / "tests" / "reference"

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


@pytest.mark.parametrize(
    "line",
    [
        'p_max = "nan dBm"',
        'noise = "inf dBm"',
        'r_min = "inf bps/Hz"',
        'distance_range = "[1, inf] m"',
        'region_side = "nan wavelengths"',
        "sca_threshold = nan",
        "pathloss_exponent = inf",
    ],
)
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(["validate", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    key = line.split(" = ")[0]
    assert err.startswith(f"config error: {key}: expected a finite number")


@pytest.mark.parametrize(
    "line", ["sca_threshold = -1", "sca_max_iterations = 0", "multistart = -1"]
)
def test_validate_names_the_sca_config_key(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(["validate", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    key = line.split(" = ")[0]
    assert err.startswith(f"config error: {key} must be")


def test_readme_defaults_table_matches_schema():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", readme, flags=re.MULTILINE)
    assert rows == list(serialize_config(ScenarioConfig()).items())


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
    manifest = json.loads(Path(manifest_path).read_text())
    assert manifest["sweep"] == "users"
    assert manifest["points"] == [1, 2]
    assert manifest["config"]["seed"] == "11"

    replay = tmp_path / "replay.csv"
    code, _, _ = run_cli(["sweep", "--config", manifest_path, "--out", str(replay)], capsys)
    assert code == 0
    assert replay.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("points", [["x"], [10.0, float("nan")]])
def test_manifest_points_are_validated(fast_config, tmp_path, capsys, monkeypatch, points):
    first = tmp_path / "first.csv"
    argv = ["sweep", "--config", fast_config, "--points", "10", "--out", str(first)]
    assert run_cli(argv, capsys)[0] == 0
    manifest_path = tmp_path / "edited.json"
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    manifest["points"] = points
    manifest_path.write_text(json.dumps(manifest))  # NaN is written as the bare token NaN

    def no_compute(*args, **kwargs):
        raise AssertionError("the sweep ran despite invalid manifest points")

    monkeypatch.setattr(cli, "sweep_power", no_compute)
    replay = tmp_path / "replay.csv"
    code, _, err = run_cli(["sweep", "--config", str(manifest_path), "--out", str(replay)], capsys)
    assert code == 2
    assert "points: expected a" in err
    assert not replay.exists()


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


def test_sweep_users_points_must_be_positive(fast_config, tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("the sweep ran despite a user count below 1")

    monkeypatch.setattr(cli, "sweep_users", no_compute)
    out_csv = tmp_path / "never.csv"
    argv = ["sweep", "--config", fast_config, "--sweep", "users", "--points", "0,2"]
    code, _, err = run_cli([*argv, "--out", str(out_csv)], capsys)
    assert code == 2
    assert "config error: --points:" in err
    assert not out_csv.exists()


def test_users_sweep_compute_errors_are_not_config_errors(fast_config, tmp_path, monkeypatch):
    # Only bad input exits 2; a failure inside the compute propagates as it is.
    def failing_solve(*args, **kwargs):
        raise ValueError("failure inside the compute")

    monkeypatch.setattr(sim, "solve", failing_solve)
    argv = ["sweep", "--config", fast_config, "--sweep", "users", "--points", "2"]
    with pytest.raises(ValueError, match="failure inside the compute"):
        main([*argv, "--out", str(tmp_path / "x.csv")])


def test_flat_json_config_is_rejected(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"num_users": "2"}))
    code, _, err = run_cli(["validate", "--config", str(path)], capsys)
    assert code == 2
    assert f"config error: {path}: a JSON config must be a sweep manifest" in err


def test_sweep_rejects_non_finite_power_points(fast_config, tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("the sweep ran despite a non-finite power point")

    monkeypatch.setattr(cli, "sweep_power", no_compute)
    out_csv = tmp_path / "never.csv"
    code, _, err = run_cli(
        ["sweep", "--config", fast_config, "--points", "10,nan", "--out", str(out_csv)], capsys
    )
    assert code == 2
    assert "--points: expected a finite number" in err
    assert not out_csv.exists()


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


def _run_python(*args):
    """Run a fresh interpreter that imports manoma from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_import_leaves_scipy_optimize_unloaded():
    # The LP oracle is the only user of scipy.optimize; loading it eagerly
    # used to dominate the CLI's start-up time. The process pool is loaded
    # only by runs with more than one worker.
    modules = ("scipy.optimize", "concurrent.futures.process")
    probe = f"import sys, manoma.cli; print([m in sys.modules for m in {modules!r}])"
    assert _run_python("-c", probe).stdout.strip() == "[False, False]"


def test_sweep_runs_without_scipy(fast_config, tmp_path, capsys):
    # scipy is a test-only dependency: without it a one-worker sweep writes
    # the same CSV, loads no process pool, and only the LP oracle fails.
    probe = """
import sys
sys.modules["scipy"] = sys.modules["scipy.optimize"] = None
import manoma.cli, manoma.noma
assert manoma.cli.main(sys.argv[1:]) == 0
print("concurrent.futures.process" in sys.modules)
try:
    manoma.noma.brute_force_allocation([1.0], [0.5], 1.0, 1.0)
except ImportError:
    print("ImportError")
"""
    args = ["sweep", "--config", fast_config, "--points", "10", "--out"]
    done = _run_python("-c", probe, *args, str(tmp_path / "no_scipy.csv"))
    assert done.stdout.splitlines()[-2:] == ["False", "ImportError"]
    assert run_cli([*args, str(tmp_path / "with_scipy.csv")], capsys)[0] == 0
    assert filecmp.cmp(tmp_path / "no_scipy.csv", tmp_path / "with_scipy.csv", shallow=False)


def test_sweep_rejects_overflowing_r_min_before_compute(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("the sweep ran despite an invalid r_min")

    monkeypatch.setattr(cli, "sweep_power", no_compute)
    cfg = tmp_path / "run.cfg"
    cfg.write_text('r_min = "1100 bps/Hz"\n')
    out_csv = tmp_path / "never.csv"
    code, _, err = run_cli(["sweep", "--config", str(cfg), "--out", str(out_csv)], capsys)
    assert code == 2
    assert err.startswith("config error: r_min")
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["validate", "sweep", "optimize"])
@pytest.mark.parametrize(
    "line, prefix",
    [
        ('noise = "-4000 dBm"', "noise must be positive and finite in mW"),  # 0 mW
        ('noise = "4000 dBm"', "noise must be positive and finite in mW"),  # overflows
        ('p_max = "3090 dBm"', "p_max must be finite in mW"),
        # The path gain distance**-pathloss_exponent overflows, then underflows twice.
        ('distance_range = "[1e-100, 1e-100] m"', "distance_range and pathloss_exponent"),
        ('distance_range = "[1e100, 1e100] m"', "distance_range and pathloss_exponent"),
        ("pathloss_exponent = 400", "distance_range and pathloss_exponent"),
    ],
)
def test_unrepresentable_values_fail_at_config_time(
    tmp_path, capsys, monkeypatch, command, line, prefix
):
    def no_compute(*args, **kwargs):
        raise AssertionError("the command computed despite an unrepresentable config value")

    monkeypatch.setattr(cli, "sweep_power", no_compute)
    monkeypatch.setattr(cli, "draw_users", no_compute)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\nrealizations = 1\n")
    out_csv = tmp_path / "never.csv"
    argv = [command, "--config", str(cfg)] + (["--out", str(out_csv)] if command == "sweep" else [])
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {prefix}")
    assert not out_csv.exists()


@pytest.mark.parametrize("points", ["3090", "10,3090"])
def test_sweep_rejects_power_points_too_large_for_a_float(
    fast_config, tmp_path, capsys, monkeypatch, points
):
    def no_compute(*args, **kwargs):
        raise AssertionError("the sweep ran despite a power point too large for a float")

    monkeypatch.setattr(cli, "sweep_power", no_compute)
    out_csv = tmp_path / "never.csv"
    code, _, err = run_cli(
        ["sweep", "--config", fast_config, "--points", points, "--out", str(out_csv)], capsys
    )
    assert code == 2
    assert err.startswith("config error: --points: power points must be finite in mW, got '3090'")
    assert not out_csv.exists()


def test_sweep_unwritable_output_is_io_error(fast_config, capsys):
    code, _, err = run_cli(
        ["sweep", "--config", fast_config, "--points", "10", "--out", "/no/such/dir/out.csv"],
        capsys,
    )
    assert code == 4
    assert "/no/such/dir/out.csv" in err


@pytest.mark.parametrize("out", ["missing/out.csv", "."])
def test_sweep_checks_output_path_before_compute(
    fast_config, tmp_path, capsys, monkeypatch, out
):
    def no_compute(*args, **kwargs):
        raise AssertionError("the sweep ran although its output cannot be written")

    monkeypatch.setattr(cli, "sweep_power", no_compute)
    out_path = tmp_path / out
    code, _, err = run_cli(["sweep", "--config", fast_config, "--out", str(out_path)], capsys)
    assert code == 4
    assert str(out_path) in err
    assert list(tmp_path.iterdir()) == [tmp_path / "fast.cfg"]


@pytest.mark.parametrize("earlier_run", [False, True], ids=["fresh", "over_earlier_run"])
def test_failed_manifest_write_leaves_outputs_untouched(
    fast_config, tmp_path, capsys, monkeypatch, earlier_run
):
    out_csv = tmp_path / "out.csv"
    manifest = tmp_path / "out.csv.manifest.json"
    if earlier_run:
        out_csv.write_text("earlier csv\n")

    def partial_write(path, content):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{")
        raise OSError(errno.ENOSPC, "No space left on device", path)

    monkeypatch.setattr(cli, "_write_manifest", partial_write)
    code, _, err = run_cli(
        ["sweep", "--config", fast_config, "--points", "10", "--out", str(out_csv)], capsys
    )
    assert code == 4
    assert f"cannot write {manifest}: No space left on device" in err
    assert not manifest.exists()
    if earlier_run:
        assert out_csv.read_text() == "earlier csv\n"
    else:
        assert not out_csv.exists()
    # No temporary file is left behind either.
    expected = {"fast.cfg", "out.csv"} if earlier_run else {"fast.cfg"}
    assert {path.name for path in tmp_path.iterdir()} == expected


@pytest.mark.parametrize(
    "reference, config, flags",
    [
        ("power_sweep-n2-seed0.csv", "", ["--realizations", "2"]),
        (
            "dense_power_k32-n1-seed0.csv",
            'num_users = 32\nr_min = "0.1 bps/Hz"\n',
            ["--realizations", "1", "--points", ",".join(f"{0.25 * i:g}" for i in range(81))],
        ),
        (
            "multistart_w2-n2-seed0.csv",
            "multistart = 10\n",
            ["--workers", "2", "--realizations", "2"],
        ),
    ],
    ids=["power_sweep", "dense_power_k32", "multistart_w2"],
)
def test_sweep_reproduces_reference_csv(tmp_path, capsys, reference, config, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(
        ["sweep", "--config", str(cfg), "--seed", "0", "--out", str(out_csv), *flags], capsys
    )
    assert code == 0
    assert filecmp.cmp(out_csv, REFERENCE_DIR / reference, shallow=False)


def test_users_sweep_reproduces_pinned_csv(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    argv = ["sweep", "--sweep", "users", "--points", "1,3,6", "--realizations", "4"]
    code, _, _ = run_cli([*argv, "--out", str(out_csv)], capsys)
    assert code == 0
    assert filecmp.cmp(out_csv, PINNED_DIR / "users_sweep-n4-seed0.csv", shallow=False)


def test_optimize_reproduces_pinned_output(capsys):
    code, out, _ = run_cli(["optimize"], capsys)
    assert code == 0
    assert out.encode() == (PINNED_DIR / "optimize-default.txt").read_bytes()


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
