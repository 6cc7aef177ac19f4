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
    "text, message",
    [
        ("num_users 6", "line 1: expected `key = value`, got 'num_users 6'"),
        ("= 6", "line 1: missing key before '='"),
        ("seed = 1\nseed = 2", "line 2: duplicate key 'seed'"),
        ("num_users = 2.5", "num_users: expected an integer, got '2.5'"),
        ('distance_range = "80, 100 m"', 'distance_range: expected a range like "[80.0, 100.0] m"'),
        ('distance_range = "[80, 100] wavelengths"', "distance_range: expected a range like"),
    ],
    ids=["no-equals", "no-key", "duplicate-key", "fractional-count", "range-form", "range-unit"],
)
def test_validate_rejects_malformed_config_text(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    code, out, err = run_cli(["validate", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {message}")


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
    # One summary line after the sweep: the largest infeasible fraction, the
    # first row in CSV order on a tie.
    worst = max((line.split(",") for line in lines[1:]), key=lambda f: float(f[4]))
    assert err.splitlines()[-1] == (
        f"largest infeasible fraction {worst[4]}: {worst[1]} at power={worst[0]}"
    )
    assert str(out_csv) in out


def test_sweep_goes_through_the_wrapped_cli_names(fast_config, tmp_path, capsys, monkeypatch):
    # The benchmark times a sweep by wrapping these three cli names, so
    # cmd_sweep must call each of them, once, through the module.
    calls = {}
    for name in ("resolve_config", "sweep_power", "write_sweep_csv"):
        def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    out_csv = tmp_path / "spied.csv"
    code, _, _ = run_cli(
        ["sweep", "--config", fast_config, "--points", "10", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert calls == {"resolve_config": 1, "sweep_power": 1, "write_sweep_csv": 1}


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
    # The CSV is the one results table: the manifest holds the replay recipe
    # and the run's metadata only.
    assert list(manifest) == [
        "artifact", "version", "command", "sweep", "points", "workers",
        "duration_seconds", "csv", "config",
    ]

    replay = tmp_path / "replay.csv"
    code, _, _ = run_cli(["sweep", "--config", manifest_path, "--out", str(replay)], capsys)
    assert code == 0
    assert replay.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("points", [["x"], [10.0, float("nan")], "0,10"])
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


def test_manifest_sweep_axis_is_validated_naming_its_key(fast_config, tmp_path, capsys):
    # It used to blame --sweep, a flag that argparse's choices already guard.
    first = tmp_path / "first.csv"
    argv = ["sweep", "--config", fast_config, "--points", "10", "--out", str(first)]
    assert run_cli(argv, capsys)[0] == 0
    manifest_path = tmp_path / "edited.json"
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    manifest["sweep"] = "bogus"
    manifest_path.write_text(json.dumps(manifest))
    replay = tmp_path / "replay.csv"
    code, _, err = run_cli(["sweep", "--config", str(manifest_path), "--out", str(replay)], capsys)
    assert code == 2
    assert err == "config error: sweep: expected 'power' or 'users', got 'bogus'\n"
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


def _run_python(*args, env=()):
    """Run a fresh interpreter that imports manoma from this checkout, with
    the variables in env added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env={**os.environ, **dict(env), "PYTHONPATH": path},
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
import manoma.cli, manoma.oracles
assert manoma.cli.main(sys.argv[1:]) == 0
print("concurrent.futures.process" in sys.modules)
try:
    manoma.oracles.brute_force_allocation([1.0], [0.5], 1.0, 1.0)
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
        # A path gain of 6.3e-32: every gain would fall under noma.GAIN_FLOOR.
        ('distance_range = "[1e8, 1e8] m"', "distance_range and pathloss_exponent"),
        # Finite sides whose phase 2 pi side overflows: the positioner used to
        # warn at 5e307 and fail on a NaN position at 1e308.
        ('region_side = "5e307 wavelengths"', "region_side must be finite and nonnegative"),
        ('region_side = "1e308 wavelengths"', "region_side must be finite and nonnegative"),
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
    assert err.startswith("config error: --points: power point must be finite in mW, got 3090.0")
    assert not out_csv.exists()


class _Ran(Exception):
    """Raised in place of a sweep's compute, carrying the points it got."""


@pytest.mark.parametrize(
    "sweep, text",
    [
        ("users", "4.0"),
        ("users", "1e1"),
        ("users", "2.5"),
        ("users", "0"),
        ("power", "20"),
        ("power", "3090"),
        ("power", "1e300"),
    ],
)
def test_sweep_points_are_judged_by_the_library_rule(
    fast_config, tmp_path, capsys, monkeypatch, sweep, text
):
    # The library's verdict on [float(text)], with its compute replaced.
    def no_compute(cfg, counts, p_max_dbm_values, workers):
        raise _Ran(list(counts if sweep == "users" else p_max_dbm_values))

    monkeypatch.setattr(sim, "_collect", no_compute)
    library = sim.sweep_users if sweep == "users" else sim.sweep_power
    cfg = cli.resolve_config(cli.load_config(fast_config).raw)
    try:
        library(cfg, [float(text)])
    except _Ran as ran:
        accepted, message = ran.args[0], None
    except ValueError as exc:
        accepted, message = None, str(exc)

    def spy(cfg, points, workers):
        raise _Ran(points)

    monkeypatch.setattr(cli, "sweep_users", spy)
    monkeypatch.setattr(cli, "sweep_power", spy)
    argv = ["sweep", "--config", fast_config, "--sweep", sweep, "--points", text]
    argv += ["--out", str(tmp_path / "x.csv")]
    if message is not None:
        # A call to the spy would raise _Ran out of main.
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (2, f"config error: --points: {message}\n")
    else:
        with pytest.raises(_Ran) as ran:
            main(argv)
        points = ran.value.args[0]
        assert points == accepted
        assert [type(p) for p in points] == [type(p) for p in accepted]


def test_sweep_unwritable_output_is_io_error(fast_config, capsys):
    code, _, err = run_cli(
        ["sweep", "--config", fast_config, "--points", "10", "--out", "/no/such/dir/out.csv"],
        capsys,
    )
    assert code == 4
    assert "/no/such/dir/out.csv" in err


def test_sweep_unwritable_directory_is_io_error(fast_config, tmp_path, capsys, monkeypatch):
    # Root may write anywhere, so the permission answer is faked.
    def no_compute(*args, **kwargs):
        raise AssertionError("the sweep ran although its output cannot be written")

    monkeypatch.setattr(cli, "sweep_power", no_compute)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    out_path = tmp_path / "out.csv"
    code, _, err = run_cli(["sweep", "--config", fast_config, "--out", str(out_path)], capsys)
    assert code == 4
    assert err == f"i/o error: cannot write {out_path}: directory {tmp_path} is not writable\n"
    assert not out_path.exists()


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


@pytest.mark.parametrize(
    "out, manifest_dir, problem",
    [
        ("out.csv", True, "out.csv.manifest.json: it is a directory"),
        ("", False, ": an empty path names no file"),
    ],
    ids=["manifest-is-a-directory", "empty-out"],
)
def test_sweep_judges_both_outputs_before_compute(
    fast_config, tmp_path, capsys, monkeypatch, out, manifest_dir, problem
):
    # The sweep used to run first and fail only on writing, and a manifest
    # path that is a directory left the new CSV in place without it.
    def no_compute(*args, **kwargs):
        raise AssertionError("the sweep ran although its outputs cannot be written")

    monkeypatch.setattr(cli, "sweep_power", no_compute)
    monkeypatch.chdir(tmp_path)
    if manifest_dir:
        (tmp_path / f"{out}.manifest.json").mkdir()
    before = sorted(tmp_path.iterdir())
    code, _, err = run_cli(["sweep", "--config", fast_config, "--out", out], capsys)
    assert (code, err) == (4, f"i/o error: cannot write {problem}\n")
    assert sorted(tmp_path.iterdir()) == before


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


REFERENCE_SWEEPS = [
    pytest.param("power_sweep-n2-seed0.csv", "", ["--realizations", "2"], id="power_sweep"),
    pytest.param(
        "dense_power_k32-n1-seed0.csv",
        'num_users = 32\nr_min = "0.1 bps/Hz"\n',
        ["--realizations", "1", "--points", ",".join(f"{0.25 * i:g}" for i in range(81))],
        id="dense_power_k32",
    ),
    pytest.param(
        "multistart_w2-n2-seed0.csv",
        "multistart = 10\n",
        ["--workers", "2", "--realizations", "2"],
        id="multistart_w2",
    ),
]
USERS_SWEEP = ["sweep", "--sweep", "users", "--points", "1,3,6", "--realizations", "4"]


@pytest.mark.parametrize("reference, config, flags", REFERENCE_SWEEPS)
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
    code, _, _ = run_cli([*USERS_SWEEP, "--out", str(out_csv)], capsys)
    assert code == 0
    assert filecmp.cmp(out_csv, PINNED_DIR / "users_sweep-n4-seed0.csv", shallow=False)


def test_optimize_reproduces_pinned_output(capsys):
    code, out, _ = run_cli(["optimize"], capsys)
    assert code == 0
    assert out.encode() == (PINNED_DIR / "optimize-default.txt").read_bytes()


def test_pinned_outputs_under_baseline_cpu_dispatch(tmp_path):
    # The raw bits of a sweep may change with numpy's CPU dispatch, but the
    # pinned bytes must not: every dispatch target of the running numpy is
    # turned off, as on a host with only the baseline features. The names
    # come from that numpy, which rejects names it does not know.
    from numpy._core._multiarray_umath import __cpu_dispatch__

    runs, pinned = [], []
    for i, param in enumerate(REFERENCE_SWEEPS):
        reference, config, flags = param.values
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text(config)
        out_csv = tmp_path / f"{i}.csv"
        runs.append(["sweep", "--config", str(cfg), "--seed", "0", "--out", str(out_csv), *flags])
        pinned.append((out_csv, REFERENCE_DIR / reference))
    out_csv = tmp_path / "users.csv"
    runs.append([*USERS_SWEEP, "--out", str(out_csv)])
    pinned.append((out_csv, PINNED_DIR / "users_sweep-n4-seed0.csv"))
    runs.append(["optimize"])
    pinned.append((tmp_path / f"{len(runs) - 1}.out", PINNED_DIR / "optimize-default.txt"))
    probe = """
import contextlib, json, sys
from manoma.cli import main
for i, argv in enumerate(json.loads(sys.argv[1])):
    with open(f"{sys.argv[2]}/{i}.out", "w") as out, contextlib.redirect_stdout(out):
        assert main(argv) == 0
"""
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}
    _run_python("-W", "error", "-c", probe, json.dumps(runs), str(tmp_path), env=env)
    for got, want in pinned:
        assert filecmp.cmp(got, want, shallow=False), want.name


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
