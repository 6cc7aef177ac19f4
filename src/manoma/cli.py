"""Command-line front end: single-shot solves, Monte Carlo sweeps, config checks.

The config is a flat key = value text file. Every physical quantity carries
a mandatory unit suffix (powers in dBm, distances in m, the region side in
wavelengths, rates in bps/Hz) so a value can never be silently read on the
wrong scale. A sweep emits a CSV plus a JSON manifest holding the fully
resolved configuration; pointing --config at the manifest replays the run
and reproduces the CSV byte for byte.

Exit codes: 0 success, 2 configuration problem, 3 infeasible single-shot
instance, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from operator import attrgetter

from manoma import __version__
from manoma.noma import RateRequirement, solve
from manoma.positioner import ScaParams
from manoma.sim import (
    ScenarioConfig,
    SweepRow,
    dbm_to_mw,
    draw_users,
    power_points,
    sweep_power,
    sweep_users,
    user_counts,
)

CSV_HEADER = "sweep_value,scheme,mean_sum_rate_bps_hz,std_sum_rate,infeasible_fraction,realizations,seed"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

DEFAULT_POWER_POINTS = [0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0]
DEFAULT_USER_POINTS = [2, 4, 6, 8]


class ConfigError(ValueError):
    """Configuration file or flag problem; message names the offending key."""


def _strip_quotes(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1].strip()
    return value


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment, blanks are skipped."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = _strip_quotes(value)
    return raw


# The config schema, one row per key: (key, ScenarioConfig field or
# sca.<ScaParams field>, kind, unit). Parsing, the unit check, serialization
# and the examples in error messages all come from this table.
SCHEMA = (
    ("num_users", "num_users", int, None),
    ("paths_per_user", "paths_per_user", int, None),
    ("p_max", "p_max_dbm", float, "dBm"),
    ("noise", "noise_dbm", float, "dBm"),
    ("pathloss_exponent", "pathloss_exponent", float, None),
    ("distance_range", "distance_range", tuple, "m"),
    ("region_side", "region_side", float, "wavelengths"),
    ("r_min", "r_min", float, "bps/Hz"),
    ("realizations", "realizations", int, None),
    ("seed", "seed", int, None),
    ("sca_threshold", "sca.threshold", float, None),
    ("sca_max_iterations", "sca.max_iterations", int, None),
    ("multistart", "sca.multistart", int, None),
)

_KEY_OF_FIELD = {field.rpartition(".")[2]: key for key, field, *_ in SCHEMA}
_RANGE_RE = re.compile(r"^\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]\s*(\S+)$")


def _format_value(kind: type, unit: str | None, value) -> str:
    text = f"[{value[0]!r}, {value[1]!r}]" if kind is tuple else repr(value)
    return f"{text} {unit}" if unit else text


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _parse_value(key: str, kind: type, unit: str | None, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    if kind is tuple:
        match = _RANGE_RE.match(text)
        if not match or match.group(3) != unit:
            example = serialize_config(ScenarioConfig())[key]
            raise ConfigError(f"{key}: expected a range like \"{example}\", got {text!r}")
        return _parse_float(key, match.group(1)), _parse_float(key, match.group(2))
    if unit:
        parts = text.rsplit(None, 1)
        if len(parts) != 2 or parts[1] != unit:
            example = serialize_config(ScenarioConfig())[key]
            raise ConfigError(
                f"{key}: expected a value with the unit spelled out, like \"{example}\";"
                f" got {text!r}"
            )
        text = parts[0]
    return _parse_float(key, text)


def resolve_config(raw: dict[str, str]) -> ScenarioConfig:
    """Typed, unit-checked config with defaults filled in; raises ConfigError
    naming the offending key."""
    known = [row[0] for row in SCHEMA]
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} (known keys: {', '.join(known)})")
    values: dict = {}
    sca_values: dict = {}
    for key, field, kind, unit in SCHEMA:
        if key in raw:
            owner, _, name = field.rpartition(".")
            (sca_values if owner else values)[name] = _parse_value(key, kind, unit, raw[key])
    try:
        if sca_values:
            values["sca"] = ScaParams(**sca_values)
        return ScenarioConfig(**values)
    except ValueError as exc:
        # Both dataclasses name their field first; the config key may differ.
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{_KEY_OF_FIELD.get(name, name)} {rest}") from None


def serialize_config(cfg: ScenarioConfig) -> dict[str, str]:
    """Flat unit-suffixed form of a resolved config; resolves back to an
    identical ScenarioConfig."""
    return {
        key: _format_value(kind, unit, attrgetter(field)(cfg))
        for key, field, kind, unit in SCHEMA
    }


@dataclass
class LoadedConfig:
    raw: dict[str, str]
    sweep: str | None = None
    points: list | None = None


def load_config(path: str | None) -> LoadedConfig:
    """Read a config file or a sweep manifest; None means all defaults.

    JSON is read as a manifest: an object whose "config" member is an object.
    A manifest also carries the sweep axis and points that produced it.
    """
    if path is None:
        return LoadedConfig(raw={})
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return LoadedConfig(raw=parse_config_text(text))
    raw = doc.get("config") if isinstance(doc, dict) else None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a JSON config must be a sweep manifest with a 'config' object")
    return LoadedConfig(
        raw={k: str(v) for k, v in raw.items()}, sweep=doc.get("sweep"), points=doc.get("points")
    )


def _apply_flag_overrides(raw: dict[str, str], args) -> dict[str, str]:
    """A command-line flag named after a config key overrides that key."""
    out = dict(raw)
    for key, *_ in SCHEMA:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = str(value)
    return out


def _format_float(x: float) -> str:
    return f"{x:.12g}"


def write_sweep_csv(path: str, rows: list[SweepRow], seed: int) -> None:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    _format_float(row.sweep_value),
                    row.scheme,
                    _format_float(row.mean_sum_rate),
                    _format_float(row.std_sum_rate),
                    _format_float(row.infeasible_fraction),
                    str(row.realizations),
                    str(seed),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _parse_points(key: str, items: list[str], sweep: str) -> list:
    """Sweep points from their text, for --points and a manifest's points,
    judged by the sweep axis's own rule in sim."""
    points = [_parse_float(key, item) for item in items]
    try:
        return (user_counts if sweep == "users" else power_points)(points)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _output_problem(path: str) -> str | None:
    """Why a sweep output could not be written at `path`, checked before any
    compute starts; None when nothing is in the way."""
    if not path:
        return "an empty path names no file"
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        return f"directory {directory} does not exist"
    if not os.access(directory, os.W_OK | os.X_OK):
        return f"directory {directory} is not writable"
    if os.path.isdir(path):
        return "it is a directory"
    return None


def cmd_validate(args) -> int:
    loaded = load_config(args.config)
    cfg = resolve_config(_apply_flag_overrides(loaded.raw, args))
    for key, value in serialize_config(cfg).items():
        quoted = f'"{value}"' if " " in value else value
        print(f"{key} = {quoted}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    loaded = load_config(args.config)
    cfg = resolve_config(_apply_flag_overrides(loaded.raw, args))
    draws = draw_users(cfg, 0, cfg.num_users)
    noise = dbm_to_mw(cfg.noise_dbm)
    p_max = dbm_to_mw(cfg.p_max_dbm)
    reqs = [RateRequirement(cfg.r_min)] * cfg.num_users
    solution = solve(draws.ma_gains, reqs, p_max, noise)

    print(
        f"{cfg.num_users} users, {cfg.paths_per_user} paths each, seed {cfg.seed}, "
        f"P_max {_format_float(cfg.p_max_dbm)} dBm, region {_format_float(cfg.region_side)} wavelengths"
    )
    header = (
        f"{'user':>4}  {'x (wl)':>12}  {'y (wl)':>12}  {'center gain':>12}  "
        f"{'moved gain':>12}  {'rank':>4}  {'power mW':>12}  {'rate bps/Hz':>12}"
    )
    print(header)
    for k, (x, y) in enumerate(draws.positions):
        rate = solution.rates[k]
        print(
            f"{k + 1:>4}  {x:>12.6f}  {y:>12.6f}  "
            f"{draws.fpa_gains[k]:>12.4e}  {draws.ma_gains[k]:>12.4e}  {solution.order[k]:>4}  "
            f"{solution.powers[k]:>12.6g}  "
            f"{'n/a' if math.isnan(rate) else f'{rate:.6f}':>12}"
        )
    if not solution.feasible:
        print(f"infeasible: {solution.diagnostic}")
        return EXIT_INFEASIBLE
    print(f"sum rate: {solution.sum_rate:.9g} bps/Hz")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    loaded = load_config(args.config)
    cfg = resolve_config(_apply_flag_overrides(loaded.raw, args))
    sweep = args.sweep or loaded.sweep or "power"
    if sweep not in ("power", "users"):
        # argparse's choices guard --sweep, so only a manifest's value gets here.
        raise ConfigError(f"sweep: expected 'power' or 'users', got {sweep!r}")
    if args.points is not None:
        items = [item.strip() for item in args.points.split(",") if item.strip()]
        points = _parse_points("--points", items, sweep)
    elif loaded.points is not None:
        if not isinstance(loaded.points, list):
            raise ConfigError(f"points: expected a list of values, got {loaded.points!r}")
        points = _parse_points("points", [str(p) for p in loaded.points], sweep)
    else:
        points = list(DEFAULT_USER_POINTS if sweep == "users" else DEFAULT_POWER_POINTS)

    manifest_path = args.out + ".manifest.json"
    for path in (args.out, manifest_path):
        problem = _output_problem(path)
        if problem:
            print(f"i/o error: cannot write {path}: {problem}", file=sys.stderr)
            return EXIT_IO

    print(
        f"{sweep} sweep: {len(points)} points, {cfg.realizations} realizations, "
        f"{args.workers} worker(s)",
        file=sys.stderr,
    )
    start = time.monotonic()
    run = sweep_users if sweep == "users" else sweep_power
    rows = run(cfg, points, workers=args.workers)
    duration = time.monotonic() - start
    worst = max(rows, key=attrgetter("infeasible_fraction"))
    print(
        f"largest infeasible fraction {_format_float(worst.infeasible_fraction)}: "
        f"{worst.scheme} at {sweep}={_format_float(worst.sweep_value)}",
        file=sys.stderr,
    )

    manifest = {
        "artifact": "manoma",
        "version": __version__,
        "command": "sweep",
        "sweep": sweep,
        "points": points,
        "workers": args.workers,
        "duration_seconds": round(duration, 3),
        "csv": args.out,
        "config": serialize_config(cfg),
    }
    # Both files are written beside their targets first and then moved into
    # place, so a failed write leaves no partial file and no clobbered output.
    temps = {path: f"{path}.{os.getpid()}.tmp" for path in (args.out, manifest_path)}
    try:
        write_sweep_csv(temps[args.out], rows, cfg.seed)
        _write_manifest(temps[manifest_path], manifest)
        for path, temp in temps.items():
            os.replace(temp, path)
    except OSError as exc:
        target = {temp: path for path, temp in temps.items()}.get(exc.filename, exc.filename)
        print(f"i/o error: cannot write {target or args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_IO
    finally:
        for temp in temps.values():
            with contextlib.suppress(OSError):  # gone once moved into place
                os.remove(temp)
    print(f"wrote {args.out} and {manifest_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manoma",
        description="Movable-antenna uplink NOMA: single-shot solves and Monte Carlo sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"manoma {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, realizations=True):
        p.add_argument("--config", help="config file or sweep manifest (JSON) path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--multistart", type=int, help="extra random starts per position search")
        if realizations:
            p.add_argument("--realizations", type=int, help="override the realization count")

    p_opt = sub.add_parser("optimize", help="solve one seeded realization and print the solution")
    common(p_opt, realizations=False)
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep to CSV plus manifest")
    common(p_sweep)
    p_sweep.add_argument("--sweep", choices=("power", "users"), help="sweep axis (default power)")
    p_sweep.add_argument(
        "--points",
        help="comma-separated sweep points (dBm values or user counts); defaults: "
        "power 0..20 dBm in 2.5 dB steps, users 2,4,6,8",
    )
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="resolve and echo the config without running")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
