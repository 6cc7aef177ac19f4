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
import json
import math
import re
import sys
import time
from dataclasses import dataclass

from manoma import __version__
from manoma.noma import RateRequirement, solve
from manoma.positioner import ScaParams
from manoma.sim import (
    SCHEMES,
    ScenarioConfig,
    SweepRow,
    _draw_users,
    _realization_rng,
    dbm_to_mw,
    sweep_power,
    sweep_users,
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


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_with_unit(key: str, value: str, unit: str) -> float:
    parts = value.rsplit(None, 1)
    if len(parts) != 2 or parts[1] != unit:
        raise ConfigError(
            f"{key}: expected a value with the unit spelled out, like \"{_unit_example(key, unit)}\";"
            f" got {value!r}"
        )
    return _parse_float(key, parts[0])


def _unit_example(key: str, unit: str) -> str:
    return {"dBm": "10 dBm", "wavelengths": "2 wavelengths", "bps/Hz": "0.25 bps/Hz"}.get(
        unit, f"1 {unit}"
    )


_RANGE_RE = re.compile(r"^\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]\s*m$")


def _parse_meter_range(key: str, value: str) -> tuple[float, float]:
    match = _RANGE_RE.match(value)
    if not match:
        raise ConfigError(
            f"{key}: expected a range in meters like \"[80, 100] m\", got {value!r}"
        )
    return _parse_float(key, match.group(1)), _parse_float(key, match.group(2))


CONFIG_KEYS = (
    "num_users",
    "paths_per_user",
    "p_max",
    "noise",
    "pathloss_exponent",
    "distance_range",
    "region_side",
    "r_min",
    "realizations",
    "seed",
    "sca_threshold",
    "sca_max_iterations",
    "multistart",
)


def resolve_config(raw: dict[str, str]) -> ScenarioConfig:
    """Typed, unit-checked config with defaults filled in; raises ConfigError
    naming the offending key."""
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} (known keys: {', '.join(CONFIG_KEYS)})")
    values: dict = {}
    if "num_users" in raw:
        values["num_users"] = _parse_int("num_users", raw["num_users"])
    if "paths_per_user" in raw:
        values["paths_per_user"] = _parse_int("paths_per_user", raw["paths_per_user"])
    if "p_max" in raw:
        values["p_max_dbm"] = _parse_with_unit("p_max", raw["p_max"], "dBm")
    if "noise" in raw:
        values["noise_dbm"] = _parse_with_unit("noise", raw["noise"], "dBm")
    if "pathloss_exponent" in raw:
        values["pathloss_exponent"] = _parse_float("pathloss_exponent", raw["pathloss_exponent"])
    if "distance_range" in raw:
        values["distance_range"] = _parse_meter_range("distance_range", raw["distance_range"])
    if "region_side" in raw:
        values["region_side"] = _parse_with_unit("region_side", raw["region_side"], "wavelengths")
    if "r_min" in raw:
        values["r_min"] = _parse_with_unit("r_min", raw["r_min"], "bps/Hz")
    if "realizations" in raw:
        values["realizations"] = _parse_int("realizations", raw["realizations"])
    if "seed" in raw:
        values["seed"] = _parse_int("seed", raw["seed"])
    sca_kwargs = {}
    if "sca_threshold" in raw:
        sca_kwargs["threshold"] = _parse_float("sca_threshold", raw["sca_threshold"])
    if "sca_max_iterations" in raw:
        sca_kwargs["max_iterations"] = _parse_int("sca_max_iterations", raw["sca_max_iterations"])
    if "multistart" in raw:
        sca_kwargs["multistart"] = _parse_int("multistart", raw["multistart"])
    try:
        if sca_kwargs:
            values["sca"] = ScaParams(**sca_kwargs)
        return ScenarioConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def serialize_config(cfg: ScenarioConfig) -> dict[str, str]:
    """Flat unit-suffixed form of a resolved config; resolves back to an
    identical ScenarioConfig."""
    return {
        "num_users": str(cfg.num_users),
        "paths_per_user": str(cfg.paths_per_user),
        "p_max": f"{cfg.p_max_dbm!r} dBm",
        "noise": f"{cfg.noise_dbm!r} dBm",
        "pathloss_exponent": repr(cfg.pathloss_exponent),
        "distance_range": f"[{cfg.distance_range[0]!r}, {cfg.distance_range[1]!r}] m",
        "region_side": f"{cfg.region_side!r} wavelengths",
        "r_min": f"{cfg.r_min!r} bps/Hz",
        "realizations": str(cfg.realizations),
        "seed": str(cfg.seed),
        "sca_threshold": repr(cfg.sca.threshold),
        "sca_max_iterations": str(cfg.sca.max_iterations),
        "multistart": str(cfg.sca.multistart),
    }


@dataclass
class LoadedConfig:
    raw: dict[str, str]
    sweep: str | None = None
    points: list | None = None


def load_config(path: str | None) -> LoadedConfig:
    """Read a config file or a sweep manifest; None means all defaults.

    A JSON object with a "config" member is treated as a manifest and also
    carries the sweep axis and points that produced it.
    """
    if path is None:
        return LoadedConfig(raw={})
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return LoadedConfig(raw=parse_config_text(text))
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: JSON config must be an object")
    if "config" in doc:
        raw = doc["config"]
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: manifest 'config' must be an object")
        return LoadedConfig(
            raw={k: str(v) for k, v in raw.items()},
            sweep=doc.get("sweep"),
            points=doc.get("points"),
        )
    return LoadedConfig(raw={k: str(v) for k, v in doc.items()})


def _apply_flag_overrides(raw: dict[str, str], args) -> dict[str, str]:
    out = dict(raw)
    if getattr(args, "seed", None) is not None:
        out["seed"] = str(args.seed)
    if getattr(args, "realizations", None) is not None:
        out["realizations"] = str(args.realizations)
    if getattr(args, "multistart", None) is not None:
        out["multistart"] = str(args.multistart)
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


def _parse_points(text: str, sweep: str) -> list:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ConfigError("--points: expected a comma-separated list of values")
    if sweep == "users":
        points = []
        for item in items:
            try:
                points.append(int(item))
            except ValueError:
                raise ConfigError(
                    f"--points: user counts must be integers, got {item!r}"
                ) from None
        return points
    try:
        return [float(item) for item in items]
    except ValueError:
        raise ConfigError(f"--points: expected numbers, got {text!r}") from None


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
    draws = _draw_users(cfg, _realization_rng(cfg, 0), cfg.num_users)
    noise = dbm_to_mw(cfg.noise_dbm)
    p_max = dbm_to_mw(cfg.p_max_dbm)
    reqs = [RateRequirement(cfg.r_min)] * cfg.num_users
    solution = solve([d.ma_gain for d in draws], reqs, p_max, noise)

    print(
        f"{cfg.num_users} users, {cfg.paths_per_user} paths each, seed {cfg.seed}, "
        f"P_max {_format_float(cfg.p_max_dbm)} dBm, region {_format_float(cfg.region_side)} wavelengths"
    )
    header = (
        f"{'user':>4}  {'x (wl)':>12}  {'y (wl)':>12}  {'center gain':>12}  "
        f"{'moved gain':>12}  {'rank':>4}  {'power mW':>12}  {'rate bps/Hz':>12}"
    )
    print(header)
    for k, draw in enumerate(draws):
        rate = solution.rates[k]
        print(
            f"{k + 1:>4}  {draw.position.x:>12.6f}  {draw.position.y:>12.6f}  "
            f"{draw.fpa_gain:>12.4e}  {draw.ma_gain:>12.4e}  {solution.order[k]:>4}  "
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
        raise ConfigError(f"--sweep must be 'power' or 'users', got {sweep!r}")
    if args.points is not None:
        points = _parse_points(args.points, sweep)
    elif loaded.points is not None:
        points = [int(p) for p in loaded.points] if sweep == "users" else [float(p) for p in loaded.points]
    else:
        points = list(DEFAULT_USER_POINTS if sweep == "users" else DEFAULT_POWER_POINTS)

    print(
        f"{sweep} sweep: {len(points)} points, {cfg.realizations} realizations, "
        f"{args.workers} worker(s)",
        file=sys.stderr,
    )
    start = time.monotonic()
    if sweep == "power":
        rows = sweep_power(cfg, points, workers=args.workers)
    else:
        try:
            rows = sweep_users(cfg, points, workers=args.workers)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    duration = time.monotonic() - start
    for i, point in enumerate(points):
        chunk = rows[i * len(SCHEMES) : (i + 1) * len(SCHEMES)]
        worst = max(row.infeasible_fraction for row in chunk)
        print(
            f"point {i + 1}/{len(points)}: {sweep}={_format_float(float(point))} "
            f"done (max infeasible fraction {_format_float(worst)})",
            file=sys.stderr,
        )

    manifest_path = args.out + ".manifest.json"
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
        "infeasible_fractions": {
            _format_float(float(point)): {
                row.scheme: row.infeasible_fraction
                for row in rows[i * len(SCHEMES) : (i + 1) * len(SCHEMES)]
            }
            for i, point in enumerate(points)
        },
    }
    try:
        write_sweep_csv(args.out, rows, cfg.seed)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=False)
            fh.write("\n")
    except OSError as exc:
        print(f"i/o error: cannot write {exc.filename or args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_IO
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
