"""Monte Carlo comparison of movable-antenna and fixed-antenna access schemes.

Five schemes are evaluated on shared channel draws: NOMA with per-user
position optimization (NOMA-MA), NOMA with antennas fixed at the region
center (NOMA-FPA), orthogonal time sharing with both antenna variants
(OMA-MA, OMA-FPA), and an analytic sum-rate cap that assumes every path of
every user could be phase-aligned simultaneously (UPPER-BOUND).

One pipeline serves every entry point, in stages. `draw_users` spawns one
child stream per user, samples every user's channel, positions every
antenna on the unit-power channels, and takes every gain there and at the
region center in one lane call, into one record of arrays with a row per
user. `_realization_table` computes the five scheme rates on one draw of
the largest user count for every (user count, power cap) pair, a smaller
count on the first rows, and knows no sweep axis.
`sweep_power` and `sweep_users` check their points before any draw, by
the one rule per axis (`power_points`, `user_counts`), and aggregate the
realizations into `SweepRow`s. A one-point `sweep_power` at the config's
power is the plain Monte Carlo estimate; `run_realization` gives one
realization's rates, as row 0 of that one-point table.

Position optimization happens once per channel draw: transmit power never
enters the gain objective, so a power sweep reuses the same positions, and
user sweeps reuse each user's draw because every user gets an independent
child seed. That makes results a pure function of the config, regardless of
worker count or sweep shape.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from manoma.channel import (
    MoveRegion, Position, lane_coefficients, lane_gains, lane_phases, sample_user_channel,
)
from manoma.noma import GAIN_FLOOR, RateRequirement, aligned_sum_rate, oma_sum_rate, solve
from manoma.positioner import ScaParams, optimize_position

SCHEMES = ("NOMA-MA", "NOMA-FPA", "OMA-MA", "OMA-FPA", "UPPER-BOUND")

_MAX_SEED = 2**64
_FINITE_FIELDS = ("noise_dbm", "pathloss_exponent", "distance_range")
# A fixed-antenna gain is exponential with the path gain as its mean, so this
# margin puts about one user in 1e10 below GAIN_FLOOR. The movable-antenna
# gain is never lower: positioning starts at the region center and never
# lowers the gain.
_MIN_PATH_GAIN = GAIN_FLOOR * 1e10


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario parameters; defaults match the reference setup.

    r_min applies to every user. The seed fully determines all draws.
    """

    num_users: int = 6
    paths_per_user: int = 5
    p_max_dbm: float = 10.0
    noise_dbm: float = -80.0
    pathloss_exponent: float = 3.9
    distance_range: tuple[float, float] = (80.0, 100.0)
    region_side: float = 2.0
    r_min: float = 0.25
    realizations: int = 1000
    seed: int = 0
    sca: ScaParams = field(default_factory=ScaParams)

    def __post_init__(self) -> None:
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("num_users", "paths_per_user", "realizations"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer of at least 1, got {value}")
        if not 0.0 < self.distance_range[0] <= self.distance_range[1]:
            raise ValueError(
                f"distance_range must satisfy 0 < min <= max, got {self.distance_range}"
            )
        MoveRegion(self.region_side)  # raises unless region_side is a valid side
        RateRequirement(self.r_min)  # raises unless r_min is a valid minimum rate
        if self.pathloss_exponent <= 0.0:
            raise ValueError(
                f"pathloss_exponent must be positive, got {self.pathloss_exponent}"
            )
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0.0 < dbm_to_mw(self.noise_dbm) < math.inf:
            raise ValueError(f"noise_dbm must be positive and finite in mW, got {self.noise_dbm}")
        _check_finite_mw("p_max_dbm", self.p_max_dbm)
        for d in self.distance_range:
            if not _MIN_PATH_GAIN <= _pow(d, -self.pathloss_exponent) < math.inf:
                rule = "must give a finite path gain distance**-pathloss_exponent of at least"
                raise ValueError(
                    f"distance_range and pathloss_exponent {rule} {_MIN_PATH_GAIN:g}, got {d!r} m"
                )


@dataclass(frozen=True)
class SweepRow:
    """One (sweep value, scheme) cell of a sweep table. Infeasible draws are
    excluded from mean and std; their share is reported, never hidden."""

    sweep_value: float
    scheme: str
    mean_sum_rate: float
    std_sum_rate: float
    infeasible_count: int
    realizations: int

    @property
    def infeasible_fraction(self) -> float:
        return self.infeasible_count / self.realizations


def _pow(base: float, exponent: float) -> float:
    """base**exponent, or inf where that is too large for a float."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def dbm_to_mw(dbm: float) -> float:
    """Decibel-milliwatts to milliwatts; inf where too large for a float."""
    return _pow(10.0, dbm / 10.0)


def _check_finite_mw(name: str, dbm: float) -> None:
    """The rule for a transmit power in dBm: finite in mW and in dBm."""
    if not dbm_to_mw(dbm) < math.inf:
        raise ValueError(f"{name} must be finite in mW, got {dbm}")
    if not math.isfinite(dbm):
        raise ValueError(f"{name} must be finite, got {dbm}")


@dataclass(frozen=True, eq=False)
class DrawSet:
    """One draw set, row k for user k: raw path responses (users, paths) and
    directions (users, 2, paths) as UserChannel holds them, positions (users,
    2), and the raw gains there, at the region center and aligned (users,)."""

    prv: np.ndarray
    directions: np.ndarray
    positions: np.ndarray
    ma_gains: np.ndarray
    fpa_gains: np.ndarray
    amplitude_sums: np.ndarray


def draw_users(cfg: ScenarioConfig, index: int, count: int) -> DrawSet:
    """The first `count` users of realization `index`, antennas positioned.

    The realization's generator depends on (cfg.seed, index) only, so worker
    scheduling cannot change a draw. Each user then gets its own child
    stream, which makes user k's draw independent of how many users follow:
    a smaller count is an exact prefix of a larger one. A stream draws its
    user's channel and then the multistart starts, so running each stage
    over all users before the next changes no draw.

    The optimizer runs on the unit-power rescaling of each channel: its
    iterates are invariant to channel scale, but the absolute stop threshold
    is calibrated for order-one gains, and raw gains here carry the path
    loss (around 1e-8). The reported gains are evaluated on the raw channel.
    """
    streams = np.random.default_rng(np.random.SeedSequence((cfg.seed, index))).spawn(count)
    channels = [sample_user_channel(cfg, rng) for rng in streams]
    region, origin = MoveRegion(cfg.region_side), Position(0.0, 0.0)
    positions = np.array([
        optimize_position(ch.normalized(), region, cfg.sca, origin, rng=rng)[0].as_array()
        for ch, rng in zip(channels, streams)
    ]).reshape(count, 2)
    paths = cfg.paths_per_user
    prv = np.array([ch.prv for ch in channels]).reshape(count, paths)
    directions = np.array([ch.directions for ch in channels]).reshape(count, 2, paths)
    # One lane per user at its position, then one per user at the center.
    dir_x, dir_y = np.concatenate((directions, directions)).transpose(1, 0, 2)
    rho = lane_phases(np.concatenate((positions, np.zeros_like(positions))), dir_x, dir_y)
    gains = lane_gains(lane_coefficients(rho, np.concatenate((prv, prv))))
    sums = np.sum(np.abs(prv), axis=1)
    return DrawSet(prv, directions, positions, gains[:count], gains[count:], sums)


def _scheme_rates(draws: DrawSet, k: int, r_min: float, p_max_values, noise: float) -> np.ndarray:
    """Five scheme sum rates for the first k users of a draw set at each
    power cap, shape (points, schemes); NaN marks an infeasible NOMA
    instance."""
    reqs = [RateRequirement(r_min)] * k
    out = np.empty((len(p_max_values), len(SCHEMES)))
    for row, p_max in zip(out, p_max_values):
        for slot, gains in enumerate((draws.ma_gains[:k], draws.fpa_gains[:k])):
            sol = solve(gains, reqs, p_max, noise)
            row[slot] = sol.sum_rate if sol.feasible else math.nan
            row[slot + 2] = oma_sum_rate(gains, p_max, noise)
        row[4] = aligned_sum_rate(draws.amplitude_sums[:k], p_max, noise)
    return out


def run_realization(cfg: ScenarioConfig, index: int) -> dict[str, float]:
    """Evaluate all schemes on the draw of realization `index` at cfg.p_max_dbm.

    Returns scheme label to sum rate in bps/Hz; NaN flags an infeasible NOMA
    draw (the minimum rates cannot all be met).
    """
    table = _realization_table(cfg, (cfg.num_users,), (cfg.p_max_dbm,), index)
    return dict(zip(SCHEMES, table[0]))


def _realization_table(cfg: ScenarioConfig, counts, p_max_dbm_values, index: int) -> np.ndarray:
    """Rates for one realization at every (user count, power cap) pair,
    count-major, shape (counts * caps, schemes). The largest count is drawn
    once and a smaller count evaluates a prefix of its users."""
    draws = draw_users(cfg, index, max(counts))
    p_max = [dbm_to_mw(p_dbm) for p_dbm in p_max_dbm_values]
    noise = dbm_to_mw(cfg.noise_dbm)
    return np.concatenate([_scheme_rates(draws, k, cfg.r_min, p_max, noise) for k in counts])


def _collect(cfg: ScenarioConfig, counts, p_max_dbm_values, workers: int) -> np.ndarray:
    """All realizations' rate tables, shape (realizations, points, schemes)."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    job = partial(_realization_table, cfg, tuple(counts), tuple(p_max_dbm_values))
    indices = range(cfg.realizations)
    # A pool starts all its processes at the first task, so it gets no more
    # than there are realizations.
    processes = min(workers, cfg.realizations)
    if processes == 1:
        tables = [job(i) for i in indices]
    else:
        # Imported here: one-process runs then never load the process pool.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            tables = list(pool.map(job, indices))
    return np.array(tables)


def _aggregate(tables: np.ndarray, values) -> list[SweepRow]:
    """One row per (sweep value, scheme) from the (realizations, points,
    schemes) rate tables; NaN entries count as infeasible."""
    realizations = len(tables)
    rows = []
    for i, value in enumerate(values):
        for s, scheme in enumerate(SCHEMES):
            samples = tables[:, i, s]
            feasible = samples[~np.isnan(samples)]
            if len(feasible) == 0:
                mean = std = math.nan
            else:
                mean = float(np.mean(feasible))
                std = float(np.std(feasible, ddof=1)) if len(feasible) >= 2 else 0.0
            rows.append(
                SweepRow(
                    sweep_value=float(value),
                    scheme=scheme,
                    mean_sum_rate=mean,
                    std_sum_rate=std,
                    infeasible_count=realizations - len(feasible),
                    realizations=realizations,
                )
            )
    return rows


def power_points(values) -> list[float]:
    """The power axis's rule: at least one point, each finite in dBm and in
    mW, as cfg.p_max_dbm must be."""
    points = [float(v) for v in values]
    if not points:
        raise ValueError("at least one power value is required")
    for point in points:
        _check_finite_mw("power point", point)
    return points


def user_counts(values) -> list[int]:
    """The user axis's rule: at least one count, each an integer of at least
    1; 4.0 is the count 4, and 2.5 is rejected, not truncated."""
    counts = [float(k) for k in values]
    if not counts:
        raise ValueError("at least one user count is required")
    for k in counts:
        if not (k.is_integer() and k >= 1):
            raise ValueError(f"user counts must be integers of at least 1, got {k:g}")
    return [int(k) for k in counts]


def sweep_power(cfg: ScenarioConfig, p_max_dbm_values, workers: int = 1) -> list[SweepRow]:
    """Sum rates versus transmit power cap, all sweep points sharing the
    exact same channel draws and antenna positions (positions do not depend
    on power, so pairing is free variance reduction). A one-point sweep at
    cfg.p_max_dbm is the Monte Carlo estimate at the config's operating
    point. Points obey power_points, and workers must be at least 1."""
    values = power_points(p_max_dbm_values)
    return _aggregate(_collect(cfg, (cfg.num_users,), values, workers), values)


def sweep_users(cfg: ScenarioConfig, k_values, workers: int = 1) -> list[SweepRow]:
    """Sum rates versus user count at the config's power cap; smaller user
    counts evaluate a prefix of the larger counts' draws. Counts obey
    user_counts, and workers must be at least 1."""
    counts = user_counts(k_values)
    return _aggregate(_collect(cfg, counts, (cfg.p_max_dbm,), workers), counts)
