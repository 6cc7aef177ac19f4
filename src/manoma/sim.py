"""Monte Carlo comparison of movable-antenna and fixed-antenna access schemes.

Five schemes are evaluated on shared channel draws: NOMA with per-user
position optimization (NOMA-MA), NOMA with antennas fixed at the region
center (NOMA-FPA), orthogonal time sharing with both antenna variants
(OMA-MA, OMA-FPA), and an analytic sum-rate cap that assumes every path of
every user could be phase-aligned simultaneously (UPPER-BOUND).

One pipeline serves every entry point, in stages. `draw_users` spawns one
child stream per user, samples every user's channel, positions every
antenna on the unit-power channels, and evaluates the gains there and at
the region center. `_realization_table` computes the five scheme rates on
one draw of the largest user count for every (user count, power cap) pair,
a smaller count on a prefix of the users, and knows no sweep axis.
`sweep_power` and `sweep_users` check their points before any draw and
aggregate the realizations into `SweepRow`s. A one-point `sweep_power` at
the config's power is the plain Monte Carlo estimate; `run_realization`
gives one realization's rates, as row 0 of that one-point table.

Position optimization happens once per channel draw: transmit power never
enters the gain objective, so a power sweep reuses the same positions, and
user sweeps reuse each user's draw because every user gets an independent
child seed. That makes results a pure function of the config, regardless of
worker count or sweep shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from manoma.channel import MoveRegion, Position, UserChannel, channel_gain, sample_user_channel
from manoma.noma import RateRequirement, oma_sum_rate, solve
from manoma.positioner import ScaParams, optimize_position

SCHEMES = ("NOMA-MA", "NOMA-FPA", "OMA-MA", "OMA-FPA", "UPPER-BOUND")

_MAX_SEED = 2**64
_FINITE_FIELDS = ("p_max_dbm", "noise_dbm", "pathloss_exponent", "distance_range", "region_side")


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
        if self.num_users < 1:
            raise ValueError(f"num_users must be at least 1, got {self.num_users}")
        if self.paths_per_user < 1:
            raise ValueError(f"paths_per_user must be at least 1, got {self.paths_per_user}")
        if not 0.0 < self.distance_range[0] <= self.distance_range[1]:
            raise ValueError(
                f"distance_range must satisfy 0 < min <= max, got {self.distance_range}"
            )
        if self.region_side < 0.0:
            raise ValueError(f"region_side must be nonnegative, got {self.region_side}")
        RateRequirement(self.r_min)  # raises unless r_min is a valid minimum rate
        if self.pathloss_exponent <= 0.0:
            raise ValueError(
                f"pathloss_exponent must be positive, got {self.pathloss_exponent}"
            )
        if self.realizations < 1:
            raise ValueError(f"realizations must be at least 1, got {self.realizations}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0.0 < dbm_to_mw(self.noise_dbm) < math.inf:
            raise ValueError(f"noise_dbm must be positive and finite in mW, got {self.noise_dbm}")
        _check_finite_mw("p_max_dbm", self.p_max_dbm)
        for d in self.distance_range:
            if not 0.0 < _pow(d, -self.pathloss_exponent) < math.inf:
                rule = "must give a finite, nonzero path gain distance**-pathloss_exponent"
                raise ValueError(f"distance_range and pathloss_exponent {rule}, got {d!r} m")


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
    """The rule for a transmit power in dBm: finite once converted to mW."""
    if not dbm_to_mw(dbm) < math.inf:
        raise ValueError(f"{name} must be finite in mW, got {dbm}")


@dataclass(frozen=True)
class UserDraw:
    """One user's raw channel, its optimized antenna position, and the raw
    channel gain there (ma_gain) and at the region center (fpa_gain)."""

    channel: UserChannel
    position: Position
    ma_gain: float
    fpa_gain: float


def draw_users(cfg: ScenarioConfig, index: int, count: int) -> list[UserDraw]:
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
    positions = [
        optimize_position(ch.normalized(), region, cfg.sca, origin, rng=rng)[0]
        for ch, rng in zip(channels, streams)
    ]
    return [
        UserDraw(ch, pos, ma_gain=channel_gain(pos, ch), fpa_gain=channel_gain(origin, ch))
        for ch, pos in zip(channels, positions)
    ]


def upper_bound(channels, p_max: float, noise: float) -> float:
    """Sum-rate cap with every user at the per-user maximum gain (all path
    amplitudes aligned) and full power; independent of antenna positions."""
    return _aligned_rate(sum(ch.amplitude_sum**2 for ch in channels), p_max, noise)


def _aligned_rate(amplitude_total: float, p_max: float, noise: float) -> float:
    """upper_bound given the channels' sum of squared amplitude sums."""
    return math.log2(1.0 + amplitude_total * p_max / noise)


def _scheme_rates(draws: list[UserDraw], r_min: float, p_max_values, noise: float) -> np.ndarray:
    """Five scheme sum rates for one draw set at each power cap, shape
    (points, schemes); NaN marks an infeasible NOMA instance. What does not
    depend on the power (gains, requirements, the amplitude total) is
    gathered once."""
    reqs = [RateRequirement(r_min)] * len(draws)
    ma_gains = np.array([d.ma_gain for d in draws])
    fpa_gains = np.array([d.fpa_gain for d in draws])
    amplitude_total = sum(d.channel.amplitude_sum**2 for d in draws)
    out = np.empty((len(p_max_values), len(SCHEMES)))
    for row, p_max in zip(out, p_max_values):
        for slot, gains in enumerate((ma_gains, fpa_gains)):
            sol = solve(gains, reqs, p_max, noise)
            row[slot] = sol.sum_rate if sol.feasible else math.nan
            row[slot + 2] = oma_sum_rate(gains, p_max, noise)
        row[4] = _aligned_rate(amplitude_total, p_max, noise)
    return out


def run_realization(cfg: ScenarioConfig, index: int) -> dict[str, float]:
    """Evaluate all schemes on the draw of realization `index` at cfg.p_max_dbm.

    Returns scheme label to sum rate in bps/Hz; NaN flags an infeasible NOMA
    draw (the minimum rates cannot all be met).
    """
    table = _realization_table(cfg, (cfg.num_users,), (cfg.p_max_dbm,), index)
    return dict(zip(SCHEMES, table[0]))


def _realization_table(
    cfg: ScenarioConfig, user_counts, p_max_dbm_values, index: int
) -> np.ndarray:
    """Rates for one realization at every (user count, power cap) pair,
    count-major, shape (counts * caps, schemes). The largest count is drawn
    once and a smaller count evaluates a prefix of its users."""
    draws = draw_users(cfg, index, max(user_counts))
    p_max = [dbm_to_mw(p_dbm) for p_dbm in p_max_dbm_values]
    noise = dbm_to_mw(cfg.noise_dbm)
    return np.concatenate([_scheme_rates(draws[:k], cfg.r_min, p_max, noise) for k in user_counts])


def _collect(cfg: ScenarioConfig, user_counts, p_max_dbm_values, workers: int) -> np.ndarray:
    """All realizations' rate tables, shape (realizations, points, schemes)."""
    job = partial(_realization_table, cfg, tuple(user_counts), tuple(p_max_dbm_values))
    indices = range(cfg.realizations)
    if workers <= 1:
        tables = [job(i) for i in indices]
    else:
        # Imported here: one-worker runs then never load the process pool.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
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


def sweep_power(cfg: ScenarioConfig, p_max_dbm_values, workers: int = 1) -> list[SweepRow]:
    """Sum rates versus transmit power cap, all sweep points sharing the
    exact same channel draws and antenna positions (positions do not depend
    on power, so pairing is free variance reduction). A one-point sweep at
    cfg.p_max_dbm is the Monte Carlo estimate at the config's operating
    point. Every point must be finite in mW, as cfg.p_max_dbm must."""
    values = [float(v) for v in p_max_dbm_values]
    if not values:
        raise ValueError("at least one power value is required")
    for value in values:
        _check_finite_mw("power point", value)
    return _aggregate(_collect(cfg, (cfg.num_users,), values, workers), values)


def sweep_users(cfg: ScenarioConfig, k_values, workers: int = 1) -> list[SweepRow]:
    """Sum rates versus user count at the config's power cap; smaller user
    counts evaluate a prefix of the larger counts' draws. Counts must be
    integers of at least 1; 2.5 is rejected, not truncated."""
    values = [float(k) for k in k_values]
    if not values:
        raise ValueError("at least one user count is required")
    for k in values:
        if not (k.is_integer() and k >= 1):
            raise ValueError(f"user counts must be integers of at least 1, got {k:g}")
    counts = [int(k) for k in values]
    return _aggregate(_collect(cfg, counts, (cfg.p_max_dbm,), workers), counts)
