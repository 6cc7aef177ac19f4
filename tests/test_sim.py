import concurrent.futures
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import manoma
import manoma.noma as noma
import manoma.sim as sim
from manoma.channel import MoveRegion, Position, UserChannel, channel_gain
from manoma.noma import RateRequirement, aligned_sum_rate, solve
from manoma.positioner import ScaParams
from manoma.sim import (
    SCHEMES,
    ScenarioConfig,
    dbm_to_mw,
    draw_users,
    oma_sum_rate,
    run_realization,
    sweep_power,
    sweep_users,
)


def _small_cfg(**kwargs):
    defaults = dict(
        num_users=3,
        paths_per_user=3,
        realizations=5,
        seed=7,
        sca=ScaParams(max_iterations=100),
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


# --- unit conversion ---


@pytest.mark.parametrize("dbm,mw", [(0.0, 1.0), (-80.0, 1e-8), (10.0, 10.0)])
def test_dbm_to_mw(dbm, mw):
    assert_allclose(dbm_to_mw(dbm), mw, rtol=1e-12)


# --- config validation ---


@pytest.mark.parametrize(
    "bad",
    [
        dict(num_users=0),
        dict(paths_per_user=0),
        dict(distance_range=(100.0, 80.0)),
        dict(distance_range=(0.0, 80.0)),
        dict(region_side=-1.0),
        dict(r_min=-0.1),
        dict(realizations=0),
        dict(seed=-1),
        dict(pathloss_exponent=0.0),
        dict(r_min=1100.0),
        # Finite values whose mW power or path gain a float cannot hold.
        dict(noise_dbm=-4000.0),
        dict(noise_dbm=4000.0),
        dict(p_max_dbm=3090.0),
        dict(distance_range=(1e-100, 1e-100)),
        dict(distance_range=(1e100, 1e100)),
        dict(pathloss_exponent=400.0),
        # A path gain of 6.3e-32 puts every gain under noma.GAIN_FLOOR.
        dict(distance_range=(1e8, 1e8)),
        # Counts that used to construct and then fail mid-run with a
        # TypeError (slice indices, spawn, range).
        dict(num_users=2.5),
        dict(num_users=4.0),
        dict(paths_per_user=2.5),
        dict(realizations=1.5),
        dict(seed=1.5),
        # Finite sides whose phase 2 pi side a float cannot hold.
        dict(region_side=5e307),
        dict(region_side=1e308),
        # A range is a (min, max) tuple: a list used to raise TypeError, and
        # a third value was accepted and then dropped on serialization.
        dict(distance_range=(80.0, 90.0, 100.0)),
        dict(distance_range=[80.0, 100.0]),
        # Used to construct and then fail at the first positioning.
        dict(sca={"multistart": 1}),
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError):
        ScenarioConfig(**bad)


@pytest.mark.parametrize(
    "field,value",
    [
        ("distance_range", (80.0, 90.0, 100.0)),
        ("distance_range", [80.0, 100.0]),
        ("distance_range", 90.0),
        ("sca", {"multistart": 1}),
    ],
)
def test_config_shapes_are_named_by_field(field, value):
    # The message starts with the field, so resolve_config names the key.
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("field", ["num_users", "paths_per_user", "realizations", "seed"])
def test_config_counts_are_integers_named_by_field(field):
    # The message starts with the field, so resolve_config names the key;
    # numpy integers are integers; a bool, a string and 6.0 are not counts.
    for value in (2.5, True, False, "6", 6.0):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ScenarioConfig(**{field: value})
    assert getattr(ScenarioConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda v: ScaParams(threshold=v), "threshold"),
        (lambda v: ScenarioConfig(p_max_dbm=v), "p_max_dbm"),
        (lambda v: ScenarioConfig(noise_dbm=v), "noise_dbm"),
        (lambda v: ScenarioConfig(pathloss_exponent=v), "pathloss_exponent"),
        (lambda v: ScenarioConfig(region_side=v), "region_side"),
        (lambda v: ScenarioConfig(r_min=v), "r_min"),
        (lambda v: ScenarioConfig(distance_range=(v, 2.0)), "distance_range"),
        (lambda v: RateRequirement(v), "r_min"),
        (lambda v: MoveRegion(v), "region_side"),
        (lambda v: Position(0.0, v), "position y"),
    ],
    ids=[
        "threshold", "p_max_dbm", "noise_dbm", "pathloss_exponent", "region_side",
        "config_r_min", "distance_range", "rate_requirement", "move_region", "position_y",
    ],
)
def test_float_fields_reject_bools_named_by_field(build, field):
    # float() reads True as 1.0 and False as 0.0, and each of these read a
    # bool as a valid value; the message starts with the field.
    for value in (True, False, np.True_, np.False_):
        message = f"^{field} must be a number, not a bool, got {value}"
        with pytest.raises(ValueError, match=message):
            build(value)
    # float() parses a string, so a string field used to fail later with a
    # TypeError naming no field; None did the same.
    for value in ("2", b"2", None):
        with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
            build(value)


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda v: ScenarioConfig(p_max_dbm=v), "p_max_dbm"),
        (lambda v: ScenarioConfig(noise_dbm=v), "noise_dbm"),
        (lambda v: ScenarioConfig(pathloss_exponent=v), "pathloss_exponent"),
        (lambda v: ScenarioConfig(region_side=v), "region_side"),
        (lambda v: ScenarioConfig(distance_range=(80.0, v)), "distance_range"),
        (lambda v: MoveRegion(v), "region_side"),
        (lambda v: Position(v, 0.0), "position x"),
        (lambda v: Position(0.0, v), "position y"),
        (lambda v: ScaParams(threshold=v), "threshold"),
    ],
    ids=[
        "p_max_dbm", "noise_dbm", "pathloss_exponent", "region_side", "distance_range",
        "move_region", "position_x", "position_y", "threshold",
    ],
)
def test_float_fields_reject_numbers_too_large_for_a_float(build, field):
    # float(10**400) raised OverflowError, or a message naming another field;
    # ScaParams took the threshold, and serializing the config then raised
    # OverflowError. Each names its field, as the sweep axes do.
    for value in (10**400, -(10**400)):
        with pytest.raises(ValueError, match=f"^{field} must fit in a float"):
            build(value)


@pytest.mark.parametrize(
    "field,value",
    [
        ("p_max_dbm", math.inf),
        ("noise_dbm", -math.inf),
        ("pathloss_exponent", math.nan),
        ("distance_range", (80.0, math.inf)),
        ("region_side", math.nan),
        ("r_min", math.inf),
        ("noise_dbm", math.nan),
        ("pathloss_exponent", math.inf),
        ("distance_range", (math.nan, 100.0)),
        ("distance_range", (-math.inf, 100.0)),
    ],
)
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ScenarioConfig(**{field: value})


# --- scheme formulas ---


def test_oma_single_user_is_plain_rate():
    assert_allclose(oma_sum_rate([2.0], 5.0, 1.0), math.log2(11.0), rtol=1e-12)


def test_oma_equal_gains_match_single_user_total():
    one = oma_sum_rate([0.5], 8.0, 1.0)
    two = oma_sum_rate([0.5, 0.5], 8.0, 1.0)
    assert_allclose(two, one, rtol=1e-12)


def test_oma_sum_rate_lives_in_noma():
    assert sim.oma_sum_rate is noma.oma_sum_rate
    assert manoma.oma_sum_rate is noma.oma_sum_rate


def test_oma_zero_gains_zero_rate():
    assert oma_sum_rate([0.0, 0.0], 10.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        oma_sum_rate([-1.0], 10.0, 1.0)


def test_upper_bound_hand_value():
    ch = UserChannel(angles=((1.0, 1.0),), prv=np.array([1.0 + 0j]))
    assert_allclose(aligned_sum_rate([ch.amplitude_sum], p_max=1.0, noise=1.0), 1.0, rtol=1e-12)


@pytest.mark.bitwise
def test_sweep_upper_bound_column_is_upper_bound_bit_for_bit():
    # The UPPER-BOUND column is aligned_sum_rate of the draw set's amplitude
    # sums, prefixes of a draw set included.
    cfg = _small_cfg()
    caps = (0.0, 7.5, 20.0)
    noise = dbm_to_mw(cfg.noise_dbm)
    for index in range(3):
        table = sim._realization_table(cfg, (2, 3), caps, index)
        sums = draw_users(cfg, index, 3).amplitude_sums
        expected = [
            aligned_sum_rate(sums[:k], dbm_to_mw(p_dbm), noise) for k in (2, 3) for p_dbm in caps
        ]
        assert table[:, SCHEMES.index("UPPER-BOUND")].tolist() == expected


def test_upper_bound_tight_for_single_path_channels():
    # With one path per user there is no phase misalignment to fix, so NOMA
    # with no rate constraints transmits at full power and meets the cap.
    rng = np.random.default_rng(60)
    channels = [
        UserChannel(
            angles=((rng.uniform(0, math.pi), rng.uniform(0, math.pi)),),
            prv=np.array([rng.standard_normal() + 1j * rng.standard_normal()]),
        )
        for _ in range(3)
    ]
    gains = [ch.power for ch in channels]
    reqs = [RateRequirement(0.0)] * 3
    sol = solve(gains, reqs, p_max=4.0, noise=1.0)
    assert sol.feasible
    sums = [ch.amplitude_sum for ch in channels]
    assert_allclose(sol.sum_rate, aligned_sum_rate(sums, 4.0, 1.0), rtol=1e-9)


# --- single realizations ---


def test_draw_users_samples_every_channel_before_positioning(monkeypatch):
    calls = []
    for name in ("sample_user_channel", "optimize_position"):
        fn = getattr(sim, name)

        def spy(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sim, name, spy)
    draw_users(_small_cfg(), 0, 3)
    assert calls == ["sample_user_channel"] * 3 + ["optimize_position"] * 3


@pytest.mark.bitwise
@pytest.mark.parametrize("num_users,paths", [(1, 1), (6, 5), (32, 5), (8, 17)])
def test_draw_set_matches_per_user_channel_gain_bitwise(monkeypatch, num_users, paths):
    # draw_users takes every user's gain at its position and at the center
    # and its amplitude sum from the user's own channel, bit for bit.
    channels, positions = [], []

    def sample_spy(*args, _fn=sim.sample_user_channel):
        channels.append(_fn(*args))
        return channels[-1]

    def position_spy(*args, _fn=sim.optimize_position, **kwargs):
        result = _fn(*args, **kwargs)
        positions.append(result[0])
        return result

    monkeypatch.setattr(sim, "sample_user_channel", sample_spy)
    monkeypatch.setattr(sim, "optimize_position", position_spy)
    draws = draw_users(ScenarioConfig(num_users=num_users, paths_per_user=paths), 0, num_users)
    assert draws.positions.tolist() == [[z.x, z.y] for z in positions]
    origin = Position(0.0, 0.0)
    assert draws.ma_gains.tolist() == [
        channel_gain(Position(*draws.positions[k]), ch) for k, ch in enumerate(channels)
    ]
    assert draws.fpa_gains.tolist() == [channel_gain(origin, ch) for ch in channels]
    assert draws.amplitude_sums.tolist() == [ch.amplitude_sum for ch in channels]
    assert draws == draws and {draws} == {draws}


def test_sweep_calls_the_traced_layers_once_per_instance(monkeypatch):
    # The benchmark's tracer wraps sim.solve and sim.optimize_position and
    # reads one span per call: a solve per (point, NOMA scheme) with a scalar
    # p_max and a bool verdict, and a positioning per user.
    solves, positions = [], []

    def solve_spy(gains, reqs, p_max, noise, _fn=sim.solve):
        sol = _fn(gains, reqs, p_max, noise)
        solves.append((p_max, sol))
        return sol

    def position_spy(*args, _fn=sim.optimize_position, **kwargs):
        positions.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(sim, "solve", solve_spy)
    monkeypatch.setattr(sim, "optimize_position", position_spy)
    cfg = _small_cfg(realizations=2)
    points = [0.0, 10.0, 20.0]
    sweep_power(cfg, points)
    assert len(solves) == cfg.realizations * len(points) * 2
    assert all(isinstance(p_max, float) for p_max, _ in solves)
    assert all(type(sol.feasible) is bool for _, sol in solves)
    assert len(positions) == cfg.realizations * cfg.num_users


def test_draw_users_of_no_users_is_an_empty_record():
    draws = draw_users(_small_cfg(), 0, 0)
    assert draws.positions.shape == (0, 2)
    assert draws.ma_gains.shape == draws.fpa_gains.shape == draws.amplitude_sums.shape == (0,)


@pytest.mark.parametrize(
    "index, count, name",
    [(-1, 2, "index"), (1.0, 2, "index"), (True, 2, "index"), ("1", 2, "index"),
     (0, -1, "count"), (0, 2.0, "count"), (0, np.True_, "count"), (0, "2", "count"),
     (0, 6.0, "count")],
    ids=["index-1", "index1.0", "indexTrue", "index'1'", "count-1", "count2.0",
         "countnp.True_", "count'2'", "count6.0"],
)
def test_draw_users_rejects_bad_index_and_count(index, count, name):
    # Each used to reach numpy's seeding or spawn and fail there, with an
    # OverflowError, a TypeError or a message naming neither argument.
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 0, got "):
        draw_users(_small_cfg(), index, count)


def test_run_realization_rejects_a_negative_index():
    with pytest.raises(ValueError, match="^index must be an integer of at least 0, got -1"):
        run_realization(_small_cfg(), -1)


def test_realization_deterministic():
    cfg = _small_cfg()
    a = run_realization(cfg, 0)
    b = run_realization(cfg, 0)
    assert a == b


@pytest.mark.bitwise
def test_point_region_collapses_ma_to_fpa():
    cfg = _small_cfg(region_side=0.0)
    rates = run_realization(cfg, 1)
    assert rates["NOMA-MA"] == rates["NOMA-FPA"] or (
        math.isnan(rates["NOMA-MA"]) and math.isnan(rates["NOMA-FPA"])
    )
    assert rates["OMA-MA"] == rates["OMA-FPA"]


@pytest.mark.bitwise
def test_single_path_collapses_ma_to_fpa():
    cfg = _small_cfg(paths_per_user=1)
    rates = run_realization(cfg, 2)
    assert rates["OMA-MA"] == rates["OMA-FPA"]
    if not math.isnan(rates["NOMA-MA"]):
        assert rates["NOMA-MA"] == rates["NOMA-FPA"]


def test_per_realization_scheme_ordering():
    cfg = _small_cfg(num_users=4, realizations=1)
    checked_noma = 0
    for r in range(30):
        rates = run_realization(cfg, r)
        bound = rates["UPPER-BOUND"]
        for scheme in SCHEMES[:4]:
            if not math.isnan(rates[scheme]):
                assert rates[scheme] <= bound + 1e-9
        assert rates["OMA-MA"] >= rates["OMA-FPA"] - 1e-9
        if not math.isnan(rates["NOMA-FPA"]):
            # Optimized positions only improve gains, so the movable variant
            # stays feasible and at least as good.
            assert not math.isnan(rates["NOMA-MA"])
            assert rates["NOMA-MA"] >= rates["NOMA-FPA"] - 1e-9
        if not math.isnan(rates["NOMA-MA"]):
            assert rates["NOMA-MA"] >= rates["OMA-MA"] - 1e-9
            checked_noma += 1
        if not math.isnan(rates["NOMA-FPA"]):
            assert rates["NOMA-FPA"] >= rates["OMA-FPA"] - 1e-9
    assert checked_noma >= 10


def test_gain_first_pipeline_beats_random_positions(monkeypatch):
    # Decoupling check: optimizing each user's gain first is never worse
    # than any alternative position set with powers re-optimized.
    from manoma.channel import MoveRegion

    channels = []

    def sample_spy(*args, _fn=sim.sample_user_channel):
        channels.append(_fn(*args))
        return channels[-1]

    monkeypatch.setattr(sim, "sample_user_channel", sample_spy)
    cfg = _small_cfg(sca=ScaParams(multistart=8))
    region = MoveRegion(cfg.region_side)
    noise = dbm_to_mw(cfg.noise_dbm)
    p_max = dbm_to_mw(cfg.p_max_dbm)
    reqs = [RateRequirement(cfg.r_min)] * cfg.num_users
    compared = 0
    for r in range(10):
        channels.clear()
        draws = draw_users(cfg, r, cfg.num_users)
        pipeline = solve(draws.ma_gains, reqs, p_max, noise)
        alt_rng = np.random.default_rng(1000 + r)
        for _ in range(5):
            # One random position per user, on the user's channel.
            xy = alt_rng.uniform(-region.half, region.half, (cfg.num_users, 2))
            alt_gains = [channel_gain(Position(*z), ch) for z, ch in zip(xy.tolist(), channels)]
            alt = solve(alt_gains, reqs, p_max, noise)
            if alt.feasible:
                assert pipeline.feasible
                assert pipeline.sum_rate >= alt.sum_rate - 1e-9
                compared += 1
    assert compared >= 20


# --- aggregation ---


def test_monte_carlo_single_realization_matches_run():
    cfg = _small_cfg(realizations=1)
    rows = sweep_power(cfg, [cfg.p_max_dbm])
    single = run_realization(cfg, 0)
    for row in rows:
        assert row.sweep_value == cfg.p_max_dbm
        if math.isnan(single[row.scheme]):
            assert row.infeasible_count == 1
            assert math.isnan(row.mean_sum_rate)
        else:
            assert_allclose(row.mean_sum_rate, single[row.scheme], rtol=1e-12)
            assert row.std_sum_rate == 0.0
        assert row.realizations == 1


@pytest.mark.bitwise
def test_monte_carlo_worker_count_invariance():
    cfg = _small_cfg(num_users=2, paths_per_user=2, realizations=6)
    serial = sweep_power(cfg, [cfg.p_max_dbm], workers=1)
    parallel = sweep_power(cfg, [cfg.p_max_dbm], workers=3)
    assert serial == parallel


@pytest.mark.parametrize(
    "workers, realizations, started",
    [(8, 2, [2]), (2, 1, [])],
    ids=["more-workers", "one-realization"],
)
def test_pool_never_starts_more_processes_than_realizations(
    monkeypatch, workers, realizations, started
):
    # A pool starts all of max_workers at its first task; this one records
    # how many it was asked for and maps in this process.
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = _small_cfg(num_users=2, paths_per_user=2, realizations=realizations)
    rows = sweep_power(cfg, [cfg.p_max_dbm], workers=workers)
    assert asked == started
    assert rows == sweep_power(cfg, [cfg.p_max_dbm], workers=1)


def test_infeasible_draws_excluded_from_mean():
    # Tight requirements at low power leave a mix of feasible and infeasible
    # draws; the mean must cover exactly the feasible ones.
    cfg = _small_cfg(num_users=4, r_min=1.0, p_max_dbm=5.0, realizations=40)
    results = {row.scheme: row for row in sweep_power(cfg, [cfg.p_max_dbm])}
    rates = [run_realization(cfg, r)["NOMA-FPA"] for r in range(40)]
    feasible = [x for x in rates if not math.isnan(x)]
    res = results["NOMA-FPA"]
    assert res.infeasible_count == 40 - len(feasible)
    assert 0 < res.infeasible_count < 40
    assert_allclose(res.mean_sum_rate, np.mean(feasible), rtol=1e-12)
    assert_allclose(res.std_sum_rate, np.std(feasible, ddof=1), rtol=1e-12)
    assert res.infeasible_fraction == res.infeasible_count / 40
    for scheme in ("OMA-MA", "OMA-FPA", "UPPER-BOUND"):
        assert results[scheme].infeasible_count == 0


# --- sweeps ---


def test_sweep_power_shares_draws_across_points():
    cfg = _small_cfg(realizations=4)
    rows = sweep_power(cfg, [10.0, 10.0])
    first, second = rows[: len(SCHEMES)], rows[len(SCHEMES) :]
    assert first == second


def test_sweep_power_monotone_and_bounded():
    cfg = _small_cfg(num_users=2, realizations=8, r_min=0.1)
    rows = sweep_power(cfg, [0.0, 5.0, 10.0, 15.0])
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row.scheme, []).append(row)
    for scheme, entries in by_scheme.items():
        means = [e.mean_sum_rate for e in entries if not math.isnan(e.mean_sum_rate)]
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))
    for i in range(4):
        point = rows[i * len(SCHEMES) : (i + 1) * len(SCHEMES)]
        bound = point[-1].mean_sum_rate
        for row in point[:-1]:
            if not math.isnan(row.mean_sum_rate):
                assert row.mean_sum_rate <= bound + 1e-9


@pytest.mark.bitwise
def test_sweep_users_prefix_matches_direct_run():
    cfg = _small_cfg(num_users=4, realizations=4)
    rows = sweep_users(cfg, [2, 4])
    small = sweep_power(
        ScenarioConfig(
            num_users=2,
            paths_per_user=cfg.paths_per_user,
            realizations=cfg.realizations,
            seed=cfg.seed,
            sca=cfg.sca,
        ),
        [cfg.p_max_dbm],
    )
    for row, res in zip(rows[: len(SCHEMES)], small):
        assert row.scheme == res.scheme
        a, b = row.mean_sum_rate, res.mean_sum_rate
        assert (math.isnan(a) and math.isnan(b)) or a == b


def test_sweep_users_single_user_noma_equals_oma():
    cfg = _small_cfg(r_min=0.0, realizations=6)
    rows = {row.scheme: row for row in sweep_users(cfg, [1])}
    assert_allclose(rows["NOMA-MA"].mean_sum_rate, rows["OMA-MA"].mean_sum_rate, rtol=1e-12)
    assert_allclose(rows["NOMA-FPA"].mean_sum_rate, rows["OMA-FPA"].mean_sum_rate, rtol=1e-12)


def test_sweep_input_validation():
    cfg = _small_cfg()
    with pytest.raises(ValueError):
        sweep_power(cfg, [])
    with pytest.raises(ValueError):
        sweep_users(cfg, [])
    # A count of 2.5 is rejected, not truncated to 2.
    for counts in ([0, 2], [2.5], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="user counts must be integers of at least 1"):
            sweep_users(cfg, counts)
    # float() reads a bool as 0 or 1, so a bool is not a count.
    for counts, value in (([True, 3], True), ([np.True_], True), ([2, np.False_], False)):
        with pytest.raises(ValueError, match=f"user count must be a number, not a bool, got {value}"):
            sweep_users(cfg, counts)


def test_sweep_axes_reject_numbers_too_large_for_a_float(positioned):
    # float(10**400) raises OverflowError; each axis names itself instead,
    # before any draw.
    cfg = _small_cfg()
    for check, axis in ((sim.power_points, "power point"), (sim.user_counts, "user count")):
        with pytest.raises(ValueError, match=f"^{axis} must fit in a float"):
            check([10**400])
    with pytest.raises(ValueError, match="^power point must fit in a float"):
        sweep_power(cfg, [10.0, -10**400])
    with pytest.raises(ValueError, match="^user count must fit in a float"):
        sweep_users(cfg, [1, 10**400])
    assert positioned == []


@pytest.fixture
def positioned(monkeypatch):
    """The arguments of every optimize_position call the test makes."""
    calls = []

    def position_spy(*args, _fn=sim.optimize_position, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(sim, "optimize_position", position_spy)
    return calls


@pytest.mark.parametrize(
    "point, message",
    [
        (math.nan, "power point must be finite in mW"),
        (3090.0, "power point must be finite in mW"),
        (-math.inf, "power point must be finite, got -inf"),
        (True, "power point must be a number, not a bool, got True"),
        (np.False_, "power point must be a number, not a bool, got False"),
    ],
    ids=["nan", "3090.0", "-inf", "True", "np.False_"],
)
def test_sweep_power_rejects_points_before_any_draw(positioned, point, message):
    # 3090 dBm is finite but overflows in mW, and -inf dBm is 0 mW but not
    # finite in dBm; p_max_dbm obeys the same rule. A bool is not a point.
    with pytest.raises(ValueError, match=message):
        sweep_power(_small_cfg(), [point])
    assert positioned == []


@pytest.mark.parametrize("workers", [0, -4, 2.5, 2.0, True])
def test_sweeps_reject_workers_below_one_before_any_draw(positioned, workers):
    cfg = _small_cfg()
    message = f"^workers must be an integer of at least 1, got {workers!r}$"
    with pytest.raises(ValueError, match=message):
        sweep_power(cfg, [0.0], workers=workers)
    with pytest.raises(ValueError, match=message):
        sweep_users(cfg, [1], workers=workers)
    assert positioned == []
