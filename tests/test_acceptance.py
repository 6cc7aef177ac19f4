"""Acceptance gate: ten pinned criteria, one test each.

Each test prints one ACCEPTANCE line on success; a failing criterion fails
its test. Tolerances are frozen here on purpose; loosening them is a
contract change, not a fix.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from manoma.channel import MoveRegion, PathAngles, Position, UserChannel, channel_gain
from manoma.cli import main
from manoma.noma import (
    RateRequirement,
    brute_force_allocation,
    sinr_and_rates,
    solve,
    sum_rate_collapsed,
)
from manoma.positioner import (
    ScaParams,
    grid_oracle,
    lipschitz_delta,
    optimize_position,
    sca_trajectory,
    surrogate_gradient,
    surrogate_value,
)
from manoma.sim import SCHEMES, ScenarioConfig, _realization_table


def _random_channel(rng, num_paths):
    angles = tuple(
        PathAngles(rng.uniform(0, math.pi), rng.uniform(0, math.pi)) for _ in range(num_paths)
    )
    prv = rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)
    return UserChannel(angles=angles, prv=prv)


def _random_position(rng, span=2.0):
    return Position(float(rng.uniform(-span, span)), float(rng.uniform(-span, span)))


def test_criterion_01_gradient_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        ch = _random_channel(rng, int(rng.integers(1, 9)))
        z = _random_position(rng)
        grad = surrogate_gradient(z, ch)
        fd = np.array(
            [
                (
                    surrogate_value(Position(z.x + h, z.y), z, ch)
                    - surrogate_value(Position(z.x - h, z.y), z, ch)
                )
                / (2 * h),
                (
                    surrogate_value(Position(z.x, z.y + h), z, ch)
                    - surrogate_value(Position(z.x, z.y - h), z, ch)
                )
                / (2 * h),
            ]
        )
        floor = 1e-8 * (1.0 + ch.amplitude_sum**2)
        assert_allclose(fd, grad, rtol=1e-6, atol=floor)
        norm = float(np.linalg.norm(grad))
        if norm > 1e-2 * (1.0 + ch.amplitude_sum**2):
            # relative error is only meaningful away from critical points;
            # near-zero gradients are covered by the absolute floor above
            worst = max(worst, float(np.linalg.norm(fd - grad)) / norm)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"gradient oracle took {elapsed:.1f}s, budget is 5s"
    print(
        f"ACCEPTANCE 1 PASS: analytic gradient vs central differences, 1000 instances, "
        f"worst relative error {worst:.2e} away from critical points ({elapsed:.2f}s)"
    )


def test_criterion_02_majorant_oracle():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    h = 1e-4
    violations = 0
    for _ in range(1000):
        ch = _random_channel(rng, int(rng.integers(1, 9)))
        z_ref = _random_position(rng)
        delta = lipschitz_delta(z_ref, ch)
        z = _random_position(rng)
        f = lambda p: surrogate_value(p, z_ref, ch)
        fxx = (f(Position(z.x + h, z.y)) - 2 * f(z) + f(Position(z.x - h, z.y))) / h**2
        fyy = (f(Position(z.x, z.y + h)) - 2 * f(z) + f(Position(z.x, z.y - h))) / h**2
        fxy = (
            f(Position(z.x + h, z.y + h))
            - f(Position(z.x + h, z.y - h))
            - f(Position(z.x - h, z.y + h))
            + f(Position(z.x - h, z.y - h))
        ) / (4 * h**2)
        eigs = np.linalg.eigvalsh(np.array([[fxx, fxy], [fxy, fyy]]))
        if np.max(np.abs(eigs)) > delta * (1 + 1e-6):
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0, f"{violations} Hessian samples exceeded the curvature bound"
    assert elapsed < 10.0, f"majorant oracle took {elapsed:.1f}s, budget is 10s"
    print(
        f"ACCEPTANCE 2 PASS: curvature constant dominates 1000 sampled Hessians, "
        f"zero violations ({elapsed:.2f}s)"
    )


def test_criterion_03_minorization_chain():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    slack = 1e-9
    for _ in range(1000):
        ch = _random_channel(rng, int(rng.integers(2, 9)))
        z_ref = _random_position(rng)
        z = _random_position(rng)
        gain_ref = channel_gain(z_ref, ch)
        sbar_ref = surrogate_value(z_ref, z_ref, ch)
        sbar = surrogate_value(z, z_ref, ch)
        # true gain >= 2*linearized - anchor value
        assert channel_gain(z, ch) - (2 * sbar - gain_ref) >= -slack
        # linearized >= quadratic Taylor minorant
        grad = surrogate_gradient(z_ref, ch)
        delta = lipschitz_delta(z_ref, ch)
        dz = z.as_array() - z_ref.as_array()
        taylor = sbar_ref + grad @ dz - 0.5 * delta * dz @ dz
        assert sbar - taylor >= -slack
        # both bounds tight at the expansion point
        assert abs(sbar_ref - gain_ref) < slack * (1.0 + gain_ref)
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 3 PASS: two-level minorization bounds hold and are tight at the "
        f"anchor, 1000 instances ({elapsed:.2f}s)"
    )


def test_criterion_04_sca_ascent_and_near_optimality():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    region = MoveRegion(2.0)
    params = ScaParams(multistart=10)
    within = 0
    total = 100
    for _ in range(total):
        ch = _random_channel(rng, 3)
        # ascent property on the raw trajectory from the origin
        states = sca_trajectory(ch, region, ScaParams(), Position(0.0, 0.0))
        gains = [s.gain for s in states]
        assert all(b >= a for a, b in zip(gains, gains[1:])), "gain sequence decreased"
        _, sca_gain, _ = optimize_position(ch, region, params, rng=rng)
        _, ref_gain = grid_oracle(ch, region, step=0.01)
        if sca_gain >= 0.98 * ref_gain:
            within += 1
    elapsed = time.perf_counter() - start
    assert within >= 90, f"only {within}/100 channels within 2% of the grid search"
    assert elapsed < 120.0, f"ascent/optimality check took {elapsed:.1f}s, budget is 120s"
    print(
        f"ACCEPTANCE 4 PASS: monotone ascent on all runs; {within}/100 channels within "
        f"2% of an exhaustive 0.01-wavelength grid ({elapsed:.2f}s)"
    )


def test_criterion_05_closed_form_matches_brute_force():
    start = time.perf_counter()
    worst = 0.0
    for num_users in (2, 3):
        rng = np.random.default_rng(104 + num_users)
        feasible_seen = 0
        attempts = 0
        while feasible_seen < 200:
            attempts += 1
            assert attempts <= 2000, "could not find 200 feasible instances"
            gains = rng.exponential(1.0, num_users)
            reqs = [RateRequirement(float(rng.uniform(0.05, 0.8))) for _ in range(num_users)]
            p_max = float(rng.uniform(1.0, 50.0))
            closed = solve(gains, reqs, p_max, 1.0)
            oracle = brute_force_allocation(gains, [r.alpha for r in reqs], p_max, 1.0)
            assert closed.feasible == oracle.feasible, "feasibility verdicts disagree"
            if not closed.feasible:
                continue
            feasible_seen += 1
            obj_closed = float(np.dot(gains, closed.powers))
            obj_oracle = float(np.dot(gains, oracle.powers))
            assert_allclose(obj_closed, obj_oracle, rtol=1e-6)
            worst = max(worst, abs(obj_closed - obj_oracle) / obj_oracle)
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 5 PASS: closed-form power control matches exhaustive order + LP "
        f"oracle on 200 feasible instances for K=2 and K=3, worst objective deviation "
        f"{worst:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_06_telescoping_identity():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        gains = rng.exponential(1.0, k)
        powers = rng.uniform(0.0, 10.0, k)
        order = rng.permutation(k) + 1
        noise = float(rng.uniform(0.1, 2.0))
        gap = abs(
            float(np.sum(sinr_and_rates(gains, order, powers, noise)))
            - sum_rate_collapsed(gains, powers, noise)
        )
        worst = max(worst, gap)
        assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 6 PASS: per-user rates telescope to the collapsed sum rate on "
        f"10000 random triples, worst gap {worst:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_07_minimum_rate_tightness():
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    feasible_seen = 0
    attempts = 0
    users_checked = 0
    while feasible_seen < 200:
        attempts += 1
        assert attempts <= 4000, "could not find 200 feasible instances"
        k = int(rng.integers(3, 7))
        gains = rng.exponential(1.0, k)
        reqs = [RateRequirement(float(rng.uniform(0.3, 1.5))) for _ in range(k)]
        p_max = float(rng.uniform(0.5, 5.0))
        sol = solve(gains, reqs, p_max, 1.0)
        if not sol.feasible:
            continue
        feasible_seen += 1
        ranks = np.asarray(sol.order)
        seq = np.argsort(ranks)
        p_seq = sol.powers[seq]
        below = np.nonzero(p_seq < p_max * (1 - 1e-12))[0]
        if len(below) == 0:
            continue
        # everyone decoded after the first back-off user holds exactly the
        # minimum-rate power
        for pos in range(int(below[0]) + 1, k):
            user = seq[pos]
            assert abs(sol.rates[user] - reqs[user].r_min) <= 1e-8
            users_checked += 1
    elapsed = time.perf_counter() - start
    assert users_checked >= 100, f"only {users_checked} minimum-power users exercised"
    print(
        f"ACCEPTANCE 7 PASS: minimum-power users sit exactly at their required rate "
        f"({users_checked} users across 200 feasible instances) ({elapsed:.2f}s)"
    )


def test_criterion_08_power_sweep_reproduction():
    start = time.perf_counter()
    cfg = ScenarioConfig(seed=20260817, realizations=200)
    points = (0.0, 5.0, 10.0, 15.0, 20.0)
    tables = np.array(
        [_realization_table(cfg, (cfg.num_users,), points, r) for r in range(cfg.realizations)]
    )
    # per-realization: every scheme is capped by the aligned-phase bound
    diff = tables[:, :, :4] - tables[:, :, 4:]
    assert np.all(np.isnan(diff) | (diff <= 1e-9)), "a scheme exceeded the upper bound"
    means = np.nanmean(tables, axis=0)  # (points, schemes)
    for i, p in enumerate(points):
        m = means[i]
        assert m[0] > m[1] > m[2] > m[3], (
            f"mean ordering violated at {p} dBm: "
            + ", ".join(f"{s}={v:.3f}" for s, v in zip(SCHEMES, m))
        )
    assert np.all(np.diff(means, axis=0) >= -1e-9), "a mean decreased with more power"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"power sweep took {elapsed:.1f}s, budget is 600s"
    print(
        "ACCEPTANCE 8 PASS: movable-antenna NOMA > fixed NOMA > movable OMA > fixed "
        "OMA at every power point, all capped by the bound, means monotone "
        f"({elapsed:.1f}s, 200 realizations)"
    )


def test_criterion_09_user_sweep_reproduction():
    start = time.perf_counter()
    cfg = ScenarioConfig(seed=20260818, realizations=200, p_max_dbm=10.0)
    ks = (2, 4, 6, 8)
    tables = np.array(
        [_realization_table(cfg, ks, (cfg.p_max_dbm,), r) for r in range(cfg.realizations)]
    )
    means = np.nanmean(tables, axis=0)  # (ks, schemes)
    noma_ma = means[:, SCHEMES.index("NOMA-MA")]
    oma_ma = means[:, SCHEMES.index("OMA-MA")]
    assert np.all(np.diff(noma_ma) >= -1e-9), f"NOMA-MA mean decreased in K: {noma_ma}"
    noma_slope = float(np.polyfit(ks, noma_ma, 1)[0])
    oma_slope = float(np.polyfit(ks, oma_ma, 1)[0])
    assert abs(oma_slope) < 0.2 * abs(noma_slope), (
        f"orthogonal-access slope {oma_slope:.4f} is not flat relative to "
        f"{noma_slope:.4f}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"user sweep took {elapsed:.1f}s, budget is 600s"
    print(
        f"ACCEPTANCE 9 PASS: NOMA-MA grows with user count (slope {noma_slope:.3f}), "
        f"orthogonal access stays flat (slope {oma_slope:.3f}) ({elapsed:.1f}s)"
    )


def test_criterion_10_byte_identical_csv(tmp_path, capsys):
    start = time.perf_counter()
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "num_users = 2\npaths_per_user = 2\nrealizations = 4\nseed = 5\n"
    )
    outputs = []
    for name, workers in (("r1.csv", "1"), ("r2.csv", "1"), ("r3.csv", "2")):
        out = tmp_path / name
        code = main(
            [
                "sweep",
                "--config",
                str(cfg_path),
                "--points",
                "0,10",
                "--workers",
                workers,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1], "repeat run changed the CSV"
    assert outputs[0] == outputs[2], "worker count changed the CSV"
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 10 PASS: identical config gives byte-identical CSV across runs "
        f"and worker counts ({elapsed:.2f}s)"
    )
