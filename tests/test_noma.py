import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from manoma.channel import DegenerateChannelError, UserChannel, sample_user_channel
from manoma.noma import (
    RATE_SLACK,
    NomaSolution,
    RateRequirement,
    aligned_sum_rate,
    check_feasibility,
    decoding_order,
    minimum_rate_powers,
    oma_sum_rate,
    power_allocation,
    sinr_and_rates,
    solve,
)
from manoma.oracles import brute_force_allocation, fixed_order_lp_powers, sum_rate_collapsed
from manoma.sim import ScenarioConfig, dbm_to_mw, draw_users

# One default channel, for the upper bound's input rule.
_CHANNELS = [sample_user_channel(ScenarioConfig(), np.random.default_rng(0))]


def _random_instance(rng, num_users, p_max_span=(1.0, 50.0), r_span=(0.05, 0.8)):
    gains = rng.exponential(1.0, num_users)
    reqs = [RateRequirement(float(rng.uniform(*r_span))) for _ in range(num_users)]
    p_max = float(rng.uniform(*p_max_span))
    return gains, reqs, p_max, 1.0


@functools.lru_cache(maxsize=None)
def _sweep_gains(num_users, r_min, index):
    """Movable- and fixed-antenna gains of draw set `index` of a seed-0 sweep."""
    draws = draw_users(ScenarioConfig(num_users=num_users, r_min=r_min), index, num_users)
    return draws.ma_gains, draws.fpa_gains


# Sweep shapes for the optimality oracles: users, r_min, the cap in dBm at
# which adjacent swaps are tried, and the number of draw sets.
_SWEEP_CASES = {
    "sweep-k6": (6, 0.25, 10.0, 8),
    "sweep-k32": (32, 0.1, 10.0, 3),
    "sweep-k64": (64, 0.05, 20.0, 2),
}


def _sweep_instances(case, caps_dbm):
    """(gains, reqs, p_max, noise) in sweep units: each draw set's movable-
    and fixed-antenna gains at each cap, against the default -80 dBm noise."""
    num_users, r_min, _, draw_sets = _SWEEP_CASES[case]
    reqs = [RateRequirement(r_min)] * num_users
    noise = dbm_to_mw(ScenarioConfig().noise_dbm)
    for index in range(draw_sets):
        for gains in _sweep_gains(num_users, r_min, index):
            for p_dbm in caps_dbm:
                yield gains, reqs, dbm_to_mw(p_dbm), noise


# --- rate requirement ---


def test_alpha_matches_rate():
    for r in (0.0, 0.25, 1.0, 3.5):
        req = RateRequirement(r)
        assert_allclose(req.alpha, 2.0**r - 1.0, rtol=1e-12)
    assert RateRequirement(0.0).alpha == 0.0


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        RateRequirement(-0.1)


@pytest.mark.parametrize("r_min", [math.nan, math.inf])
def test_non_finite_rate_rejected(r_min):
    # A NaN requirement used to be accepted and solve then reported a rate
    # "below the required nan".
    with pytest.raises(ValueError, match="r_min"):
        RateRequirement(r_min)


# --- SINR and rates ---


def test_single_user_rate():
    rates = sinr_and_rates([1.0], (1,), [10.0], 1.0)
    assert_allclose(rates, [math.log2(11.0)], rtol=1e-12)


def test_two_user_hand_example():
    rates = sinr_and_rates([1.0, 1.0], (1, 2), [1.0, 1.0], 1.0)
    assert_allclose(rates, [math.log2(1.5), math.log2(2.0)], rtol=1e-12)


def test_last_decoded_sees_only_noise():
    rng = np.random.default_rng(50)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        g = rng.exponential(1.0, k)
        p = rng.uniform(0, 5, k)
        order = rng.permutation(k) + 1
        rates = sinr_and_rates(g, order, p, noise=0.7)
        last = int(np.argmax(order))
        assert_allclose(rates[last], math.log2(1 + g[last] * p[last] / 0.7), rtol=1e-12)


def test_rate_sum_telescopes():
    rng = np.random.default_rng(51)
    for _ in range(300):
        k = int(rng.integers(1, 8))
        g = rng.exponential(1.0, k)
        p = rng.uniform(0, 10, k)
        order = rng.permutation(k) + 1
        noise = float(rng.uniform(0.1, 2.0))
        rates = sinr_and_rates(g, order, p, noise)
        assert_allclose(np.sum(rates), sum_rate_collapsed(g, p, noise), atol=1e-9)


def test_sum_rate_is_order_invariant():
    rng = np.random.default_rng(52)
    g = rng.exponential(1.0, 5)
    p = rng.uniform(0, 10, 5)
    totals = [
        np.sum(sinr_and_rates(g, rng.permutation(5) + 1, p, 1.0)) for _ in range(10)
    ]
    assert_allclose(totals, totals[0], atol=1e-9)


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        sinr_and_rates([1.0, 1.0], (1, 1), [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        sinr_and_rates([1.0, 1.0], (0, 1), [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        sinr_and_rates([1.0], (1,), [1.0], 0.0)
    with pytest.raises(ValueError):
        sinr_and_rates([1.0], (1,), [-1.0], 1.0)


# --- decoding order ---


def test_order_hand_example():
    assert decoding_order([4.0, 1.0], [1.0, 1.0]) == (1, 2)


def test_order_tie_break_is_user_index():
    assert decoding_order([2.0, 2.0, 2.0], [0.5, 0.5, 0.5]) == (1, 2, 3)


def test_order_invariant_under_gain_scaling():
    rng = np.random.default_rng(53)
    for _ in range(20):
        g = rng.exponential(1.0, 6)
        a = rng.uniform(0.1, 2.0, 6)
        assert decoding_order(g, a) == decoding_order(g * 37.5, a)


def test_unconstrained_users_ranked_last_by_gain():
    g = [5.0, 1.0, 3.0, 2.0]
    a = [0.0, 1.0, 0.0, 1.0]
    # Constrained users 2 and 4 lead (keys 2 and 4); unconstrained users 1
    # and 3 follow in decreasing gain order.
    assert decoding_order(g, a) == (3, 2, 4, 1)


def test_order_rejects_negative_alpha():
    with pytest.raises(ValueError):
        decoding_order([1.0, 1.0], [0.5, -0.5])


# --- power allocation ---


def test_single_user_gets_full_power():
    assert_allclose(power_allocation([2.0], [1.0], p_max=7.0, noise=1.0), [7.0])


def test_two_user_generous_cap_formula():
    g = np.array([3.0, 1.5])
    a = np.array([0.6, 0.9])
    p_max, noise = 40.0, 1.0
    p = power_allocation(g, a, p_max, noise)
    expected_p2 = min(p_max, g[0] * p_max / (a[0] * g[1]) - noise / g[1])
    assert p[0] == p_max
    assert_allclose(p[1], expected_p2, rtol=1e-12)


def test_last_user_minimum_power_against_noise_only():
    g = np.array([1.0, 2.0, 0.5])
    a = np.array([0.3, 0.7, 1.1])
    c = minimum_rate_powers(g, a, noise=2.0)
    assert_allclose(c[-1], 2.0 * a[-1] / g[-1], rtol=1e-12)
    # One level up the chain, the later user's contribution compounds.
    assert_allclose(c[1], 2.0 * a[1] / g[1] * (a[2] + 1.0), rtol=1e-12)


def test_tiny_gain_rejected():
    with pytest.raises(DegenerateChannelError):
        power_allocation([1e-31, 1.0], [0.5, 0.5], 1.0, 1.0)


def test_all_unconstrained_users_transmit_at_cap():
    p = power_allocation([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], p_max=5.0, noise=1.0)
    assert_allclose(p, [5.0, 5.0, 5.0])


def test_back_off_users_hit_their_rate_exactly():
    # Once some user backs off below the cap, everyone decoded later gets
    # exactly the power that meets its own minimum rate.
    rng = np.random.default_rng(54)
    checked = 0
    for _ in range(300):
        gains, reqs, p_max, noise = _random_instance(
            rng, int(rng.integers(3, 7)), p_max_span=(0.5, 5.0), r_span=(0.3, 1.5)
        )
        sol = solve(gains, reqs, p_max, noise)
        if not sol.feasible:
            continue
        ranks = np.asarray(sol.order)
        seq = np.argsort(ranks)
        p_seq = sol.powers[seq]
        below = np.nonzero(p_seq < p_max * (1 - 1e-12))[0]
        if len(below) == 0:
            continue
        for pos in range(int(below[0]) + 1, len(p_seq)):
            user = seq[pos]
            assert abs(sol.rates[user] - reqs[user].r_min) <= 1e-8
            checked += 1
    assert checked >= 30


# --- feasibility ---


def test_single_user_infeasible_diagnostic():
    # Required SINR of 7 against unit noise with gain 0.5 needs 14 mW.
    sol = solve([0.5], [RateRequirement(3.0)], p_max=10.0, noise=1.0)
    assert not sol.feasible
    assert "min-rate power exceeds P_max" in sol.diagnostic
    ok, diag = check_feasibility(sol.powers, sol.rates, [RateRequirement(3.0)], 10.0)
    assert not ok and "min-rate power exceeds P_max" in diag


def test_zero_requirements_always_feasible():
    rng = np.random.default_rng(55)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        gains = rng.exponential(1.0, k)
        reqs = [RateRequirement(0.0)] * k
        sol = solve(gains, reqs, p_max=float(rng.uniform(0.1, 10)), noise=1.0)
        assert sol.feasible
        assert sol.diagnostic is None


def test_power_cap_violation_diagnostic():
    sol = NomaSolution(
        order=(1,),
        powers=np.array([11.0]),
        rates=np.array([2.0]),
        sum_rate=2.0,
        feasible=True,
    )
    ok, diag = check_feasibility(sol.powers, sol.rates, [RateRequirement(0.1)], p_max=10.0)
    assert not ok and "exceeds" in diag


def test_negative_power_diagnostic():
    sol = NomaSolution(
        order=(1, 2),
        powers=np.array([10.0, -1.0]),
        rates=np.array([np.nan, np.nan]),
        sum_rate=float("nan"),
        feasible=True,
    )
    ok, diag = check_feasibility(sol.powers, sol.rates, [RateRequirement(0.1)] * 2, p_max=10.0)
    assert not ok and "negative" in diag


def test_a_power_just_below_zero_is_named_negative():
    # solve gives rates only to nonnegative powers. This power used to pass
    # the power test (it is within 1e-12 p_max of 0), and the verdict blamed
    # user 1 for its NaN rate.
    sol = solve([1.0, 0.5], [RateRequirement(1.0)] * 2, 1.0, 1.0 + 2.2e-16)
    assert -1e-15 < sol.powers[1] < 0.0
    assert np.isnan(sol.rates).all()
    assert not sol.feasible
    assert sol.diagnostic == "user 2 power -4.44089e-16 mW is negative"


# --- solution invariants ---


def test_solution_invariants_on_random_instances():
    rng = np.random.default_rng(56)
    feasible_seen = 0
    for _ in range(200):
        k = int(rng.integers(1, 7))
        gains, reqs, p_max, noise = _random_instance(rng, k)
        sol = solve(gains, reqs, p_max, noise)
        assert sorted(sol.order) == list(range(1, k + 1))
        if not sol.feasible:
            assert sol.diagnostic
            continue
        feasible_seen += 1
        assert np.all(sol.powers >= -1e-12)
        assert np.all(sol.powers <= p_max * (1 + 1e-12))
        assert np.all(sol.rates >= np.array([r.r_min for r in reqs]) - 1e-9)
        assert_allclose(sol.sum_rate, np.sum(sol.rates), atol=1e-9)
        assert_allclose(sol.sum_rate, sum_rate_collapsed(gains, sol.powers, noise), atol=1e-9)
    assert feasible_seen >= 50


def test_sum_rate_monotone_in_power_cap():
    rng = np.random.default_rng(57)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        gains = rng.exponential(1.0, k)
        reqs = [RateRequirement(float(rng.uniform(0.05, 0.5))) for _ in range(k)]
        caps = np.sort(rng.uniform(1.0, 100.0, 4))
        last = -math.inf
        for cap in caps:
            sol = solve(gains, reqs, float(cap), 1.0)
            if not sol.feasible:
                continue
            assert sol.sum_rate >= last - 1e-9
            last = sol.sum_rate


# --- brute force oracle ---


def test_oracle_single_user_full_power():
    sol = brute_force_allocation([2.0], [0.5], p_max=3.0, noise=1.0)
    assert sol.feasible
    assert_allclose(sol.powers, [3.0], rtol=1e-9)


def test_oracle_size_cap():
    with pytest.raises(ValueError):
        brute_force_allocation([1.0] * 5, [0.1] * 5, 1.0, 1.0)


@pytest.mark.parametrize("num_users,instances", [(2, 100), (3, 50)])
def test_closed_form_matches_oracle(num_users, instances):
    rng = np.random.default_rng(58 + num_users)
    feasible_count = 0
    for _ in range(instances):
        gains, reqs, p_max, noise = _random_instance(rng, num_users)
        alphas = [r.alpha for r in reqs]
        closed = solve(gains, reqs, p_max, noise)
        oracle = brute_force_allocation(gains, alphas, p_max, noise)
        assert closed.feasible == oracle.feasible
        if not closed.feasible:
            continue
        feasible_count += 1
        obj_closed = float(np.dot(gains, closed.powers))
        obj_oracle = float(np.dot(gains, oracle.powers))
        assert_allclose(obj_closed, obj_oracle, rtol=1e-6)
        assert_allclose(closed.sum_rate, oracle.sum_rate, rtol=1e-6)
    assert feasible_count >= instances // 3


def test_oracle_reports_infeasible_everywhere():
    # Two users both demanding SINR 7 against unit noise with weak gains
    # cannot be served with 1 mW each under any order.
    gains = [0.5, 0.4]
    reqs = [RateRequirement(3.0), RateRequirement(3.0)]
    oracle = brute_force_allocation(gains, [r.alpha for r in reqs], p_max=1.0, noise=1.0)
    assert not oracle.feasible
    assert "every decoding order" in oracle.diagnostic
    closed = solve(gains, reqs, p_max=1.0, noise=1.0)
    assert not closed.feasible


# --- bitwise oracle: the power-control formulas as per-user loops ---


def _loop_decoding_order(gains, alphas):
    g = np.asarray(gains, dtype=float)
    a = np.asarray(alphas, dtype=float)

    def sort_key(k: int):
        if a[k] > 0.0:
            return (0, -g[k] * (1.0 + 1.0 / a[k]), k)
        return (1, -g[k], k)

    seq = sorted(range(len(g)), key=sort_key)
    ranks = [0] * len(g)
    for position, user in enumerate(seq):
        ranks[user] = position + 1
    return tuple(ranks)


def _loop_minimum_rate_powers(gains, alphas, noise):
    """c_k = noise a_k / g_k times the product of (1 + a) over the users
    after k, that product kept as a running product from the last user."""
    g = np.asarray(gains, dtype=float).tolist()
    a = np.asarray(alphas, dtype=float).tolist()
    c = [0.0] * len(g)
    after = 1.0
    for k in range(len(g) - 1, -1, -1):
        if a[k] > 0.0:
            c[k] = noise * a[k] / g[k] * after
        after *= a[k] + 1.0
    return np.array(c)


def _loop_power_allocation(gains_in_order, alphas_in_order, p_max, noise):
    """power_allocation as one pass over the users in decoding sequence.
    User k's cap reads the sum of g c after it and its reach, the least of
    g_i / a_i - sum(g between i and k) over the constrained users i before
    it, which loses g_k on the way past user k."""
    g = np.asarray(gains_in_order, dtype=float).tolist()
    a = np.asarray(alphas_in_order, dtype=float).tolist()
    c = _loop_minimum_rate_powers(g, a, noise).tolist()
    num = len(g)
    later = [0.0] * num
    for k in range(num - 2, -1, -1):
        later[k] = later[k + 1] + g[k + 1] * c[k + 1]
    p = [p_max] * num
    reach = math.inf
    for k in range(num):
        if k:
            cap = ((p_max * reach - later[k]) - noise) / g[k]
            if cap < p_max:
                p[k:] = [cap] + c[k + 1 :]
                break
        reach -= g[k]
        if a[k] > 0.0:
            reach = min(reach, g[k] / a[k])
    return np.array(p, dtype=float)


def _pair_loop_power_allocation(gains_in_order, alphas_in_order, p_max, noise):
    """The per-pair form of the caps: user k's cap is the least over the
    constrained users i before it of (g_i p_max / a_i - sum(g between i and
    k) p_max - sum(g c after k) - noise) / g_k."""
    g = np.asarray(gains_in_order, dtype=float)
    a = np.asarray(alphas_in_order, dtype=float)
    num = len(g)
    c = _loop_minimum_rate_powers(g, a, noise)
    p = np.empty(num)
    p[0] = p_max
    saturated = True
    for k in range(1, num):
        if not saturated:
            p[k] = c[k]
            continue
        later_c = float(np.sum(g[k + 1 :] * c[k + 1 :]))
        cap = math.inf
        for i in range(k):
            if a[i] <= 0.0:
                continue
            between = float(np.sum(g[i + 1 : k])) * p_max
            cap = min(cap, (g[i] * p_max / a[i] - between - later_c - noise) / g[k])
        p[k] = min(p_max, cap)
        if p[k] < p_max:
            saturated = False
    return p


def _loop_check_feasibility(powers, rates, reqs, p_max):
    tol = 1e-12 * max(1.0, p_max)
    for k, pw in enumerate(powers):
        if pw < 0.0:
            return False, f"user {k + 1} power {pw:.6g} mW is negative"
        if pw > p_max + tol:
            return False, f"user {k + 1} power {pw:.6g} mW exceeds the {p_max:.6g} mW cap"
    for k, (rate, req) in enumerate(zip(rates, reqs)):
        if not rate >= req.r_min - 1e-9:
            msg = f"user {k + 1} rate {rate:.6g} bps/Hz is below the required {req.r_min:.6g}"
            if powers[k] >= p_max * (1.0 - 1e-12):
                msg += "; min-rate power exceeds P_max"
            return False, msg
    return True, None


def _loop_solve(gains, reqs, p_max, noise, allocate=_loop_power_allocation):
    g = np.asarray(gains, dtype=float)
    alphas = np.array([r.alpha for r in reqs])
    ranks = _loop_decoding_order(g, alphas)
    seq = np.argsort(np.asarray(ranks))
    powers = np.empty(len(g))
    powers[seq] = allocate(g[seq], alphas[seq], p_max, noise)
    if np.all(powers >= 0.0):
        rates = sinr_and_rates(g, ranks, powers, noise)
    else:
        rates = np.full(len(g), np.nan)
    feasible, diagnostic = _loop_check_feasibility(powers, rates, reqs, p_max)
    return NomaSolution(ranks, powers, rates, float(np.sum(rates)), feasible, diagnostic)


def _assert_same_solution(got, want):
    assert got.order == want.order
    assert np.array_equal(got.powers, want.powers, equal_nan=True)
    assert np.array_equal(got.rates, want.rates, equal_nan=True)
    assert np.array_equal(got.sum_rate, want.sum_rate, equal_nan=True)
    assert (got.feasible, got.diagnostic) == (want.feasible, want.diagnostic)


def _assert_matches_loops(gains, reqs, p_max, noise):
    """solve and each of its stages equal the loop reference bit for bit,
    and the per-pair caps give the same verdict and diagnostic, the sum rate
    to within a few ulps and the powers to within rtol 1e-12 (measured on
    these sets: 4.1e-16 and 8.1e-14 relative at most)."""
    g = np.asarray(gains, dtype=float)
    alphas = np.array([r.alpha for r in reqs])
    got = solve(g, reqs, p_max, noise)
    want = _loop_solve(g, reqs, p_max, noise)
    _assert_same_solution(got, want)
    pairs = _loop_solve(g, reqs, p_max, noise, _pair_loop_power_allocation)
    assert (pairs.order, pairs.feasible, pairs.diagnostic) == (
        got.order,
        got.feasible,
        got.diagnostic,
    )
    assert_allclose(pairs.sum_rate, got.sum_rate, rtol=1e-15)
    assert_allclose(pairs.powers, got.powers, rtol=1e-12)
    assert got.order == decoding_order(g, alphas)
    assert check_feasibility(want.powers, want.rates, reqs, p_max) == (
        want.feasible,
        want.diagnostic,
    )
    seq = np.argsort(np.asarray(got.order))
    assert np.array_equal(
        minimum_rate_powers(g[seq], alphas[seq], noise),
        _loop_minimum_rate_powers(g[seq], alphas[seq], noise),
    )
    assert np.array_equal(
        power_allocation(g[seq], alphas[seq], p_max, noise),
        _loop_power_allocation(g[seq], alphas[seq], p_max, noise),
    )
    return got


@pytest.mark.bitwise
def test_array_code_matches_loops_bitwise_on_fuzz_set():
    rng = np.random.default_rng(60)
    feasible = 0
    for case in range(240):
        k = int(rng.integers(1, 141))
        gains = rng.exponential(1.0, k) * 10.0 ** rng.uniform(-2.0, 2.0)
        if case % 3 == 1:
            gains = np.sort(gains)[::-1]
        elif case % 3 == 2:
            gains = np.sort(gains)
        r_min = rng.uniform(0.0, float(rng.choice([0.02, 0.2, 1.0])), k)
        r_min[rng.random(k) < 0.2] = 0.0  # users with alpha = 0
        reqs = [RateRequirement(float(r)) for r in r_min]
        p_max = 0.0 if case % 7 == 0 else float(10.0 ** rng.uniform(-2.0, 3.0))
        noise = float(10.0 ** rng.uniform(-2.0, 0.5))
        feasible += _assert_matches_loops(gains, reqs, p_max, noise).feasible
    assert 20 <= feasible <= 220


@pytest.mark.bitwise
@pytest.mark.parametrize("num_users,r_min", [(6, 0.25), (32, 0.1), (64, 0.05)])
def test_array_code_matches_loops_bitwise_on_sweep_draws(num_users, r_min):
    reqs = [RateRequirement(r_min)] * num_users
    noise = dbm_to_mw(ScenarioConfig().noise_dbm)
    for gains in _sweep_gains(num_users, r_min, 0):
        for i in range(81):  # the 0-20 dBm axis in 0.25 dB steps
            _assert_matches_loops(gains, reqs, dbm_to_mw(0.25 * i), noise)


@pytest.mark.bitwise
def test_array_code_matches_loops_bitwise_across_twenty_decades_of_gain():
    # Each user's gain has its own scale, so a cap can sit far below the
    # gains decoded before it. Caps from differences of prefix sums of all
    # gains erred by eps times the largest and flipped 64 of 300 verdicts.
    rng = np.random.default_rng(61)
    feasible = 0
    for _ in range(120):
        k = int(rng.integers(2, 65))
        gains = 10.0 ** rng.uniform(-20.0, 0.0, k)
        r_min = rng.uniform(0.0, float(rng.choice([0.02, 0.2, 1.0])), k)
        r_min[rng.random(k) < 0.2] = 0.0  # users with alpha = 0
        reqs = [RateRequirement(float(r)) for r in r_min]
        p_max = float(10.0 ** rng.uniform(-2.0, 3.0))
        noise = float(10.0 ** rng.uniform(-24.0, -2.0))
        feasible += _assert_matches_loops(gains, reqs, p_max, noise).feasible
    assert 20 <= feasible <= 100


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "gains, r_min, p_max, noise, powers",
    [
        # User 2 keeps its rate while user 3 sends (1e-17 - 1e-20) / 1e-17;
        # 1e-17 + 1.0 - 1.0 rounded that cap's margin to 0 and the power to
        # -1e-3, infeasible.
        ([1.0, 1e-17, 1e-17], [1.0, 1.0, 0.0], 1.0, 1e-20, [1.0, 1.0, 0.999]),
        # User 3 keeps its rate while user 4 sends (0.5 - 0.25) / 1; the sum
        # 1e308 + 1e308 of the gains decoded first overflowed, its margin
        # was inf - inf and user 4 went to full power, breaking user 3.
        ([1e308, 1e308, 1.0, 1.0], [0.01, 0.01, 1.0, 0.0], 0.5, 0.25, [0.5, 0.5, 0.5, 0.25]),
    ],
    ids=["cancelling-sum", "overflowing-sum"],
)
def test_array_code_matches_loops_bitwise_on_a_cap_below_large_gains(
    gains, r_min, p_max, noise, powers
):
    # Users are decoded in index order, so the gains are in decoding order.
    reqs = [RateRequirement(r) for r in r_min]
    alphas = [r.alpha for r in reqs]
    sol = solve(gains, reqs, p_max, noise)
    assert (sol.feasible, sol.order) == (True, tuple(range(1, len(gains) + 1)))
    assert_array_equal(
        power_allocation(gains, alphas, p_max, noise),
        _loop_power_allocation(gains, alphas, p_max, noise),
    )
    with np.errstate(over="ignore", invalid="ignore"):  # the per-pair headroom g p_max / a
        pairs = _pair_loop_power_allocation(gains, alphas, p_max, noise)
    for got in (sol.powers, pairs):
        assert_allclose(got, powers, rtol=1e-12)


# --- solve keeps no state between calls ---


def test_later_solve_is_not_changed_through_inputs_or_results():
    gains = np.array([2.0, 1.0, 0.5])
    reqs = [RateRequirement(0.5)] * 3
    first = solve(gains, reqs, 4.0, 1.0)
    want = solve(gains.copy(), reqs, 4.0, 1.0)
    first.powers[:] = -1.0
    first.rates[:] = math.nan
    _assert_same_solution(solve(gains, reqs, 4.0, 1.0), want)
    gains[0] = 0.25
    got = solve(gains, reqs, 4.0, 1.0)
    _assert_same_solution(got, solve(np.array([0.25, 1.0, 0.5]), reqs, 4.0, 1.0))
    assert got.order != want.order


@pytest.mark.parametrize(
    "gains, p_max, noise, error",
    [
        ([math.nan, 1.0], 4.0, 1.0, ValueError),
        ([1.0, 1e-40], 4.0, 1.0, DegenerateChannelError),
        ([2.0, 1.0], -1.0, 1.0, ValueError),  # gains and noise that solve just accepted
        ([2.0, 1.0], 4.0, math.nan, ValueError),
    ],
    ids=["nan-gain", "degenerate-gain", "negative-p_max", "nan-noise"],
)
def test_invalid_input_is_rejected_on_every_call(gains, p_max, noise, error):
    reqs = [RateRequirement(0.5)] * 2
    solve([2.0, 1.0], reqs, 4.0, 1.0)
    for _ in range(2):
        with pytest.raises(error):
            solve(gains, reqs, p_max, noise)


@pytest.mark.parametrize("p_max", [math.inf, -math.inf, math.nan])
def test_non_finite_power_cap_rejected(p_max):
    with pytest.raises(ValueError, match="p_max"):
        solve([1.0, 0.5], [RateRequirement(0.5)] * 2, p_max, 1.0)
    with pytest.raises(ValueError, match="p_max"):
        power_allocation([1.0, 0.5], [0.5, 0.5], p_max, 1.0)


def test_nan_gain_rejected():
    # It used to be reported as infeasible, blaming an overflow of (1 + alpha).
    with pytest.raises(ValueError, match="gains must be finite"):
        solve([math.nan, 1e-8, 2e-8], [RateRequirement(0.25)] * 3, 10.0, 1e-8)
    with pytest.raises(ValueError, match="gains must be finite"):
        sinr_and_rates([math.nan, 1.0], (1, 2), [1.0, 1.0], 1.0)


def test_infinite_gain_rejected():
    # It used to give a feasible solution with an infinite sum rate.
    with pytest.raises(ValueError, match="gains must be finite"):
        solve([math.inf, 1e-8, 2e-8], [RateRequirement(0.25)] * 3, 10.0, 1e-8)
    with pytest.raises(ValueError, match="gains must be finite"):
        sinr_and_rates([math.inf, 1.0], (1, 2), [1.0, 1.0], 1.0)


@pytest.mark.parametrize("noise", [math.inf, math.nan])
def test_non_finite_noise_rejected(noise):
    # Otherwise every minimum-rate power is non-finite and solve blames an overflow.
    with pytest.raises(ValueError, match="noise power"):
        solve([1.0, 0.5], [RateRequirement(0.5)] * 2, 1.0, noise)


_VALID = {
    "gains": [1.0, 2.0],
    "powers": [1.0, 1.0],
    "rates": [1.0, 1.0],
    "alphas": [0.5, 0.5],
    "r_min": 0.5,
    "p_max": 4.0,
    "noise": 1.0,
    "amplitude_sums": [1.0, 2.0],
}
_ENTRY_POINTS = {
    "sinr_and_rates": lambda v: sinr_and_rates(v["gains"], (1, 2), v["powers"], v["noise"]),
    "sum_rate_collapsed": lambda v: sum_rate_collapsed(v["gains"], v["powers"], v["noise"]),
    "decoding_order": lambda v: decoding_order(v["gains"], v["alphas"]),
    "minimum_rate_powers": lambda v: minimum_rate_powers(v["gains"], v["alphas"], v["noise"]),
    "power_allocation": lambda v: power_allocation(
        v["gains"], v["alphas"], v["p_max"], v["noise"]
    ),
    "solve": lambda v: solve(
        v["gains"], [RateRequirement(v["r_min"])] * 2, v["p_max"], v["noise"]
    ),
    "brute_force_allocation": lambda v: brute_force_allocation(
        v["gains"], v["alphas"], v["p_max"], v["noise"]
    ),
    "oma_sum_rate": lambda v: oma_sum_rate(v["gains"], v["p_max"], v["noise"]),
    "aligned_sum_rate": lambda v: aligned_sum_rate(v["amplitude_sums"], v["p_max"], v["noise"]),
    # The amplitude sums of a sampled channel, as the sweep passes them.
    "aligned_sum_rate-sampled": lambda v: aligned_sum_rate(
        [ch.amplitude_sum for ch in _CHANNELS], v["p_max"], v["noise"]
    ),
    "check_feasibility": lambda v: check_feasibility(
        v["powers"], v["rates"], [RateRequirement(v["r_min"])] * 2, v["p_max"]
    ),
}
_QUANTITIES = {
    "sinr_and_rates": ("gains", "powers", "noise"),
    "sum_rate_collapsed": ("gains", "powers", "noise"),
    "decoding_order": ("gains", "alphas"),
    "minimum_rate_powers": ("gains", "alphas", "noise"),
    "power_allocation": ("gains", "alphas", "p_max", "noise"),
    "solve": ("gains", "r_min", "p_max", "noise"),
    "brute_force_allocation": ("gains", "alphas", "p_max", "noise"),
    "oma_sum_rate": ("gains", "p_max", "noise"),
    "aligned_sum_rate": ("amplitude_sums", "p_max", "noise"),
    "aligned_sum_rate-sampled": ("p_max", "noise"),
}


def _invalid_input_cases():
    for entry, quantities in _QUANTITIES.items():
        for quantity in quantities:
            for bad in (math.nan, math.inf, -math.inf, -1.0):
                value = [bad, 2.0] if isinstance(_VALID[quantity], list) else bad
                case_id = f"{entry}-{quantity}-{bad}"
                yield pytest.param(entry, {quantity: value}, quantity, id=case_id)
    # Calls that used to return: sinr_and_rates-noise-nan above gave NaN
    # rates, an infinite power an infinite rate, decoding_order ranked a NaN
    # gain, r_min = 1100 raised OverflowError once a sweep had positioned
    # every user, and oma_sum_rate kept its own gains sign test, so a NaN
    # gain or noise gave NaN and an infinite p_max an infinite rate; with no
    # gains it took the mean of an empty array, NaN and a RuntimeWarning.
    # The aligned bound of sampled channels had no rule: a zero noise raised
    # ZeroDivisionError, a NaN p_max gave NaN and a negative one "math
    # domain error". check_feasibility
    # checked nothing: a NaN p_max or a third power gave (True, None), and
    # a NaN power or a 2x2 rates array went unremarked too.
    found = [
        ("sinr_and_rates", {"powers": [1.0, math.inf]}, "powers"),
        ("decoding_order", {"gains": [math.nan, 1.0]}, "gains"),
        ("solve", {"r_min": 1100.0}, "r_min"),
        ("oma_sum_rate", {"noise": 0.0}, "noise"),
        ("oma_sum_rate", {"gains": []}, "user"),
        ("aligned_sum_rate-sampled", {"noise": 0.0}, "noise"),
        ("check_feasibility", {"p_max": math.nan}, "p_max"),
        ("check_feasibility", {"powers": [1.0, 1.0, 1.0], "p_max": 2.0}, "powers"),
        ("check_feasibility", {"powers": [math.nan, 1.0]}, "powers"),
        ("check_feasibility", {"rates": [[1.0, 1.0], [1.0, 1.0]]}, "rates"),
        ("decoding_order", {"alphas": [0.5]}, "alphas"),
    ]
    for entry, overrides, quantity in found:
        yield pytest.param(entry, overrides, quantity, id=f"found-{entry}-{quantity}")
    # Per-user arrays must be one-dimensional. A 2x2 array with a matching
    # 2x2 partner used to be four users to decoding_order and oma_sum_rate
    # and an IndexError in the power functions; a scalar was one user to
    # oma_sum_rate and a TypeError to decoding_order.
    for entry, quantities in _QUANTITIES.items():
        arrays = [q for q in quantities if isinstance(_VALID[q], list)]
        if not arrays:
            continue
        rule = f"{arrays[0]} must be one-dimensional"
        for shape, reshape in (("2d", lambda x: [x, x]), ("0d", lambda x: x[0])):
            overrides = {q: reshape(_VALID[q]) for q in arrays}
            yield pytest.param(entry, overrides, rule, id=f"{entry}-{shape}")


@pytest.mark.parametrize("entry, overrides, quantity", _invalid_input_cases())
def test_invalid_input_is_rejected_naming_the_quantity(entry, overrides, quantity):
    call = _ENTRY_POINTS[entry]
    call(_VALID)  # the valid instance passes, so the error is the override's
    with pytest.raises(ValueError, match=quantity):
        call({**_VALID, **overrides})


def test_largest_rate_below_the_overflow_limit_is_accepted():
    r_min = math.nextafter(1024.0, 0.0)
    assert math.isfinite(RateRequirement(r_min).alpha)


def test_minimum_rate_power_overflow_is_infeasible_without_warnings():
    # alpha = 1023: the product of (1 + alpha) over the users decoded after
    # a user is 2**(10 * count), which no float holds past 102 users.
    num = 200
    gains = np.linspace(1.0, 2.0, num)
    reqs = [RateRequirement(10.0)] * num
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(gains, reqs, p_max=10.0, noise=1.0)
    # log2 of c_k = 1023 / g_k * 1024**(users after k); floats end near 2**1024.
    overflowing = [
        k + 1
        for k in range(num)
        if math.log2(1023 / gains[k]) + 10 * (num - sol.order[k]) > 1024
    ]
    assert not sol.feasible
    assert sol.diagnostic.startswith(f"user {min(overflowing)} minimum-rate power is not finite")
    assert np.all(np.isnan(sol.powers)) and math.isnan(sol.sum_rate)


@pytest.mark.parametrize("noise", [1e-100, 1e-300])
def test_minimum_rate_power_overflow_is_infeasible_when_it_is_nan(noise):
    # alpha = 2**600 - 1, so user 1's product (1 + alpha)**2 overflows. At
    # noise 1e-300 its prefactor noise * alpha / g underflows to 0, and c is
    # 0 * inf = NaN, not inf: the verdict is the same, and nothing warns.
    gains, reqs = [1e210, 1.0, 1e-10], [RateRequirement(600.0)] * 3
    alphas = [req.alpha for req in reqs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(gains, reqs, p_max=1e300, noise=noise)
        c = minimum_rate_powers(gains, alphas, noise)
        power_allocation(gains, alphas, 1e300, noise)
    assert not math.isfinite(c[0]) and np.isfinite(c[1:]).all()
    assert sol.order == (1, 2, 3)
    assert not sol.feasible
    assert sol.diagnostic.startswith("user 1 minimum-rate power is not finite")
    assert np.all(np.isnan(sol.powers)) and math.isnan(sol.sum_rate)


@pytest.mark.parametrize("case", [8, 16, 32, 64, *_SWEEP_CASES])
def test_closed_form_matches_fixed_order_lp(case):
    # The decoding order solve picks, held fixed, with its power problem
    # solved as an LP: same verdict, and the same total received power.
    # Random instances have unit noise and mix the verdicts; sweep draws
    # carry the path loss and are taken at 0, 10 and 20 dBm.
    if case in _SWEEP_CASES:
        instances = list(_sweep_instances(case, (0.0, 10.0, 20.0)))
    else:
        rng = np.random.default_rng(61 + case)
        span = (0.02, 4.0 / case)
        instances = [_random_instance(rng, case, r_span=span) for _ in range(12)]
    verdicts = []
    for gains, reqs, p_max, noise in instances:
        sol = solve(gains, reqs, p_max, noise)
        seq = np.argsort(np.asarray(sol.order))
        alphas = np.array([r.alpha for r in reqs])
        lp = fixed_order_lp_powers(gains[seq], alphas[seq], p_max, noise)
        assert (lp is not None) == sol.feasible
        verdicts.append(sol.feasible)
        if sol.feasible:
            assert_allclose(gains @ sol.powers, gains[seq] @ lp, rtol=1e-9)
    assert any(verdicts)
    if case not in _SWEEP_CASES:
        assert not all(verdicts)


def test_lp_oracles_hold_in_sweep_units():
    # Draw set 18 of the default sweep at 10 dBm, fixed-antenna gains, which
    # no power meets. Posed in mW, the LP's right-hand sides alpha * noise
    # (about 1e-12) sat below HiGHS's feasibility tolerance, and both the
    # fixed-order LP (all 6 users) and the brute force (the first 4) called
    # the instance feasible.
    cfg = ScenarioConfig()
    gains = _sweep_gains(cfg.num_users, cfg.r_min, 18)[1]
    reqs = [RateRequirement(cfg.r_min)] * cfg.num_users
    alphas = np.array([r.alpha for r in reqs])
    p_max, noise = dbm_to_mw(cfg.p_max_dbm), dbm_to_mw(cfg.noise_dbm)
    sol = solve(gains, reqs, p_max, noise)
    seq = np.argsort(np.asarray(sol.order))
    assert not sol.feasible
    assert fixed_order_lp_powers(gains[seq], alphas[seq], p_max, noise) is None
    assert not solve(gains[:4], reqs[:4], p_max, noise).feasible
    assert not brute_force_allocation(gains[:4], alphas[:4], p_max, noise).feasible


def _assert_no_adjacent_swap_does_better(gains, reqs, p_max, noise, sol):
    """Exchanging two neighbours of solve's decoding sequence, with the new
    order's power problem solved exactly as an LP, never gives a larger
    total received power g.p."""
    best = gains @ sol.powers
    seq = np.argsort(np.asarray(sol.order))
    alphas = np.array([r.alpha for r in reqs])
    for m in range(len(gains) - 1):
        swapped = seq.copy()
        swapped[[m, m + 1]] = seq[[m + 1, m]]
        lp = fixed_order_lp_powers(gains[swapped], alphas[swapped], p_max, noise)
        if lp is not None:
            assert gains[swapped] @ lp <= best * (1.0 + 1e-9)


@pytest.mark.parametrize("case", [8, 16, 32, *_SWEEP_CASES])
def test_no_adjacent_swap_beats_the_chosen_order(case):
    if case in _SWEEP_CASES:
        # Every feasible draw at the case's cap. With K=6 nobody backs off
        # on these draws, so there every feasible order ties.
        checked = 0
        for instance in _sweep_instances(case, (_SWEEP_CASES[case][2],)):
            sol = solve(*instance)
            if sol.feasible:
                _assert_no_adjacent_swap_does_better(*instance, sol)
                checked += 1
        assert checked
        return
    # Only random instances where some user backs off are kept: when
    # everyone transmits at full power, every order ties.
    rng = np.random.default_rng(70 + case)
    kept = 0
    for _ in range(100):
        gains, reqs, p_max, noise = _random_instance(rng, case, r_span=(0.02, 12.0 / case))
        sol = solve(gains, reqs, p_max, noise)
        if not sol.feasible or np.all(sol.powers >= p_max * (1.0 - 1e-12)):
            continue
        _assert_no_adjacent_swap_does_better(gains, reqs, p_max, noise, sol)
        kept += 1
        if kept == 6:
            break
    assert kept == 6


# --- properties ---

_PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def _instances(draw, max_users=8):
    """Gains over six decades, a mix of zero and positive minimum rates, a
    power cap over four decades, unit noise."""
    k = draw(st.integers(1, max_users))
    exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
    r_min = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), min_size=k, max_size=k)
    )
    p_max = 10.0 ** draw(st.floats(-2.0, 2.0))
    return 10.0 ** np.array(exponents), [RateRequirement(r) for r in r_min], p_max, 1.0


@_PROPERTY_SETTINGS
@given(st.data())
def test_property_rates_telescope(data):
    gains, reqs, p_max, noise = data.draw(_instances())
    k = len(gains)
    order = np.array(data.draw(st.permutations(range(1, k + 1))))
    powers = np.array(data.draw(st.lists(st.floats(0.0, p_max), min_size=k, max_size=k)))
    rates = sinr_and_rates(gains, order, powers, noise)
    assert_allclose(np.sum(rates), sum_rate_collapsed(gains, powers, noise), atol=1e-9)
    sol = solve(gains, reqs, p_max, noise)
    if sol.feasible:
        assert_allclose(sol.sum_rate, sum_rate_collapsed(gains, sol.powers, noise), atol=1e-9)


@_PROPERTY_SETTINGS
@given(_instances())
def test_property_backed_off_users_are_tight(instance):
    # Every user decoded after the first one below full power gets exactly
    # its minimum-rate power. The first one's power is set by a user decoded
    # before it, which then sits at its own minimum rate.
    gains, reqs, p_max, noise = instance
    sol = solve(gains, reqs, p_max, noise)
    if not sol.feasible:
        return
    seq = np.argsort(np.asarray(sol.order))
    slack = sol.rates[seq] - np.array([r.r_min for r in reqs])[seq]
    below = np.flatnonzero(sol.powers[seq] < p_max * (1.0 - 1e-12))
    if len(below):
        assert np.all(np.abs(slack[below[0] + 1 :]) <= RATE_SLACK)
        assert np.min(np.abs(slack[: below[0]])) <= RATE_SLACK


@_PROPERTY_SETTINGS
@given(_instances(), st.floats(1.0, 100.0))
def test_property_monotone_in_power_cap(instance, factor):
    gains, reqs, p_max, noise = instance
    low = solve(gains, reqs, p_max, noise)
    high = solve(gains, reqs, p_max * factor, noise)
    if low.feasible:
        assert high.feasible
        assert high.sum_rate >= low.sum_rate - 1e-9


@pytest.mark.parametrize(
    "gains, r_min, p_max, noise, order, user, quantity",
    [
        # User 1 is decoded last and sees noise only: 1e305 / 1e-300.
        (
            [1e300, 2e300], [0.5] * 2, 1e5, 1e-300, (2, 1), 1,
            "received-power ratio g * p / (interference + noise) is not finite",
        ),
        # User 2's headroom 1e10 * 2e300 / alpha overflows and caps nobody;
        # user 1 then receives 1e300 * 1e10, which overflows too.
        (
            [1e300, 2e300], [0.5] * 2, 1e10, 1e-300, (2, 1), 1,
            "received-power ratio g * p / (interference + noise) is not finite",
        ),
        # The interference of the first user decoded overflows; nobody has
        # a minimum rate, so no margin reads the gains of 1.7e308.
        (
            [1.7e308] * 4, [0.0] * 4, 1.0, 1.0, (1, 2, 3, 4), 1,
            "interference g * p from later users is not finite",
        ),
        # It used to give user 1 rate 0 in place of log2(1.5), feasible.
        (
            [1e308] * 3, [0.0] * 3, 1.0, 1.0, (1, 2, 3), 1,
            "interference g * p from later users is not finite",
        ),
        # Every g / alpha overflows, so nobody caps anyone; the overflow
        # shows in user 1's interference, not the headroom.
        (
            [1e298] * 4, [1e-15] * 4, 1e10, 1.0, (1, 2, 3, 4), 1,
            "interference g * p from later users is not finite",
        ),
    ],
    ids=[
        "ratio", "headroom", "interference-unread-windows", "interference",
        "interference-skipped-caps",
    ],
)
def test_overflow_on_finite_inputs_is_infeasible_without_warnings(
    gains, r_min, p_max, noise, order, user, quantity
):
    reqs = [RateRequirement(r) for r in r_min]
    seq = np.argsort(order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(gains, reqs, p_max, noise)
        alphas = [reqs[k].alpha for k in seq]
        power_allocation(np.asarray(gains)[seq], alphas, p_max, noise)
    assert not sol.feasible
    assert sol.diagnostic == f"user {user} {quantity}"
    assert sol.order == order
    assert np.all(np.isnan(sol.powers)) and np.all(np.isnan(sol.rates))
    assert math.isnan(sol.sum_rate)


@pytest.mark.bitwise
def test_overflowing_decoding_keys_keep_the_order_of_the_scaled_instance():
    # Both keys g * (1 + 1/alpha) overflowed to -inf and tied, so user 1 went
    # first; the instance scaled by 2**-20 (p_max by 2**20) decodes user 2
    # first and has the larger sum rate.
    reqs = [RateRequirement(1.0), RateRequirement(math.log2(1.5))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve([1e308, 1.5e308], reqs, 1e-10, 1.0)
        scaled = solve([1e308 * 2**-20, 1.5e308 * 2**-20], reqs, 1e-10 * 2**20, 1.0)
    assert sol.order == scaled.order == (2, 1)
    assert sol.sum_rate == scaled.sum_rate
    assert_array_equal(sol.rates, scaled.rates)


@pytest.mark.bitwise
def test_overflowing_cap_sums_keep_the_verdict_of_the_scaled_instance():
    # User 4's cap read the gain sum 1e308 + 1e308, which overflowed to a
    # -inf cap, and the instance was infeasible. User 1's g / alpha
    # overflows as well, so it caps nobody: full power, the verdict, order
    # and sum rate of the instance scaled by 2**-2 (p_max by 2**2).
    gains = np.array([1.6e308, 1e308, 1e308, 1.0])
    reqs = [RateRequirement(math.log2(1.5))] + [RateRequirement(0.0)] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(gains, reqs, 0.25, 1.0)
        scaled = solve(gains * 2**-2, reqs, 0.25 * 2**2, 1.0)
        powers = power_allocation(gains, [r.alpha for r in reqs], 0.25, 1.0)
    assert (sol.feasible, sol.order) == (scaled.feasible, scaled.order) == (True, (1, 2, 3, 4))
    assert sol.sum_rate == scaled.sum_rate
    assert_array_equal(sol.rates, scaled.rates)
    assert_array_equal(sol.powers, powers)
    assert_array_equal(powers, [0.25] * 4)


def test_power_allocation_overflow_needs_no_warning():
    # The headroom 1e10 * 2e300 / 0.414 overflows to inf, which caps nobody:
    # power_allocation finishes under the same errstate as solve.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers = power_allocation([2e300, 1e300], [0.414, 0.414], 1e10, 1e-300)
    assert_array_equal(powers, [1e10, 1e10])


@pytest.mark.bitwise
def test_infinite_headroom_caps_nobody():
    # User 1's headroom 1e290 * 1e10 / alpha overflows. solve used to call
    # the instance infeasible, blaming it, though both users get full power
    # and finite rates far above r_min.
    reqs = [RateRequirement(1e-15)] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve([1e290, 1.0], reqs, 1e10, 1.0)
        rates = sinr_and_rates([1e290, 1.0], (1, 2), [1e10, 1e10], 1.0)
        powers = power_allocation([1e290, 1.0], [r.alpha for r in reqs], 1e10, 1.0)
    assert (sol.feasible, sol.diagnostic, sol.order) == (True, None, (1, 2))
    assert_array_equal(sol.rates, rates)
    assert_array_equal(sol.powers, powers)


@pytest.mark.parametrize(
    "call, args, message",
    [
        # User 1's interference 2e308 overflows; its rate came out 0, not log2(1.5).
        (
            sinr_and_rates, ([1e308] * 3, (1, 2, 3), [1.0] * 3, 1.0),
            "user 1 interference g * p from later users is not finite",
        ),
        (
            oma_sum_rate, ([1.0, 1e308], 1e10, 1.0),
            "user 2 received-power ratio g * p / (interference + noise) is not finite",
        ),
        # The aligned rate has one ratio, of the total received power; it
        # came out inf.
        (
            aligned_sum_rate, ([ch.amplitude_sum for ch in _CHANNELS], 1e308, 1e-300),
            "received-power ratio g * p / (interference + noise) is not finite",
        ),
        # An amplitude sum of 1e200 squares past the float range: Python's **
        # raised OverflowError(34, 'Numerical result out of range').
        (
            aligned_sum_rate,
            ([UserChannel(((1.0, 1.0),), np.array([1e200 + 0j])).amplitude_sum], 1.0, 1.0),
            "received-power ratio g * p / (interference + noise) is not finite",
        ),
        # Each square fits and their total does not; at a zero cap the ratio
        # would be inf * 0 = NaN, so the total is judged on its own.
        (
            aligned_sum_rate, ([1.3e154, 1.3e154], 0.0, 1.0),
            "received-power ratio g * p / (interference + noise) is not finite",
        ),
    ],
    ids=["sinr_and_rates", "oma_sum_rate", "sampled", "found-square", "total"],
)
def test_rate_functions_raise_on_overflow_without_warnings(call, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as raised:
            call(*args)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "gains, powers, noise",
    [([1e308, 1e308], [1.0, 1.0], 1.0), ([1e308, 1e300], [1.0, 1.0], 1e-7)],
)
def test_collapsed_sum_rate_survives_an_overflowing_total(gains, powers, noise):
    # The total received power over noise overflows while every per-user
    # rate is finite; the collapsed form used to raise OverflowError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = sinr_and_rates(gains, (1, 2), powers, noise)
        collapsed = sum_rate_collapsed(gains, powers, noise)
    assert_allclose(collapsed, np.sum(rates), rtol=1e-12)


def test_decoding_order_with_an_infinite_weight_needs_no_warning():
    # 1 + 1/5e-324 is inf, and a zero gain's key is -0 whatever its weight,
    # not the NaN that 0 * inf gives. So zero gains tie by index: a NaN key
    # put user 1 after user 3, giving (3, 1, 2).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decoding_order([0.0, 1.0], [5e-324, 0.5]) == (2, 1)
        assert decoding_order([0.0, 1.0, 0.0], [5e-324, 0.5, 0.3]) == (2, 1, 3)
