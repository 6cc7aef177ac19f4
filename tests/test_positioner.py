import cmath
import functools
import math
import operator

import numpy as np
import pytest
from numpy.testing import assert_allclose

from manoma.channel import (
    TWO_PI,
    DegenerateChannelError,
    MoveRegion,
    Position,
    UserChannel,
    channel_coefficient,
    channel_gain,
    field_response_vector,
    sample_user_channel,
)
from manoma.oracles import (
    anchor_vector,
    coupling_matrix,
    grid_oracle,
    minorant_at,
    propagation_delta,
    quadratic_surrogate,
    reference_gains,
    reference_minorant,
    reference_newton_step,
    reference_path_sums,
    reference_phases,
    surrogate_value,
)
from manoma.positioner import (
    ScaParams,
    ScaState,
    _newton_point,
    _path_rows,
    _point_sums,
    optimize_position,
    sca_step,
    sca_trajectory,
)
from manoma.sim import ScenarioConfig, draw_users


def _random_channel(rng, num_paths=4):
    angles = tuple(
        (rng.uniform(0, math.pi), rng.uniform(0, math.pi)) for _ in range(num_paths)
    )
    prv = rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)
    return UserChannel(angles=angles, prv=prv)


def _random_position(rng, span=2.0):
    return Position(float(rng.uniform(-span, span)), float(rng.uniform(-span, span)))


# --- coupling matrix and anchor vector ---


def test_coupling_matrix_single_path():
    ch = UserChannel(angles=((1.0, 1.0),), prv=np.array([1.0 + 0j]))
    assert_allclose(coupling_matrix(ch), [[1.0 + 0j]])


def test_coupling_matrix_two_paths():
    angles = ((1.0, 1.0), (0.5, 2.0))
    ch = UserChannel(angles=angles, prv=np.array([1.0, 1j]))
    expected = np.array([[1.0, -1j], [1j, 1.0]])
    assert_allclose(coupling_matrix(ch), expected)


def test_coupling_matrix_structure():
    rng = np.random.default_rng(20)
    for _ in range(10):
        ch = _random_channel(rng, num_paths=5)
        m = coupling_matrix(ch)
        assert_allclose(m, m.conj().T, atol=1e-14)
        assert_allclose(np.trace(m).real, ch.power, rtol=1e-12)
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() >= -1e-12 * ch.power
        # Rank one: only the top eigenvalue survives.
        assert_allclose(sorted(eigs)[:-1], 0.0, atol=1e-12 * ch.power)


def test_anchor_vector_matches_matrix_product():
    rng = np.random.default_rng(21)
    for _ in range(10):
        ch = _random_channel(rng)
        z = _random_position(rng)
        from manoma.channel import field_response_vector

        direct = coupling_matrix(ch) @ field_response_vector(z, ch)
        assert_allclose(anchor_vector(z, ch), direct, rtol=1e-12)


# --- surrogate gradient ---


def test_gradient_zero_for_single_path():
    ch = UserChannel(angles=((0.8, 2.2),), prv=np.array([2.0 - 1j]))
    rng = np.random.default_rng(22)
    for _ in range(5):
        g = minorant_at(_random_position(rng), ch)[1]
        assert_allclose(g, [0.0, 0.0], atol=1e-9)


def test_gradient_x_component_vanishes_for_broadside_paths():
    # cos(phi) = 0 removes every path's x sensitivity.
    angles = tuple((math.pi / 2, math.pi / 2) for _ in range(3))
    rng = np.random.default_rng(23)
    prv = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ch = UserChannel(angles=angles, prv=prv)
    g = minorant_at(Position(0.3, -0.4), ch)[1]
    assert abs(g[0]) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(24)
    h = 1e-6
    for _ in range(50):
        ch = _random_channel(rng, num_paths=int(rng.integers(2, 7)))
        z = _random_position(rng)
        g = minorant_at(z, ch)[1]
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
        assert_allclose(fd, g, rtol=1e-6, atol=1e-8 * (1 + ch.amplitude_sum**2))


# --- curvature bound ---


def test_delta_hand_value():
    # Four broadside paths with responses 0.5 each: the coefficient at any z
    # is 2, so the anchor amplitudes are all 1 and delta is 32*pi^2.
    angles = tuple((math.pi / 2, math.pi / 2) for _ in range(4))
    ch = UserChannel(angles=angles, prv=np.full(4, 0.5 + 0j))
    assert_allclose(minorant_at(Position(0.1, 0.2), ch)[0], 32 * math.pi**2, rtol=1e-12)


# --- the scalar loop's path sums: the coefficient and the anchor-form minorant ---


@pytest.mark.bitwise
@pytest.mark.parametrize("num_paths", range(1, 18))
def test_path_sums_coefficient_is_channel_coefficient_bit_for_bit(num_paths):
    # The first path sum of the scalar point evaluation is the channel
    # coefficient h the channel computes, at one point and at eleven, raw
    # and at unit power; hex keeps the sign of zero apart.
    cfg = ScenarioConfig(paths_per_user=num_paths)
    rng = np.random.default_rng(40 + num_paths)
    bits = lambda c: [(v.real.hex(), v.imag.hex()) for v in c]
    for _ in range(5):
        raw = sample_user_channel(cfg, rng)
        for ch in (raw, raw.normalized()):
            paths = _path_rows(ch)[0]
            for lanes in (1, 11):
                z = rng.uniform(-1.0, 1.0, (lanes, 2)).tolist()
                h = [_point_sums(x, y, paths)[0] for x, y in z]
                want = [channel_coefficient(Position(x, y), ch) for x, y in z]
                assert bits(h) == bits(want)


@pytest.mark.bitwise
@pytest.mark.parametrize("num_paths", range(1, 18))
def test_channel_coefficient_is_a_python_sum_of_complex_products(num_paths):
    # The arithmetic contract of h: each field response is cmath.rect(1, 2 pi
    # rho) (a phase of -0 taken as +0), and h is the path-by-path sum from
    # path 0 of Python's complex products conj(f_l) e_l, for every channel
    # at every point. A pairwise, blocked or fused sum fails it. The origin
    # gives phases of -0 wherever both direction cosines are negative.
    cfg = ScenarioConfig(paths_per_user=num_paths)
    rng = np.random.default_rng(700 + num_paths)
    bits = lambda c: [(v.real.hex(), v.imag.hex()) for v in c]
    for _ in range(5):
        channels = [sample_user_channel(cfg, rng) for _ in range(11)]
        z = np.concatenate((np.zeros((1, 2)), rng.uniform(-1.0, 1.0, (10, 2))))
        for ch in channels:
            rho = reference_phases(z, ch.directions).tolist()
            for (x, y), point_rho in zip(z.tolist(), rho):
                point = Position(x, y)
                e = [cmath.rect(1.0, 0.0 + TWO_PI * r) for r in point_rho]
                assert bits(field_response_vector(point, ch).tolist()) == bits(e)
                products = map(operator.mul, np.conj(ch.prv).tolist(), e)
                want = functools.reduce(operator.add, products)
                assert bits([channel_coefficient(point, ch)]) == bits([want])


# Lanes with an exact zero anchor: none, one that is not lane 0, and two.
_ZERO_ANCHORS = {1: [(), (0,)], 2: [(), (1,), (0, 1)], 11: [(), (5,), (3, 10)]}


@pytest.mark.bitwise
@pytest.mark.parametrize("per_lane", [False, True], ids=["shared", "per_lane"])
@pytest.mark.parametrize("lanes", [1, 2, 11])
@pytest.mark.parametrize("num_paths", [1, 2, 3, 8, 9, 17])
def test_step_kernels_match_the_reference_expressions_bit_for_bit(num_paths, lanes, per_lane):
    # At each point the scalar path sums, gain, minorant and Newton point
    # give the bits of the independent expressions in manoma.oracles, on one
    # channel and on each lane's own, and so do the one-point calls; tobytes
    # keeps the sign of zero apart. The Newton
    # point acts on path sums alone, so per-lane sums take the first
    # channel's curvature.
    cfg = ScenarioConfig(paths_per_user=num_paths)
    rng = np.random.default_rng(1000 * lanes + num_paths)
    half = 1.0
    bits = lambda a: np.asarray(a).tobytes()
    for _ in range(4):
        channels = [sample_user_channel(cfg, rng) for _ in range(lanes if per_lane else 1)]
        if per_lane:
            prv = np.array([ch.prv for ch in channels])
            dirs = np.array([ch.directions for ch in channels])
            lane_channels = channels
        else:
            prv, dirs = channels[0].prv, channels[0].directions
            lane_channels = channels * lanes
        z = rng.uniform(-half, half, (lanes, 2))
        sums = np.array([
            _point_sums(x, y, _path_rows(ch)[0])
            for (x, y), ch in zip(z.tolist(), lane_channels)
        ])
        assert bits(sums) == bits(reference_path_sums(z, prv, dirs))
        h = sums[:, 0]
        ch = channels[0]
        amplitude_sum = ch.amplitude_sum
        curvature = _path_rows(ch)[1]
        if not per_lane:
            want_delta, want_grad = reference_minorant(sums, amplitude_sum)
            want_z = reference_newton_step(z, want_delta, want_grad, half)
            for lane, start in enumerate(map(Position, *z.T.tolist())):
                assert bits(channel_gain(start, ch)) == bits(reference_gains(h)[lane])
                delta, grad = minorant_at(start, ch)
                assert bits(delta) == bits(want_delta[lane])
                assert bits(grad) == bits(want_grad[lane])
                step = sca_step(start, ch, MoveRegion(2.0 * half)).as_array()
                assert bits(step) == bits(want_z[lane])
        for zeros in _ZERO_ANCHORS[lanes]:
            anchored = sums.copy()
            anchored[list(zeros), 0] = 0.0
            out = np.array([
                _newton_point(x, y, tuple(point_sums), curvature, half)
                for (x, y), point_sums in zip(z.tolist(), anchored.tolist())
            ])
            step, delta, grad = out[:, :2], out[:, 2], out[:, 3:]
            want_delta, want_grad = reference_minorant(anchored, amplitude_sum)
            assert bits(delta) == bits(want_delta)
            assert bits(grad) == bits(want_grad)
            assert np.count_nonzero(want_delta == 0.0) == len(zeros)
            assert bits(step) == bits(reference_newton_step(z, want_delta, want_grad, half))
            assert bits(step[list(zeros)]) == bits(z[list(zeros)])


@pytest.mark.parametrize("family", ["raw", "unit", "criteria"])
def test_minorant_matches_the_anchor_form(family):
    # The engine's minorant at one point (_path_rows, _point_sums and
    # _newton_point, as sca_step runs them) against the paper's form: the anchor b =
    # coupling_matrix @ field response gives the curvature 8 pi^2 sum |b_l|
    # and the gradient -2 pi sum |b_l| d_l sin(2 pi rho_l - arg b_l). The
    # channels are sampled ones, raw and at unit power, and the acceptance
    # criteria's family (1-8 unit-variance paths, positions within +-2). A
    # gradient component whose terms cancel has no relative accuracy, so its
    # tolerance is also 1e-12 of the largest amplitude sum 2 pi sum |b_l|
    # |d_l|.
    rng = np.random.default_rng(29)
    for _ in range(1000):
        num_paths = int(rng.integers(1, 9))
        if family == "criteria":
            ch = _random_channel(rng, num_paths)
            z = _random_position(rng)
        else:
            ch = sample_user_channel(ScenarioConfig(paths_per_user=num_paths), rng)
            if family == "unit":
                ch = ch.normalized()
            z = _random_position(rng, span=1.0)
        paths, curvature = _path_rows(ch)
        sums = _point_sums(z.x, z.y, paths)
        _, _, delta, *grad_engine = _newton_point(z.x, z.y, sums, curvature, math.inf)
        b = anchor_vector(z, ch)
        theta, phi = ch.angles.T
        d = np.stack((np.sin(theta) * np.cos(phi), np.cos(theta)))
        rho = np.array([propagation_delta(z, t, p) for t, p in ch.angles])
        amplitudes = 2 * math.pi * np.abs(b) * d
        grad = -(amplitudes * np.sin(2 * math.pi * rho - np.angle(b))).sum(axis=1)
        atol = 1e-12 * np.abs(amplitudes).sum(axis=1).max()
        assert_allclose(grad_engine, grad, rtol=1e-12, atol=atol)
        assert_allclose(delta, 8 * math.pi**2 * np.abs(b).sum(), rtol=1e-12)


def test_delta_scales_quadratically_with_prv():
    rng = np.random.default_rng(25)
    ch = _random_channel(rng)
    z = _random_position(rng)
    base = minorant_at(z, ch)[0]
    scaled = UserChannel(ch.angles, ch.prv * 3.0, ch.distance)
    assert_allclose(minorant_at(z, scaled)[0], 9.0 * base, rtol=1e-12)


def test_delta_rejects_zero_channel():
    ch = UserChannel(angles=((1.0, 1.0),), prv=np.array([0j]))
    with pytest.raises(DegenerateChannelError):
        sca_step(Position(0.0, 0.0), ch, MoveRegion(2.0))


def _fd_hessian(fun, z, h=1e-4):
    x, y = z.x, z.y
    fxx = (fun(Position(x + h, y)) - 2 * fun(Position(x, y)) + fun(Position(x - h, y))) / h**2
    fyy = (fun(Position(x, y + h)) - 2 * fun(Position(x, y)) + fun(Position(x, y - h))) / h**2
    fxy = (
        fun(Position(x + h, y + h))
        - fun(Position(x + h, y - h))
        - fun(Position(x - h, y + h))
        + fun(Position(x - h, y - h))
    ) / (4 * h**2)
    return np.array([[fxx, fxy], [fxy, fyy]])


def test_delta_dominates_numerical_hessian():
    # The curvature constant must upper-bound the surrogate Hessian at every
    # point, not just the anchor.
    rng = np.random.default_rng(26)
    ch = _random_channel(rng, num_paths=5)
    z_ref = _random_position(rng)
    delta = minorant_at(z_ref, ch)[0]
    fun = lambda z: surrogate_value(z, z_ref, ch)
    for _ in range(100):
        z = _random_position(rng)
        eigs = np.linalg.eigvalsh(_fd_hessian(fun, z))
        assert np.max(np.abs(eigs)) <= delta * (1 + 1e-6)


# --- minorization chain ---


def test_minorant_chain_holds_on_random_pairs():
    rng = np.random.default_rng(27)
    slack = 1e-9
    for _ in range(1000):
        ch = _random_channel(rng, num_paths=int(rng.integers(2, 7)))
        z_ref = _random_position(rng)
        z = _random_position(rng)
        gain_ref = channel_gain(z_ref, ch)
        delta, grad = minorant_at(z_ref, ch)
        sbar_ref = surrogate_value(z_ref, z_ref, ch)
        # First bound: true gain dominates twice the linearized surrogate
        # minus its value at the anchor.
        sbar = surrogate_value(z, z_ref, ch)
        assert channel_gain(z, ch) >= 2 * sbar - gain_ref - slack
        # Second bound: the linearized surrogate dominates its quadratic
        # Taylor minorant built from the curvature constant.
        dz = z.as_array() - z_ref.as_array()
        taylor = sbar_ref + grad @ dz - 0.5 * delta * dz @ dz
        assert sbar >= taylor - slack
        # Both bounds are tight at the anchor.
        assert abs(sbar_ref - gain_ref) <= slack * (1 + gain_ref)


def test_quadratic_surrogate_is_taylor_bound_up_to_constant():
    # Dropping z-independent terms must not change the maximizer: check the
    # difference between the full Taylor bound and the exposed quadratic is
    # constant in z.
    rng = np.random.default_rng(28)
    ch = _random_channel(rng)
    z_ref = _random_position(rng)
    delta, grad = minorant_at(z_ref, ch)
    sbar_ref = surrogate_value(z_ref, z_ref, ch)

    def taylor(z):
        dz = z.as_array() - z_ref.as_array()
        return sbar_ref + grad @ dz - 0.5 * delta * dz @ dz

    diffs = []
    for _ in range(5):
        z = _random_position(rng)
        diffs.append(taylor(z) - quadratic_surrogate(z, z_ref, ch))
    assert_allclose(diffs, diffs[0], rtol=1e-9, atol=1e-9 * (1 + abs(diffs[0])))


# --- single surrogate step ---


def test_step_fixed_point_when_gradient_vanishes():
    ch = UserChannel(angles=((0.9, 1.3),), prv=np.array([1.0 + 2j]))
    z = Position(0.2, -0.3)
    out = sca_step(z, ch, MoveRegion(2.0))
    assert_allclose([out.x, out.y], [z.x, z.y], atol=1e-12)


def test_step_matches_newton_point_when_unclamped():
    rng = np.random.default_rng(29)
    region = MoveRegion(100.0)
    for _ in range(20):
        ch = _random_channel(rng)
        z = _random_position(rng)
        delta, grad = minorant_at(z, ch)
        out = sca_step(z, ch, region)
        expected = z.as_array() + grad / delta
        assert_allclose([out.x, out.y], expected, rtol=1e-12)


def test_step_clamps_to_boundary_and_dominates_grid():
    # A region much smaller than the free step length forces the clamp; the
    # clamped point must still beat every grid evaluation of the quadratic.
    rng = np.random.default_rng(30)
    region = MoveRegion(0.02)
    hits = 0
    for _ in range(20):
        ch = _random_channel(rng)
        z_ref = Position(0.0, 0.0)
        delta, grad = minorant_at(z_ref, ch)
        free = np.abs(grad / delta)
        if free.max() <= region.half:
            continue
        hits += 1
        out = sca_step(z_ref, ch, region)
        assert max(abs(out.x), abs(out.y)) <= region.half + 1e-15
        assert max(abs(out.x), abs(out.y)) >= region.half - 1e-15
        best = quadratic_surrogate(out, z_ref, ch)
        ticks = np.linspace(-region.half, region.half, 41)
        for x in ticks:
            for y in ticks:
                assert best >= quadratic_surrogate(Position(x, y), z_ref, ch) - 1e-12
    assert hits >= 10


def test_step_never_decreases_linearized_surrogate():
    rng = np.random.default_rng(31)
    region = MoveRegion(2.0)
    for _ in range(50):
        ch = _random_channel(rng)
        z_ref = Position(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        out = sca_step(z_ref, ch, region)
        assert surrogate_value(out, z_ref, ch) >= surrogate_value(z_ref, z_ref, ch) - 1e-12


# --- full optimization loop ---


def test_single_path_terminates_immediately():
    ch = UserChannel(angles=((1.1, 0.4),), prv=np.array([0.7 - 0.1j]))
    pos, gain, iters = optimize_position(ch, MoveRegion(2.0), init=Position(0.5, -0.5))
    assert iters == 1
    assert_allclose(gain, abs(0.7 - 0.1j) ** 2, rtol=1e-12)


def test_point_region_returns_fixed_antenna_gain():
    rng = np.random.default_rng(32)
    ch = _random_channel(rng)
    pos, gain, _ = optimize_position(ch, MoveRegion(0.0), init=Position(0.0, 0.0))
    assert (pos.x, pos.y) == (0.0, 0.0)
    assert_allclose(gain, abs(np.sum(np.conj(ch.prv))) ** 2, rtol=1e-12)


def test_init_outside_region_rejected():
    rng = np.random.default_rng(33)
    ch = _random_channel(rng)
    with pytest.raises(ValueError):
        optimize_position(ch, MoveRegion(1.0), init=Position(2.0, 0.0))
    with pytest.raises(ValueError, match="outside the region"):
        sca_trajectory(ch, MoveRegion(1.0), ScaParams(), Position(2.0, 0.0))


def test_trajectory_is_feasible_monotone_and_consistent():
    rng = np.random.default_rng(34)
    region = MoveRegion(2.0)
    for _ in range(20):
        ch = _random_channel(rng, num_paths=int(rng.integers(2, 6)))
        states = sca_trajectory(ch, region, ScaParams(), Position(0.0, 0.0))
        assert states[0].iteration == 0
        gains = [s.gain for s in states]
        assert all(b >= a for a, b in zip(gains, gains[1:]))
        for s in states:
            assert region.contains(s.current, tol=1e-12)
            assert_allclose(s.gain, channel_gain(s.current, ch), rtol=1e-9)
        assert isinstance(states[-1], ScaState)


def test_optimizer_improves_on_start_gain():
    rng = np.random.default_rng(35)
    region = MoveRegion(2.0)
    for _ in range(20):
        ch = _random_channel(rng, num_paths=4)
        start = Position(0.0, 0.0)
        _, gain, _ = optimize_position(ch, region, init=start)
        assert gain >= channel_gain(start, ch) - 1e-12


def test_gain_invariant_under_global_prv_phase():
    rng = np.random.default_rng(36)
    ch = _random_channel(rng)
    rotated = UserChannel(ch.angles, ch.prv * np.exp(1j * 0.9), ch.distance)
    region = MoveRegion(2.0)
    _, g0, _ = optimize_position(ch, region)
    _, g1, _ = optimize_position(rotated, region)
    assert_allclose(g1, g0, rtol=1e-9)


@pytest.mark.bitwise
def test_multistart_never_hurts_and_is_reproducible():
    rng_channel = np.random.default_rng(37)
    region = MoveRegion(2.0)
    for _ in range(5):
        ch = _random_channel(rng_channel, num_paths=3)
        _, single, _ = optimize_position(ch, region)
        params = ScaParams(multistart=8)
        _, multi_a, _ = optimize_position(ch, region, params, rng=np.random.default_rng(99))
        _, multi_b, _ = optimize_position(ch, region, params, rng=np.random.default_rng(99))
        assert multi_a >= single - 1e-12
        assert multi_a == multi_b
        # Without an rng the extra starts come from a fixed seed.
        unseeded = optimize_position(ch, region, params)
        assert optimize_position(ch, region, params) == unseeded
        assert optimize_position(ch, region, params, rng=np.random.default_rng(0)) == unseeded


def test_param_validation():
    with pytest.raises(ValueError):
        ScaParams(threshold=-1.0)
    # NaN used to run every lane to the cap, and inf stopped each after one step.
    for threshold in (math.nan, math.inf):
        with pytest.raises(ValueError, match="threshold must be finite"):
            ScaParams(threshold=threshold)
    with pytest.raises(ValueError):
        ScaParams(max_iterations=0)
    with pytest.raises(ValueError):
        ScaParams(multistart=-1)


@pytest.mark.parametrize("field", ["max_iterations", "multistart"])
def test_param_counts_are_integers(field):
    # 2.5 iterations and 1.5 extra starts used to construct and then fail
    # mid-run with a TypeError; numpy integers are integers, bools, strings
    # and 6.0 are not.
    for value in (2.5, True, False, "6", 6.0):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ScaParams(**{field: value})
    assert getattr(ScaParams(**{field: np.int64(3)}), field) == 3


# --- the ascent loop against a reference loop ---


def _reference_lane(ch, region, params, init):
    """The sequential ascent loop, rebuilt from the reference expressions in
    manoma.oracles rather than the engine's kernels: the states (position,
    gain, iteration) one start visits."""
    prv, dirs, amplitude_sum = ch.prv, ch.directions, ch.amplitude_sum
    z = init.as_array()[None]
    sums = reference_path_sums(z, prv, dirs)
    gain = reference_gains(sums[:, 0])[0]
    states = [(init, gain, 0)]
    for i in range(1, params.max_iterations + 1):
        z_new = reference_newton_step(z, *reference_minorant(sums, amplitude_sum), region.half)
        sums_new = reference_path_sums(z_new, prv, dirs)
        gain_new = reference_gains(sums_new[:, 0])[0]
        increase = gain_new - gain
        if increase < 0.0:
            break
        z, sums, gain = z_new, sums_new, gain_new
        states.append((Position(float(z[0, 0]), float(z[0, 1])), gain, i))
        if increase < params.threshold or increase == 0.0:
            break
    return states


def _bits(z, gain, iteration):
    """Exact identity of one result; hex keeps the sign of zero apart."""
    return (float(z.x).hex(), float(z.y).hex(), float(gain).hex(), int(iteration))


def _first_best(finals):
    """The first reference final state with the strictly largest gain."""
    best = finals[0]
    for final in finals[1:]:
        if final[1] > best[1]:
            best = final
    return best


def _on_channel(state, ch):
    """A reference state of ch.normalized() as the positioner reports it on
    ch: the unit-power gain times the channel's power."""
    z, gain, iteration = state
    return z, gain * ch.power, iteration


@pytest.mark.bitwise
def test_engine_matches_sequential_loop_bit_for_bit():
    # Raw default-scenario channels, as the simulator optimizes them, at
    # multistart 0 and 10. Every start is first run alone through the
    # reference loop on the unit-power channel; multistart keeps the first
    # strictly best start.
    cfg = ScenarioConfig()
    region = MoveRegion(cfg.region_side)
    params = ScaParams(multistart=10)
    origin = Position(0.0, 0.0)
    rng = np.random.default_rng(2024)
    capped = 0
    for k in range(200):
        ch = sample_user_channel(cfg, rng)
        draws = np.random.default_rng(k)
        starts = [origin] + [
            Position(*(float(v) for v in draws.uniform(-region.half, region.half, 2)))
            for _ in range(params.multistart)
        ]
        lanes = [_reference_lane(ch.normalized(), region, params, start) for start in starts]
        finals = [lane[-1] for lane in lanes]
        capped += sum(f[2] == params.max_iterations for f in finals)

        trajectory = sca_trajectory(ch, region, ScaParams(), origin)
        assert [_bits(s.current, s.gain, s.iteration) for s in trajectory] == [
            _bits(*_on_channel(state, ch)) for state in lanes[0]
        ]
        alone = optimize_position(ch, region, ScaParams(), origin)
        assert _bits(*alone) == _bits(*_on_channel(finals[0], ch))

        got = optimize_position(ch, region, params, origin, rng=np.random.default_rng(k))
        assert _bits(*got) == _bits(*_on_channel(_first_best(finals), ch))
    assert capped >= 10  # the iteration cap is exercised, not just early stops


@pytest.mark.bitwise
@pytest.mark.parametrize("multistart", [0, 10])
def test_engine_matches_sequential_loop_at_zero_threshold(multistart):
    # At threshold 0 a start stops only on a zero gain increase (the step is
    # kept), a gain decrease (the step is dropped) or the iteration cap.
    cfg = ScenarioConfig()
    region = MoveRegion(cfg.region_side)
    params = ScaParams(threshold=0.0, multistart=multistart)
    rng = np.random.default_rng(2025)
    zero_increase_stops = 0
    for k in range(20):
        ch = sample_user_channel(cfg, rng)
        draws = np.random.default_rng(k)
        starts = [Position(0.0, 0.0)] + [
            Position(*(float(v) for v in draws.uniform(-region.half, region.half, 2)))
            for _ in range(multistart)
        ]
        finals = []
        for start in starts:
            states = _reference_lane(ch.normalized(), region, params, start)
            final = sca_trajectory(ch, region, params, start)[-1]
            assert _bits(final.current, final.gain, final.iteration) == _bits(
                *_on_channel(states[-1], ch)
            )
            finals.append(states[-1])
            last, before = states[-1], states[-2] if len(states) > 1 else None
            if last[2] < params.max_iterations and before and last[1] == before[1]:
                zero_increase_stops += 1
        got = optimize_position(ch, region, params, starts[0], rng=np.random.default_rng(k))
        assert _bits(*got) == _bits(*_on_channel(_first_best(finals), ch))
        trajectory = sca_trajectory(ch, region, params, starts[0])
        assert [_bits(s.current, s.gain, s.iteration) for s in trajectory] == [
            _bits(*_on_channel(state, ch))
            for state in _reference_lane(ch.normalized(), region, params, starts[0])
        ]
    assert zero_increase_stops >= 1


@pytest.mark.bitwise
@pytest.mark.parametrize("num_paths", [1, 2, 3, 8, 9, 17])
def test_engine_matches_sequential_loop_for_any_path_count(num_paths):
    # Path counts on both sides of numpy's 8-wide summation blocks, and the
    # single path, where the rounding of the anchor product depends on how
    # its operands are laid out.
    rng = np.random.default_rng(300 + num_paths)
    region = MoveRegion(2.0)
    params = ScaParams()
    for _ in range(5):
        ch = _random_channel(rng, num_paths=num_paths)
        starts = [Position(0.0, 0.0)] + [_random_position(rng, span=1.0) for _ in range(2)]
        for start in starts:
            final = _reference_lane(ch.normalized(), region, params, start)[-1]
            expected = _bits(*_on_channel(final, ch))
            got = sca_trajectory(ch, region, params, start)[-1]
            assert _bits(got.current, got.gain, got.iteration) == expected
            alone = optimize_position(ch, region, params, start)
            assert _bits(*alone) == expected


@pytest.mark.bitwise
def test_optimize_position_on_a_raw_draw_is_the_sweep_position():
    # sim hands optimize_position the raw channels of draw_users' streams;
    # the same call here gives each user's sweep position bit for bit, with
    # the full ascent: a threshold on the raw gain (about 1e-8 here) would
    # stop after one step.
    cfg = ScenarioConfig()
    region, origin = MoveRegion(cfg.region_side), Position(0.0, 0.0)
    steps = []
    for index in range(10):
        draws = draw_users(cfg, index, cfg.num_users)
        streams = np.random.default_rng(np.random.SeedSequence((cfg.seed, index))).spawn(
            cfg.num_users
        )
        for k, stream in enumerate(streams):
            raw = sample_user_channel(cfg, stream)
            pos, gain, iterations = optimize_position(raw, region, cfg.sca, origin, rng=stream)
            assert pos.as_array().tobytes() == draws.positions[k].tobytes()
            assert_allclose(gain, channel_gain(pos, raw), rtol=1e-12)
            steps.append(iterations)
    assert sum(s > 1 for s in steps) > len(steps) // 2


def test_trajectory_on_a_raw_draw_runs_the_full_ascent():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(0)
    region = MoveRegion(cfg.region_side)
    for _ in range(10):
        raw = sample_user_channel(cfg, rng)
        assert raw.power < 1e-6  # the path loss is in the gain
        states = sca_trajectory(raw, region, ScaParams(), Position(0.0, 0.0))
        assert len(states) > 2
        gains = [s.gain for s in states]
        assert all(b >= a for a, b in zip(gains, gains[1:]))
        assert_allclose(gains[-1], channel_gain(states[-1].current, raw), rtol=1e-12)


@pytest.mark.bitwise
def test_engine_zero_anchor_lane_stays_put_and_stops():
    # prv = (1, -1) cancels exactly at the origin: the anchor vector is zero,
    # so the curvature bound is zero and the step must leave the start alone
    # (without a 0/0 warning) while another start ascends normally.
    angles = ((0.7, 1.9), (2.1, 0.4))
    ch = UserChannel(angles=angles, prv=np.array([1.0 + 0j, -1.0 + 0j]))
    region = MoveRegion(2.0)
    origin = Position(0.0, 0.0)
    assert minorant_at(origin, ch)[0] == 0.0
    assert sca_step(origin, ch, region) == origin
    assert optimize_position(ch, region, ScaParams(), origin) == (origin, 0.0, 1)
    assert sca_trajectory(ch, region, ScaParams(), Position(0.3, -0.2))[-1].gain > 0.0
    states = sca_trajectory(ch, region, ScaParams(), origin)
    assert [(s.current, s.gain, s.iteration) for s in states] == [
        (origin, 0.0, 0),
        (origin, 0.0, 1),
    ]


def test_engine_rejects_all_zero_channel():
    ch = UserChannel(angles=((1.0, 1.0),), prv=np.array([0j]))
    for run in (optimize_position, sca_trajectory):
        with pytest.raises(DegenerateChannelError):
            run(ch, MoveRegion(1.0), ScaParams(), Position(0.0, 0.0))


def test_engine_rejects_start_outside_region():
    # An init outside the box fails before the channel's energy is judged;
    # every multistart start is drawn inside the box.
    init = Position(3.0, -2.5)
    message = r"initial position Position\(x=3.0, y=-2.5\) lies outside the region"
    for ch in (
        _random_channel(np.random.default_rng(36)),
        UserChannel(angles=((1.0, 1.0),), prv=np.array([0j])),
    ):
        for run in (optimize_position, sca_trajectory):
            with pytest.raises(ValueError, match=message):
                run(ch, MoveRegion(2.0), ScaParams(), init)
    # Corners within MoveRegion.contains's tolerance are inside.
    ch = _random_channel(np.random.default_rng(36))
    for corner in (Position(1.0, -1.0), Position(-1.0 - 1e-13, 1.0)):
        optimize_position(ch, MoveRegion(2.0), ScaParams(), corner)


# --- grid oracle ---


def test_grid_oracle_single_path():
    ch = UserChannel(angles=((1.0, 1.0),), prv=np.array([2.0 + 0j]))
    _, gain = grid_oracle(ch, MoveRegion(2.0), step=0.25)
    assert_allclose(gain, 4.0, rtol=1e-12)


def test_grid_oracle_point_region():
    rng = np.random.default_rng(38)
    ch = _random_channel(rng)
    pos, gain = grid_oracle(ch, MoveRegion(0.0), step=0.1)
    assert (pos.x, pos.y) == (0.0, 0.0)
    assert_allclose(gain, channel_gain(pos, ch), rtol=1e-12)


def test_grid_oracle_includes_origin_and_boundary():
    rng = np.random.default_rng(39)
    for _ in range(10):
        ch = _random_channel(rng)
        region = MoveRegion(2.0)
        _, gain = grid_oracle(ch, region, step=0.3)
        assert gain >= channel_gain(Position(0.0, 0.0), ch) - 1e-12


def test_grid_oracle_step_validation():
    rng = np.random.default_rng(40)
    ch = _random_channel(rng)
    with pytest.raises(ValueError):
        grid_oracle(ch, MoveRegion(1.0), step=0.0)


@pytest.mark.bitwise
def test_grid_oracle_gain_is_channel_gain_at_its_point():
    # The oracle scores its grid by reference_path_sums, whose h is
    # channel_coefficient's bit for bit, so its reported gain is channel_gain.
    cfg = ScenarioConfig()
    region = MoveRegion(cfg.region_side)
    rng = np.random.default_rng(0)
    for _ in range(200):
        ch = sample_user_channel(cfg, rng).normalized()
        pos, gain = grid_oracle(ch, region, step=0.05)
        assert float(gain).hex() == float(channel_gain(pos, ch)).hex()


@pytest.mark.bitwise
@pytest.mark.parametrize("num_paths", [1, 5, 17])
def test_grid_oracle_gain_is_channel_gain_at_any_path_count(num_paths):
    # Raw sampled channels at 1, 5 and 17 paths: the gain grid_oracle scores
    # by reference_path_sums is channel_gain at the point it returns.
    cfg = ScenarioConfig(paths_per_user=num_paths)
    region = MoveRegion(cfg.region_side)
    rng = np.random.default_rng(60 + num_paths)
    for _ in range(20):
        ch = sample_user_channel(cfg, rng)
        pos, gain = grid_oracle(ch, region, step=0.05)
        assert gain.hex() == channel_gain(pos, ch).hex()


def test_multistart_tracks_grid_oracle():
    # Deterministic smoke version of the statistical optimality check: with
    # a handful of restarts the ascent should land within a couple percent
    # of an exhaustive search on most channels.
    rng = np.random.default_rng(41)
    region = MoveRegion(2.0)
    params = ScaParams(multistart=10)
    close = 0
    total = 15
    for _ in range(total):
        ch = _random_channel(rng, num_paths=3)
        _, sca_gain, _ = optimize_position(ch, region, params, rng=rng)
        _, ref_gain = grid_oracle(ch, region, step=0.01)
        assert sca_gain <= ref_gain * 1.001  # oracle is near-exhaustive
        if sca_gain >= 0.98 * ref_gain:
            close += 1
    assert close >= 13
