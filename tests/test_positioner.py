import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from manoma.channel import (
    DegenerateChannelError,
    MoveRegion,
    PathAngles,
    Position,
    UserChannel,
    channel_gain,
    sample_user_channel,
)
from manoma.positioner import (
    ScaParams,
    ScaState,
    anchor_vector,
    ascend,
    coupling_matrix,
    grid_oracle,
    lipschitz_delta,
    optimize_position,
    quadratic_surrogate,
    sca_step,
    sca_trajectory,
    surrogate_gradient,
    surrogate_value,
)
from manoma.sim import ScenarioConfig


def _random_channel(rng, num_paths=4):
    angles = tuple(
        PathAngles(rng.uniform(0, math.pi), rng.uniform(0, math.pi)) for _ in range(num_paths)
    )
    prv = rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)
    return UserChannel(angles=angles, prv=prv)


def _random_position(rng, span=2.0):
    return Position(float(rng.uniform(-span, span)), float(rng.uniform(-span, span)))


# --- coupling matrix and anchor vector ---


def test_coupling_matrix_single_path():
    ch = UserChannel(angles=(PathAngles(1.0, 1.0),), prv=np.array([1.0 + 0j]))
    assert_allclose(coupling_matrix(ch), [[1.0 + 0j]])


def test_coupling_matrix_two_paths():
    angles = (PathAngles(1.0, 1.0), PathAngles(0.5, 2.0))
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
    ch = UserChannel(angles=(PathAngles(0.8, 2.2),), prv=np.array([2.0 - 1j]))
    rng = np.random.default_rng(22)
    for _ in range(5):
        g = surrogate_gradient(_random_position(rng), ch)
        assert_allclose(g, [0.0, 0.0], atol=1e-9)


def test_gradient_x_component_vanishes_for_broadside_paths():
    # cos(phi) = 0 removes every path's x sensitivity.
    angles = tuple(PathAngles(math.pi / 2, math.pi / 2) for _ in range(3))
    rng = np.random.default_rng(23)
    prv = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ch = UserChannel(angles=angles, prv=prv)
    g = surrogate_gradient(Position(0.3, -0.4), ch)
    assert abs(g[0]) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(24)
    h = 1e-6
    for _ in range(50):
        ch = _random_channel(rng, num_paths=int(rng.integers(2, 7)))
        z = _random_position(rng)
        g = surrogate_gradient(z, ch)
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
    angles = tuple(PathAngles(math.pi / 2, math.pi / 2) for _ in range(4))
    ch = UserChannel(angles=angles, prv=np.full(4, 0.5 + 0j))
    assert_allclose(lipschitz_delta(Position(0.1, 0.2), ch), 32 * math.pi**2, rtol=1e-12)


def test_delta_scales_quadratically_with_prv():
    rng = np.random.default_rng(25)
    ch = _random_channel(rng)
    z = _random_position(rng)
    base = lipschitz_delta(z, ch)
    scaled = UserChannel(ch.angles, ch.prv * 3.0, ch.distance)
    assert_allclose(lipschitz_delta(z, scaled), 9.0 * base, rtol=1e-12)


def test_delta_rejects_zero_channel():
    ch = UserChannel(angles=(PathAngles(1.0, 1.0),), prv=np.array([0j]))
    with pytest.raises(DegenerateChannelError):
        lipschitz_delta(Position(0.0, 0.0), ch)


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
    delta = lipschitz_delta(z_ref, ch)
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
        grad = surrogate_gradient(z_ref, ch)
        delta = lipschitz_delta(z_ref, ch)
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
    grad = surrogate_gradient(z_ref, ch)
    delta = lipschitz_delta(z_ref, ch)
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
    ch = UserChannel(angles=(PathAngles(0.9, 1.3),), prv=np.array([1.0 + 2j]))
    z = Position(0.2, -0.3)
    out = sca_step(z, ch, MoveRegion(2.0))
    assert_allclose([out.x, out.y], [z.x, z.y], atol=1e-12)


def test_step_matches_newton_point_when_unclamped():
    rng = np.random.default_rng(29)
    region = MoveRegion(100.0)
    for _ in range(20):
        ch = _random_channel(rng)
        z = _random_position(rng)
        grad = surrogate_gradient(z, ch)
        delta = lipschitz_delta(z, ch)
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
        grad = surrogate_gradient(z_ref, ch)
        delta = lipschitz_delta(z_ref, ch)
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
    ch = UserChannel(angles=(PathAngles(1.1, 0.4),), prv=np.array([0.7 - 0.1j]))
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


def test_param_validation():
    with pytest.raises(ValueError):
        ScaParams(threshold=-1.0)
    with pytest.raises(ValueError):
        ScaParams(max_iterations=0)
    with pytest.raises(ValueError):
        ScaParams(multistart=-1)


# --- lockstep ascent engine ---


def _reference_lane(ch, region, params, init):
    """The sequential ascent loop, rebuilt from the scalar helpers: the states
    (position, gain, iteration) one start visits."""
    z, gain = init, channel_gain(init, ch)
    states = [(z, gain, 0)]
    for i in range(1, params.max_iterations + 1):
        z_new = sca_step(z, ch, region)
        gain_new = channel_gain(z_new, ch)
        increase = gain_new - gain
        if increase < 0.0:
            break
        z, gain = z_new, gain_new
        states.append((z, gain, i))
        if increase < params.threshold or increase == 0.0:
            break
    return states


def _bits(z, gain, iteration):
    """Exact identity of one result; hex keeps the sign of zero apart."""
    return (float(z.x).hex(), float(z.y).hex(), float(gain).hex(), int(iteration))


def test_engine_matches_sequential_loop_bit_for_bit():
    # Default-scenario channels as the simulator optimizes them (normalized),
    # at multistart 0 and 10. Every start is first run alone through the
    # reference loop; multistart keeps the first strictly best lane.
    cfg = ScenarioConfig()
    region = MoveRegion(cfg.region_side)
    params = ScaParams(multistart=10)
    origin = Position(0.0, 0.0)
    rng = np.random.default_rng(2024)
    capped = 0
    for k in range(200):
        ch = sample_user_channel(cfg, rng).normalized()
        draws = np.random.default_rng(k)
        starts = [origin] + [
            Position(*(float(v) for v in draws.uniform(-region.half, region.half, 2)))
            for _ in range(params.multistart)
        ]
        lanes = [_reference_lane(ch, region, params, start) for start in starts]
        finals = [lane[-1] for lane in lanes]
        capped += sum(f[2] == params.max_iterations for f in finals)

        trajectory = sca_trajectory(ch, region, ScaParams(), origin)
        assert [_bits(s.current, s.gain, s.iteration) for s in trajectory] == [
            _bits(*state) for state in lanes[0]
        ]
        assert _bits(*optimize_position(ch, region, ScaParams(), origin)) == _bits(*finals[0])

        best = finals[0]
        for final in finals[1:]:
            if final[1] > best[1]:
                best = final
        got = optimize_position(ch, region, params, origin, rng=np.random.default_rng(k))
        assert _bits(*got) == _bits(*best)
    assert capped >= 10  # the iteration cap is exercised, not just early stops


@pytest.mark.parametrize("num_paths", [1, 2, 3, 8, 9, 17])
def test_engine_matches_sequential_loop_for_any_path_count(num_paths):
    # Path counts on both sides of numpy's 8-wide summation blocks, and the
    # single path, where the rounding of the anchor product depends on how
    # its operands are laid out.
    rng = np.random.default_rng(300 + num_paths)
    region = MoveRegion(2.0)
    params = ScaParams()
    for _ in range(5):
        ch = _random_channel(rng, num_paths=num_paths).normalized()
        starts = [Position(0.0, 0.0)] + [_random_position(rng, span=1.0) for _ in range(2)]
        z, gains, iterations = ascend(ch, region, params, np.array([s.as_array() for s in starts]))
        for lane, start in enumerate(starts):
            expected = _bits(*_reference_lane(ch, region, params, start)[-1])
            assert _bits(Position(*z[lane]), gains[lane], iterations[lane]) == expected
            alone = optimize_position(ch, region, params, start)
            assert _bits(*alone) == expected


def test_engine_lanes_do_not_depend_on_batch_partition():
    cfg = ScenarioConfig()
    region = MoveRegion(cfg.region_side)
    params = ScaParams()
    rng = np.random.default_rng(77)
    for _ in range(30):
        ch = sample_user_channel(cfg, rng).normalized()
        starts = rng.uniform(-region.half, region.half, (11, 2))
        together = ascend(ch, region, params, starts)
        halves = [ascend(ch, region, params, part) for part in (starts[:4], starts[4:])]
        for lane, start in enumerate(starts):
            alone = ascend(ch, region, params, start[None, :])
            expected = [np.asarray(out[lane]).tobytes() for out in together]
            assert [np.asarray(out[0]).tobytes() for out in alone] == expected
            part, row = (0, lane) if lane < 4 else (1, lane - 4)
            assert [np.asarray(out[row]).tobytes() for out in halves[part]] == expected


def test_engine_zero_anchor_lane_stays_put_and_stops():
    # prv = (1, -1) cancels exactly at the origin: the anchor vector is zero,
    # so the curvature bound is zero and the step must leave the lane alone
    # (without a 0/0 warning) while the other lane ascends normally.
    angles = (PathAngles(0.7, 1.9), PathAngles(2.1, 0.4))
    ch = UserChannel(angles=angles, prv=np.array([1.0 + 0j, -1.0 + 0j]))
    region = MoveRegion(2.0)
    assert lipschitz_delta(Position(0.0, 0.0), ch) == 0.0
    starts = np.array([[0.0, 0.0], [0.3, -0.2]])
    z, gains, iterations = ascend(ch, region, ScaParams(), starts)
    assert z[0].tolist() == [0.0, 0.0]
    assert gains[0] == 0.0
    assert iterations[0] == 1
    alone = ascend(ch, region, ScaParams(), starts[1:])
    assert z[1].tobytes() == alone[0][0].tobytes()
    assert (gains[1], iterations[1]) == (alone[1][0], alone[2][0])
    assert gains[1] > 0.0
    states = sca_trajectory(ch, region, ScaParams(), Position(0.0, 0.0))
    assert [(s.current, s.gain, s.iteration) for s in states] == [
        (Position(0.0, 0.0), 0.0, 0),
        (Position(0.0, 0.0), 0.0, 1),
    ]


def test_engine_rejects_all_zero_channel():
    ch = UserChannel(angles=(PathAngles(1.0, 1.0),), prv=np.array([0j]))
    with pytest.raises(DegenerateChannelError):
        ascend(ch, MoveRegion(1.0), ScaParams(), np.zeros((1, 2)))


# --- grid oracle ---


def test_grid_oracle_single_path():
    ch = UserChannel(angles=(PathAngles(1.0, 1.0),), prv=np.array([2.0 + 0j]))
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
