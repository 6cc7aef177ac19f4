import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose

from manoma.channel import (
    DegenerateChannelError,
    MoveRegion,
    Position,
    UserChannel,
    channel_coefficient,
    channel_gain,
    field_response_vector,
    sample_user_channel,
)
from manoma.oracles import propagation_delta


@dataclass
class _Scenario:
    """Minimal stand-in for the simulation config consumed by the sampler."""

    distance_range: tuple = (80.0, 100.0)
    paths_per_user: int = 5
    pathloss_exponent: float = 3.9


def _random_channel(rng, num_paths=4):
    angles = tuple(
        (rng.uniform(0, math.pi), rng.uniform(0, math.pi)) for _ in range(num_paths)
    )
    prv = rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)
    return UserChannel(angles=angles, prv=prv)


def test_propagation_delta_hand_value():
    z = Position(1.0, 2.0)
    expected = math.sin(math.pi / 3) * math.cos(math.pi / 4) + 2.0 * math.cos(math.pi / 3)
    assert_allclose(propagation_delta(z, math.pi / 3, math.pi / 4), expected, rtol=1e-12)


def test_propagation_delta_zero_at_origin():
    assert propagation_delta(Position(0.0, 0.0), 0.7, 2.1) == 0.0


def test_field_response_unit_modulus():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ch = _random_channel(rng)
        z = Position(rng.uniform(-3, 3), rng.uniform(-3, 3))
        frv = field_response_vector(z, ch)
        assert_allclose(np.abs(frv), np.ones(ch.num_paths), rtol=0, atol=1e-12)


def test_field_response_origin_is_all_ones():
    rng = np.random.default_rng(8)
    ch = _random_channel(rng)
    assert_allclose(field_response_vector(Position(0.0, 0.0), ch), np.ones(ch.num_paths))


def test_field_response_conjugate_symmetry():
    # Negating the position negates every path phase.
    rng = np.random.default_rng(9)
    for _ in range(20):
        ch = _random_channel(rng)
        x, y = rng.uniform(-2, 2, 2)
        fwd = field_response_vector(Position(x, y), ch)
        bwd = field_response_vector(Position(-x, -y), ch)
        assert_allclose(bwd, np.conj(fwd), rtol=0, atol=1e-12)


def test_coefficient_matches_per_path_sum():
    # Re-derive the coefficient path by path with scalar arithmetic.
    rng = np.random.default_rng(10)
    for _ in range(20):
        ch = _random_channel(rng, num_paths=6)
        z = Position(rng.uniform(-2, 2), rng.uniform(-2, 2))
        expected = 0j
        for (theta, phi), f in zip(ch.angles, ch.prv):
            expected += np.conj(f) * np.exp(2j * math.pi * propagation_delta(z, theta, phi))
        assert_allclose(channel_coefficient(z, ch), expected, rtol=1e-12)


def test_single_path_gain_is_position_independent():
    ch = UserChannel(angles=((math.pi / 2, 0.0),), prv=np.array([1.5 - 0.5j]))
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = Position(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert_allclose(channel_gain(z, ch), abs(1.5 - 0.5j) ** 2, rtol=1e-12)


def test_two_path_null_and_peak():
    # Path 1 moves phase with x only, path 2 with y only.
    angles = ((math.pi / 2, 0.0), (0.0, 1.0))
    ch = UserChannel(angles=angles, prv=np.array([1.0 + 0j, 1.0 + 0j]))
    assert_allclose(channel_gain(Position(0.5, 0.0), ch), 0.0, atol=1e-24)
    assert_allclose(channel_gain(Position(0.25, 0.25), ch), 4.0, rtol=1e-12)
    assert_allclose(channel_gain(Position(0.0, 0.0), ch), 4.0, rtol=1e-12)


def test_gain_bounded_by_amplitude_sum_squared():
    rng = np.random.default_rng(12)
    for _ in range(100):
        ch = _random_channel(rng, num_paths=int(rng.integers(1, 8)))
        z = Position(rng.uniform(-4, 4), rng.uniform(-4, 4))
        assert channel_gain(z, ch) <= ch.amplitude_sum**2 * (1 + 1e-12)


def test_gain_continuity_under_small_moves():
    # The coefficient is a finite sum of smooth phasors, so nearby positions
    # produce nearby gains: |h(z1)-h(z2)| <= 2*pi*sum|f| * ||z1-z2||_2 roughly.
    rng = np.random.default_rng(13)
    ch = _random_channel(rng)
    lip = 2.0 * math.pi * ch.amplitude_sum * math.sqrt(2.0)
    for _ in range(30):
        x, y = rng.uniform(-2, 2, 2)
        eps = 1e-7
        g0 = channel_gain(Position(x, y), ch)
        g1 = channel_gain(Position(x + eps, y - eps), ch)
        step = math.hypot(eps, eps)
        bound = 2.0 * ch.amplitude_sum * lip * step + (lip * step) ** 2
        assert abs(g1 - g0) <= bound * (1 + 1e-9)


@pytest.mark.parametrize(
    "theta,phi",
    [
        (-0.1, 1.0),
        (math.pi + 0.1, 1.0),
        (1.0, -0.1),
        (1.0, math.pi + 0.1),
        (math.nan, 1.0),
        (1.0, math.nan),
        (math.inf, 1.0),
        (1.0, -math.inf),
    ],
)
def test_angle_validation(theta, phi):
    # One array check covers every path, not only the first.
    with pytest.raises(ValueError, match="angles must lie in"):
        UserChannel(angles=[(1.0, 1.0), (theta, phi)], prv=np.ones(2))


@pytest.mark.parametrize(
    "angles", [np.ones((2, 3)), np.ones(2), np.empty((0, 2)), np.array([])],
    ids=["three-columns", "one-row-flat", "no-rows", "empty"],
)
def test_angle_shape_validation(angles):
    with pytest.raises(ValueError, match="angles must be"):
        UserChannel(angles=angles, prv=np.ones(2))


def test_channel_validation():
    good = (1.0, 1.0)
    with pytest.raises(ValueError):
        UserChannel(angles=(), prv=np.array([], dtype=complex))
    with pytest.raises(ValueError):
        UserChannel(angles=(good,), prv=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        UserChannel(angles=(good,), prv=np.array([1.0]), distance=0.0)
    # Non-finite path responses used to run a whole ascent first.
    for bad in (math.nan, math.inf, complex(1.0, math.nan)):
        with pytest.raises(ValueError, match="prv must be finite"):
            UserChannel(angles=(good, good), prv=np.array([1.0, bad]))
    with pytest.raises(ValueError):
        Position(math.nan, 0.0)


def test_prv_is_read_only():
    angles = np.array([[1.0, 1.0]])
    ch = UserChannel(angles=angles, prv=np.array([1.0 + 0j]))
    for field in (ch.prv, ch.angles, ch.directions, ch.normalized().prv):
        with pytest.raises(ValueError):
            field[0] = 0.0
    # The channel holds its own copy of the angles.
    angles[0, 0] = 2.0
    assert ch.angles[0, 0] == 1.0


def test_channels_compare_and_hash_by_identity():
    # Compared field by field, two multi-path channels raised ValueError on
    # their arrays' truth value, and hashing raised TypeError.
    ch = sample_user_channel(_Scenario(), np.random.default_rng(3))
    twin = sample_user_channel(_Scenario(), np.random.default_rng(3))
    assert ch == ch
    assert (ch == twin) is False
    assert ch != twin
    assert {ch} == {ch}
    assert len({ch, twin, ch.normalized()}) == 3


def test_region_contains_and_validates_side():
    region = MoveRegion(side=2.0)
    assert region.contains(Position(1.0, -1.0))
    assert not region.contains(Position(1.1, 0.0))
    with pytest.raises(ValueError):
        MoveRegion(side=-1.0)
    # A NaN side used to fail only at the first containment test.
    for side in (math.nan, math.inf, 5e307):
        with pytest.raises(ValueError, match="^region_side must be finite"):
            MoveRegion(side=side)
    assert MoveRegion(side=2.86e307).half == 1.43e307


def test_normalized_has_unit_power():
    rng = np.random.default_rng(14)
    ch = _random_channel(rng)
    unit = ch.normalized()
    assert_allclose(unit.power, 1.0, rtol=1e-12)
    # Geometry is untouched, so the gain just rescales.
    z = Position(0.3, -0.2)
    assert_allclose(channel_gain(z, unit) * ch.power, channel_gain(z, ch), rtol=1e-12)


def test_normalized_rejects_zero_channel():
    ch = UserChannel(angles=((1.0, 1.0),), prv=np.array([0j]))
    with pytest.raises(DegenerateChannelError):
        ch.normalized()


def test_sampler_determinism():
    cfg = _Scenario()
    a = sample_user_channel(cfg, np.random.default_rng(42))
    b = sample_user_channel(cfg, np.random.default_rng(42))
    assert a.distance == b.distance
    assert np.array_equal(a.angles, b.angles)
    assert_allclose(a.prv, b.prv, rtol=0, atol=0)
    c = sample_user_channel(cfg, np.random.default_rng(43))
    assert c.distance != a.distance


def test_sampler_draw_order_is_user_prefix_stable():
    # Drawing one user then another from a single stream must reproduce the
    # first user exactly, regardless of how many users follow.
    cfg = _Scenario()
    rng1 = np.random.default_rng(5)
    first_alone = sample_user_channel(cfg, rng1)
    rng2 = np.random.default_rng(5)
    first_of_two = sample_user_channel(cfg, rng2)
    sample_user_channel(cfg, rng2)
    assert np.array_equal(first_alone.angles, first_of_two.angles)
    assert_allclose(first_alone.prv, first_of_two.prv, rtol=0, atol=0)


def test_sampler_ranges():
    cfg = _Scenario(distance_range=(80.0, 100.0), paths_per_user=3)
    rng = np.random.default_rng(15)
    for _ in range(200):
        ch = sample_user_channel(cfg, rng)
        assert 80.0 <= ch.distance <= 100.0
        assert ch.num_paths == 3
        assert ch.angles.shape == (3, 2)
        for theta, phi in ch.angles:
            assert 0.0 <= theta <= math.pi
            assert 0.0 <= phi <= math.pi


def test_sampler_power_statistics():
    # With the distance pinned, the expected total path power is d**(-3.9).
    cfg = _Scenario(distance_range=(90.0, 90.0), paths_per_user=5)
    rng = np.random.default_rng(16)
    draws = 10_000
    total = 0.0
    for _ in range(draws):
        total += sample_user_channel(cfg, rng).power
    mean_power = total / draws
    assert_allclose(mean_power, 90.0**-3.9, rtol=0.05)
