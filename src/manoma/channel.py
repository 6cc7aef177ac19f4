"""Multipath field-response channel model.

A user's uplink channel is a superposition of plane-wave transmit paths.
Moving the antenna inside its region changes only the per-path phases, so
the complex channel coefficient is a function of the 2-D antenna position.
All lengths are measured in carrier wavelengths (the physics depends only
on position/wavelength, so the wavelength is normalized to 1 throughout).

field_response_vector, channel_coefficient and channel_gain are the one
definition of the channel at a point, in Python's complex arithmetic: e_l =
cmath.rect(1, 2 pi rho_l), h = sum_l conj(f_l) e_l summed path by path from
-0, and the gain hr*hr + hi*hi. The positioner's scalar loop computes the
same h bit for bit, and no bit of h depends on numpy's CPU dispatch or BLAS.
"""

from __future__ import annotations

import copy
import math
import numbers
from cmath import rect
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class DegenerateChannelError(ValueError):
    """Channel carries no energy (all-zero path responses); gain is identically 0."""


def as_float(name: str, value) -> float:
    """The rule for a float field or sweep value: float(value) of a real
    number other than a bool. A bool (which float() reads as 0.0 or 1.0), a
    non-number such as a str (which float() parses) or None, or a number too
    large for a float raises ValueError naming the field."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a bool, got {value}")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must fit in a float, got a larger number") from None


def as_count(name: str, value, low: int) -> int:
    """The rule for a count: int(value) of an integral number other than a
    bool (whose True would pass as 1) that is at least low; anything else,
    4.0 included, raises ValueError naming the field."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


@dataclass(frozen=True)
class Position:
    """2-D antenna coordinate in wavelengths, relative to the region center."""

    x: float
    y: float

    def __post_init__(self) -> None:
        as_float("position x", self.x)
        as_float("position y", self.y)
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class MoveRegion:
    """Square feasible area [-side/2, side/2] x [-side/2, side/2] for one antenna."""

    side: float

    def __post_init__(self) -> None:
        as_float("region_side", self.side)
        # A point of the region lies within half * sqrt(2) < side of its
        # center, so a finite 2 pi side bounds every phase 2 pi d . rho.
        if not (0.0 <= self.side and TWO_PI * self.side < math.inf):
            msg = "must be finite and nonnegative, and 2 pi region_side finite"
            raise ValueError(f"region_side {msg}, got {self.side}")

    @property
    def half(self) -> float:
        return 0.5 * self.side

    def contains(self, z: Position, tol: float = 1e-12) -> bool:
        return abs(z.x) <= self.half + tol and abs(z.y) <= self.half + tol


@dataclass(frozen=True, eq=False)
class UserChannel:
    """One user's multipath description: per-path departure angles and complex
    path responses, plus the user-to-receiver distance in meters.

    angles holds a (theta, phi) row per path: elevation and azimuth in [0,
    pi] radians. Its arrays are read-only, so it is safe to share across
    parallel workers; a channel equals only itself.
    """

    angles: np.ndarray
    prv: np.ndarray
    distance: float = 1.0

    def __post_init__(self) -> None:
        angles = _read_only(np.array(self.angles, dtype=float))
        prv = _read_only(np.array(self.prv, dtype=complex))
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "prv", prv)
        if angles.ndim != 2 or angles.shape[1] != 2 or len(angles) < 1:
            raise ValueError(
                f"angles must be (theta, phi) rows, one per path, got shape {angles.shape}"
            )
        if not ((angles >= 0.0) & (angles <= math.pi)).all():
            raise ValueError(f"angles must lie in [0, pi], got {angles.tolist()}")
        if prv.ndim != 1 or len(prv) != len(angles):
            raise ValueError(f"angles ({len(angles)}) and path responses ({prv.shape}) must match")
        if not np.isfinite(prv).all():
            raise ValueError(f"path responses prv must be finite, got {prv}")
        if not self.distance > 0.0:
            raise ValueError(f"distance must be positive, got {self.distance}")
        # Direction cosines that map a position to per-path travel distances,
        # computed once: each positioning call (in _path_rows) and each
        # channel_gain call reads them, three reads per user of a sweep draw.
        theta, phi = angles.T
        dirs = np.stack((np.sin(theta) * np.cos(phi), np.cos(theta)))
        object.__setattr__(self, "_dirs", _read_only(dirs))

    @property
    def num_paths(self) -> int:
        return len(self.angles)

    @property
    def directions(self) -> np.ndarray:
        """Path delay sensitivities, rows sin(theta)*cos(phi) (x) and cos(theta) (y)."""
        return self._dirs

    @property
    def power(self) -> float:
        """Total path power, sum of |f_n|^2."""
        return float(np.sum(np.abs(self.prv) ** 2))

    @property
    def amplitude_sum(self) -> float:
        """Sum of per-path amplitudes |f_n|; its square caps the gain everywhere."""
        return float(np.sum(np.abs(self.prv)))

    def normalized(self) -> "UserChannel":
        """Same geometry with path responses rescaled to unit total power; the
        angle and direction arrays are shared, not rebuilt."""
        p = self.power
        if p <= 0.0:
            raise DegenerateChannelError("cannot normalize an all-zero channel")
        unit = copy.copy(self)
        object.__setattr__(unit, "prv", _read_only(self.prv / math.sqrt(p)))
        return unit


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _field_responses(z: Position, ch: UserChannel) -> list[complex]:
    """exp(j*2*pi*rho_l) per path as cmath.rect(1, t); the 0.0 + turns a
    phase of -0 into +0."""
    x, y = z.x, z.y
    dirs = ch.directions.tolist()
    return [rect(1.0, 0.0 + TWO_PI * (x * dx + y * dy)) for dx, dy in zip(*dirs)]


def field_response_vector(z: Position, ch: UserChannel) -> np.ndarray:
    """Unit-modulus phase vector over paths at position z.

    Entry p is exp(j*2*pi*rho_p(z)); at the origin it is the all-ones vector.
    """
    return np.array(_field_responses(z, ch))


def channel_coefficient(z: Position, ch: UserChannel) -> complex:
    """Complex channel response h = sum_l conj(f_l) e_l at z.

    Each product is Python's complex product and the sum runs path by path
    from -0, the identity of IEEE addition, so it is path 0's product plus
    path 1's and so on. Python's complex multiply is textbook real products,
    with no fused multiply-add, so no bit depends on the CPU.
    """
    h = complex(-0.0, -0.0)
    for f, e in zip(ch.prv.tolist(), _field_responses(z, ch)):
        h += f.conjugate() * e
    return h


def channel_gain(z: Position, ch: UserChannel) -> float:
    """Squared modulus of the channel coefficient at z."""
    h = channel_coefficient(z, ch)
    return h.real * h.real + h.imag * h.imag


def sample_user_channel(cfg, rng: np.random.Generator) -> UserChannel:
    """Draw one user's channel for a scenario.

    The distance is uniform over cfg.distance_range; departure angles are
    i.i.d. uniform on [0, pi]; each path response is circularly symmetric
    complex Gaussian with total variance distance**(-pathloss_exponent)
    divided evenly across the cfg.paths_per_user paths.

    The number and order of rng draws per call is fixed, so channels sampled
    sequentially from one stream do not depend on how many users follow.
    """
    d = float(rng.uniform(cfg.distance_range[0], cfg.distance_range[1]))
    num_paths = cfg.paths_per_user
    theta = rng.uniform(0.0, math.pi, num_paths)
    phi = rng.uniform(0.0, math.pi, num_paths)
    # CN(0, v) convention: real and imaginary parts i.i.d. N(0, v/2).
    scale = math.sqrt(d ** (-cfg.pathloss_exponent) / (2.0 * num_paths))
    prv = scale * (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths))
    return UserChannel(angles=np.stack((theta, phi), axis=1), prv=prv, distance=d)
