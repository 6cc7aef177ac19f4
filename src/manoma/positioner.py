"""Per-user antenna placement by successive convex approximation.

The objective is the channel gain |h(z)|^2 over a square region. Each
iteration builds a concave quadratic minorant of the gain that is tight at
the current point: first the rank-one quadratic form is lower-bounded by a
linearization in the field-response vector, then the resulting sum of
cosines is lower-bounded by a second-order Taylor bound with a closed-form
curvature constant. The minorant maximizer over the box is a clamped Newton
point, so every step is exact and dependency-free, and the true gain never
decreases.

The coupling matrix f f^H is rank one, so the anchor at z is b = f h(z) and
|b_l| = |f_l| |h|. The minorant's curvature 8 pi^2 sum |b_l| is therefore
8 pi^2 |h| sum |f_l|, and its gradient -2 pi sum |b_l| d_l sin(2 pi rho_l -
arg b_l) is -2 pi Im(conj(h) sum d_l conj(f_l) e_l), with e_l path l's field
response and d_l its delay sensitivities. One vecdot of the path rows [f,
-2 pi f d_x, -2 pi f d_y] with a lane's field responses thus gives h, bit for
bit as lane_coefficients gives it, and the whole minorant: a step costs one
vecdot.

One engine, ascend, runs the loop: every start of one user is a lane of a
single array program over (starts x paths) arrays, each lane with its own
stop rule. A multistart search therefore costs a fraction of running its
starts one after another (ten extra starts take about 1.5 to 2 times as long
as one start, not eleven times). _path_rows builds a channel's rows and
curvature factor once per call; each step then runs _step (the minorant and
its clamped Newton point), _path_sums and lane_gains over lanes, and no
other helper. sca_step is the one one-lane call of the same helpers.
ascend checks its starts against the region and then the channel's energy,
so optimize_position and sca_trajectory keep no checks of their own;
sca_step makes the same energy check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from manoma.channel import (
    TWO_PI,
    DegenerateChannelError,
    MoveRegion,
    Position,
    UserChannel,
    lane_field_responses,
    lane_gains,
    lane_phases,
)

_CURVATURE = 8.0 * math.pi**2


@dataclass(frozen=True)
class ScaParams:
    """Stopping controls for the ascent loop.

    threshold is the increase of the unit-power gain (the gain over the
    channel's power) below which iteration stops, so one threshold serves
    every channel scale; multistart adds that many extra uniform-random
    initial points and keeps the best run.
    """

    threshold: float = 1e-5
    max_iterations: int = 200
    multistart: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.threshold, (bool, np.bool_)):
            raise ValueError(f"threshold must be a number, not a bool, got {self.threshold}")
        if not 0.0 <= self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and nonnegative, got {self.threshold}")
        for name, low in (("max_iterations", 1), ("multistart", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, got {value}")


@dataclass(frozen=True)
class ScaState:
    """One accepted iterate: position, its true gain, and the step index."""

    current: Position
    gain: float
    iteration: int


def _energy(ch: UserChannel) -> float:
    """The channel's power, which must be positive: an all-zero channel has a
    gain of zero everywhere and nothing to optimize."""
    power = ch.power
    if power == 0.0:
        raise DegenerateChannelError("all-zero path responses: gain is identically zero")
    return power


def _path_rows(prv: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, float]:
    """Path responses f and their products with the delay sensitivities, rows
    [f, -2 pi f d_x, -2 pi f d_y] of shape (3, 1, paths), one lane axis for
    _path_sums to broadcast, and the curvature factor 8 pi^2 sum |f_l|, its
    sum as UserChannel.amplitude_sum sums it."""
    rows = np.concatenate((prv[None], prv * (-TWO_PI * dirs)))[:, None]
    return rows, _CURVATURE * float(np.sum(np.abs(prv)))


def _path_sums(z: np.ndarray, rows: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Each (lanes, 2) position's path rows dotted with its field responses e,
    shape (3, lanes): row 0 is h, as lane_coefficients returns it, and rows
    1-2 are -2 pi sum d_l conj(f_l) e_l. Each row is contiguous, which keeps
    the step's ufuncs on their one-dimensional fast path at any lane count."""
    return np.vecdot(rows, lane_field_responses(lane_phases(z, dirs)))


def _step(
    z: np.ndarray, sums: np.ndarray, curvature: float, half: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each lane's minorant from its path sums and the minorant's maximizer:
    the Newton points z + grad/delta clamped to the box (lanes, 2), the
    curvature bounds delta (lanes,) and the surrogate gradients grad
    (lanes, 2).

    The anchor b = f h has |b_l| = |f_l| |h|, so delta is 8 pi^2 |h| sum
    |f_l| and grad is -2 pi Im(conj(h) sum d_l conj(f_l) e_l). A lane with
    zero curvature (zero anchor) stays put, divided by 1 to keep out 0/0;
    the mask is built only when such a lane exists.
    """
    h = sums[0]
    delta = curvature * np.abs(h)
    grad = (h.conj() * sums[1:]).imag
    if np.count_nonzero(delta) < len(delta):
        flat = delta == 0.0
        z_new = (z + (grad / np.where(flat, 1.0, delta)).T).clip(-half, half)
        return np.where(flat[:, None], z, z_new), delta, grad.T
    return (z + (grad / delta).T).clip(-half, half), delta, grad.T


def sca_step(z_ref: Position, ch: UserChannel, region: MoveRegion) -> Position:
    """Exact maximizer of the quadratic minorant over the box: ascend's step
    as one lane, on the channel as passed. Unlike ascend it does not rescale
    to unit power, so on a channel that is not at unit power its last bits
    may differ from the step ascend takes (the Newton point itself does not
    depend on the scale). An all-zero channel raises DegenerateChannelError.

    The quadratic is separable, so the box-constrained maximum is the
    unconstrained Newton point clamped per coordinate. A vanishing curvature
    bound means the anchor is zero (gain null with a flat surrogate); the
    point is stationary and is returned unchanged.
    """
    _energy(ch)
    dirs = ch.directions
    rows, curvature = _path_rows(ch.prv, dirs)
    z = z_ref.as_array()[None]
    z = _step(z, _path_sums(z, rows, dirs), curvature, region.half)[0]
    return Position(float(z[0, 0]), float(z[0, 1]))


def ascend(
    ch: UserChannel,
    region: MoveRegion,
    params: ScaParams,
    starts: np.ndarray,
    history: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the ascent from every start at once, one lane per start.

    starts has shape (lanes, 2), and ascend checks them: a start outside the
    region by MoveRegion.contains raises ValueError, then an all-zero channel
    raises DegenerateChannelError.

    The loop runs on the channel rescaled to unit power, prv / sqrt(power),
    as UserChannel.normalized() rescales it. Scaling the path responses
    scales the gain but moves no iterate, so the threshold bounds the
    increase of the unit-power gain at any channel scale. Reported gains are
    the unit-power gains times the channel's power.

    Every lane takes the steps sca_step takes from its start on the
    unit-power channel, and each iterate's coefficient gives its gain and its
    next step. A lane stops once its gain improves by less than the threshold
    (the accepted step is kept), when a step would lower its gain (the step
    is dropped; this guards floating-point edge cases), or at the iteration
    cap. A stopped lane is written out and removed from the working arrays,
    so no lane depends on which others run beside it.

    Returns the final positions (lanes, 2), gains (lanes,) and iteration
    counts (lanes,). When history is a list, one (iteration, lanes,
    positions, gains) entry is appended per step, holding the lanes whose
    step was accepted; iteration 0 holds the starts.
    """
    z = np.array(starts, dtype=float).reshape(-1, 2)
    for start in map(Position, *z.T.tolist()):
        if not region.contains(start):
            raise ValueError(f"initial position {start} lies outside the region")
    power = _energy(ch)
    dirs = ch.directions
    rows, curvature = _path_rows(ch.prv / math.sqrt(power), dirs)
    half = region.half
    threshold = params.threshold
    last = params.max_iterations

    num_lanes = len(z)
    final_z = np.empty_like(z)
    final_gain = np.empty(num_lanes)
    final_iteration = np.empty(num_lanes, dtype=int)
    live = np.arange(num_lanes)

    sums = _path_sums(z, rows, dirs)
    gain = lane_gains(sums[0])
    if history is not None:
        history.append((0, live, z, gain * power))
    for i in range(1, last + 1):
        # sca_step and channel_gain of every live lane.
        z_new = _step(z, sums, curvature, half)[0]
        sums_new = _path_sums(z_new, rows, dirs)
        gain_new = lane_gains(sums_new[0])
        increase = gain_new - gain
        if history is not None:
            kept = ~(increase < 0.0)
            history.append((i, live[kept], z_new[kept], gain_new[kept] * power))
        # threshold >= 0, so a step that lowers the gain also stops its lane,
        # and so does a zero increase, which threshold 0 needs tested apart.
        done = increase < threshold if threshold else increase <= 0.0
        if i == last:
            done[:] = True
        if np.count_nonzero(done):
            out = live[done]
            dropped = increase[done] < 0.0
            final_z[out] = np.where(dropped[:, None], z[done], z_new[done])
            final_gain[out] = np.where(dropped, gain[done], gain_new[done])
            final_iteration[out] = i - dropped
            go = ~done
            live = live[go]
            if len(live) == 0:
                break
            z_new, sums_new, gain_new = z_new[go], sums_new[:, go], gain_new[go]
        z, sums, gain = z_new, sums_new, gain_new
    return final_z, final_gain * power, final_iteration


def sca_trajectory(
    ch: UserChannel,
    region: MoveRegion,
    params: ScaParams,
    init: Position,
) -> list[ScaState]:
    """Run the ascent loop from one initial point and record every iterate.

    The first state is the initial point itself; each later state is one
    surrogate maximization re-anchored at the previous point. Stops once the
    true gain improves by less than the threshold (the accepted step is still
    recorded) or the iteration cap is reached. The gain sequence is
    non-decreasing by construction. This is the one-lane case of ascend.
    """
    history: list = []
    ascend(ch, region, params, init.as_array(), history)
    return [
        ScaState(current=Position(float(z[0, 0]), float(z[0, 1])), gain=float(g[0]), iteration=i)
        for i, lanes, z, g in history
        if len(lanes)
    ]


def optimize_position(
    ch: UserChannel,
    region: MoveRegion,
    params: ScaParams = ScaParams(),
    init: Position = Position(0.0, 0.0),
    rng: np.random.Generator | None = None,
) -> tuple[Position, float, int]:
    """Maximize the channel gain over the region by iterated surrogate ascent.

    Returns the final position, its true gain, and the number of surrogate
    steps taken. With multistart > 0, also starts from that many extra
    uniform random points inside the region and keeps the highest-gain
    result (the supplied init wins ties, then earlier draws). All starts run
    as lanes of one ascend call, so extra starts cost far less than extra
    sequential runs. The rng only feeds the multistart draws; omitting it
    gives a fixed seed so results stay reproducible.
    """
    starts = init.as_array()[None, :]
    if params.multistart > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        half = region.half
        starts = np.concatenate((starts, rng.uniform(-half, half, (params.multistart, 2))))
    z, gains, iterations = ascend(ch, region, params, starts)
    best = int(np.argmax(gains))
    position = Position(float(z[best, 0]), float(z[best, 1]))
    return position, float(gains[best]), int(iterations[best])
