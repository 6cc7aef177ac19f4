"""Per-user antenna placement by successive convex approximation.

The objective is the channel gain |h(z)|^2 over a square region. Each
iteration builds a concave quadratic minorant of the gain that is tight at
the current point: first the rank-one quadratic form is lower-bounded by a
linearization in the field-response vector, then the resulting sum of
cosines is lower-bounded by a second-order Taylor bound with a closed-form
curvature constant. The minorant maximizer over the box is a clamped Newton
point, so every step is exact and dependency-free, and the true gain never
decreases.

One engine, ascend, runs the loop: every start of one user is a lane of a
single array program over (starts x paths) arrays, each lane with its own
stop rule. A multistart search therefore costs a fraction of running its
starts one after another (ten extra starts take about 1.5 to 2 times as long
as one start, not eleven times), and each lane reproduces the scalar helpers
below (sca_step, channel_gain) bit for bit, whichever lanes run beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from manoma.channel import (
    TWO_PI,
    DegenerateChannelError,
    MoveRegion,
    Position,
    UserChannel,
    channel_coefficient,
    field_response_vector,
)

# Curvature constant of lipschitz_delta, and the phase factor of
# field_response_vector, each kept as one constant so the batched ascent
# rounds exactly as the scalar helpers do.
_CURVATURE = 8.0 * math.pi**2
_J_TWO_PI = 1j * TWO_PI


@dataclass(frozen=True)
class ScaParams:
    """Stopping controls for the ascent loop.

    threshold is the absolute gain increase below which iteration stops;
    multistart adds that many extra uniform-random initial points and keeps
    the best run.
    """

    threshold: float = 1e-5
    max_iterations: int = 200
    multistart: int = 0

    def __post_init__(self) -> None:
        if self.threshold < 0.0:
            raise ValueError(f"threshold must be nonnegative, got {self.threshold}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.multistart < 0:
            raise ValueError(f"multistart must be nonnegative, got {self.multistart}")


@dataclass(frozen=True)
class ScaState:
    """One accepted iterate: position, its true gain, and the step index."""

    current: Position
    gain: float
    iteration: int


def coupling_matrix(ch: UserChannel) -> np.ndarray:
    """Rank-one outer product of the path-response vector with itself.

    Hermitian and positive semidefinite; the gain is the quadratic form of
    this matrix in the field-response vector.
    """
    return np.outer(ch.prv, np.conj(ch.prv))


def anchor_vector(z_ref: Position, ch: UserChannel) -> np.ndarray:
    """Coupling matrix applied to the field response at the expansion point.

    The rank-one structure collapses the matrix-vector product to the path
    responses scaled by the channel coefficient, so this is O(paths).
    """
    return ch.prv * channel_coefficient(z_ref, ch)


def surrogate_value(z: Position, z_ref: Position, ch: UserChannel) -> float:
    """Linearized gain surrogate anchored at z_ref, evaluated at z.

    Equals Re{b^H g(z)} with b the anchor vector; at z = z_ref it recovers
    the true gain.
    """
    b = anchor_vector(z_ref, ch)
    return float(np.real(np.vdot(b, field_response_vector(z, ch))))


def _kappa(z: Position, b: np.ndarray, ch: UserChannel) -> np.ndarray:
    """Per-path phase of the surrogate cosine sum: path phase minus anchor phase."""
    rho = z.x * ch.direction_x + z.y * ch.direction_y
    return TWO_PI * rho - np.angle(b)


def surrogate_gradient(z_ref: Position, ch: UserChannel) -> np.ndarray:
    """Gradient of the linearized surrogate at its own expansion point."""
    b = anchor_vector(z_ref, ch)
    mag = np.abs(b)
    s = np.sin(_kappa(z_ref, b, ch))
    gx = -TWO_PI * float(np.sum(mag * ch.direction_x * s))
    gy = -TWO_PI * float(np.sum(mag * ch.direction_y * s))
    return np.array([gx, gy])


def lipschitz_delta(z_ref: Position, ch: UserChannel) -> float:
    """Curvature bound for the surrogate: 8*pi^2 times the anchor amplitudes.

    Dominates the surrogate Hessian everywhere (its spectral norm is at most
    half this value). Zero only when the anchor vanishes, which happens at an
    exact gain null; an all-zero path response has no optimization problem at
    all and is rejected.
    """
    if ch.power == 0.0:
        raise DegenerateChannelError("all-zero path responses: gain is identically zero")
    b = anchor_vector(z_ref, ch)
    return _CURVATURE * float(np.sum(np.abs(b)))


def quadratic_surrogate(z: Position, z_ref: Position, ch: UserChannel) -> float:
    """Concave quadratic minorant of the linearized surrogate, constant terms
    dropped: -(delta/2)||z||^2 + (grad + delta*z_ref)^T z."""
    grad = surrogate_gradient(z_ref, ch)
    delta = lipschitz_delta(z_ref, ch)
    zv = z.as_array()
    ref = z_ref.as_array()
    return float(-0.5 * delta * zv @ zv + (grad + delta * ref) @ zv)


def sca_step(z_ref: Position, ch: UserChannel, region: MoveRegion) -> Position:
    """Exact maximizer of the quadratic minorant over the box.

    The quadratic is separable, so the box-constrained maximum is the
    unconstrained Newton point clamped per coordinate. A vanishing curvature
    bound means the anchor is zero (gain null with a flat surrogate); the
    point is stationary and is returned unchanged.
    """
    delta = lipschitz_delta(z_ref, ch)
    if delta == 0.0:
        return z_ref
    grad = surrogate_gradient(z_ref, ch)
    target = region.clamp(z_ref.as_array() + grad / delta)
    return Position(float(target[0]), float(target[1]))


def _coefficients(rho: np.ndarray, prv: np.ndarray) -> np.ndarray:
    """Channel coefficient of every lane from its (lanes, paths) phases.

    np.vecdot takes one conjugated dot product per row, the same reduction
    as np.vdot in channel_coefficient, so it matches that bit for bit; a
    (lanes x paths) @ (paths,) product sums in a different order and does not.
    """
    return np.vecdot(prv, np.exp(_J_TWO_PI * rho))


def ascend(
    ch: UserChannel,
    region: MoveRegion,
    params: ScaParams,
    starts: np.ndarray,
    history: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the ascent from every start at once, one lane per start.

    starts has shape (lanes, 2); callers check that they lie in the region.
    Every lane takes exactly the steps that sca_step and channel_gain would
    take from its start, bit for bit: the channel coefficient is evaluated
    once per iterate and yields the gain, the anchor vector and the path
    phases of the next step. A lane stops once its gain improves by less
    than the threshold (the accepted step is kept), when a step would lower
    its gain (the step is dropped; this guards floating-point edge cases), or
    at the iteration cap. A stopped lane is written out and removed from the
    working arrays, so no lane depends on which others run beside it.

    Returns the final positions (lanes, 2), gains (lanes,) and iteration
    counts (lanes,). When history is a list, one (iteration, lanes,
    positions, gains) entry is appended per step, holding the lanes whose
    step was accepted; iteration 0 holds the starts.
    """
    if ch.power == 0.0:
        raise DegenerateChannelError("all-zero path responses: gain is identically zero")
    dir_x = ch.direction_x
    dir_y = ch.direction_y
    dir_xy = np.stack((dir_x, dir_y))
    half = region.half
    threshold = params.threshold
    last = params.max_iterations

    z = np.array(starts, dtype=float).reshape(-1, 2)
    num_lanes = len(z)
    final_z = np.empty_like(z)
    final_gain = np.empty(num_lanes)
    final_iteration = np.empty(num_lanes, dtype=int)
    live = np.arange(num_lanes)
    # One contiguous copy of the path responses per lane: multiplying the
    # rows by each lane's coefficient then rounds like prv * h in
    # anchor_vector for every path count, including a single path.
    prv_rows = np.tile(ch.prv, (num_lanes, 1))

    rho = z[:, :1] * dir_x + z[:, 1:] * dir_y
    h = _coefficients(rho, ch.prv)
    gain = h.real * h.real + h.imag * h.imag
    if history is not None:
        history.append((0, live, z, gain))
    for i in range(1, last + 1):
        # Surrogate maximizer (sca_step) from the anchor b = prv * h.
        b = prv_rows[: len(live)] * h[:, None]
        mag = np.abs(b)
        delta = _CURVATURE * np.add.reduce(mag, axis=1)
        s = np.sin(TWO_PI * rho - np.arctan2(b.imag, b.real))
        grad = -TWO_PI * np.add.reduce(mag[:, None, :] * dir_xy * s[:, None, :], axis=2)
        # A zero anchor (exact gain null) has zero curvature and gradient:
        # sca_step leaves the lane where it is, and the zero gain increase
        # then stops it. Dividing by 1 instead keeps 0/0 out of the step.
        flat = delta == 0.0
        any_flat = np.count_nonzero(flat)
        if any_flat:
            delta[flat] = 1.0
        z_new = (z + grad / delta[:, None]).clip(-half, half)
        if any_flat:
            z_new[flat] = z[flat]

        rho_new = z_new[:, :1] * dir_x + z_new[:, 1:] * dir_y
        h_new = _coefficients(rho_new, ch.prv)
        gain_new = h_new.real * h_new.real + h_new.imag * h_new.imag
        increase = gain_new - gain
        if history is not None:
            kept = ~(increase < 0.0)
            history.append((i, live[kept], z_new[kept], gain_new[kept]))
        # threshold >= 0, so a step that lowers the gain also stops its lane.
        done = (increase < threshold) | (increase == 0.0) | (i == last)
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
            z_new, rho_new, h_new, gain_new = z_new[go], rho_new[go], h_new[go], gain_new[go]
        z, rho, h, gain = z_new, rho_new, h_new, gain_new
    return final_z, final_gain, final_iteration


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
    if not region.contains(init):
        raise ValueError(f"initial position {init} lies outside the region")
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
    if not region.contains(init):
        raise ValueError(f"initial position {init} lies outside the region")
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


def grid_oracle(
    ch: UserChannel, region: MoveRegion, step: float
) -> tuple[Position, float]:
    """Exhaustive gain search on an origin-anchored grid over the box.

    Grid ticks are integer multiples of `step` that fit in the box, with the
    two boundary coordinates always included; the origin is always a grid
    point. Ties go to the first point in row-major scan order.
    """
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    half = region.half
    if half == 0.0:
        ticks = np.array([0.0])
    else:
        n = int(math.floor(half / step + 1e-9))
        ticks = np.arange(-n, n + 1, dtype=float) * step
        if ticks[0] > -half + 1e-12 * max(half, 1.0):
            ticks = np.concatenate(([-half], ticks))
        if ticks[-1] < half - 1e-12 * max(half, 1.0):
            ticks = np.concatenate((ticks, [half]))
    xs, ys = np.meshgrid(ticks, ticks, indexing="ij")
    phase = xs[..., None] * ch.direction_x + ys[..., None] * ch.direction_y
    coeff = np.exp(1j * TWO_PI * phase) @ np.conj(ch.prv)
    gains = coeff.real**2 + coeff.imag**2
    i, j = np.unravel_index(int(np.argmax(gains)), gains.shape)
    return Position(float(xs[i, j]), float(ys[i, j])), float(gains[i, j])
