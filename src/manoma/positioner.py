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
response and d_l its delay sensitivities. Three sums over paths of the
conjugated rows [f, -2 pi f d_x, -2 pi f d_y] times e_l thus give h and the
whole minorant.

The loop runs on Python floats and complex numbers, and a step calls no
numpy function. Once per call, _checked_rows checks the initial point
against the region and takes UserChannel.normalized(), the one unit-power
rescale, and _path_rows builds a channel's per-path rows in numpy and its
curvature factor from UserChannel.amplitude_sum. _ascent is the one
per-start loop: each step takes _point_sums (the three path sums at one
point) and _newton_point (the minorant and its clamped Newton point).
optimize_position runs each start through _ascent, sca_trajectory runs one
start and keeps its iterates, and sca_step is one step on the channel as
passed, with its own zero-power check. The arithmetic
is the channel's: e_l = cmath.rect(1, 2 pi rho_l), Python's complex
products summed path by path from path 0, |h| by hypot. So h is bit for bit
channel.channel_coefficient, and no step depends on numpy's CPU dispatch or
BLAS (the per-call setup still uses numpy's complex abs). At the default 5
paths one start took about 0.3 ms, about 115 steps of 2.5 us, on a 2-core
Intel Xeon VM, so multistart = 10 costs about eleven single starts.
"""

from __future__ import annotations

import math
from cmath import rect
from dataclasses import dataclass

import numpy as np

from manoma.channel import (
    TWO_PI,
    DegenerateChannelError,
    MoveRegion,
    Position,
    UserChannel,
    as_count,
    as_float,
)

_CURVATURE = 8.0 * math.pi**2
_NEG_ZERO = complex(-0.0, -0.0)


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
        object.__setattr__(self, "threshold", as_float("threshold", self.threshold))
        if not 0.0 <= self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and nonnegative, got {self.threshold}")
        for name, low in (("max_iterations", 1), ("multistart", 0)):
            object.__setattr__(self, name, as_count(name, getattr(self, name), low))


@dataclass(frozen=True)
class ScaState:
    """One accepted iterate: position, its true gain, and the step index."""

    current: Position
    gain: float
    iteration: int


def _path_rows(ch: UserChannel) -> tuple[tuple, float]:
    """Per path of ch, the delay sensitivities d_x, d_y and the conjugated
    rows conj(f), conj(-2 pi f d_x), conj(-2 pi f d_y) as Python numbers,
    and the curvature factor 8 pi^2 sum |f_l|."""
    rows = np.concatenate((ch.prv[None], ch.prv * (-TWO_PI * ch.directions))).conj()
    paths = tuple(zip(*ch.directions.tolist(), *rows.tolist()))
    return paths, _CURVATURE * ch.amplitude_sum


def _point_sums(x: float, y: float, paths: tuple) -> tuple[complex, complex, complex]:
    """The rows of paths times the field responses e_l at (x, y), each summed
    over paths: h, as channel.channel_coefficient returns it, and -2 pi sum
    d_l conj(f_l) e_l per axis.

    e_l is cmath.rect(1, t) as the channel takes it; the 0.0 + turns a phase
    of -0 into +0. The sums start from -0, the identity of IEEE addition, so
    each is path 0's product plus path 1's and so on.
    """
    h = sx = sy = _NEG_ZERO
    for dx, dy, c0, c1, c2 in paths:
        e = rect(1.0, 0.0 + TWO_PI * (x * dx + y * dy))
        h += c0 * e
        sx += c1 * e
        sy += c2 * e
    return h, sx, sy


def _newton_point(
    x: float, y: float, sums: tuple, curvature: float, half: float
) -> tuple[float, float, float, float, float]:
    """The minorant at (x, y) from its path sums and the minorant's maximizer:
    the Newton point (x, y) + grad / delta clamped to the box, the curvature
    bound delta and the surrogate gradient grad, as (x, y, delta, grad_x,
    grad_y).

    The anchor b = f h has |b_l| = |f_l| |h|, so delta is 8 pi^2 |h| sum |f_l|
    and grad is -2 pi Im(conj(h) sum d_l conj(f_l) e_l), in real products. A
    point with zero curvature (zero anchor) stays put. The clamp sets a
    coordinate past a bound to that bound and leaves the rest, as numpy's
    clip does, sign of zero included.
    """
    h, sx, sy = sums
    hr, hi = h.real, h.imag
    delta = curvature * abs(h)
    gx = hr * sx.imag - hi * sx.real
    gy = hr * sy.imag - hi * sy.real
    if delta:
        low = -half
        x += gx / delta
        x = low if x < low else half if x > half else x
        y += gy / delta
        y = low if y < low else half if y > half else y
    return x, y, delta, gx, gy


def sca_step(z_ref: Position, ch: UserChannel, region: MoveRegion) -> Position:
    """Exact maximizer of the quadratic minorant over the box: one step of
    _ascent's loop, on the channel as passed. Unlike optimize_position and
    sca_trajectory it does not rescale to unit power, so on a channel that is
    not at unit power its last bits may differ from the step they take (the
    Newton point itself does not depend on the scale). An all-zero channel
    raises DegenerateChannelError.

    The quadratic is separable, so the box-constrained maximum is the
    unconstrained Newton point clamped per coordinate. A vanishing curvature
    bound means the anchor is zero (gain null with a flat surrogate); the
    point is stationary and is returned unchanged.
    """
    if ch.power == 0.0:
        raise DegenerateChannelError("all-zero path responses: gain is identically zero")
    paths, curvature = _path_rows(ch)
    x, y = z_ref.x, z_ref.y
    x, y, _, _, _ = _newton_point(x, y, _point_sums(x, y, paths), curvature, region.half)
    return Position(x, y)


def _checked_rows(
    ch: UserChannel, region: MoveRegion, init: Position
) -> tuple[tuple, float, float]:
    """The path rows and curvature factor of ch.normalized(), and ch's power.

    An init outside the region (by MoveRegion.contains) raises ValueError,
    then an all-zero channel raises DegenerateChannelError. Scaling the path
    responses scales the gain but moves no iterate, so the threshold bounds
    the increase of the unit-power gain at any channel scale.
    """
    if not region.contains(init):
        raise ValueError(f"initial position {init} lies outside the region")
    paths, curvature = _path_rows(ch.normalized())
    return paths, curvature, ch.power


def _ascent(
    x: float,
    y: float,
    paths: tuple,
    curvature: float,
    half: float,
    params: ScaParams,
    trace: list | None = None,
) -> tuple[float, float, float, int]:
    """One start's ascent on the rows of _path_rows, each iterate's path
    sums giving its gain and its next step. It stops once the gain improves
    by less than the threshold (the accepted step is kept), when a step
    would lower the gain (the step is dropped; this guards floating-point
    edge cases), or at the iteration cap. Returns the final x, y, gain and
    step count; a trace list gets the start and every accepted iterate as
    (x, y, gain)."""
    threshold = params.threshold
    last = params.max_iterations
    sums = _point_sums(x, y, paths)
    h = sums[0]
    gain = h.real * h.real + h.imag * h.imag
    if trace is not None:
        trace.append((x, y, gain))
    for i in range(1, last + 1):
        x_new, y_new, _, _, _ = _newton_point(x, y, sums, curvature, half)
        sums_new = _point_sums(x_new, y_new, paths)
        h = sums_new[0]
        gain_new = h.real * h.real + h.imag * h.imag
        increase = gain_new - gain
        if increase < 0.0:
            return x, y, gain, i - 1
        x, y, sums, gain = x_new, y_new, sums_new, gain_new
        if trace is not None:
            trace.append((x, y, gain))
        # threshold >= 0, so a zero increase stops the start at any
        # threshold, and threshold 0 stops on nothing else.
        if increase < threshold or increase == 0.0 or i == last:
            return x, y, gain, i


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
    non-decreasing by construction. This is _ascent on one start, with
    optimize_position's checks and gains: the unit-power gains times the
    channel's power.
    """
    paths, curvature, power = _checked_rows(ch, region, init)
    trace: list = []
    _ascent(float(init.x), float(init.y), paths, curvature, region.half, params, trace)
    return [
        ScaState(current=Position(x, y), gain=gain * power, iteration=i)
        for i, (x, y, gain) in enumerate(trace)
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
    result (the supplied init wins ties, then earlier draws). Each start runs
    through _ascent on its own, one after another, so each extra start costs
    about as much as the first. The rng only feeds the multistart draws;
    omitting it gives a fixed seed so results stay reproducible. The checks
    and the unit-power rescale are _checked_rows', and the gains are on the
    channel as passed.
    """
    paths, curvature, power = _checked_rows(ch, region, init)
    half = region.half
    starts = [(float(init.x), float(init.y))]
    if params.multistart > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        starts += rng.uniform(-half, half, (params.multistart, 2)).tolist()
    finals = [_ascent(x, y, paths, curvature, half, params) for x, y in starts]
    # max keeps the first of equal gains: init, then earlier draws. It
    # compares the gains as reported, on the channel as passed.
    x, y, gain, iterations = max(finals, key=lambda final: final[2] * power)
    return Position(x, y), gain * power, iterations
