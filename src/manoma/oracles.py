"""Reference implementations that the tests check the pipeline against.

No sweep runs anything here. Each name is an independent route to a
quantity the pipeline computes faster:
- propagation_delta is one path's phase term in scalar form, against the
  channel kernels;
- reference_phases, reference_path_sums, reference_gains,
  reference_minorant and reference_newton_step spell out the ascent's step
  over lanes in numpy (one broadcast per coordinate, a loop over paths for
  the path sums, np.hypot for |h|, the zero-curvature mask built on every
  step), the numpy form of the channel's and the positioner's scalar
  arithmetic, against which both must agree bit for bit; minorant_at is
  their one-lane call, the curvature bound and surrogate gradient at one
  point;
- coupling_matrix, anchor_vector, surrogate_value and quadratic_surrogate
  are the paper-form surrogates, against the ascent's minorant kernel;
- grid_oracle is an exhaustive position search, against the ascent; it
  scores its grid by reference_path_sums, so its gain is channel_gain at
  the point it returns, bit for bit;
- fixed_order_lp_powers and brute_force_allocation solve the power problem
  as linear programs, per decoding order and over all orders, against the
  closed-form power control;
- sum_rate_collapsed is the sum rate as one log of the total received
  power, against the per-user rates.

Only the LP oracles use scipy, and they import it on call, so importing
this module (and the package) never loads scipy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from manoma.channel import (
    TWO_PI,
    MoveRegion,
    Position,
    UserChannel,
    channel_coefficient,
    field_response_vector,
)
from manoma.noma import (
    NomaSolution,
    check_allocation_inputs,
    check_rate_inputs,
    sinr_and_rates,
)

__all__ = [
    "propagation_delta", "reference_phases", "reference_path_sums", "reference_gains",
    "reference_minorant", "minorant_at", "reference_newton_step", "coupling_matrix",
    "anchor_vector", "surrogate_value", "quadratic_surrogate", "grid_oracle",
    "MAX_BRUTE_FORCE_USERS", "fixed_order_lp_powers", "brute_force_allocation",
    "sum_rate_collapsed",
]


def propagation_delta(z: Position, theta: float, phi: float) -> float:
    """Extra travel distance at position z versus the origin, in wavelengths,
    of the path with elevation theta and azimuth phi: x*sin(theta)*cos(phi) +
    y*cos(theta)."""
    return z.x * math.sin(theta) * math.cos(phi) + z.y * math.cos(theta)


def reference_phases(xy: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Per-path travel distances (lanes, paths) of (lanes, 2) positions, one
    broadcast per coordinate; dirs is one channel's (2, paths) rows or each
    lane's (lanes, 2, paths)."""
    return xy[:, :1] * dirs[..., 0, :] + xy[:, 1:] * dirs[..., 1, :]


def reference_path_sums(xy: np.ndarray, prv: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Conjugated path rows [f, -2 pi f d_x, -2 pi f d_y] times each lane's
    field responses, summed over paths, shape (lanes, 3); prv is (paths,)
    with (2, paths) dirs, or (lanes, paths) with (lanes, 2, paths).

    A loop over paths adds each path's product, spelled in real products,
    to the running sums; the sums start from -0, the identity of IEEE
    addition, so each is path 0's product plus path 1's and so on."""
    f = prv[..., None, :]
    rows = np.concatenate((f, f * (-TWO_PI * dirs)), axis=-2)
    e = np.exp(1j * TWO_PI * reference_phases(xy, dirs))
    re = im = -0.0
    for path in range(rows.shape[-1]):
        a, b = rows[..., path].real, rows[..., path].imag
        c, d = e[:, path, None].real, e[:, path, None].imag
        re = re + (a * c + b * d)
        im = im + (a * d - b * c)
    sums = np.empty(np.shape(re), dtype=complex)
    sums.real, sums.imag = re, im
    return sums


def reference_gains(h: np.ndarray) -> np.ndarray:
    """Squared modulus of each channel coefficient."""
    return h.real * h.real + h.imag * h.imag


def reference_minorant(sums: np.ndarray, amplitude_sum: float) -> tuple[np.ndarray, np.ndarray]:
    """Curvature bounds 8 pi^2 |h| sum |f_l| (lanes,), |h| by np.hypot, and
    surrogate gradients Im(conj(h) sums[:, 1:]) (lanes, 2) in real products,
    from (lanes, 3) path sums."""
    h = sums[:, :1]
    s = sums[:, 1:]
    grad = h.real * s.imag - h.imag * s.real
    return 8.0 * math.pi**2 * amplitude_sum * np.hypot(h.real, h.imag)[:, 0], grad


def minorant_at(z_ref: Position, ch: UserChannel) -> tuple[float, np.ndarray]:
    """The curvature bound 8 pi^2 |h| sum |f_l| and the surrogate gradient
    (2,) at z_ref, by reference_minorant on one lane's reference_path_sums.

    delta dominates the surrogate Hessian everywhere (its spectral norm is
    at most half this value), and is zero only at an exact gain null.
    """
    sums = reference_path_sums(z_ref.as_array()[None], ch.prv, ch.directions)
    delta, grad = reference_minorant(sums, ch.amplitude_sum)
    return float(delta[0]), grad[0]


def reference_newton_step(
    z: np.ndarray, delta: np.ndarray, grad: np.ndarray, half: float
) -> np.ndarray:
    """Newton points z + grad/delta clamped to the box, the zero-curvature
    mask built first: a lane with delta 0 divides by 1 and stays put."""
    flat = delta == 0.0
    any_flat = np.count_nonzero(flat)
    if any_flat:
        delta = np.where(flat, 1.0, delta)
    z_new = (z + grad / delta[:, None]).clip(-half, half)
    if any_flat:
        z_new[flat] = z[flat]
    return z_new


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


def quadratic_surrogate(z: Position, z_ref: Position, ch: UserChannel) -> float:
    """Concave quadratic minorant of the linearized surrogate, constant terms
    dropped: -(delta/2)||z||^2 + (grad + delta*z_ref)^T z."""
    delta, grad = minorant_at(z_ref, ch)
    zv = z.as_array()
    ref = z_ref.as_array()
    return float(-0.5 * delta * zv @ zv + (grad + delta * ref) @ zv)


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
    points = np.stack([axis.ravel() for axis in np.meshgrid(ticks, ticks, indexing="ij")], 1)
    gains = reference_gains(reference_path_sums(points, ch.prv, ch.directions)[:, 0])
    best = int(np.argmax(gains))
    return Position(float(points[best, 0]), float(points[best, 1])), float(gains[best])


MAX_BRUTE_FORCE_USERS = 4


def fixed_order_lp_powers(gains_in_order, alphas_in_order, p_max: float, noise: float):
    """Powers maximizing the total received power g.p with the decoding
    order held fixed, by an exact linear program (HiGHS); None when this
    order cannot meet every minimum rate within the power cap.

    For a fixed order the minimum-rate constraints are linear in the powers
    and the objective (total received power, monotone in the sum rate) is
    linear, so the power problem is an LP of any size.

    The LP is posed in received power over noise: gains g p_max / noise,
    powers p / p_max and noise 1. In mW the right-hand sides alpha * noise
    of a sweep (about 1e-12 at -80 dBm) sit far below HiGHS's feasibility
    tolerance, and verdicts and powers came out wrong.
    """
    # Imported here: scipy is a test-only dependency, and loading
    # scipy.optimize would dominate the package's import time.
    from scipy.optimize import linprog

    gs = np.asarray(gains_in_order, dtype=float) * p_max / noise
    als = np.asarray(alphas_in_order, dtype=float)
    # Row m: user at sequence position m needs SINR >= alpha against
    # everyone decoded later.
    a_ub = np.triu(np.outer(als, gs), 1) - np.diag(gs)
    res = linprog(
        c=-gs,
        A_ub=a_ub,
        b_ub=-als,
        bounds=[(0.0, 1.0)] * len(gs),
        method="highs",
    )
    return res.x * p_max if res.success else None


def brute_force_allocation(gains, alphas, p_max: float, noise: float) -> NomaSolution:
    """Optimality oracle: enumerate every decoding order and solve each
    order's power problem with fixed_order_lp_powers. Factorial enumeration
    caps the user count.
    """
    g, a, p_max, noise = check_allocation_inputs(gains, alphas, p_max, noise)
    g, a = np.array(g), np.array(a)
    num = len(g)
    if num > MAX_BRUTE_FORCE_USERS:
        raise ValueError(
            f"brute force supports at most {MAX_BRUTE_FORCE_USERS} users, got {num}"
        )

    best_powers = None
    best_objective = -math.inf
    best_seq = None
    for seq in map(list, itertools.permutations(range(num))):
        gs = g[seq]
        x = fixed_order_lp_powers(gs, a[seq], p_max, noise)
        if x is None:
            continue
        objective = float(gs @ x)
        if objective > best_objective:
            best_objective = objective
            best_seq = seq
            best_powers = x

    if best_powers is None:
        return NomaSolution(
            order=tuple(range(1, num + 1)),
            powers=np.zeros(num),
            rates=np.full(num, np.nan),
            sum_rate=float("nan"),
            feasible=False,
            diagnostic="infeasible under every decoding order",
        )
    powers = np.empty(num)
    powers[best_seq] = best_powers
    ranks = tuple((np.argsort(best_seq) + 1).tolist())
    rates = sinr_and_rates(g, ranks, powers, noise)
    return NomaSolution(
        order=ranks,
        powers=powers,
        rates=rates,
        sum_rate=float(np.sum(rates)),
        feasible=True,
        diagnostic=None,
    )


def sum_rate_collapsed(gains, powers, noise: float) -> float:
    """Order-independent form of the sum rate: the per-user logs telescope.

    A total received power over noise too large for a float is summed with
    the gains scaled by an exact power of two 2**-s, so the rate is
    s + log2(2**-s + sum(g 2**-s p) / noise); totals that fit are not scaled.
    """
    g, p, noise = check_rate_inputs(gains, powers, noise)
    g, p = np.array(g), np.array(p)
    with np.errstate(over="ignore"):
        rate = float(np.log2(1.0 + np.sum(g * p) / noise))
    if rate == math.inf:
        # g < 2**eg, p < 2**ep and 1 / noise <= 2**(1 - en), so with this s
        # every product, the sum and the ratio stay under 2**1022.
        eg, ep, en = (int(np.frexp(x)[1]) for x in (g.max(), p.max(), noise))
        s = eg + ep + len(g).bit_length() + max(1 - en, 0) - 1022
        rate = s + float(np.log2(np.ldexp(1.0, -s) + np.sum(np.ldexp(g, -s) * p) / noise))
    return rate
