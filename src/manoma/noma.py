"""Uplink NOMA rate computation and closed-form power control.

The receiver decodes users successively: a user's signal sees interference
only from users decoded after it. Sum rate depends on powers and gains only
(the per-user rates telescope into one log), so the decoding order matters
solely through which minimum-rate constraints can be met. The optimal order
sorts users by gain weighted by their rate requirement, and the optimal
powers have a saturation structure: leading users transmit at full power
until the first user that must back off to protect the minimum rates of
those decoded before it; everyone after that gets exactly the power that
meets their own minimum rate.

Internally an order is the sequence of user indices, first decoded first;
ranks appear only in NomaSolution.order, decoding_order and the order
argument of sinr_and_rates.

Power control runs as array operations with no Python loop over pairs of
users: one np.add.reduce per window width gives every window sum the caps
need, and the per-user caps, products and verdicts are elementwise. Each
result is bit for bit what the per-pair formulas give, because every sum and
product is taken in the order np.sum and np.prod take it on the slice alone.

Power control splits in two. The plan (decoding sequence, minimum-rate
powers, window sums) depends on the gains, alphas and noise but not on the
power cap; the finish (caps, back-off, rates, feasibility) is per cap. solve
keeps the plans of its last two distinct (gains, alphas, noise) inputs in a
bounded cache, keyed by their bytes, so a power sweep that alternates two
gain sets at every point plans each set once. Inputs are validated on every
call before the cache is consulted, and the cached arrays are read-only.
power_allocation runs the same two halves without the cache.

The rate, order and power functions check their inputs by one rule per
quantity, and a ValueError names the quantity that breaks it:
- gains, alphas, powers: finite and >= 0, one alpha or power per gain, and
  gains >= GAIN_FLOOR where the power formulas divide (DegenerateChannelError);
- noise: positive and finite; p_max: finite and >= 0;
- r_min: in [0, 1024), so a RateRequirement's alpha = 2**r_min - 1 is finite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from manoma.channel import DegenerateChannelError

GAIN_FLOOR = 1e-30
RATE_SLACK = 1e-9


@dataclass(frozen=True)
class RateRequirement:
    """Per-user minimum rate in bps/Hz and its SINR-threshold form.

    alpha = 2**r_min - 1 is the SINR a user needs to achieve exactly r_min.
    """

    r_min: float
    alpha: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # 2**1024 is the first power of two that a float cannot hold.
        if not 0.0 <= self.r_min < 1024.0:
            raise ValueError(f"r_min must be finite and in [0, 1024) bps/Hz, got {self.r_min}")
        object.__setattr__(self, "alpha", 2.0**self.r_min - 1.0)


@dataclass(frozen=True)
class NomaSolution:
    """Decoding order, powers, and resulting rates for one channel draw.

    order[k] is the decoding rank of user k, 1-based: rank 1 is decoded
    first and sees all other users as interference. powers are in mW, rates
    in bps/Hz. When powers are invalid (negative back-off forced by an
    infeasible instance) the rates are NaN; when a quantity overflows a float
    (see solve), powers are NaN as well. diagnostic names the first violated
    constraint when infeasible.
    """

    order: tuple[int, ...]
    powers: np.ndarray
    rates: np.ndarray
    sum_rate: float
    feasible: bool
    diagnostic: str | None = None


def sinr_and_rates(gains, order, powers, noise: float) -> np.ndarray:
    """Per-user achievable rates under successive decoding.

    A user with rank r is decoded after ranks below r have been removed, so
    its interference is the received power of ranks above r. The last user
    sees noise only.
    """
    g, p = _per_user(gains, "powers", powers)
    _check_noise(noise)
    ranks = np.asarray(order, dtype=int)
    if ranks.shape != (len(g),) or not np.array_equal(np.sort(ranks), np.arange(1, len(g) + 1)):
        raise ValueError(f"order {order!r} is not a permutation of 1..{len(g)}")
    seq = np.argsort(ranks)
    rates = np.empty(len(g))
    rates[seq] = _sequence_rates(g[seq], p[seq], noise)
    return rates


def _sequence_rates(g_seq: np.ndarray, p_seq: np.ndarray, noise: float) -> np.ndarray:
    """sinr_and_rates on gains and powers already in decoding sequence."""
    received = g_seq * p_seq
    tail = np.concatenate((np.cumsum(received[::-1])[::-1][1:], [0.0]))
    return np.log2(1.0 + received / (tail + noise))


def sum_rate_collapsed(gains, powers, noise: float) -> float:
    """Order-independent form of the sum rate: the per-user logs telescope."""
    g, p = _per_user(gains, "powers", powers)
    _check_noise(noise)
    return float(np.log2(1.0 + np.sum(g * p) / noise))


def oma_sum_rate(gains, p_max: float, noise: float) -> float:
    """Orthogonal time sharing: each user sends at full power in its 1/K slot."""
    g = np.asarray(gains, dtype=float)
    _check_nonnegative("gains", g)
    _check_users(g)
    _check_p_max(p_max)
    _check_noise(noise)
    return float(np.mean(np.log2(1.0 + g * p_max / noise)))


def _check_nonnegative(label: str, arr: np.ndarray, floor: float = 0.0) -> None:
    """The rule for gains, alphas and powers, on a float array."""
    if arr.size:
        low, high = arr.min(), arr.max()  # NaN if any entry is, failing both tests
        if not (0.0 <= low and high < math.inf):
            raise ValueError(f"{label} must be finite and nonnegative")
        if low < floor:
            msg = f"gains below {floor} would make the power formulas divide by zero"
            raise DegenerateChannelError(msg)


def _per_user(gains, name: str, values, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Checked float arrays of the gains and of one alpha or power per gain."""
    g, x = np.asarray(gains, dtype=float), np.asarray(values, dtype=float)
    if g.shape != x.shape:
        raise ValueError(f"{name} must have one entry per gain, got {x.shape} for {g.shape}")
    _check_nonnegative("gains", g, floor)
    _check_nonnegative(name, x)
    return g, x


def _check_users(g: np.ndarray) -> None:
    if g.size == 0:
        raise ValueError("at least one user is required")


def _check_noise(noise: float) -> None:
    if not 0.0 < noise < math.inf:
        raise ValueError(f"noise power must be positive and finite, got {noise}")


def _check_p_max(p_max: float) -> None:
    if not 0.0 <= p_max < math.inf:
        raise ValueError(f"power cap p_max must be finite and nonnegative, got {p_max}")


def _decoding_sequence(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """User indices in decoding order, on checked inputs; see decoding_order."""
    constrained = a > 0.0
    key = -g
    key[constrained] = -g[constrained] * (1.0 + 1.0 / a[constrained])
    # lexsort is stable, so equal keys keep the lower user index first.
    return np.lexsort((key, ~constrained))


def _ranks(seq: np.ndarray) -> tuple[int, ...]:
    ranks = np.empty(len(seq), dtype=int)
    ranks[seq] = np.arange(1, len(seq) + 1)
    return tuple(ranks.tolist())


def decoding_order(gains, alphas) -> tuple[int, ...]:
    """Decoding ranks maximizing the feasible power budget.

    Users are decoded in decreasing gain*(1 + 1/alpha); ties go to the lower
    user index. Users with no rate requirement (alpha = 0) have an infinite
    key in the limit yet impose no constraint, so they are ranked after all
    constrained users, in decreasing gain order.
    """
    return _ranks(_decoding_sequence(*_per_user(gains, "alphas", alphas)))


def minimum_rate_powers(gains, alphas, noise: float) -> np.ndarray:
    """Power c_k meeting user k's minimum rate exactly, inputs in decoding order.

    Assumes every user decoded after k transmits its own c: the interference
    plus noise then equals noise times the product of (alpha+1) over later
    users, which is what the product term accounts for. Unconstrained users
    (alpha = 0) need nothing. A product too large for a float makes c_k inf.
    """
    g, a = _per_user(gains, "alphas", alphas, GAIN_FLOOR)
    _check_noise(noise)
    return _minimum_rate_powers(g, a, noise)


def _minimum_rate_powers(g: np.ndarray, a: np.ndarray, noise: float) -> np.ndarray:
    num = len(g)
    # Segment k of the reduceat is factors[k+1:num], multiplied left to right
    # as np.prod does; the odd segments pick the padding 1.0 and are dropped.
    factors = np.append(a + 1.0, 1.0)
    bounds = np.full(2 * num, num)
    bounds[0::2] = np.arange(1, num + 1)
    need = a > 0.0
    c = np.zeros(num)
    # Many large factors overflow to inf; solve reports that user infeasible.
    with np.errstate(over="ignore"):
        c[need] = noise * a[need] / g[need] * np.multiply.reduceat(factors, bounds)[0::2][need]
    return c


def _allocation_inputs(gains, alphas, p_max: float, noise: float):
    """Checked gains and alphas; no check depends on the order of the users."""
    g, a = _per_user(gains, "alphas", alphas, GAIN_FLOOR)
    _check_users(g)
    _check_p_max(p_max)
    _check_noise(noise)
    return g, a


def _windows(x: np.ndarray, width: int) -> np.ndarray:
    """Read-only view of contiguous x whose row j is x[j : j + width]; what
    sliding_window_view gives, without its per-call overhead."""
    view = np.ndarray((len(x) - width + 1, width), x.dtype, x, 0, (x.itemsize, x.itemsize))
    view.flags.writeable = False
    return view


def _window_sums(g: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The window sums _saturating_powers needs, which no power cap enters.

    Every window sum is taken by np.add.reduce on a row of a strided view,
    which sums it exactly as np.sum sums that slice on its own: row r of
    `sums` holds the windows of width num-2-r, later_{r+1} in column 0 and
    sum(g[k-w:k]) in column k >= w+1 (columns 1..w straddle the two arrays
    and are never used). `later` holds later_k for every k.
    """
    num = len(g)
    # received[m] = g c of user m+2, followed by the gains: a window of width
    # w starting at index r covers received[r:] exactly when r + w = num-2.
    windows = _windows(np.concatenate((g[2:] * c[2:], g, np.zeros(num))), num)
    sums = np.empty((num - 1, num))
    for r in range(num - 1):
        # Positional (axis, dtype, out): keyword parsing costs more than the sum.
        np.add.reduce(windows[r : r + num, : num - 2 - r], 1, None, sums[r])
    return sums, np.concatenate(([0.0], sums[:, 0]))


def _saturating_powers(g, a, c, sums, later, p_max: float, noise: float):
    """power_allocation on validated inputs, their minimum-rate powers c and
    _window_sums, as (headroom, powers). headroom[num-1+i] = g_i p_max / a_i
    for every constrained user i but the last; NaN pads the rest. Overflow is
    left as inf or NaN for the caller to judge, never warned about.

    User k may send at most (g_i p_max / a_i - sum(g[i+1:k]) p_max - later_k
    - noise) / g_k while each constrained user i < k keeps its rate, where
    later_k = sum(g c) over the users after k. caps[r, k] pairs user k with
    i = k+r-(num-1); NaN marks pairs that do not constrain k, and fmin skips
    NaN as Python's min did.
    """
    num = len(g)
    p = np.full(num, p_max, dtype=float)
    headroom = np.full(2 * num - 2, np.nan)
    if num == 1:
        return headroom, p
    constrained = np.flatnonzero(a[:-1] > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        headroom[num - 1 + constrained] = g[constrained] * p_max / a[constrained]
        caps = _windows(headroom, num) - sums * p_max
        caps -= later
        caps -= noise
        caps /= g
        cap = np.fmin.reduce(caps, axis=0)  # NaN where no user constrains k
    backs_off = np.flatnonzero(cap[1:] < p_max)
    if len(backs_off):
        k = int(backs_off[0]) + 1
        p[k] = cap[k]
        p[k + 1 :] = c[k + 1 :]
    return headroom, p


def power_allocation(gains_in_order, alphas_in_order, p_max: float, noise: float) -> np.ndarray:
    """Optimal transmit powers, inputs relabeled so index 0 is decoded first.

    The first user always transmits at p_max. While every earlier user sits
    at p_max, user k gets the largest power that keeps all earlier users'
    minimum rates intact (capped at p_max); once some user backs off below
    p_max, every later user gets exactly its minimum-rate power. Powers can
    come out negative or above p_max on infeasible instances; callers decide
    feasibility, nothing is clipped here.
    """
    g, a = _allocation_inputs(gains_in_order, alphas_in_order, p_max, noise)
    c = _minimum_rate_powers(g, a, noise)
    return _saturating_powers(g, a, c, *_window_sums(g, c), p_max, noise)[1]


def check_feasibility(powers, rates, reqs, p_max: float) -> tuple[bool, str | None]:
    """Verify the power box and per-user minimum rates; powers are checked
    first because invalid powers make the rates meaningless. Returns the
    verdict and the first violated constraint, or None when clean."""
    tol = 1e-12 * max(1.0, p_max)
    p = np.asarray(powers, dtype=float)
    negative = p < -tol
    outside = negative | (p > p_max + tol)
    if outside.any():
        k = int(np.argmax(outside))
        if negative[k]:
            return False, f"user {k + 1} power {p[k]:.6g} mW is negative"
        return False, f"user {k + 1} power {p[k]:.6g} mW exceeds the {p_max:.6g} mW cap"
    rates = np.asarray(rates, dtype=float)
    short = ~(rates >= np.array([req.r_min for req in reqs]) - RATE_SLACK)
    if short.any():
        k = int(np.argmax(short))
        msg = f"user {k + 1} rate {rates[k]:.6g} bps/Hz is below the required {reqs[k].r_min:.6g}"
        if p[k] >= p_max * (1.0 - 1e-12):
            msg += "; min-rate power exceeds P_max"
        return False, msg
    return True, None


# Two entries: a sweep point solves the movable- and the fixed-antenna gains
# of one draw set in turn, and every point of the set shares both plans.
@functools.lru_cache(maxsize=2)
def _plan(shape: tuple[int, ...], gain_bytes: bytes, alpha_bytes: bytes, noise: float) -> tuple:
    """The power-cap-independent half of solve, keyed by the bytes of the
    validated float gains and alphas.

    Returns (seq, ranks, g, a, c, overflow, sums, later): the decoding
    sequence and ranks, then gains, alphas and minimum-rate powers in
    decoding sequence, the users whose c overflows, and _window_sums(g, c),
    which is (None, None) when any does. The arrays are read-only, since
    every call that hits the cache shares them.
    """
    g, a = np.frombuffer(gain_bytes).reshape(shape), np.frombuffer(alpha_bytes).reshape(shape)
    seq = _decoding_sequence(g, a)
    g_seq, a_seq = g[seq], a[seq]
    c_seq = _minimum_rate_powers(g_seq, a_seq, noise)
    overflow = ~np.isfinite(c_seq)
    sums = later = None
    if not overflow.any():
        sums, later = _window_sums(g_seq, c_seq)
    for arr in (seq, g_seq, a_seq, c_seq, overflow, sums, later):
        if arr is not None:
            arr.flags.writeable = False
    return seq, _ranks(seq), g_seq, a_seq, c_seq, overflow, sums, later


def solve(gains, reqs, p_max: float, noise: float) -> NomaSolution:
    """Order selection, closed-form powers, rates, and feasibility in one call.

    Validates on every call, then works in decoding sequence until it
    scatters powers and rates back to user order. The order, minimum-rate
    powers and window sums come from the plan cache, so repeated gains at
    new power caps only redo the caps. Infeasible draws are flagged, never
    clipped. An overflowing minimum-rate power, headroom or received-power
    ratio leaves powers and rates NaN, naming it and its lowest-indexed user.
    """
    reqs = list(reqs)
    g, alphas = _allocation_inputs(gains, [r.alpha for r in reqs], p_max, noise)
    seq, ranks, g_seq, a_seq, c_seq, overflow, sums, later = _plan(
        g.shape, g.tobytes(), alphas.tobytes(), float(noise)
    )
    if sums is None:
        why = "the product of (1 + alpha) over the users decoded after it overflows"
        return _not_finite(ranks, seq[overflow], f"minimum-rate power is not finite: {why}")
    headroom, p_seq = _saturating_powers(g_seq, a_seq, c_seq, sums, later, p_max, noise)
    rates = np.full(len(g), np.nan)
    computed = bool(np.all(p_seq >= 0.0))
    if computed:
        # An overflowing ratio is reported below instead of warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            rates[seq] = _sequence_rates(g_seq, p_seq, noise)
    too_large = np.isinf(headroom)
    if too_large.any():
        users = seq[np.flatnonzero(too_large) - (len(g) - 1)]
        return _not_finite(ranks, users, "headroom g * p_max / alpha is not finite")
    sum_rate = float(np.sum(rates))
    if computed and not math.isfinite(sum_rate):
        ratio = "received-power ratio g * p / (interference + noise)"
        return _not_finite(ranks, np.flatnonzero(~np.isfinite(rates)), f"{ratio} is not finite")
    powers = np.empty(len(g))
    powers[seq] = p_seq
    feasible, diagnostic = check_feasibility(powers, rates, reqs, p_max)
    return NomaSolution(ranks, powers, rates, sum_rate, feasible, diagnostic)


def _not_finite(ranks: tuple[int, ...], users: np.ndarray, what: str) -> NomaSolution:
    """solve's infeasible verdict when `what` overflows a float for `users`."""
    nan = np.full(len(ranks), np.nan)
    return NomaSolution(ranks, nan, nan.copy(), math.nan, False, f"user {users.min() + 1} {what}")


MAX_BRUTE_FORCE_USERS = 4


def fixed_order_lp_powers(gains_in_order, alphas_in_order, p_max: float, noise: float):
    """Powers maximizing the total received power g.p with the decoding
    order held fixed, by an exact linear program (HiGHS); None when this
    order cannot meet every minimum rate within the power cap.

    For a fixed order the minimum-rate constraints are linear in the powers
    and the objective (total received power, monotone in the sum rate) is
    linear, so the power problem is an LP of any size.
    """
    # Imported here: scipy is a test-only dependency, and loading
    # scipy.optimize would dominate the package's import time.
    from scipy.optimize import linprog

    gs = np.asarray(gains_in_order, dtype=float)
    als = np.asarray(alphas_in_order, dtype=float)
    # Row m: user at sequence position m needs SINR >= alpha against
    # everyone decoded later.
    a_ub = np.triu(np.outer(als, gs), 1) - np.diag(gs)
    res = linprog(
        c=-gs,
        A_ub=a_ub,
        b_ub=-als * noise,
        bounds=[(0.0, p_max)] * len(gs),
        method="highs",
    )
    return res.x if res.success else None


def brute_force_allocation(gains, alphas, p_max: float, noise: float) -> NomaSolution:
    """Optimality oracle: enumerate every decoding order and solve each
    order's power problem with fixed_order_lp_powers. Factorial enumeration
    caps the user count.
    """
    g, a = _allocation_inputs(gains, alphas, p_max, noise)
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
    rates = np.empty(num)
    rates[best_seq] = _sequence_rates(g[best_seq], best_powers, noise)
    return NomaSolution(
        order=_ranks(best_seq),
        powers=powers,
        rates=rates,
        sum_rate=float(np.sum(rates)),
        feasible=True,
        diagnostic=None,
    )
