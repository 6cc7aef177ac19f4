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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if self.r_min < 0.0:
            raise ValueError(f"minimum rate must be nonnegative, got {self.r_min}")

    @property
    def alpha(self) -> float:
        return 2.0**self.r_min - 1.0


@dataclass(frozen=True)
class NomaSolution:
    """Decoding order, powers, and resulting rates for one channel draw.

    order[k] is the decoding rank of user k, 1-based: rank 1 is decoded
    first and sees all other users as interference. powers are in mW, rates
    in bps/Hz. When powers are invalid (negative back-off forced by an
    infeasible instance) the rates are NaN. diagnostic names the first
    violated constraint when infeasible.
    """

    order: tuple[int, ...]
    powers: np.ndarray
    rates: np.ndarray
    sum_rate: float
    feasible: bool
    diagnostic: str | None = None


def _validate_order(order, num_users: int) -> np.ndarray:
    ranks = np.asarray(order, dtype=int)
    if ranks.shape != (num_users,) or sorted(ranks.tolist()) != list(
        range(1, num_users + 1)
    ):
        raise ValueError(f"order {order!r} is not a permutation of 1..{num_users}")
    return ranks


def sinr_and_rates(gains, order, powers, noise: float) -> np.ndarray:
    """Per-user achievable rates under successive decoding.

    A user with rank r is decoded after ranks below r have been removed, so
    its interference is the received power of ranks above r. The last user
    sees noise only.
    """
    g = np.asarray(gains, dtype=float)
    p = np.asarray(powers, dtype=float)
    if noise <= 0.0:
        raise ValueError(f"noise power must be positive, got {noise}")
    if np.any(g < 0.0) or np.any(p < 0.0):
        raise ValueError("gains and powers must be nonnegative")
    ranks = _validate_order(order, len(g))
    seq = np.argsort(ranks)  # user indices in decoding sequence
    received = g[seq] * p[seq]
    # interference[r] = sum of received powers decoded after rank r+1
    tail = np.concatenate((np.cumsum(received[::-1])[::-1][1:], [0.0]))
    sinr_seq = received / (tail + noise)
    rates = np.empty(len(g))
    rates[seq] = np.log2(1.0 + sinr_seq)
    return rates


def sum_rate_collapsed(gains, powers, noise: float) -> float:
    """Order-independent form of the sum rate: the per-user logs telescope."""
    g = np.asarray(gains, dtype=float)
    p = np.asarray(powers, dtype=float)
    return float(np.log2(1.0 + np.sum(g * p) / noise))


def decoding_order(gains, alphas) -> tuple[int, ...]:
    """Decoding ranks maximizing the feasible power budget.

    Users are decoded in decreasing gain*(1 + 1/alpha); ties go to the lower
    user index. Users with no rate requirement (alpha = 0) have an infinite
    key in the limit yet impose no constraint, so they are ranked after all
    constrained users, in decreasing gain order.
    """
    g = np.asarray(gains, dtype=float)
    a = np.asarray(alphas, dtype=float)
    if g.shape != a.shape:
        raise ValueError("gains and alphas must have the same length")
    if np.any(a < 0.0):
        raise ValueError("alpha values must be nonnegative")

    def sort_key(k: int):
        if a[k] > 0.0:
            return (0, -g[k] * (1.0 + 1.0 / a[k]), k)
        return (1, -g[k], k)

    seq = sorted(range(len(g)), key=sort_key)
    ranks = [0] * len(g)
    for position, user in enumerate(seq):
        ranks[user] = position + 1
    return tuple(ranks)


def minimum_rate_powers(gains, alphas, noise: float) -> np.ndarray:
    """Power c_k meeting user k's minimum rate exactly, inputs in decoding order.

    Assumes every user decoded after k transmits its own c: the interference
    plus noise then equals noise times the product of (alpha+1) over later
    users, which is what the product term accounts for. Unconstrained users
    (alpha = 0) need nothing.
    """
    g = np.asarray(gains, dtype=float)
    a = np.asarray(alphas, dtype=float)
    c = np.zeros(len(g))
    for k in range(len(g)):
        if a[k] > 0.0:
            c[k] = noise * a[k] / g[k] * float(np.prod(a[k + 1 :] + 1.0))
    return c


def power_allocation(gains_in_order, alphas_in_order, p_max: float, noise: float) -> np.ndarray:
    """Optimal transmit powers, inputs relabeled so index 0 is decoded first.

    The first user always transmits at p_max. While every earlier user sits
    at p_max, user k gets the largest power that keeps all earlier users'
    minimum rates intact (capped at p_max); once some user backs off below
    p_max, every later user gets exactly its minimum-rate power. Powers can
    come out negative or above p_max on infeasible instances; callers decide
    feasibility, nothing is clipped here.
    """
    g = np.asarray(gains_in_order, dtype=float)
    a = np.asarray(alphas_in_order, dtype=float)
    if g.shape != a.shape:
        raise ValueError("gains and alphas must have the same length")
    if len(g) == 0:
        raise ValueError("at least one user is required")
    if np.any(g < GAIN_FLOOR):
        raise DegenerateChannelError(
            f"gain below {GAIN_FLOOR} would make the power formulas divide by zero"
        )
    if np.any(a < 0.0):
        raise ValueError("alpha values must be nonnegative")
    if p_max < 0.0:
        raise ValueError(f"power cap must be nonnegative, got {p_max}")
    if noise <= 0.0:
        raise ValueError(f"noise power must be positive, got {noise}")

    num = len(g)
    c = minimum_rate_powers(g, a, noise)
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
                continue  # no rate requirement, no interference headroom limit
            between = float(np.sum(g[i + 1 : k])) * p_max
            cap = min(cap, (g[i] * p_max / a[i] - between - later_c - noise) / g[k])
        p[k] = min(p_max, cap)
        if p[k] < p_max:
            saturated = False
    return p


def check_feasibility(powers, rates, reqs, p_max: float) -> tuple[bool, str | None]:
    """Verify the power box and per-user minimum rates; powers are checked
    first because invalid powers make the rates meaningless. Returns the
    verdict and the first violated constraint, or None when clean."""
    tol = 1e-12 * max(1.0, p_max)
    for k, pw in enumerate(powers):
        if pw < -tol:
            return False, f"user {k + 1} power {pw:.6g} mW is negative"
        if pw > p_max + tol:
            return False, f"user {k + 1} power {pw:.6g} mW exceeds the {p_max:.6g} mW cap"
    for k, (rate, req) in enumerate(zip(rates, reqs)):
        if not rate >= req.r_min - RATE_SLACK:
            msg = f"user {k + 1} rate {rate:.6g} bps/Hz is below the required {req.r_min:.6g}"
            if powers[k] >= p_max * (1.0 - 1e-12):
                msg += "; min-rate power exceeds P_max"
            return False, msg
    return True, None


def solve(gains, reqs, p_max: float, noise: float) -> NomaSolution:
    """Order selection, closed-form powers, rates, and feasibility in one call.

    Handles the relabeling between user indexing and decoding ranks in one
    place. Infeasible draws are flagged, never clipped.
    """
    g = np.asarray(gains, dtype=float)
    reqs = list(reqs)
    if len(g) != len(reqs):
        raise ValueError("one rate requirement per user is required")
    alphas = np.array([r.alpha for r in reqs])
    ranks = decoding_order(g, alphas)
    seq = np.argsort(np.asarray(ranks))
    powers_seq = power_allocation(g[seq], alphas[seq], p_max, noise)
    powers = np.empty(len(g))
    powers[seq] = powers_seq
    if np.all(powers >= 0.0):
        rates = sinr_and_rates(g, ranks, powers, noise)
    else:
        rates = np.full(len(g), np.nan)
    feasible, diagnostic = check_feasibility(powers, rates, reqs, p_max)
    return NomaSolution(
        order=ranks,
        powers=powers,
        rates=rates,
        sum_rate=float(np.sum(rates)),
        feasible=feasible,
        diagnostic=diagnostic,
    )


MAX_BRUTE_FORCE_USERS = 4


def brute_force_allocation(gains, alphas, p_max: float, noise: float) -> NomaSolution:
    """Optimality oracle: enumerate every decoding order and solve each
    order's power problem as an exact linear program.

    For a fixed order the minimum-rate constraints are linear in the powers
    and the objective (total received power, monotone in the sum rate) is
    linear, so each subproblem is a small LP. Factorial enumeration caps the
    user count.
    """
    # Imported here so that importing manoma (and its CLI) does not load
    # scipy.optimize, which dominates the package's import time.
    from scipy.optimize import linprog

    g = np.asarray(gains, dtype=float)
    a = np.asarray(alphas, dtype=float)
    num = len(g)
    if num > MAX_BRUTE_FORCE_USERS:
        raise ValueError(
            f"brute force supports at most {MAX_BRUTE_FORCE_USERS} users, got {num}"
        )
    if np.any(g < GAIN_FLOOR):
        raise DegenerateChannelError(f"gain below {GAIN_FLOOR}")

    best_powers = None
    best_objective = -math.inf
    best_seq = None
    for seq in itertools.permutations(range(num)):
        gs = g[list(seq)]
        als = a[list(seq)]
        # Row m: user at sequence position m needs SINR >= alpha against
        # everyone decoded later.
        a_ub = np.zeros((num, num))
        for m in range(num):
            a_ub[m, m] = -gs[m]
            a_ub[m, m + 1 :] = als[m] * gs[m + 1 :]
        b_ub = -als * noise
        res = linprog(
            c=-gs,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0.0, p_max)] * num,
            method="highs",
        )
        if not res.success:
            continue
        objective = float(gs @ res.x)
        if objective > best_objective:
            best_objective = objective
            best_seq = seq
            best_powers = res.x

    if best_powers is None:
        return NomaSolution(
            order=tuple(range(1, num + 1)),
            powers=np.zeros(num),
            rates=np.full(num, np.nan),
            sum_rate=float("nan"),
            feasible=False,
            diagnostic="infeasible under every decoding order",
        )
    ranks = [0] * num
    for position, user in enumerate(best_seq):
        ranks[user] = position + 1
    powers = np.empty(num)
    powers[list(best_seq)] = best_powers
    rates = sinr_and_rates(g, ranks, powers, noise)
    return NomaSolution(
        order=tuple(ranks),
        powers=powers,
        rates=rates,
        sum_rate=float(np.sum(rates)),
        feasible=True,
        diagnostic=None,
    )
