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

Power control costs O(K) per cap. The constrained user i decoded before
user k allows it at most (p_max (g_i / a_i - sum(g between i and k)) -
later[k] - noise) / g_k, later[k] being the received power of the users
after k at their minimum-rate powers. So user k's cap reads one margin,
the least of g_i / a_i - sum(g between) over those i, and the margins
follow margin[k+1] = min(margin[k] - g_k, g_k / a_k): one pass over the
users, and a reverse np.cumsum for later. Rounding is monotone, so taking
the minimum before a subtraction rounds as taking it after: each margin is
its pair's difference summed term by term, with that difference's
conditioning (an error of about K eps (g_i / a_i + sum(g between))).
Margins taken as differences of prefix sums of all gains would err by eps
times the whole prefix, so a large gain decoded early could erase the cap
of a small user decoded later.

solve and power_allocation share one chain for the powers, and solve plans
its decoding sequence, minimum-rate powers and cap terms on every call.

The rate, order and power functions check their inputs by one rule per
quantity, and a ValueError names the quantity that breaks it:
- gains, alphas, powers and amplitude_sums: one-dimensional, one entry per
  user, finite and >= 0, one alpha or power per gain, and gains >=
  GAIN_FLOOR where the power formulas divide (DegenerateChannelError);
- noise: positive and finite; p_max: finite and >= 0;
- r_min: in [0, 1024), so a RateRequirement's alpha = 2**r_min - 1 is finite;
- the powers and rates check_feasibility judges: one-dimensional, one entry
  per requirement, and powers finite (a negative one is a verdict).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from manoma.channel import DegenerateChannelError

GAIN_FLOOR = 1e-30
RATE_SLACK = 1e-9

# What overflows a float, in the order solve judges it; a verdict names the
# first that is not finite and prefixes its lowest-indexed user.
_MIN_RATE_POWER = (
    "minimum-rate power is not finite: "
    "the product of (1 + alpha) over the users decoded after it overflows"
)
_POWER_CAP = "power cap (headroom - interference - noise) / g is not finite"
_RATIO = "received-power ratio g * p / (interference + noise) is not finite"
_INTERFERENCE = "interference g * p from later users is not finite"


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
    g, p = check_rate_inputs(gains, powers, noise)
    ranks = np.asarray(order, dtype=int)
    if ranks.shape != (len(g),) or not np.array_equal(np.sort(ranks), np.arange(1, len(g) + 1)):
        raise ValueError(f"order {order!r} is not a permutation of 1..{len(g)}")
    seq = np.argsort(ranks)
    rate_seq, interference = _sequence_rates(g[seq], p[seq], noise)
    _raise_not_finite(seq, ((rate_seq, _RATIO), (interference, _INTERFERENCE)))
    rates = np.empty(len(g))
    rates[seq] = rate_seq
    return rates


def check_rate_inputs(gains, powers, noise: float) -> tuple[np.ndarray, np.ndarray]:
    """The rate functions' input rule, returning the checked gains and powers."""
    g, p = _per_user(gains, "powers", powers)
    _check_noise(noise)
    return g, p


def _sequence_rates(g_seq: np.ndarray, p_seq: np.ndarray, noise: float):
    """sinr_and_rates on gains and powers already in decoding sequence, and
    each user's interference, which never increases; overflow stays inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        received = g_seq * p_seq
        tail = _after(np.add, received)
        return np.log2(1.0 + received / (tail + noise)), tail


def _after(op: np.ufunc, x: np.ndarray) -> np.ndarray:
    """op.reduce(x[k+1:]) for every k (sum or product), each taken in
    sequence from the last entry."""
    return np.concatenate((op.accumulate(x[::-1])[::-1][1:], [float(op.identity)]))


def oma_sum_rate(gains, p_max: float, noise: float) -> float:
    """Orthogonal time sharing: each user sends at full power in its 1/K slot.
    Raises OverflowError naming the first user whose g p_max / noise overflows."""
    g = _check_per_user("gains", gains)
    _check_users(g)
    _check_p_max(p_max)
    _check_noise(noise)
    with np.errstate(over="ignore"):
        ratio = g * p_max / noise
        rate = float(np.mean(np.log2(1.0 + ratio)))
    if not math.isfinite(rate):
        _raise_not_finite(np.arange(len(g)), ((ratio, _RATIO),))
    return rate


def aligned_sum_rate(amplitude_sums, p_max: float, noise: float) -> float:
    """Sum rate with every path of every user phase-aligned at full power:
    log2(1 + sum(a_k**2) p_max / noise) over the users' path-amplitude sums
    a_k. Raises OverflowError if that total or the ratio does."""
    a = _check_per_user("amplitude_sums", amplitude_sums)
    _check_users(a)
    _check_p_max(p_max)
    _check_noise(noise)
    try:
        # Python's ** in user order, summed left to right: a * a or np.square
        # would differ from a**2 in the last bit on some floats.
        total = sum(x**2 for x in a.tolist())
    except OverflowError:
        total = math.inf
    ratio = total * p_max / noise
    if math.inf in (total, ratio):
        raise OverflowError(_RATIO)
    return math.log2(1.0 + ratio)


def _first_not_finite(seq: np.ndarray, checks) -> str | None:
    """`user k <quantity>` for the first (values, quantity) pair in checks with
    a non-finite value, values in decoding sequence seq; else None."""
    for values, quantity in checks:
        bad = ~np.isfinite(values)
        if bad.any():
            return f"user {seq[bad].min() + 1} {quantity}"
    return None


def _raise_not_finite(seq: np.ndarray, checks) -> None:
    verdict = _first_not_finite(seq, checks)
    if verdict:
        raise OverflowError(verdict)


def _check_per_user(label: str, values, floor: float = 0.0) -> np.ndarray:
    """The rule for gains, alphas, powers and amplitude sums, returning the
    checked float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{label} must be one-dimensional, one entry per user, got {arr.shape}")
    if arr.size:
        low, high = arr.min(), arr.max()  # NaN if any entry is, failing both tests
        if not (0.0 <= low and high < math.inf):
            raise ValueError(f"{label} must be finite and nonnegative")
        if low < floor:
            msg = f"gains below {floor} would make the power formulas divide by zero"
            raise DegenerateChannelError(msg)
    return arr


def _per_user(gains, name: str, values, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Checked float arrays of the gains and of one alpha or power per gain."""
    g, x = _check_per_user("gains", gains, floor), _check_per_user(name, values)
    if g.shape != x.shape:
        raise ValueError(f"{name} must have one entry per gain, got {x.shape} for {g.shape}")
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
    g_c = g[constrained]
    key = -g
    with np.errstate(over="ignore", invalid="ignore"):
        weight = 1.0 + 1.0 / a[constrained]
        key_c = -g_c * weight
        if np.isinf(key_c).any():
            # Scaling the gains by a power of two scales every key exactly, so
            # keys brought under 2**1023 sort as the exact products would.
            exponent = int(np.max(np.frexp(g_c)[1] + np.frexp(weight)[1]))
            key_c = -np.ldexp(g_c, min(0, 1023 - exponent)) * weight
    # A zero gain's key is -0 whatever its weight: times an infinite weight
    # (alpha below about 5.6e-309) it would be NaN, sorted after every key.
    key[constrained] = np.where(g_c == 0.0, -0.0, key_c)
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
    c = np.zeros(len(g))
    k = a > 0.0
    # Many large factors overflow to inf; solve reports that user infeasible.
    with np.errstate(over="ignore"):
        c[k] = noise * a[k] / g[k] * _after(np.multiply, a + 1.0)[k]
    return c


def check_allocation_inputs(gains, alphas, p_max: float, noise: float):
    """Power control's input rule, returning the checked gains and alphas;
    no check depends on the order of the users."""
    g, a = _per_user(gains, "alphas", alphas, GAIN_FLOOR)
    _check_users(g)
    _check_p_max(p_max)
    _check_noise(noise)
    return g, a


def _cap_terms(g: np.ndarray, a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms of the power caps that no power cap enters, on gains,
    alphas and minimum-rate powers in decoding sequence: margin[k] = min(g_i
    / a_i - sum(g[i+1:k])) over the constrained users i < k (inf if there is
    none), and later[k] = sum(g c) over the users after k. A sum too large
    for a float is inf; solve reports the cap that reads it.
    """
    margin, least = [], math.inf
    # An overflowed g / alpha stays inf less any gain and bounds nobody.
    for gain, alpha in zip(g.tolist(), a.tolist()):
        margin.append(least)
        least = min(least - gain, gain / alpha if alpha > 0.0 else math.inf)
    with np.errstate(over="ignore"):
        later = _after(np.add, g * c)
    return np.array(margin), later


def _saturating_powers(g, c, margin, later, p_max: float, noise: float) -> np.ndarray:
    """power_allocation on validated inputs, their minimum-rate powers c and
    _cap_terms: the one place that decides a power cap.

    Every constrained user decoded before user k keeps its rate while k
    sends at most cap[k] = (p_max margin[k] - later[k] - noise) / g_k, the
    headroom p_max margin[k] less the interference and noise. Nothing warns:
    an infinite headroom caps nobody, nor does a NaN cap (inf - inf), and a
    cap that reads an overflowed sum is -inf.
    """
    p = np.full(len(g), p_max, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        cap = ((p_max * margin - later) - noise) / g
    backs_off = np.flatnonzero(cap < p_max)  # never user 0: its margin is inf
    if len(backs_off):
        k = int(backs_off[0])
        p[k] = cap[k]
        p[k + 1 :] = c[k + 1 :]
    return p


def power_allocation(gains_in_order, alphas_in_order, p_max: float, noise: float) -> np.ndarray:
    """Optimal transmit powers, inputs relabeled so index 0 is decoded first.

    The first user always transmits at p_max. While every earlier user sits
    at p_max, user k gets the largest power that keeps all earlier users'
    minimum rates intact (capped at p_max); once some user backs off below
    p_max, every later user gets exactly its minimum-rate power. Powers can
    come out negative or above p_max on infeasible instances; callers decide
    feasibility, nothing is clipped here.
    """
    g, a = check_allocation_inputs(gains_in_order, alphas_in_order, p_max, noise)
    return _sequence_powers(g, a, p_max, noise)[1]


def _sequence_powers(g: np.ndarray, a: np.ndarray, p_max: float, noise: float) -> tuple:
    """The minimum-rate powers c and the optimal powers p of checked gains
    and alphas in decoding sequence: the powers of solve and
    power_allocation."""
    c = _minimum_rate_powers(g, a, noise)
    return c, _saturating_powers(g, c, *_cap_terms(g, a, c), p_max, noise)


def check_feasibility(powers, rates, reqs, p_max: float) -> tuple[bool, str | None]:
    """Verify the power box and per-user minimum rates; powers are checked
    first because invalid powers make the rates meaningless. Returns the
    verdict and the first violated constraint, or None when clean.

    Powers and rates are one-dimensional with one entry per requirement, and
    powers are finite; a negative power or a NaN rate is a verdict, not an
    input error."""
    reqs = list(reqs)
    _check_p_max(p_max)
    p, r = (np.asarray(x, dtype=float) for x in (powers, rates))
    for label, arr in (("powers", p), ("rates", r)):
        if arr.shape != (len(reqs),):
            raise ValueError(
                f"{label} must be one-dimensional, one entry per requirement, "
                f"got {arr.shape} for {len(reqs)}"
            )
    if not np.isfinite(p).all():
        raise ValueError("powers must be finite")
    return _feasibility(p, r, reqs, p_max)


def _feasibility(p: np.ndarray, rates: np.ndarray, reqs: list, p_max: float):
    """check_feasibility on checked inputs. A power is negative below 0, the
    rule by which solve decides whether rates exist."""
    negative = p < 0.0
    outside = negative | (p > p_max + 1e-12 * max(1.0, p_max))
    if outside.any():
        k = int(np.argmax(outside))
        if negative[k]:
            return False, f"user {k + 1} power {p[k]:.6g} mW is negative"
        return False, f"user {k + 1} power {p[k]:.6g} mW exceeds the {p_max:.6g} mW cap"
    short = ~(rates >= np.array([req.r_min for req in reqs]) - RATE_SLACK)
    if short.any():
        k = int(np.argmax(short))
        msg = f"user {k + 1} rate {rates[k]:.6g} bps/Hz is below the required {reqs[k].r_min:.6g}"
        if p[k] >= p_max * (1.0 - 1e-12):
            msg += "; min-rate power exceeds P_max"
        return False, msg
    return True, None


def solve(gains, reqs, p_max: float, noise: float) -> NomaSolution:
    """Order selection, closed-form powers, rates, and feasibility in one call.

    Validates and plans on every call, then works in decoding sequence until
    it scatters powers and rates back to user order. Infeasible draws are
    flagged, never clipped. On overflow, powers and rates are NaN and the
    diagnostic names the first quantity that is not finite, and its
    lowest-indexed user, in this order: the minimum-rate power; then the
    power cap if some power is negative, or else the received-power ratio
    and then the interference.
    """
    reqs = list(reqs)
    g, alphas = check_allocation_inputs(gains, [r.alpha for r in reqs], p_max, noise)
    seq = _decoding_sequence(g, alphas)
    ranks, g_seq = _ranks(seq), g[seq]
    c_seq, p_seq = _sequence_powers(g_seq, alphas[seq], p_max, noise)
    overflow = bool(np.isinf(c_seq).any())
    rates, sum_rate, low = np.full(len(g), np.nan), math.nan, p_seq.min()
    checks = [(c_seq, _MIN_RATE_POWER)]
    if low >= 0.0:
        rate_seq, interference = _sequence_rates(g_seq, p_seq, noise)
        rates[seq] = rate_seq
        sum_rate = float(np.sum(rates))
        checks += [(rate_seq, _RATIO), (interference, _INTERFERENCE)]
        overflow |= not (math.isfinite(sum_rate) and math.isfinite(interference[0]))
    else:
        # Only the first user to back off takes its cap, and every later one
        # its c, so a cap that reads an overflowed sum is the one -inf power.
        checks.append((p_seq, _POWER_CAP))
        overflow |= low == -math.inf
    if overflow:
        nan = np.full(len(g), np.nan)
        return NomaSolution(ranks, nan, nan.copy(), math.nan, False, _first_not_finite(seq, checks))
    powers = np.empty(len(g))
    powers[seq] = p_seq
    feasible, diagnostic = _feasibility(powers, rates, reqs, p_max)
    return NomaSolution(ranks, powers, rates, sum_rate, feasible, diagnostic)
