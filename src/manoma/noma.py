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
follow margin[k+1] = min(margin[k] - g_k, g_k / a_k). One pass from the
last user takes the minimum-rate powers and later, and one pass from the
first takes the margins and caps up to the first user that backs off.
Rounding is monotone, so taking the minimum before a subtraction rounds as
taking it after: each margin is its pair's difference summed term by term,
with that difference's conditioning (an error of about K eps (g_i / a_i +
sum(g between))). Margins taken as differences of prefix sums of all gains
would err by eps times the whole prefix, so a large gain decoded early
could erase the cap of a small user decoded later.

Each call checks its inputs into Python floats, then computes on them one
user at a time: a numpy call costs more than the arithmetic on a few users.
A float that overflows is inf or NaN, never an exception or a warning.
Running sums and products start from the last user, as numpy's accumulate
does, and the rates take one np.log2 over all users, so every result is bit
for bit the array form's. solve keeps no state between calls.

The rate, order and power functions check their inputs by one rule per
quantity, and a ValueError names the quantity that breaks it. Every number
is real, not a bool, and fits in a float (channel.as_float's rule, which an
int or float array meets), and comes back as a Python float:
- gains, alphas, powers and amplitude_sums: one-dimensional, one entry per
  user, finite and >= 0, one alpha or power per gain, and gains >=
  GAIN_FLOOR where the power formulas divide (DegenerateChannelError);
- noise: positive and finite; p_max: finite and >= 0, with at least one user;
- r_min: in [0, 1024), so a RateRequirement's alpha = 2**r_min - 1 is finite;
- reqs: RateRequirement entries, one per gain in solve, which takes their
  alphas unchecked; order: integer ranks 1..K;
- the powers and rates check_feasibility judges: one-dimensional, one entry
  per requirement, and powers finite (a negative one is a verdict).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from manoma.channel import DegenerateChannelError, as_count, as_float

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
        object.__setattr__(self, "r_min", as_float("r_min", self.r_min))
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
    g, p, noise = check_rate_inputs(gains, powers, noise)
    try:
        ranks = [as_count("order", rank, 1) for rank in order]
    except TypeError:  # not a sequence
        ranks = None
    if ranks is None or sorted(ranks) != list(range(1, len(g) + 1)):
        raise ValueError(f"order {order!r} is not a permutation of 1..{len(g)}")
    seq = [0] * len(ranks)
    for user, rank in enumerate(ranks):
        seq[rank - 1] = user
    rates, overflow = _sequence_rates(seq, [g[k] for k in seq], [p[k] for k in seq], noise)
    if overflow:
        raise OverflowError(overflow)
    return rates


def check_rate_inputs(gains, powers, noise) -> tuple[list, list, float]:
    """The rate functions' input rule, returning the checked gains, powers
    and noise as Python floats."""
    g, p = _per_user(gains, "powers", powers)
    return g, p, _check_noise(noise)


def _sequence_rates(seq: list, g_seq: list, p_seq: list, noise: float):
    """Rates in user order of gains and powers in decoding sequence seq, and
    None; or None and the overflow verdict, when a received-power ratio or an
    interference is not finite."""
    num = len(seq)
    ratio, interference, tail = [0.0] * num, [0.0] * num, 0.0
    for k in range(num - 1, -1, -1):
        received = g_seq[k] * p_seq[k]
        interference[k] = tail
        ratio[k] = received / (tail + noise)
        tail += received
    overflow = _first_not_finite(seq, ((ratio, _RATIO), (interference, _INTERFERENCE)))
    if overflow:
        return None, overflow
    snr = [0.0] * num  # 1 + SINR, in user order
    for user, x in zip(seq, ratio):
        snr[user] = 1.0 + x
    return np.log2(snr), None


def oma_sum_rate(gains, p_max: float, noise: float) -> float:
    """Orthogonal time sharing: each user sends at full power in its 1/K slot.
    Raises OverflowError naming the first user whose g p_max / noise overflows."""
    g, p_max, noise = _power_inputs("gains", gains, p_max, noise)
    ratio = [gain * p_max / noise for gain in g]
    overflow = _first_not_finite(range(len(ratio)), ((ratio, _RATIO),))
    if overflow:
        raise OverflowError(overflow)
    # np.mean's sum and division: pairwise from 8 users on, unlike sum().
    return float(np.add.reduce(np.log2([1.0 + x for x in ratio]))) / len(ratio)


def aligned_sum_rate(amplitude_sums, p_max: float, noise: float) -> float:
    """Sum rate with every path of every user phase-aligned at full power:
    log2(1 + sum(a_k**2) p_max / noise) over the users' path-amplitude sums
    a_k. Raises OverflowError if that total or the ratio does."""
    a, p_max, noise = _power_inputs("amplitude_sums", amplitude_sums, p_max, noise)
    try:
        # Python's ** in user order, summed left to right: a * a or np.square
        # would differ from a**2 in the last bit on some floats.
        total = sum(x**2 for x in a)
    except OverflowError:
        total = math.inf
    ratio = total * p_max / noise
    if math.inf in (total, ratio):
        raise OverflowError(_RATIO)
    return math.log2(1.0 + ratio)


def _first_not_finite(seq, checks) -> str | None:
    """`user k <quantity>` for the first (values, quantity) pair in checks with
    a non-finite value, values in decoding sequence seq; else None."""
    for values, quantity in checks:
        # A value that is not finite makes the sum so: a finite sum clears all.
        if math.isfinite(sum(values)):
            continue
        users = [user for user, x in zip(seq, values) if not math.isfinite(x)]
        if users:
            return f"user {min(users) + 1} {quantity}"
    return None


def _floats(label: str, values, num: int | None = None) -> list:
    """values as Python floats: one-dimensional (num entries, if given), each
    entry a number by channel.as_float's rule. An int or float array, or a
    sequence numpy reads as one and that holds no bool, converts at once."""
    arr = np.asarray(values)
    if arr.ndim != 1 or num not in (None, len(arr)):
        count = "" if num is None else f" for {num}"
        raise ValueError(f"{label} must be one-dimensional, one per user, got {arr.shape}{count}")
    # numpy reads a bool among numbers as 0 or 1, so a sequence with one goes
    # entry by entry, as does an array of any dtype but int or float.
    whole = isinstance(values, np.ndarray) or {bool, np.bool_}.isdisjoint(map(type, values))
    if whole and arr.dtype.kind in "fiu":
        return arr.astype(float, copy=False).tolist()
    return [as_float(label, x) for x in values]


def _check_per_user(label: str, values, floor: float = 0.0, num: int | None = None) -> list:
    """The rule for gains, alphas, powers and amplitude sums, returning the
    checked values as Python floats."""
    x = _floats(label, values, num)
    if not all(0.0 <= v < math.inf for v in x):  # NaN fails too
        raise ValueError(f"{label} must be finite and nonnegative")
    if x and min(x) < floor:
        msg = f"gains below {floor} would make the power formulas divide by zero"
        raise DegenerateChannelError(msg)
    return x


def _per_user(gains, name: str, values, floor: float = 0.0) -> tuple[list, list]:
    """The checked gains and one checked alpha or power per gain."""
    g = _check_per_user("gains", gains, floor)
    return g, _check_per_user(name, values, num=len(g))


def _power_inputs(label: str, values, p_max, noise, floor: float = 0.0):
    """The rule of the functions that take a value per user, a power cap and
    noise: the checked values, at least one, and the checked p_max and noise."""
    x = _check_per_user(label, values, floor)
    if not x:
        raise ValueError("at least one user is required")
    return x, _check_p_max(p_max), _check_noise(noise)


def _check_noise(noise) -> float:
    noise = as_float("noise", noise)
    if not 0.0 < noise < math.inf:
        raise ValueError(f"noise power must be positive and finite, got {noise}")
    return noise


def _check_p_max(p_max) -> float:
    p_max = as_float("p_max", p_max)
    if not 0.0 <= p_max < math.inf:
        raise ValueError(f"power cap p_max must be finite and nonnegative, got {p_max}")
    return p_max


def _check_reqs(reqs, num: int | None = None) -> list:
    reqs = list(reqs)
    for req in reqs:
        if not isinstance(req, RateRequirement):
            raise ValueError(f"reqs must hold a RateRequirement per user, got {req!r}")
    if num not in (None, len(reqs)):
        raise ValueError(f"reqs must hold one RateRequirement per gain, got {len(reqs)} for {num}")
    return reqs


def _decoding_sequence(g: list, a: list) -> list:
    """User indices in decoding order, on checked gains and alphas; see
    decoding_order."""
    # An unconstrained user's weight 1 leaves its key -g.
    weight = [1.0 + 1.0 / alpha if alpha > 0.0 else 1.0 for alpha in a]
    key = [-gain * w for gain, w in zip(g, weight)]
    if -math.inf in key:
        # Scaling the gains by a power of two scales every key exactly, so
        # keys brought under 2**1023 sort as the exact products would.
        constrained = [k for k, alpha in enumerate(a) if alpha > 0.0]
        exponent = max(math.frexp(g[k])[1] + math.frexp(weight[k])[1] for k in constrained)
        for k in constrained:
            x = -math.ldexp(g[k], min(0, 1023 - exponent)) * weight[k]
            # A gain scaled to 0 times an infinite weight is NaN, which the
            # array form's lexsort put after every key; so does inf here.
            key[k] = math.inf if math.isnan(x) else x
    if 0.0 in g:
        # A zero gain's key is -0 whatever its weight: times an infinite
        # weight (alpha below about 5.6e-309) it would be NaN, which no
        # sort orders.
        key = [-0.0 if gain == 0.0 else x for gain, x in zip(g, key)]
    # Both sorts are stable, so equal keys keep the lower user index first.
    seq = sorted(range(len(g)), key=key.__getitem__)
    if 0.0 in a:
        seq.sort(key=[alpha == 0.0 for alpha in a].__getitem__)
    return seq


def _ranks(seq: list) -> tuple[int, ...]:
    ranks = [0] * len(seq)
    for rank, user in enumerate(seq, 1):
        ranks[user] = rank
    return tuple(ranks)


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
    (alpha = 0) need nothing. A product too large for a float makes c_k inf,
    or NaN where noise * alpha / g underflows to 0.
    """
    g, a = _per_user(gains, "alphas", alphas, GAIN_FLOOR)
    return np.array(_minimum_rate_powers(g, a, _check_noise(noise))[0])


def _minimum_rate_powers(g: list, a: list, noise: float) -> tuple[list, list]:
    """The minimum-rate powers c of checked gains and alphas in decoding
    sequence, and later[k] = sum(g c) over the users after k.

    One pass from the last user keeps the product of (1 + alpha) and the sum
    of g c over the users behind it. A running product from 1 and a sum from
    0 equal the product or sum started from the last user's term (g c is
    never -0), so both are bit for bit the array form's accumulate. Many
    large factors overflow to inf, which times a prefactor noise * alpha / g
    that underflows to 0 is NaN; solve reports either infeasible.
    """
    num = len(g)
    c, later = [0.0] * num, [0.0] * num
    product, total = 1.0, 0.0
    for k in range(num - 1, -1, -1):
        later[k] = total
        alpha = a[k]
        if alpha > 0.0:  # otherwise the factor is 1 and the term 0
            c[k] = need = noise * alpha / g[k] * product
            total += g[k] * need
            product *= alpha + 1.0
    return c, later


def check_allocation_inputs(gains, alphas, p_max, noise) -> tuple[list, list, float, float]:
    """Power control's input rule, returning the checked gains, alphas, p_max
    and noise as Python floats; no check depends on the order of the users."""
    g, p_max, noise = _power_inputs("gains", gains, p_max, noise, GAIN_FLOOR)
    return g, _check_per_user("alphas", alphas, num=len(g)), p_max, noise


def power_allocation(gains_in_order, alphas_in_order, p_max: float, noise: float) -> np.ndarray:
    """Optimal transmit powers, inputs relabeled so index 0 is decoded first.

    The first user always transmits at p_max. While every earlier user sits
    at p_max, user k gets the largest power that keeps all earlier users'
    minimum rates intact (capped at p_max); once some user backs off below
    p_max, every later user gets exactly its minimum-rate power. Powers can
    come out negative or above p_max on infeasible instances; callers decide
    feasibility, nothing is clipped here.
    """
    g, a, p_max, noise = check_allocation_inputs(gains_in_order, alphas_in_order, p_max, noise)
    return np.array(_sequence_powers(g, a, p_max, noise)[1])


def _sequence_powers(g: list, a: list, p_max: float, noise: float) -> tuple[list, list]:
    """The minimum-rate powers c and the optimal powers p of checked gains
    and alphas in decoding sequence: the powers of solve and
    power_allocation, and the one place that decides a power cap.

    Every constrained user i decoded before user k keeps its rate while k
    sends at most cap[k] = (p_max margin[k] - later[k] - noise) / g_k, the
    headroom p_max margin[k] less the interference and noise. margin[k] is
    the least g_i / a_i - sum(g[i+1:k]) over those i (inf if there is none).
    An overflowed g / alpha stays inf less any gain and bounds nobody, a NaN
    cap (inf - inf) caps nobody, and a cap that reads an overflowed sum is
    -inf, which solve reports. User 0's margin is inf, so it never backs off.
    """
    c, later = _minimum_rate_powers(g, a, noise)
    p = [p_max] * len(g)
    margin = math.inf
    for k, (gain, alpha, interference) in enumerate(zip(g, a, later)):
        cap = ((p_max * margin - interference) - noise) / gain
        if cap < p_max:
            p[k:] = [cap, *c[k + 1 :]]
            break
        margin -= gain
        if alpha > 0.0 and gain / alpha < margin:
            margin = gain / alpha
    return c, p


def check_feasibility(powers, rates, reqs, p_max: float) -> tuple[bool, str | None]:
    """Verify the power box and per-user minimum rates; powers are checked
    first because invalid powers make the rates meaningless. Returns the
    verdict and the first violated constraint, or None when clean.

    Powers and rates are one-dimensional with one entry per requirement, and
    powers are finite; a negative power or a NaN rate is a verdict, not an
    input error."""
    reqs = _check_reqs(reqs)
    p_max = _check_p_max(p_max)
    p, r = _floats("powers", powers, len(reqs)), _floats("rates", rates, len(reqs))
    if not all(map(math.isfinite, p)):
        raise ValueError("powers must be finite")
    return _feasibility(p, r, reqs, p_max)


def _feasibility(p: list, rates: list, reqs: list, p_max: float):
    """check_feasibility on checked inputs. A power is negative below 0, the
    rule by which solve decides whether rates exist."""
    high = p_max + 1e-12 * max(1.0, p_max)
    for k, power in enumerate(p):
        if power < 0.0:
            return False, f"user {k + 1} power {power:.6g} mW is negative"
        if power > high:
            return False, f"user {k + 1} power {power:.6g} mW exceeds the {p_max:.6g} mW cap"
    for k, (rate, req) in enumerate(zip(rates, reqs)):
        if not rate >= req.r_min - RATE_SLACK:
            msg = f"user {k + 1} rate {rate:.6g} bps/Hz is below the required {req.r_min:.6g}"
            if p[k] >= p_max * (1.0 - 1e-12):
                msg += "; min-rate power exceeds P_max"
            return False, msg
    return True, None


def solve(gains, reqs, p_max: float, noise: float) -> NomaSolution:
    """Order selection, closed-form powers, rates, and feasibility in one call.

    Validates on every call, then works in decoding sequence until it
    scatters powers and rates back to user order. Infeasible draws are
    flagged, never clipped. One test decides overflow and words it: the
    checked quantities are, in this order, the minimum-rate power; then the
    power cap if some power is negative, or else the received-power ratio
    and then the interference. The first that holds a value that is not
    finite, with its lowest-indexed user, is the diagnostic, and then powers
    and rates are NaN.
    """
    g, p_max, noise = _power_inputs("gains", gains, p_max, noise, GAIN_FLOOR)
    reqs = _check_reqs(reqs, len(g))
    a = [req.alpha for req in reqs]
    seq = _decoding_sequence(g, a)
    g_seq = [g[k] for k in seq]
    c_seq, p_seq = _sequence_powers(g_seq, [a[k] for k in seq], p_max, noise)
    rates = None
    overflow = _first_not_finite(seq, ((c_seq, _MIN_RATE_POWER),))
    if overflow is None:
        # With every c finite, no power is NaN.
        if min(p_seq) >= 0.0:
            rates, overflow = _sequence_rates(seq, g_seq, p_seq, noise)
        else:
            # Only the first user to back off takes its cap, and every later
            # one its c, so a cap that reads an overflowed sum is the one -inf
            # power.
            overflow = _first_not_finite(seq, ((p_seq, _POWER_CAP),))
    if overflow:
        nan = np.full(len(g), np.nan)
        return NomaSolution(_ranks(seq), nan, nan.copy(), math.nan, False, overflow)
    powers = [0.0] * len(g)
    for user, power in zip(seq, p_seq):
        powers[user] = power
    if rates is None:  # some power is negative
        rates, sum_rate = np.full(len(g), np.nan), math.nan
    else:
        sum_rate = float(np.add.reduce(rates))  # as np.sum: pairwise from 8 users on
    feasible, diagnostic = _feasibility(powers, rates.tolist(), reqs, p_max)
    return NomaSolution(_ranks(seq), np.array(powers), rates, sum_rate, feasible, diagnostic)
