"""Movable-antenna uplink NOMA toolkit.

Field-response channel modeling, per-user antenna placement via successive
convex approximation, closed-form decoding order and power control, and a
Monte Carlo harness comparing movable against fixed antennas and NOMA
against orthogonal access.
"""

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
from manoma.noma import (
    NomaSolution,
    RateRequirement,
    aligned_sum_rate,
    check_feasibility,
    decoding_order,
    oma_sum_rate,
    power_allocation,
    sinr_and_rates,
    solve,
)
from manoma.oracles import brute_force_allocation, grid_oracle, propagation_delta
from manoma.positioner import (
    ScaParams,
    ScaState,
    optimize_position,
    sca_step,
    sca_trajectory,
)
from manoma.sim import (
    SCHEMES,
    ScenarioConfig,
    SweepRow,
    dbm_to_mw,
    draw_users,
    run_realization,
    sweep_power,
    sweep_users,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateChannelError",
    "MoveRegion",
    "Position",
    "UserChannel",
    "channel_coefficient",
    "channel_gain",
    "field_response_vector",
    "propagation_delta",
    "sample_user_channel",
    "NomaSolution",
    "RateRequirement",
    "aligned_sum_rate",
    "brute_force_allocation",
    "check_feasibility",
    "decoding_order",
    "oma_sum_rate",
    "power_allocation",
    "sinr_and_rates",
    "solve",
    "ScaParams",
    "ScaState",
    "grid_oracle",
    "optimize_position",
    "sca_step",
    "sca_trajectory",
    "SCHEMES",
    "ScenarioConfig",
    "SweepRow",
    "dbm_to_mw",
    "draw_users",
    "run_realization",
    "sweep_power",
    "sweep_users",
    "__version__",
]
