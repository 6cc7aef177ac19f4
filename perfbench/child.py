"""One measured process, started by perfbench/run.py.

    python3 perfbench/child.py <mode> <report.json> [args...]

Modes:
  run    `manoma <args>` exactly as the console script runs it, with the start
         and end of the sweep call time-stamped.
  setup  the same, but the process exits as soon as the sweep call starts.
  trace  `run` with a span recorded around every call of the layer functions,
         at the names `sim` and `cli` call them by. Spans stay in memory and
         are written to the report when the command has finished.
  micro  each layer timed on its own with inputs drawn from the seed given as
         the only argument.

The report is JSON. Timestamps are CLOCK_MONOTONIC nanoseconds, a clock the
parent process shares, so it can measure from before this process was
spawned. run.py puts the checkout's `src` on PYTHONPATH; the import is
checked to come from there.
"""

import inspect
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "manoma")


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class _SetupDone(Exception):
    """Raised at the start of the sweep call in `setup` mode."""


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent_index, detail].

    A span's parent is the innermost traced call still open when it started
    (-1 at top level). `detail` keeps the call's arguments and result when
    asked for, so derived figures are computed after the run, outside every
    span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, span: str, keep_call: bool = False) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            record = [span, 0, 0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = now()
                self._open.pop()
            if keep_call:
                record[4] = (args, kwargs, result)
            return result

        setattr(module, attr, traced)


def _positioner_detail(optimize_position, channel_gain, call) -> dict:
    """Step count, its cap, and the returned gain over the start point's."""
    args, kwargs, (_, gain, iterations) = call
    bound = inspect.signature(optimize_position).bind(*args, **kwargs)
    bound.apply_defaults()
    start_gain = channel_gain(bound.arguments["init"], bound.arguments["ch"])
    return {
        "iterations": iterations,
        "max_iterations": bound.arguments["params"].max_iterations,
        "gain_ratio": gain / start_gain if start_gain > 0.0 else None,
    }


def check_import() -> None:
    import manoma

    if os.path.dirname(os.path.abspath(manoma.__file__)) != PACKAGE_DIR:
        raise SystemExit(f"manoma imported from {manoma.__file__}, not from {PACKAGE_DIR}")


def run_cli(mode: str, cli_args: list[str], report: dict) -> int:
    t0 = now()
    import manoma.cli as cli

    report["import_s"] = (now() - t0) / 1e9
    check_import()

    tracer = Tracer()
    if mode == "trace":
        import manoma.sim as sim

        optimize_position = sim.optimize_position
        tracer.wrap(sim, "sample_user_channel", "channel.sample")
        tracer.wrap(sim, "optimize_position", "positioner.optimize", keep_call=True)
        tracer.wrap(sim, "solve", "noma.solve", keep_call=True)
        tracer.wrap(cli, "resolve_config", "cli.config")
        tracer.wrap(cli, "write_sweep_csv", "cli.write")

    sweep_power = cli.sweep_power

    def timed_sweep(*args, **kwargs):
        report["t_sweep_start"] = now()
        if mode == "setup":
            raise _SetupDone
        rows = sweep_power(*args, **kwargs)
        report["t_sweep_end"] = now()
        return rows

    cli.sweep_power = timed_sweep
    if mode == "trace":
        tracer.wrap(cli, "sweep_power", "sim.sweep")

    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0

    if mode == "trace":
        from manoma.channel import channel_gain

        spans = []
        for name, start, end, parent, call in tracer.spans:
            detail = None
            if name == "positioner.optimize":
                detail = _positioner_detail(optimize_position, channel_gain, call)
            elif name == "noma.solve":
                detail = {"feasible": bool(call[2].feasible)}
            spans.append([name, start, end, parent, detail])
        report["spans"] = spans
    return rc


def run_micro(seed: int, report: dict) -> None:
    import statistics

    import numpy as np

    check_import()

    from manoma.channel import MoveRegion, Position, channel_gain, sample_user_channel
    from manoma.noma import RateRequirement, solve
    from manoma.positioner import ScaParams, sca_step, sca_trajectory
    from manoma.sim import ScenarioConfig, dbm_to_mw

    def per_call_ns(fn, calls: int, batches: int = 5) -> float:
        fn()
        times = []
        for _ in range(batches):
            t = now()
            for _ in range(calls):
                fn()
            times.append((now() - t) / calls)
        return statistics.median(times)

    cfg = ScenarioConfig()
    region = MoveRegion(cfg.region_side)
    origin = Position(0.0, 0.0)
    rng = np.random.default_rng(seed)
    channels = [sample_user_channel(cfg, rng) for _ in range(64)]
    normalized = [ch.normalized() for ch in channels[:16]]
    noise = dbm_to_mw(cfg.noise_dbm)

    def solve_fn(k: int, r_min: float, p_max_dbm: float):
        gains = [channel_gain(origin, ch) for ch in channels[:k]]
        reqs = [RateRequirement(r_min)] * k
        p_max = dbm_to_mw(p_max_dbm)
        return lambda: solve(gains, reqs, p_max, noise)

    sample_rng = np.random.default_rng(seed)
    report["sample_user_channel_us"] = (
        per_call_ns(lambda: sample_user_channel(cfg, sample_rng), 200) / 1e3
    )
    report["sca_step_us"] = per_call_ns(lambda: sca_step(origin, normalized[0], region), 200) / 1e3
    trajectory_ns = per_call_ns(
        lambda: [sca_trajectory(ch, region, ScaParams(), origin) for ch in normalized], 1
    )
    report["sca_trajectory_ms"] = trajectory_ns / len(normalized) / 1e6
    report["sca_trajectory_iterations"] = statistics.fmean(
        len(sca_trajectory(ch, region, ScaParams(), origin)) - 1 for ch in normalized
    )
    report["solve_k6_us"] = per_call_ns(solve_fn(6, cfg.r_min, cfg.p_max_dbm), 100) / 1e3
    report["solve_k64_us"] = per_call_ns(solve_fn(64, 0.05, 20.0), 10) / 1e3


def main() -> int:
    mode, report_path, *args = sys.argv[1:]
    report = {}
    rc = 0
    if mode == "micro":
        run_micro(int(args[0]), report)
    elif mode in ("run", "setup", "trace"):
        rc = run_cli(mode, args, report)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    report["rc"] = rc
    report["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
