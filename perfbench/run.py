#!/usr/bin/env python3
"""manoma benchmark: `manoma sweep` throughput on three workloads, a traced
serial run that splits the sweep into its layers, and per-layer micro timings.

    python3 perfbench/run.py --workload power_sweep --seed 3 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/baseline.json
    python3 perfbench/run.py --smoke

Every measured run is `manoma sweep` in a fresh Python process (perfbench/
child.py), so it pays interpreter start, imports, the process pool and the
CSV and manifest writes as a user's run does. `--trace 0` gives the
end-to-end metrics, `--trace 1` the per-layer ones, and without `--trace`
both run; `--smoke` runs both on every workload. The metric names and units
are those of BENCHMARK.json. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Every CSV is checked: against the committed reference under
perfbench/reference/ for the reference seed, otherwise for byte identity
across the runs of the invocation, and always for the scheme orderings that
hold on every draw.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_DIR = os.path.join(HERE, "_work")
REFERENCE_SEED = 0
# Every spawned process is killed at this age of the invocation, so the
# invocation ends within 180 s whatever the program does.
HARD_LIMIT_S = 165.0
DEFAULT_AXIS_POINTS = 9  # the CLI's default power axis, 0 to 20 dBm


@dataclass(frozen=True)
class Workload:
    """A `manoma sweep` config shape. Realization counts are sized so that
    one sweep takes 5 to 8 s on a 2-core Xeon: five or more untraced sweeps,
    or the traced plan, fit in a 44 s run."""

    config: dict
    workers: int
    realizations: int
    traced_realizations: int
    smoke_realizations: int
    points: tuple = ()  # empty: the CLI's default 0-20 dBm power axis


WORKLOADS = {
    "power_sweep": Workload(
        config={}, workers=1, realizations=120, traced_realizations=120, smoke_realizations=2
    ),
    "dense_power_k32": Workload(
        config={"num_users": "32", "r_min": '"0.1 bps/Hz"'},
        workers=1,
        realizations=8,
        traced_realizations=8,
        smoke_realizations=1,
        points=tuple(0.25 * i for i in range(81)),
    ),
    "multistart_w2": Workload(
        config={"multistart": "10"},
        workers=2,
        realizations=24,
        traced_realizations=10,
        smoke_realizations=2,
    ),
}

LAYER_SPANS = ("channel.sample", "positioner.optimize", "noma.solve")
SHARE_METRICS = {
    "channel.sample": "channel.share",
    "positioner.optimize": "positioner.share",
    "noma.solve": "noma.share",
}
# Figures that must repeat exactly between traced runs of one seed.
EXACT_METRICS = (
    "channel.sample_calls",
    "positioner.calls",
    "noma.solve_calls",
    "positioner.iterations_mean",
    "positioner.cap_hit_fraction",
    "positioner.gain_ratio_p50",
    "noma.infeasible_fraction",
)


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


@dataclass
class Spawn:
    """One finished child process: its report and the parent's own clock."""

    report: dict
    wall_s: float
    csv: bytes | None


@dataclass
class Invocation:
    """What one invocation attempted, what failed, and why."""

    seed: int
    write_reference: bool
    deadline: float
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    csvs: dict = field(default_factory=dict)  # (workload, realizations) -> [bytes]


class Runner:
    def __init__(self, work: str, inv: Invocation):
        self.work = work
        self.inv = inv
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, mode: str, args: list, csv_path: str | None = None) -> Spawn | None:
        """Run one child to completion; None if it failed (counted)."""
        self.count += 1
        report_path = os.path.join(self.work, f"{self.count}-{mode}.json")
        log_path = os.path.join(self.work, f"{self.count}-{mode}.log")
        self.inv.attempted += 1
        timeout = self.inv.deadline - time.monotonic()
        rc = None
        t0 = now()
        if timeout > 0:
            with open(log_path, "wb") as log:
                proc = subprocess.Popen(
                    [sys.executable, CHILD, mode, report_path, *args],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    cwd=self.work,
                    env=self.env,
                    start_new_session=True,
                )
                try:
                    rc = proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    pass
                finally:
                    stop_group(proc)
        t1 = now()
        problem = None
        if rc is None:
            problem = f"{mode} run timed out"
        elif rc != 0:
            problem = f"{mode} run exited {rc}: {tail(log_path)}"
        else:
            try:
                with open(report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                data = None
                if csv_path is not None:
                    with open(csv_path, "rb") as fh:
                        data = fh.read()
            except (OSError, ValueError) as exc:
                problem = f"{mode} run left no readable output: {exc}"
        if problem:
            self.inv.failed += 1
            self.inv.errors.append(problem)
            return None
        return Spawn(report=report, wall_s=(t1 - t0) / 1e9, csv=data)

    def sweep(self, name: str, mode: str, realizations: int, workers: int) -> Spawn | None:
        """`manoma sweep` on a workload; in `setup` mode it stops at the sweep call."""
        wl = WORKLOADS[name]
        cfg_path = os.path.join(self.work, f"{name}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in wl.config.items())
        out = os.path.join(self.work, f"{self.count + 1}-{name}.csv")
        args = ["sweep", "--config", cfg_path, "--out", out, "--workers", str(workers),
                "--seed", str(self.inv.seed), "--realizations", str(realizations)]
        if wl.points:
            args += ["--points", ",".join(f"{p:g}" for p in wl.points)]
        result = self.spawn(mode, args, None if mode == "setup" else out)
        if result is not None and result.csv is not None:
            if check_csv(self.inv, name, realizations, wl, result.csv):
                self.inv.csvs.setdefault((name, realizations), []).append(result.csv)
            else:
                self.inv.failed += 1
                return None
        return result


def stop_group(proc: subprocess.Popen) -> None:
    """Kill the child's process group (pool workers included) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def tail(path: str, lines: int = 3) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return "(no log)"


def check_csv(inv: Invocation, name: str, realizations: int, wl: Workload, data: bytes) -> bool:
    """Scheme orderings that hold on every draw, and the row layout."""
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        by_point = {}
        for row in rows:
            if int(row["realizations"]) != realizations or int(row["seed"]) != inv.seed:
                raise ValueError(f"row {row} does not carry the run's size and seed")
            if not 0.0 <= float(row["infeasible_fraction"]) <= 1.0:
                raise ValueError(f"infeasible fraction out of range in {row}")
            by_point.setdefault(row["sweep_value"], {})[row["scheme"]] = float(
                row["mean_sum_rate_bps_hz"]
            )
        expected_points = len(wl.points) or DEFAULT_AXIS_POINTS
        if len(by_point) != expected_points or len(rows) != 5 * expected_points:
            raise ValueError(f"{len(rows)} rows over {len(by_point)} points")
        for point, rates in by_point.items():
            # Per draw: the moved antenna's gain is at least the fixed one's, and
            # an orthogonal user's rate is at most the aligned-phase cap.
            if not rates["OMA-FPA"] <= rates["OMA-MA"] <= rates["UPPER-BOUND"]:
                raise ValueError(f"scheme ordering broken at {point}: {rates}")
    except (KeyError, ValueError) as exc:
        inv.errors.append(f"{name}: CSV check failed: {exc}")
        return False
    return True


def reference_path(name: str, realizations: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}-n{realizations}-seed{REFERENCE_SEED}.csv")


def check_identity(inv: Invocation) -> None:
    """Reference comparison for the reference seed, else identity across runs."""
    for (name, realizations), blobs in sorted(inv.csvs.items()):
        path = reference_path(name, realizations)
        if inv.seed == REFERENCE_SEED and inv.write_reference:
            os.makedirs(REFERENCE_DIR, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(blobs[0])
            inv.notes.append(f"wrote reference {os.path.relpath(path, ROOT)}")
        if inv.seed == REFERENCE_SEED:
            try:
                with open(path, "rb") as fh:
                    reference = fh.read()
            except OSError:
                inv.errors.append(f"{name}: reference {os.path.relpath(path, ROOT)} is missing")
                inv.failed += len(blobs)
                continue
            bad = sum(blob != reference for blob in blobs)
            inv.notes.append(
                f"{name} n={realizations}: {len(blobs) - bad}/{len(blobs)} CSVs match the reference"
            )
        else:
            bad = sum(blob != blobs[0] for blob in blobs)
            inv.notes.append(
                f"{name} n={realizations}: no reference for seed {inv.seed}; weaker check: "
                f"{len(blobs) - bad}/{len(blobs)} CSVs byte-identical to the first of the set"
            )
        if bad:
            inv.failed += bad
            inv.errors.append(f"{name} n={realizations}: {bad} CSV(s) differ")


def sweep_seconds(spawn: Spawn) -> float:
    r = spawn.report
    return (r["t_sweep_end"] - r["t_sweep_start"]) / 1e9


def setup_seconds(spawn: Spawn, spawned_at_ns: int) -> float:
    return (spawn.report["t_sweep_start"] - spawned_at_ns) / 1e9


def end_to_end(runner: Runner, name: str, seconds: float, smoke: bool) -> dict:
    """Untraced runs: full sweeps, one per process, while another fits in
    `seconds`. A shared host's speed drifts for tens of seconds at a time, so the
    whole budget goes to sweeps; each one's start-up is a set-up sample."""
    wl = WORKLOADS[name]
    n = wl.smoke_realizations if smoke else wl.realizations
    stop = time.monotonic() + seconds
    runner.sweep(name, "setup", n, wl.workers)  # warm-up: bytecode and page cache
    full, setups = [], []
    longest = 0.0
    while True:
        t0 = now()
        spawn = runner.sweep(name, "run", n, wl.workers)
        if spawn is None:
            break
        full.append(spawn)
        setups.append(setup_seconds(spawn, t0))
        longest = max(longest, spawn.wall_s)
        if smoke or time.monotonic() + longest > stop:
            break
    if not full:
        return {}
    runner.inv.notes.append(
        f"{name}: {len(full)} sweep(s) of {n} at "
        + ", ".join(f"{n / sweep_seconds(s):.4g}" for s in full)
        + f" realizations/s; set-up from {min(setups):.4g} to {max(setups):.4g} s"
    )
    return {
        "realizations_per_s": n * len(full) / sum(sweep_seconds(s) for s in full),
        "sweep_wall_s": statistics.median(s.wall_s for s in full),
        "setup_s": statistics.median(setups),
        # Sum of per-process peaks; every pool worker counted at the largest
        # worker's peak, which is all RUSAGE_CHILDREN reports.
        "peak_rss_mb": statistics.median(
            (s.report["maxrss_self_kb"] + wl.workers * s.report["maxrss_children_kb"]) / 1024.0
            for s in full
        ),
    }


def layer_figures(inv: Invocation, name: str, spawn: Spawn) -> dict | None:
    """Per-layer figures of one traced run, or None if its trace is unusable."""
    errors = len(inv.errors)
    spans = spawn.report["spans"]
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append((index, span))
    for layer in ("sim.sweep", "cli.config", "cli.write", *LAYER_SPANS):
        if not by_name.get(layer):
            inv.errors.append(f"{name}: layer {layer} recorded no spans; its share cannot be reported")
    sweeps = by_name.get("sim.sweep", [])
    if len(sweeps) != 1:
        inv.errors.append(f"{name}: expected one sim.sweep span, got {len(sweeps)}")
    if len(inv.errors) > errors:
        return None
    sweep_index, sweep = sweeps[0]
    sweep_ns = sweep[2] - sweep[1]

    def durations(layer, scale):
        return [(s[2] - s[1]) / scale for _, s in by_name[layer]]

    fig = {}
    covered = 0
    for layer in LAYER_SPANS:
        direct = [s for _, s in by_name[layer] if s[3] == sweep_index]
        if len(direct) != len(by_name[layer]):
            inv.errors.append(f"{name}: {layer} spans outside the sweep span")
        busy = sum(s[2] - s[1] for s in direct)
        covered += busy
        fig[SHARE_METRICS[layer]] = busy / sweep_ns
    if covered > sweep_ns:
        inv.errors.append(f"{name}: layer shares sum to {covered / sweep_ns:.6f} > 1")
    fig["sim.self_share"] = (sweep_ns - covered) / sweep_ns

    fig["channel.sample_calls"] = len(by_name["channel.sample"])

    pos = [s[4] for _, s in by_name["positioner.optimize"]]
    ratios = [d["gain_ratio"] for d in pos if d["gain_ratio"] is not None]
    if not ratios:
        inv.errors.append(f"{name}: every positioner start point sits at a gain null")
        return None
    fig["positioner.calls"] = len(pos)
    fig["positioner.iterations_mean"] = sum(d["iterations"] for d in pos) / len(pos)
    fig["positioner.cap_hit_fraction"] = sum(
        d["iterations"] >= d["max_iterations"] for d in pos
    ) / len(pos)
    fig["positioner.gain_ratio_p50"] = statistics.median(ratios)

    solves = [s[4] for _, s in by_name["noma.solve"]]
    fig["noma.solve_calls"] = len(solves)
    fig["noma.infeasible_fraction"] = sum(not d["feasible"] for d in solves) / len(solves)

    fig["cli.config_ms"] = statistics.median(durations("cli.config", 1e6))
    fig["cli.write_ms"] = statistics.median(durations("cli.write", 1e6))
    return fig


def per_layer(runner: Runner, name: str, smoke: bool) -> dict:
    """Two traced serial runs (their counts must agree) around an untraced
    serial run of the same size, so the overhead estimate sees the machine
    drift on both sides; an untraced run at the workload's worker count for
    parallel efficiency; then the micro timings."""
    inv = runner.inv
    wl = WORKLOADS[name]
    n = wl.smoke_realizations if smoke else wl.traced_realizations
    runner.sweep(name, "setup", n, wl.workers)  # warm-up: bytecode and page cache
    traced = [runner.sweep(name, "trace", n, 1)]
    serial = runner.sweep(name, "run", n, 1)
    traced.append(runner.sweep(name, "trace", n, 1))
    untraced = serial if wl.workers == 1 else runner.sweep(name, "run", n, wl.workers)
    micro = runner.spawn("micro", [str(inv.seed)])
    if None in (*traced, untraced, serial, micro):
        return {}
    figs = [layer_figures(inv, name, t) for t in traced]
    if None in figs:
        return {}
    for key in EXACT_METRICS:
        if figs[0][key] != figs[1][key]:
            inv.errors.append(f"{name}: {key} differs between traced runs: {figs[0][key]} vs {figs[1][key]}")
    pooled = {}
    for fig in figs:
        for key, value in fig.items():
            pooled.setdefault(key, []).append(value)
    out = {key: figs[0][key] if key in EXACT_METRICS else statistics.median(values)
           for key, values in pooled.items()}
    # Percentiles over the calls of both runs.
    for key, layer, scale, stat in (
        ("channel.sample_us_p50", "channel.sample", 1e3, statistics.median),
        ("positioner.ms_p50", "positioner.optimize", 1e6, statistics.median),
        ("positioner.ms_p90", "positioner.optimize", 1e6, p90),
        ("noma.solve_us_p50", "noma.solve", 1e3, statistics.median),
        ("noma.solve_us_p90", "noma.solve", 1e3, p90),
    ):
        out[key] = stat(
            [(s[2] - s[1]) / scale for t in traced for s in t.report["spans"] if s[0] == layer]
        )
    traced_rps = statistics.median(n / sweep_seconds(t) for t in traced)
    out["sim.parallel_efficiency"] = (n / sweep_seconds(untraced)) / (wl.workers * traced_rps)
    out["trace.overhead"] = (n / sweep_seconds(serial)) / traced_rps - 1.0
    spawns = [s for s in (*traced, untraced, serial) if s is not None]
    out["cli.import_s"] = statistics.median(s.report["import_s"] for s in spawns)
    for key in ("sample_user_channel_us", "sca_step_us", "sca_trajectory_ms",
                "sca_trajectory_iterations", "solve_k6_us", "solve_k64_us"):
        out[f"micro.{key}"] = micro.report[key]
    ranked = sorted(SHARE_METRICS.values(), key=lambda k: out[k], reverse=True)
    inv.notes.append(f"{name}: largest layer share is {ranked[0]} ({out[ranked[0]]:.3f})")
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=normal"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
        return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    return {
        **git_state(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "reference_seed": REFERENCE_SEED,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=44.0,
                        help="measuring time of one untraced workload run")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes; checks the harness only")
    parser.add_argument("--out", help="also write the full result with its environment here")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's CSVs as the references (seed {REFERENCE_SEED})")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "manoma", "cli.py")):
        print(f"error: no manoma sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {"0": [m["name"] for m in spec["end_to_end"]],
              "1": [m["name"] for m in spec["per_layer"]]}
    names = list(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    modes = [args.trace] if args.trace is not None and not args.smoke else ["0", "1"]

    env = environment(args.seed)
    inv = Invocation(seed=args.seed, write_reference=args.write_reference,
                     deadline=time.monotonic() + HARD_LIMIT_S * len(names) * len(modes))
    results = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    runner = Runner(work, inv)
    try:
        for name in names:
            metrics = {}
            if "0" in modes:
                metrics.update(end_to_end(runner, name, args.seconds, args.smoke))
            if "1" in modes:
                metrics.update(per_layer(runner, name, args.smoke))
            results[name] = metrics
        check_identity(inv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    env["loadavg_1m_end"] = os.getloadavg()[0]

    flat = {}
    for name in names:
        missing = [m for mode in modes for m in wanted[mode] if m not in results[name]]
        if missing:
            inv.errors.append(f"{name}: {len(missing)} metric(s) not measured: {', '.join(missing)}")
        for metric in (m for mode in modes for m in wanted[mode] if m in results[name]):
            key = metric if len(names) == 1 else f"{name}/{metric}"
            flat[key] = {"value": results[name][metric], "unit": units[metric]}

    print("environment: " + json.dumps(env, sort_keys=True))
    for key, entry in flat.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_fraction = {inv.failed / max(inv.attempted, 1):.6g} "
          f"({inv.failed} of {inv.attempted} runs)")
    for note in inv.notes:
        print(f"note: {note}")
    for error in inv.errors:
        print(f"error: {error}")
    correct = not inv.errors and inv.failed == 0
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "workloads": results, "notes": inv.notes,
                       "errors": inv.errors, "attempted": inv.attempted, "failed": inv.failed},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": inv.attempted, "failed": inv.failed,
                      "metrics": flat}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
