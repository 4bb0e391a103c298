#!/usr/bin/env python3
"""Rack benchmark for `fleet_sim --cluster`.

    python3 rackbench/run.py --workload soak-extended [--seed N]
                             [--workload-seed 2018] [--seconds 20]
                             [--trace 0|1]

Builds `fleet_sim` and the layer replay (`rackbench/replay`) from the
checkout in release mode (`CARGO_TARGET_DIR`, default `.bench_build`),
then measures one workload for `--seconds` seconds and prints a report
followed, as the last line of stdout, by one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

Every measurement is taken from outside the program: the summary JSON
on stdout, the `--bench` timing record, the `--metrics-out` registry,
`wait4` rusage for CPU and peak memory (`ru_maxrss`, the kernel's
`VmHWM`), `/proc/stat` for the CPU time the hypervisor steals meanwhile,
and timed calls into the crates' public functions (the layer replay,
which reads its own `VmRSS` from `/proc`).

A run measures a panel of racks, one fresh `fleet_sim` process per
member, and reports medians over the panel. Two seeds make the inputs:

* the workload seed (`--workload-seed`, default 2018) fixes each
  member's simulation seed (`sub_seed`), hence its silicon and arrival
  stream. Seed 7919 is held out: no change may be tuned against it, and
  every claimed gain must also hold on it;
* the run seed (`--seed`) draws each member's horizon, a few ticks
  past the workload's nominal one (`member_secs`). `fleet_sim` anchors
  the chaos and gray campaigns (rack failure, cooling, brownout, gray
  durations) to fractions of the horizon, so on those two workloads
  the run seed also shifts the campaign windows, and the simulated
  outcomes move with it by a few per cent.

The split is deliberate. One simulation seed's rack is a heavy-tailed
draw: at 64 nodes, peak RSS ranges from 136 to 1050 MB and serve cost
per node-tick by 4x between neighbouring seeds, as a few nodes fall
into CE storms. A panel that changed with every run seed could not hold
a host-time bound; a fixed panel with run-seeded horizons does. The
panel size is a function of the workload and `--seconds` only, never of
how fast the build runs.

`--trace 0` runs the panel untraced, `REPS` times over in interleaved
rounds, and reports the end-to-end metrics. Host time and memory take
each member's fastest repetition before the median over members, since
other tenants on the host only ever slow a process down.
`--trace 1` runs the layer replay, then each member untraced and traced
(`--metrics-out`, `--trace-out`), and reports the per-layer metrics,
including the tracing overhead.

Correctness gate: every process must exit 0, and its summary must
satisfy `offered = placed + abandoned` and
`placed = completed + evicted + live_at_end`. Runs of the same
simulation seed must print byte-identical stdout: untraced runs repeat
every member and run member 0 once more at another `--threads` value,
and traced runs repeat each member with tracing on. A traced run's
registry must count the summary's arrivals and placements. A process
that breaks any of these counts as failed. The report prints a sha256
digest of each member's stdout; since the horizons follow `--seed`, a
change that claims to alter speed only must reproduce those digests at
the same `--seed` and `--workload-seed`. The bounds on the simulated
metrics alone are looser than that.

"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

DEFAULT_WORKLOAD_SEED = 2018
HELD_OUT_WORKLOAD_SEED = 7919
TICK_S = 5
# Horizon jitter: each member serves 0..JITTER_TICKS-1 ticks past the
# nominal horizon, drawn from the run seed.
JITTER_TICKS = 24

ROOT = Path(__file__).resolve().parent.parent
REPLAY_MANIFEST = "rackbench/replay/Cargo.toml"

# Each workload is one closed batch: the simulator draws its whole
# arrival stream from the seed, so there is no open-loop generator and
# no lateness to report.
WORKLOADS = {
    # Node-tick work under CE storms dominates (platform, hypervisor
    # containment, HealthLog ingest, predictor), the sharded pool runs at
    # two workers, and the 3 h horizon makes health-state growth drive
    # peak RSS.
    "soak-extended": {
        "flags": ["--nodes", "64"],
        "secs": 10800,
        "threads": 2,
        "check_threads": 1,
        "process_s": 2.7,
        "replay_s": 11.0,
    },
    # Quiet nodes: the platform is almost all node-tick cost and the
    # predictor and HealthLog scoring do little, so this is the bypass
    # case for storm-path and predictor work. Exercises the crash
    # lifecycle (offline, rejoin) and flash-crowd placement.
    "chaos-nominal": {
        "flags": ["--nodes", "512", "--profile", "chaos", "--nominal"],
        "secs": 3600,
        "threads": 2,
        "check_threads": 1,
        "process_s": 2.4,
        "replay_s": 5.5,
    },
    # Placement, manage, recovery and drain take a large share of serve
    # time and many nodes sleep. One thread bypasses the shard pool: the
    # no-change case for pool or tick-path work.
    "gray-consolidate": {
        "flags": ["--nodes", "512", "--profile", "gray", "--policy", "consolidate"],
        "secs": 3600,
        "threads": 1,
        "check_threads": 2,
        "process_s": 2.9,
        "replay_s": 9.0,
    },
}

END_TO_END = {
    "setup_s": "s",
    "serve_us_per_node_tick": "us",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "sim_energy_mj": "MJ",
    "vm_served_frac": "frac",
    "sla_met_frac": "frac",
    "mean_availability": "frac",
}

# Stage spans from the `--bench` record of the traced processes.
STAGE_METRICS = {
    "hypervisor.node_tick_busy_ms": "hypervisor_tick_ms",
    "cloudmgr.predictor_busy_ms": "predictor_ms",
    "cloudmgr.tick_wall_ms": "tick_wall_ms",
    "cloudmgr.placement_ms": "placement_ms",
    "cloudmgr.recovery_ms": "recovery_ms",
    "orchestrator.retry_ms": "retry_ms",
    "orchestrator.events_ms": "events_ms",
    "orchestrator.rejoin_ms": "rejoin_ms",
}
# Spans directly under serve; together with the serve loop's self time
# they make up the whole serve wall-clock.
TOP_LEVEL_STAGES = [
    "placement_ms", "retry_ms", "events_ms", "rejoin_ms", "recovery_ms", "tick_wall_ms",
]

# Counters from the `--metrics-out` registry.
COUNTER_METRICS = {
    "cloudmgr.node_ticks": "node_ticks",
    "cloudmgr.node_ticks_skipped_asleep": "node_ticks_skipped_asleep",
    "cloudmgr.node_ticks_skipped_offline": "node_ticks_skipped_offline",
    "cloudmgr.predictor_rescores": "predictor_rescores",
    "platform.crash_events": "crash_events",
    "orchestrator.placed": "placed",
    "orchestrator.rejected": "rejected",
    "orchestrator.reoffered": "reoffered",
    "cloudmgr.proactive_migrations": "proactive_migrations",
    "cloudmgr.consolidation_migrations": "consolidation_migrations",
    "cloudmgr.crash_migrations": "crash_migrations",
    "orchestrator.probe_failures": "probe_failures",
}

REPLAY_METRICS = {
    "platform.run_interval_us": "us",
    "healthlog.ingest_us": "us",
    "healthlog.records_per_interval": "count",
    "cloudmgr.predictor_observe_us": "us",
    "hypervisor.tick_us": "us",
    "hypervisor.containment_self_us": "us",
    "hypervisor.rss_growth_kb_per_node_hour": "kB/node-h",
    "cloudmgr.submit_us": "us",
    "cloudmgr.recover_from_crash_us": "us",
    "cloudmgr.drain_degraded_us": "us",
}

PER_LAYER = {
    **{name: "ms" for name in STAGE_METRICS},
    "cloudmgr.pool_overhead_ms": "ms",
    "orchestrator.serve_ms": "ms",
    "orchestrator.serve_self_ms": "ms",
    "orchestrator.deploy_ms_per_node": "ms",
    "telemetry.attributed_frac": "frac",
    "telemetry.overhead_frac": "frac",
    **{name: "count" for name in COUNTER_METRICS},
    "cloudmgr.predictor_rescore_frac": "frac",
    "cloudmgr.placement_accept_frac": "frac",
    **REPLAY_METRICS,
}

MIN_PANEL = 3
# Timed repetitions of each panel member in an untraced run.
REPS = 2
PROCESS_TIMEOUT_S = 150.0


class SetupError(Exception):
    """The checkout cannot be built or run; no result is printed."""


# --- statistics -------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --- /proc ------------------------------------------------------------

def parse_steal_ticks(stat):
    """Clock ticks the hypervisor took from this machine's CPUs (the
    `steal` column of the aggregate `cpu` line of `/proc/stat`)."""
    for line in stat.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8]) if len(fields) > 8 else 0
    raise ValueError("no aggregate cpu line")


def steal_s():
    with open("/proc/stat") as f:
        return parse_steal_ticks(f.read()) / os.sysconf("SC_CLK_TCK")


# --- correctness ------------------------------------------------------

def identity_errors(summary):
    """The accounting identities a summary breaks (empty when it holds)."""
    errors = []
    if summary["offered"] != summary["placed"] + summary["abandoned"]:
        errors.append("offered != placed + abandoned")
    if summary["placed"] != summary["completed"] + summary["evicted"] + summary["live_at_end"]:
        errors.append("placed != completed + evicted + live_at_end")
    return errors


def registry_errors(registry, summary):
    """Where a traced run's metrics registry disagrees with its summary."""
    c = registry["counters"]
    errors = []
    if c.get("arrivals", 0) != summary["offered"]:
        errors.append("registry arrivals != summary offered")
    if c.get("placed", 0) != summary["placed"]:
        errors.append("registry placed != summary placed")
    return errors


def digest_mismatches(digests):
    """Indices whose digest differs from the most common one (the first
    seen wins a tie)."""
    if not digests:
        return []
    counts = {}
    for d in digests:
        counts[d] = counts.get(d, 0) + 1
    reference = max(counts, key=lambda d: (counts[d], -digests.index(d)))
    return [i for i, d in enumerate(digests) if d != reference]


# --- processes --------------------------------------------------------

def run_measured(cmd, stdout_path):
    """Runs `cmd` with stdout to a file. Returns wall, CPU, peak RSS and
    the exit code, and the host's steal time meanwhile, measured from
    outside: `wait4` reaps the child with
    its rusage, whose `ru_maxrss` is the kernel's resident high-water
    mark, the counter `/proc/<pid>/status` shows as `VmHWM`."""
    with open(stdout_path, "wb") as out:
        steal_start = steal_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            # Interrupted (SIGTERM or ^C): take the child down with us.
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        # CPU time the host took from this machine while the child ran:
        # it stretches wall-clock figures but not `cpu_s`.
        "steal_s": steal_s() - steal_start,
    }


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sub_seed(workload_seed, k):
    """Simulation seed of panel member `k`: members sit 4096 apart and
    workload seeds 2^20 apart, so no two members share a seed."""
    return workload_seed * (1 << 20) + k * 4096


def member_secs(spec, run_seed, k):
    """Horizon of member `k`: the workload's nominal horizon plus
    0..JITTER_TICKS-1 ticks, a pure function of `(run_seed, k)`. Passed
    as `--secs`, it also places the chaos and gray campaign windows."""
    draw = hashlib.sha256(f"{run_seed}:{k}".encode()).digest()
    return spec["secs"] + TICK_S * (int.from_bytes(draw[:8], "big") % JITTER_TICKS)


def panel_size(spec, budget_s, per_member):
    """Panel members that fit `budget_s` seconds when each costs
    `per_member` processes of the workload's calibrated time. A pure
    function of the arguments, so a faster build measures the same
    inputs, not more of them."""
    return max(MIN_PANEL, int(budget_s // (spec["process_s"] * per_member)))


class Bench:
    def __init__(self, workload, run_seed, workload_seed, bin_dir, tmp):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.run_seed = run_seed
        self.workload_seed = workload_seed
        self.fleet_sim = str(bin_dir / "fleet_sim")
        self.replay = str(bin_dir / "layer_replay")
        self.tmp = tmp
        self.count = 0

    def fleet_sim_run(self, k, threads, traced=False):
        """One fresh `fleet_sim` process on panel member `k`."""
        self.count += 1
        base = self.tmp / f"p{self.count}"
        seed = sub_seed(self.workload_seed, k)
        cmd = [self.fleet_sim, "--cluster", *self.spec["flags"], "--seed", str(seed),
               "--secs", str(member_secs(self.spec, self.run_seed, k)),
               "--threads", str(threads), "--bench", f"{base}.bench"]
        if traced:
            cmd += ["--metrics-out", f"{base}.metrics", "--trace-out", f"{base}.trace"]
        run = run_measured(cmd, f"{base}.out")
        run.update(seed=seed, threads=threads, traced=traced, errors=[])
        if run["exit"] != 0:
            run["errors"].append(f"exit code {run['exit']}")
            return run
        try:
            with open(f"{base}.out") as f:
                summary = json.load(f)
            with open(f"{base}.bench") as f:
                record = json.loads(f.read().splitlines()[-1])
            if traced:
                with open(f"{base}.metrics") as f:
                    run["registry"] = json.load(f)
                os.remove(f"{base}.trace")
        except (OSError, ValueError, IndexError) as e:
            run["errors"].append(f"unreadable output: {e}")
            return run
        run["errors"] += identity_errors(summary)
        if traced:
            run["errors"] += registry_errors(run["registry"], summary)
        run["digest"] = sha256_file(f"{base}.out")
        run["summary"] = summary
        run["record"] = record
        return run

    def replay_run(self):
        spec = self.spec
        cmd = [self.replay, *spec["flags"], "--seed", str(sub_seed(self.workload_seed, 0)),
               "--secs", str(spec["secs"])]
        out = self.tmp / "replay.out"
        run = run_measured(cmd, out)
        run["errors"] = []
        if run["exit"] != 0:
            run["errors"].append(f"replay exit code {run['exit']}")
            return run
        try:
            with open(out) as f:
                run["values"] = json.loads(f.read().splitlines()[-1])
        except (OSError, ValueError, IndexError) as e:
            run["errors"].append(f"unreadable replay output: {e}")
        return run


def mark_digest_failures(runs):
    """Among runs of the same simulation seed, marks those whose stdout
    differs from the others' as failed."""
    by_seed = {}
    for r in runs:
        if "digest" in r:
            by_seed.setdefault(r["seed"], []).append(r)
    for group in by_seed.values():
        for i in digest_mismatches([r["digest"] for r in group]):
            group[i]["errors"].append("stdout differs from another run of the same seed")


def panel_values(members):
    """Per-member end-to-end values of the good timed runs, given as one
    list of repetitions per member. Host-time and memory figures take
    each member's least disturbed repetition (the minimum): interference
    from other tenants only ever slows a process down. The simulated
    outcomes are the same in every repetition."""
    def least(f):
        return [min(f(r) for r in reps) for reps in members]

    values = {
        "setup_s": least(lambda r: r["record"]["deploy_ms"] / 1e3),
        "serve_us_per_node_tick": least(
            lambda r: r["record"]["serve_ms"] * 1e3 / (r["summary"]["nodes"] * r["summary"]["ticks"])),
        "wall_s": least(lambda r: r["wall_s"]),
        "cpu_s": least(lambda r: r["cpu_s"]),
        "peak_rss_mb": least(lambda r: r["peak_rss_mb"]),
    }
    summaries = [reps[0]["summary"] for reps in members]
    values["sim_energy_mj"] = [s["energy_j"] / 1e6 for s in summaries]
    values["vm_served_frac"] = [1.0 - (s["abandoned"] + s["evicted"]) / s["offered"] for s in summaries]
    values["sla_met_frac"] = [1.0 - s["sla_violations"] / s["placed"] for s in summaries]
    values["mean_availability"] = [s["mean_availability"] for s in summaries]
    return values


# --- measurement ------------------------------------------------------

def measure_untraced(bench, seconds):
    spec = bench.spec
    # One process slot goes to the cross-thread check.
    members = panel_size(spec, seconds - spec["process_s"], REPS)
    # Member 0 once more at another worker count: the cross-thread
    # byte-compare. It runs first, which also warms the page cache.
    check = bench.fleet_sim_run(0, spec["check_threads"])
    # The repetitions interleave, so a burst of interference lands on
    # different members in each round.
    timed = [bench.fleet_sim_run(k, spec["threads"]) for _ in range(REPS) for k in range(members)]
    runs = [check] + timed
    mark_digest_failures(runs)
    good = [reps for reps in (timed[k::members] for k in range(members))
            if not any(r["errors"] for r in reps)]
    return runs, panel_values(good) if good else {}, END_TO_END


def stage_values(record):
    st = record["stages"]
    workers = record["threads"]
    serve = record["serve_ms"]
    out = {name: st[key] for name, key in STAGE_METRICS.items()}
    out["cloudmgr.pool_overhead_ms"] = (
        st["tick_wall_ms"] - (st["hypervisor_tick_ms"] + st["predictor_ms"]) / workers)
    attributed = sum(st[k] for k in TOP_LEVEL_STAGES)
    out["orchestrator.serve_ms"] = serve
    out["orchestrator.serve_self_ms"] = serve - attributed
    out["orchestrator.deploy_ms_per_node"] = record["deploy_ms_per_node"]
    out["telemetry.attributed_frac"] = attributed / serve
    return out


def counter_values(registry):
    c = registry["counters"]
    out = {name: c.get(key, 0) for name, key in COUNTER_METRICS.items()}
    ticks = out["cloudmgr.node_ticks"]
    out["cloudmgr.predictor_rescore_frac"] = out["cloudmgr.predictor_rescores"] / max(ticks, 1)
    attempts = c.get("arrivals", 0) + c.get("reoffered", 0)
    out["cloudmgr.placement_accept_frac"] = out["orchestrator.placed"] / max(attempts, 1)
    return out


def measure_traced(bench, seconds):
    spec = bench.spec
    replay = bench.replay_run()
    # Each member runs untraced, then traced: tracing must not perturb
    # the simulation, and the pair gives the tracing overhead.
    pairs = [(bench.fleet_sim_run(k, spec["threads"]),
              bench.fleet_sim_run(k, spec["threads"], traced=True))
             for k in range(panel_size(spec, seconds - spec["replay_s"], 2))]
    runs = [r for pair in pairs for r in pair]
    mark_digest_failures(runs)
    runs.append(replay)
    good = [(u, t) for u, t in pairs if not u["errors"] and not t["errors"]]
    values = {}
    if good and not replay["errors"]:
        per_run = [{**stage_values(t["record"]), **counter_values(t["registry"])} for _, t in good]
        values = {name: [v[name] for v in per_run] for name in per_run[0]}
        values["telemetry.overhead_frac"] = [
            (t["record"]["serve_ms"] - u["record"]["serve_ms"]) / u["record"]["serve_ms"]
            for u, t in good]
        for name in REPLAY_METRICS:
            values[name] = [replay["values"][name]]
    return runs, values, PER_LAYER


# --- reporting --------------------------------------------------------

def host_context(bench, runs):
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            host_cores = sum(1 for l in f if l.startswith("processor"))
    except OSError:
        host_cores = 0
    wall = sum(r["wall_s"] for r in runs)
    steal = sum(r["steal_s"] for r in runs)
    return (f"host: nproc {len(os.sched_getaffinity(0))}, threads {bench.spec['threads']}, "
            f"host_cores {host_cores}, {rustc}, build profile release\n"
            f"host steal: {steal:.2f} CPU-s taken by the hypervisor over {wall:.1f} s of "
            f"process wall time ({steal / (wall * len(os.sched_getaffinity(0))):.1%} of capacity)")


CAVEATS = [
    "caveat: the model is unvalidated against hardware; the repository holds no reference "
    "measurements, so simulated metrics are regression guards, not accuracy figures.",
    "caveat: the single-run BENCH_*.json rows are historical, not baselines for this benchmark.",
]


def report(bench, runs, values, units, trace):
    print(f"rackbench: workload {bench.name}, run seed {bench.run_seed}, workload seed "
          f"{bench.workload_seed} (held out: {HELD_OUT_WORKLOAD_SEED}), trace {trace}, "
          f"{len(runs)} processes")
    print(host_context(bench, runs))
    for line in CAVEATS:
        print(line)
    print(f"{'metric':<42} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    for name, unit in units.items():
        if name not in values:
            continue
        q1, med, q3 = quartiles(values[name])
        print(f"{name:<42} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values[name]):>3}  {unit}")
    if trace:
        record = next((r["record"] for r in runs if r.get("traced") and not r["errors"]), None)
        if record:
            serve = record["serve_ms"]
            print(f"ledger (first traced process, serve {serve:.1f} ms):")
            for key in TOP_LEVEL_STAGES:
                print(f"  {key:<16} {record['stages'][key]:>10.1f} ms  {record['stages'][key] / serve:6.1%}")
            self_ms = serve - sum(record["stages"][k] for k in TOP_LEVEL_STAGES)
            print(f"  {'serve_self_ms':<16} {self_ms:>10.1f} ms  {self_ms / serve:6.1%}")
        replay = runs[-1].get("values")
        if replay:
            print(f"replay: {replay['replay.intervals']:.0f} node-intervals, "
                  f"{replay['replay.submits']:.0f} submits")
    else:
        by_seed = {r["seed"]: r["summary"] for r in runs if "summary" in r}
        summaries = list(by_seed.values())
        if summaries:
            total = {k: sum(s[k] for s in summaries)
                     for k in ("offered", "placed", "abandoned", "evicted", "sla_violations")}
            lost = total["abandoned"] + total["evicted"]
            print(f"outcome over the panel: offered {total['offered']} placed {total['placed']} "
                  f"abandoned {total['abandoned']} evicted {total['evicted']} "
                  f"sla_violations {total['sla_violations']} vm_loss_frac {lost / total['offered']:.6f}")
    digests = {}
    for r in runs:
        if "digest" in r and not r["errors"]:
            digests.setdefault(r["seed"], r["digest"])
    panel = hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode()).hexdigest()
    print(f"stdout digest over {len(digests)} seeds: sha256 {panel}")
    for seed in sorted(digests):
        print(f"  seed {seed}: sha256 {digests[seed]}")
    failed = [r for r in runs if r["errors"]]
    print(f"failed_frac: {len(failed)}/{len(runs)}")
    for r in failed:
        print(f"  failed run: {'; '.join(r['errors'])}")


def result_line(runs, values, units):
    failed = sum(1 for r in runs if r["errors"])
    missing = [name for name in units if name not in values]
    metrics = {name: {"value": quartiles(values[name])[1], "unit": unit}
               for name, unit in units.items() if name in values}
    return {
        "correct": failed == 0 and not missing,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


# --- main -------------------------------------------------------------

def build():
    """Builds both binaries; returns their directory."""
    if not (ROOT / "Cargo.toml").is_file():
        raise SetupError(f"no Cargo.toml at {ROOT}: not a checkout of the repository")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "uniserver-bench", "--bin", "fleet_sim"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", REPLAY_MANIFEST],
    ):
        try:
            subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            raise SetupError(f"build failed: {' '.join(cmd)}: {e}") from e
    return ROOT / env["CARGO_TARGET_DIR"] / "release"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="run seed: member horizons")
    parser.add_argument("--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
                        help="fixes the panel's racks; %d is held out" % HELD_OUT_WORKLOAD_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like ^C, so no child outlives it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.workload_seed < 0 or args.seconds <= 0:
        parser.error("seeds must be non-negative and --seconds positive")
    try:
        bin_dir = build()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    tmp = ROOT / ".rackbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.workload_seed, bin_dir, tmp)
        measure = measure_traced if args.trace else measure_untraced
        runs, values, units = measure(bench, args.seconds)
        report(bench, runs, values, units, args.trace)
        result = result_line(runs, values, units)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
