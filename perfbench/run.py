#!/usr/bin/env python3
"""BIRP benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload fig6_small --seed 1 --seconds 35 --trace 0

Run from the root of the repository. Builds the `perfbench` binary (a
package of its own next to this file) in $CARGO_TARGET_DIR, default
`.bench_build`, then runs it as one process per pass until --seconds have
passed, and prints the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) as the last line of standard output. See README.md.

Exits 1 without a result when the build fails, and with `"correct": false`
when a correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
import benchmath as bm  # noqa: E402

# Inputs per run: pass j runs input j of the seed. Quality metrics pool all
# of them, so they are steady across seeds; a cheap pass affords more.
WORKLOADS = {"fig6_small": 48, "fig7_large": 16, "fleet_faults": 8}
PASS_TIMEOUT_S = 150
# Untraced runs time setup in this many short processes, spread evenly over
# the run: the host's speed drifts over seconds, and one contiguous block of
# setup samples would read a single phase of it.
SETUP_CHUNKS = 8
# A run is marked not comparable when median steal is above this share of
# CPU time: the host took the CPU away for long stretches, which the host
# factor, read before and after each pass, does not see.
COMPARABLE_STEAL_PCT = 5.0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Timed passes run on one CPU, so the program sees one worker. With more,
# every branch-and-bound wave spawns fresh threads and its wall time follows
# host steal (README.md, "Why one worker"); the traced run measures that
# fan-out in a pass of its own on every CPU.
PIN_CPU = max(os.sched_getaffinity(0))


def fail_setup(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; return its path and the target directory."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail_setup(f"build failed: {e}")
    if done.returncode != 0:
        fail_setup(f"build failed with exit code {done.returncode}")
    return os.path.abspath(os.path.join(target, "release", "perfbench")), os.path.abspath(target)


def cpu_jiffies():
    """The aggregate `cpu` line of /proc/stat (empty where unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


def pin():
    os.sched_setaffinity(0, {PIN_CPU})


def spawn(binary, args, pinned=True):
    """Run one benchmark process to completion. Returns (record, rusage,
    steal_pct, error); the record is its last stdout line, parsed."""
    before = cpu_jiffies()
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, preexec_fn=pin if pinned else None)
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = cpu_jiffies()
    steal = bm.steal_pct(before, after) if before and after else 0.0
    if proc.returncode != 0:
        return None, usage, steal, f"{' '.join(args[:5])}: exit code {proc.returncode}"
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), usage, steal, None
    except (ValueError, IndexError) as e:
        return None, usage, steal, f"{' '.join(args[:5])}: unreadable output ({e})"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary, target = build()
    scratch = os.path.join(target, "perfbench-scratch")
    inputs = WORKLOADS[args.workload]
    errors = []
    passes = []  # pinned to one CPU
    fanouts = []  # on every CPU (traced runs)
    steals = []
    ctx = [0, 0]

    def run_pass(j, extra, pinned=True):
        sub_seed = args.seed * 100 + j
        rec, usage, steal, err = spawn(
            binary,
            ["pass", "--workload", args.workload, "--seed", str(sub_seed), "--scratch", scratch] + extra,
            pinned,
        )
        steals.append(steal)
        ctx[0] += usage.ru_nvcsw
        ctx[1] += usage.ru_nivcsw
        if err:
            errors.append(err)
            return None
        rec.update(
            input=j,
            utime_s=usage.ru_utime,
            stime_s=usage.ru_stime,
            nvcsw=usage.ru_nvcsw,
            nivcsw=usage.ru_nivcsw,
            maxrss_mb=usage.ru_maxrss / 1024.0,
        )
        (passes if pinned else fanouts).append(rec)
        return rec

    setup_samples = []
    chunks = [0]

    def run_setup():
        # Chunk k sets up inputs (SETUP_CHUNKS * seed + k) * 10^4, +1, ...
        first = (SETUP_CHUNKS * args.seed + chunks[0]) * 10_000
        rec, _, steal, err = spawn(binary, ["setup", "--workload", args.workload, "--seed", str(first)])
        steals.append(steal)
        chunks[0] += 1
        if err:
            errors.append(err)
        else:
            setup_samples.extend(s / f for s, f in zip(rec["setup_s"], rec["host_factor"]))

    start = time.monotonic()
    # Passes cycle through the inputs until the time is up, with the setup
    # processes in between. Untraced, every
    # input runs once and at least one runs twice (the repeat gate); traced,
    # each input runs as an untraced + traced pair, plus an untraced pass on
    # every CPU for the fan-out figures. A pass is not started when the mean
    # pass so far would overrun the time.
    pairs = []
    j = 0
    least = 1 if args.trace else inputs + 1
    while not errors:
        elapsed = time.monotonic() - start
        if not args.trace and chunks[0] < SETUP_CHUNKS and elapsed >= chunks[0] * args.seconds / SETUP_CHUNKS:
            run_setup()
            continue
        done = len(pairs) if args.trace else len(passes)
        if done >= least:
            mean = elapsed / done
            if elapsed + mean > args.seconds:
                break
        if args.trace:
            untraced = run_pass(j % inputs, ["--record"])
            traced = run_pass(j % inputs, ["--trace"]) if untraced else None
            fanout = run_pass(j % inputs, [], pinned=False) if traced else None
            if fanout:
                pairs.append((untraced, traced, fanout))
        else:
            run_pass(j % inputs, [])
        j += 1
    while not args.trace and not errors and chunks[0] < SETUP_CHUNKS:
        run_setup()

    check(passes, fanouts, inputs, errors)
    attempted = sum(p["slots"] for p in passes + fanouts) or 1
    failed = sum(p["panics"] for p in passes + fanouts)
    workers = sorted({p["workers"] for p in passes})
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} workers={','.join(map(str, workers))} "
        f"cores={os.cpu_count()} passes={len(passes)} inputs={inputs} wall_s={time.monotonic() - start:.1f}"
    )
    print(json.dumps({"host": host(passes, fanouts, steals, ctx)}))
    metrics = {}
    if not errors:
        if args.trace:
            metrics = per_layer(pairs)
        else:
            metrics = end_to_end(passes, setup_samples, inputs)
    for e in errors:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed + len(errors), "metrics": metrics}))
    sys.exit(0 if correct else 1)


def host(passes, fanouts, steals, ctx):
    """Host noise beside the timing metrics: steal time from /proc/stat over
    each process, the processes' context switches, and the host factor of
    the passes (how many times slower than nominal the host ran; every
    timing is divided by it), with its spread over the run. `comparable` is
    false when steal was high; the run's timings then say more about the
    host than about the program."""
    factors = [p["host_factor"] for p in passes]
    steal = bm.median(steals) if steals else 0.0
    noise = {
        "workers": sorted({p["workers"] for p in passes}),
        "cores": os.cpu_count(),
        "steal_pct": steal,
        "steal_pct_max": max(steals, default=0.0),
        "ctx_voluntary": ctx[0],
        "ctx_involuntary": ctx[1],
        "host_factor": bm.median(factors) if factors else 0.0,
        "host_factor_spread": bm.ratio(bm.iqr(factors), bm.median(factors)) if len(factors) >= 2 else 0.0,
        "comparable": steal <= COMPARABLE_STEAL_PCT,
    }
    if fanouts:
        noise["fanout_workers"] = sorted({f["workers"] for f in fanouts})
    return noise


def quality_key(p):
    return (p["total_loss_bits"], p["slo_failures"], p["served"], p["dropped"], p["offered"])


def check(passes, fanouts, inputs, errors):
    """Correctness gates; appends one message per violation."""
    first = {}
    for p in passes + fanouts:
        tag = f"input {p['input']}"
        if p["served"] + p["dropped"] != p["offered"]:
            errors.append(f"{tag}: served {p['served']} + dropped {p['dropped']} != offered {p['offered']}")
        if p["panics"]:
            errors.append(f"{tag}: {p['panics']} decide call(s) panicked")
        # Same input, same workers: quality must repeat bitwise, traced or
        # not (telemetry must not touch the decision path).
        key = (p["input"], p["workers"])
        if key in first and quality_key(first[key]) != quality_key(p):
            errors.append(f"{tag}: a repeated pass changed the quality metrics")
        first.setdefault(key, p)
    repeated = len(passes) > len({p["input"] for p in passes})
    if not errors and not repeated:
        errors.append(f"no input ran twice; the repeat gate needs more than {inputs} passes")
    if len({p["workers"] for p in passes}) > 1:
        errors.append("worker count changed between passes")
    if not passes:
        errors.append("no pass completed")


def balanced_median(f, passes):
    """Median of f over passes, every input weighing the same."""
    return bm.percentile([(p["input"], f(p)) for p in passes], 50)


def end_to_end(passes, setup_samples, inputs):
    # The first pass of every input: the same set of passes in every run.
    firsts = [next(p for p in passes if p["input"] == i) for i in range(inputs)]
    q = bm.quality(firsts)
    samples = [(p["input"], bm.at_nominal(p, x)) for p in passes for x in p["decide_ms"]]
    decide = {}
    for qq in (50, 95):
        decide[qq] = bm.percentile(samples, qq)
        beyond = sum(x > decide[qq] for _, x in samples)
        print(f"decide_ms_p{qq} over {len(samples)} samples ({beyond} beyond it): {decide[qq]:.4f} ms")
    print(f"drop_pct over {inputs} inputs: {q['drop_pct']:.4f} %")
    measured = balanced_median(lambda p: bm.slots_per_s(p) / p["host_factor"], passes)
    print(f"slots_per_s as measured, before the host factor: {measured:.2f}")
    values = {
        "loss_per_slot": (q["loss_per_slot"], "loss/slot"),
        "slo_fail_pct": (q["slo_fail_pct"], "%"),
        "decide_ms_p50": (decide[50], "ms"),
        "decide_ms_p95": (decide[95], "ms"),
        "slots_per_s": (balanced_median(bm.slots_per_s, passes), "1/s"),
        "cpu_ms_per_slot": (balanced_median(bm.cpu_ms_per_slot, passes), "ms"),
        # Peak over the inputs, not a median: a pass's peak depends on when
        # the checkpoint writer thread runs, so it takes one of two levels.
        "peak_rss_mb": (max(p["maxrss_mb"] for p in firsts), "MB"),
        "setup_s": (bm.median(setup_samples), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(pairs):
    untraced = [u for u, _, _ in pairs]
    traced = [t for _, t, _ in pairs]
    fanout = [f for _, _, f in pairs]
    med = balanced_median

    values = {}
    for name in traced[0]["self_ms"]:
        values[name] = (med(lambda p: bm.at_nominal(p, p["self_ms"][name]) / p["slots"], traced), "ms/slot")
    ratios = [(p["input"], bm.counter_ratios(p["counters"], p["slots"])) for p in traced]
    units = {"reuse.full_solves": "count", "mab.pulls": "count"}
    for name in ratios[0][1]:
        values[name] = (bm.percentile([(i, r[name]) for i, r in ratios], 50), units.get(name, "ratio"))
    values["solver.waves_per_slot"] = (med(lambda p: p["waves"] / p["slots"], traced), "1/slot")
    cpu_ratio = [(u["input"], bm.cpu_ms_per_slot(f) / bm.cpu_ms_per_slot(u)) for u, _, f in pairs]
    values["proc.fanout_cpu_ratio"] = (bm.percentile(cpu_ratio, 50), "ratio")
    values["proc.sys_cpu_pct"] = (med(bm.sys_cpu_pct, fanout), "%")
    values["proc.ctx_switches_per_slot"] = (med(bm.ctx_switches_per_slot, fanout), "1/slot")
    per_slot = {
        "mab.observe_ms_per_slot": lambda p: p["observe_ms"],
        "sim.execute_ms_per_slot": lambda p: p["replay"]["execute_ms"],
        "sim.validate_ms_per_slot": lambda p: p["replay"]["validate_ms"],
    }
    for name, ms in per_slot.items():
        values[name] = (med(lambda p: bm.at_nominal(p, ms(p)) / p["slots"], untraced), "ms/slot")
    values["runner.non_decide_ms_per_slot"] = (med(bm.non_decide_ms_per_slot, untraced), "ms/slot")
    values["runner.drop_pct"] = (med(lambda p: bm.quality([p])["drop_pct"], untraced), "%")
    values["health.quarantines"] = (med(lambda p: p.get("quarantines", 0), untraced), "count")
    values["health.probes"] = (med(lambda p: p.get("probes", 0), untraced), "count")
    values["runner.rerouted"] = (med(lambda p: p.get("rerouted", 0), untraced), "count")
    none = {"bytes": 0, "save_ms": 0.0, "load_ms": 0.0}
    values["checkpoint.bytes"] = (med(lambda p: p.get("checkpoint", none)["bytes"], untraced), "B")
    for key in ("save_ms", "load_ms"):
        values[f"checkpoint.{key}"] = (med(lambda p: bm.at_nominal(p, p.get("checkpoint", none)[key]), untraced), "ms")
    overhead = [(u["input"], bm.overhead_pct(u, t)) for u, t, _ in pairs]
    values["telemetry.overhead_pct"] = (bm.percentile(overhead, 50), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


if __name__ == "__main__":
    main()
