"""Arithmetic of the benchmark, kept apart from process handling so that it
can be tested on hand-made numbers (test_benchmath.py).

Every ratio below names its base. A ratio whose base is zero reads 0.0
(for example the dive hit rate on a workload that never dives).

Every time below is at nominal host speed: the time measured in a pass
divided by that pass's `host_factor`, how many times slower than nominal
the host ran over the pass (README.md, "Host speed").
"""

import collections
import math
import statistics


def percentile(samples, q):
    """Nearest-rank percentile of `(input, value)` samples in which every
    input weighs the same, however many samples it contributed: each sample
    of an input with k samples weighs 1/k. The result is the smallest value
    with at least q% of the total weight at or below it, so it is always an
    observed sample; no interpolation or histogram bucket can invent one.
    With one sample per input this is the plain nearest-rank rule (rank
    ceil(q/100 * n)).

    Equal weights keep the mix of inputs behind a figure fixed: a run that
    is fast enough to repeat some inputs does not tilt the figure towards
    them."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    counts = collections.Counter(i for i, _ in samples)
    # Integer weights scale / k keep the comparison exact.
    scale = math.lcm(*counts.values())
    total = scale * len(counts)
    seen = 0
    for i, value in sorted(samples, key=lambda s: s[1]):
        seen += scale // counts[i]
        if 100 * seen >= q * total:
            return value
    raise AssertionError("unreachable: the weights sum to the total")


def median(values):
    return statistics.median(values)


def iqr(values):
    """Distance between the first and third quartiles (at least two values)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def ratio(part, base):
    """part / base, or 0.0 when the base is empty."""
    return part / base if base else 0.0


def quality(passes):
    """The paper's quality metrics pooled over passes (one pass per input).

    loss_per_slot -- total loss / slots run.
    slo_fail_pct  -- 100 * SLO failures / requests with an outcome
                     (served + dropped); a dropped request is a failure.
    drop_pct      -- 100 * dropped / requests offered.
    """
    slots = sum(p["slots"] for p in passes)
    loss = math.fsum(p["total_loss"] for p in passes)
    failures = sum(p["slo_failures"] for p in passes)
    outcomes = sum(p["served"] + p["dropped"] for p in passes)
    dropped = sum(p["dropped"] for p in passes)
    offered = sum(p["offered"] for p in passes)
    return {
        "loss_per_slot": ratio(loss, slots),
        "slo_fail_pct": 100.0 * ratio(failures, outcomes),
        "drop_pct": 100.0 * ratio(dropped, offered),
    }


def at_nominal(p, t):
    """A time `t` measured in pass `p`, at nominal host speed."""
    return t / p["host_factor"]


def slots_per_s(p):
    """Slots per second of run-loop wall time; the loop covers decide,
    validate, execute, observe and the runner's bookkeeping. Time the
    benchmark spent copying decisions for the replay is taken out, and
    `wall_s` already leaves out the host-speed readings inside the loop."""
    return p["slots"] / at_nominal(p, p["wall_s"] - p["record_ms"] / 1e3)


def cpu_ms_per_slot(p):
    """Process user + system CPU (all threads) per slot run, less the host
    kernel's runs in the process (timed by wall clock; it runs alone)."""
    return at_nominal(p, 1e3 * (p["utime_s"] + p["stime_s"]) - p["host_kernel_ms"]) / p["slots"]


def sys_cpu_pct(p):
    """System CPU as a share of the process's user + system CPU."""
    return 100.0 * ratio(p["stime_s"], p["utime_s"] + p["stime_s"])


def ctx_switches_per_slot(p):
    """Voluntary + involuntary context switches of the process per slot."""
    return ratio(p["nvcsw"] + p["nivcsw"], p["slots"])


def steal_pct(before, after):
    """Steal time as a share of all CPU time that passed, from two samples
    of /proc/stat's aggregate `cpu` line (lists of jiffy counters)."""
    delta = [a - b for a, b in zip(after, before)]
    steal = delta[7] if len(delta) > 7 else 0
    return 100.0 * ratio(steal, sum(delta[:8]))


def non_decide_ms_per_slot(p):
    """Run-loop wall time outside `decide`, per slot: validate, execute,
    observe and bookkeeping (decision copying for the replay taken out)."""
    return at_nominal(p, 1e3 * p["wall_s"] - p["record_ms"] - math.fsum(p["decide_ms"])) / p["slots"]


def counter_ratios(c, slots):
    """Per-layer ratios from one traced pass's telemetry counters."""
    solves = c.get("solver.solves", 0)
    skips = (
        c.get("scheduler.reuse_budget_skip", 0)
        + c.get("scheduler.reuse_warm_skip", 0)
        + c.get("scheduler.reuse_cache_hit", 0)
    )
    lps = c.get("solver.lp_warm", 0) + c.get("solver.lp_cold", 0)
    pivots = c.get("solver.warm_pivots", 0) + c.get("solver.cold_pivots", 0)
    return {
        # base: slots decided
        "reuse.skip_share": ratio(skips, slots),
        # count: branch-and-bound solves in the pass
        "reuse.full_solves": float(solves),
        # base: branch-and-bound solves
        "solver.nodes_per_solve": ratio(c.get("solver.nodes", 0), solves),
        "solver.pivots_per_solve": ratio(pivots, solves),
        "solver.refactorizations_per_solve": ratio(c.get("solver.refactorizations", 0), solves),
        "solver.degraded_share": ratio(c.get("solver.degraded", 0), solves),
        # base: LP solves (warm + cold)
        "solver.warm_lp_share": ratio(c.get("solver.lp_warm", 0), lps),
        # base: dive attempts
        "solver.dive_hit_rate": ratio(c.get("solver.dive_hits", 0), c.get("solver.dive_attempts", 0)),
        # count: MAB arm updates in the pass
        "mab.pulls": float(c.get("mab.pulls", 0)),
    }


def overhead_pct(untraced, traced):
    """Tracing overhead: how much slower the traced pass ran than the
    untraced pass of the same input, as a share of the untraced rate."""
    return 100.0 * (slots_per_s(untraced) / slots_per_s(traced) - 1.0)
