"""Checks of a fleet-week result that share no code with the engine.

The fleet engine is compared bit-for-bit with the scalar DES only on a
prefix of the stream: the DES is far too slow for a week. These checks
cover the whole week, each from the definition of the result rather
than from the engine's code:

* :func:`schedule_problems` -- every pool stays within its capacity,
  grants are strict FIFO in arrival order, and a job granted later than
  both its own arrival and its predecessor's grant did not fit the
  capacity left free just before;
* :func:`placement_problems` -- a plain replay of best-fit packing over
  racks gives every GPU job the engine's racks and slack;
* :func:`penalty_problems` -- every GPU job's penalty is the response
  surface's own answer at that job's slack.

Each returns a mask of the jobs it finds wrong (input order) and one
line per kind of problem.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = ["penalty_problems", "placement_problems", "schedule_problems"]

Problems = Tuple[np.ndarray, List[str]]

#: Surrogate and surface interpolate in log-slack with different
#: arithmetic; their answers agree to rounding.
PENALTY_RTOL = 1e-9
PENALTY_ATOL = 1e-12


def _pools(res):
    """``(name, capacity, amount, grant, eligible)`` of each pool."""
    jobs, cluster = res.jobs, res.cluster
    if res.mode == "traditional":
        need = np.maximum.reduce([
            np.ones_like(jobs.cores),
            -(-jobs.cores // cluster.cores_per_node),
            -(-jobs.gpus // cluster.gpus_per_node),
        ])
        return [("nodes", cluster.nodes, need, res.start_s, jobs.arrival_s)]
    # CDI holds its cores from their grant and queues for GPUs from then.
    return [
        ("cores", cluster.total_cores, jobs.cores, res.cores_start_s,
         jobs.arrival_s),
        ("gpus", cluster.total_gpus, jobs.gpus, res.start_s,
         res.cores_start_s),
    ]


def schedule_problems(res) -> Problems:
    """Capacity, FIFO order and greedy admission of every pool."""
    jobs = res.jobs
    bad = np.zeros(len(jobs), dtype=bool)
    problems: List[str] = []
    order = np.argsort(jobs.arrival_s, kind="stable")
    for pool, cap, amount, grant, eligible in _pools(res):
        idx = order[amount[order] > 0]
        a, g, e = amount[idx], grant[idx], eligible[idx]
        m = len(idx)

        # Usage over time; at one instant releases come before grants.
        times = np.concatenate([g, res.end_s[idx]])
        delta = np.concatenate([a, -a])
        ev = np.lexsort((delta, times))
        usage = np.cumsum(delta[ev])
        over = np.zeros(m, dtype=bool)
        over[ev[(usage > cap) & (ev < m)]] = True

        overtaken = np.zeros(m, dtype=bool)
        overtaken[1:] = g[1:] < g[:-1]

        # A job that waited past both its eligibility and its
        # predecessor's grant was the queue head and did not fit.
        prev = np.concatenate([[-np.inf], g[:-1]])
        late = g > np.maximum(e, prev)
        last = np.searchsorted(times[ev], g, side="left") - 1
        used = np.where(last >= 0, usage[np.maximum(last, 0)], 0)
        idle = late & (cap - used >= a)

        for mask, what in (
            (g < e, "granted before they were eligible"),
            (overtaken, "granted ahead of an earlier arrival"),
            (over, f"granted beyond the {cap} {pool}"),
            (idle, f"left waiting while enough {pool} were free"),
        ):
            if mask.any():
                bad[idx[mask]] = True
                problems.append(f"{res.mode}: {int(mask.sum())} jobs {what}")
    return bad, problems


def placement_problems(res, topology) -> Problems:
    """Replay best-fit packing in grant order; compare racks and slack.

    A grant takes the rack with the fewest free GPUs that holds the
    whole job (lowest index on ties); when none does, it takes the
    racks with the most free GPUs first. At one instant releases come
    before grants, and grants follow arrival order.
    """
    jobs = res.jobs
    n = len(jobs)
    order = np.argsort(jobs.arrival_s, kind="stable")
    gpu_jobs = order[jobs.gpus[order] > 0].tolist()
    start, end = res.start_s.tolist(), res.end_s.tolist()
    gpus = jobs.gpus.tolist()
    events = sorted(
        [(start[i], 1, k) for k, i in enumerate(gpu_jobs)]
        + [(end[i], 0, k) for k, i in enumerate(gpu_jobs)]
    )
    free = [topology.gpus_per_rack] * topology.racks
    racks: Dict[int, List[Tuple[int, int]]] = {}
    slack = np.full(n, np.nan)
    unplaceable = np.zeros(n, dtype=bool)
    for _t, is_grant, k in events:
        i = gpu_jobs[k]
        if not is_grant:
            for rack, count in racks[i]:
                free[rack] += count
            continue
        need = gpus[i]
        whole = [(f, r) for r, f in enumerate(free) if f >= need]
        if whole:
            taken = [(min(whole)[1], need)]
        else:
            taken, remaining = [], need
            for neg_free, rack in sorted((-f, r) for r, f in enumerate(free)):
                if remaining == 0:
                    break
                count = min(-neg_free, remaining)
                if count > 0:
                    taken.append((rack, count))
                    remaining -= count
            unplaceable[i] = remaining > 0
        for rack, count in taken:
            free[rack] -= count
        racks[i] = taken
        slack[i] = max(topology.rack_slack_s[r] for r, _c in taken)

    got = res.rack_of_gpus or [[] for _ in range(n)]
    # A job without GPUs holds no racks; a GPU job holds the replay's.
    wrong_racks = np.array([bool(placed) for placed in got], dtype=bool)
    for i, taken in racks.items():
        wrong_racks[i] = list(map(tuple, got[i])) != taken
    got_slack = res.slack_s if res.slack_s is not None else np.full(n, np.nan)
    wrong_slack = ~(
        (got_slack == slack) | (np.isnan(got_slack) & np.isnan(slack))
    )
    bad = unplaceable | wrong_racks | wrong_slack
    problems = [
        f"placement: {int(mask.sum())} jobs {what}"
        for mask, what in (
            (unplaceable, "found too few free GPUs in the racks"),
            (wrong_racks, "placed on other racks than best-fit packing"),
            (wrong_slack, "given another slack than their racks'"),
        )
        if mask.any()
    ]
    return bad, problems


def penalty_problems(res, surface, matrix_size: int, threads: int) -> Problems:
    """Each GPU job's penalty against ``surface.penalty`` at its slack."""
    jobs = res.jobs
    n = len(jobs)
    gpu = jobs.gpus > 0
    slack = res.slack_s if res.slack_s is not None else np.full(n, np.nan)
    got = res.penalty if res.penalty is not None else np.full(n, np.nan)
    want = np.full(n, np.nan)
    for s in np.unique(slack[gpu & ~np.isnan(slack)]).tolist():
        want[slack == s] = surface.penalty(matrix_size, s, threads)
    close = np.isclose(got, want, rtol=PENALTY_RTOL, atol=PENALTY_ATOL)
    bad = np.where(gpu, ~close, ~np.isnan(got))
    problems = []
    if bad.any():
        refused = int((gpu & np.isnan(got)).sum())
        problems.append(
            f"penalty: {int(bad.sum())} jobs differ from the response "
            f"surface ({refused} refused)"
        )
    return bad, problems
