"""Per-tenant fleet statistics with one boolean mask per tenant: the
oracle of :meth:`repro.cdi.FleetResult.tenant_stats`, which groups the
rows by tenant in one pass."""

from typing import Dict

import numpy as np

from repro.cdi import TenantStats


def tenant_stats(result) -> Dict[str, TenantStats]:
    """Per-tenant queue-wait / usage / penalty distributions."""
    out: Dict[str, TenantStats] = {}
    jobs = result.jobs
    for tidx, name in enumerate(jobs.tenant_names):
        mask = jobs.tenant == tidx
        n = int(mask.sum())
        if n == 0:
            continue
        waits = result.wait_s[mask]
        pen_p50 = pen_p99 = None
        if result.penalty is not None:
            pens = result.penalty[mask]
            pens = pens[~np.isnan(pens)]
            if len(pens):
                pen_p50 = float(np.percentile(pens, 50))
                pen_p99 = float(np.percentile(pens, 99))
        out[name] = TenantStats(
            name=name,
            jobs=n,
            mean_wait_s=float(waits.mean()),
            wait_p50_s=float(np.percentile(waits, 50)),
            wait_p99_s=float(np.percentile(waits, 99)),
            gpu_busy_s=float((jobs.gpus[mask] * jobs.duration_s[mask]).sum()),
            trapped_core_hours=float(result.trapped_core_s[mask].sum())
            / 3600.0,
            trapped_gpu_hours=float(result.trapped_gpu_s[mask].sum())
            / 3600.0,
            penalty_p50=pen_p50,
            penalty_p99=pen_p99,
        )
    return out
