"""Birkhoff-average diagnostics.

These probes never claim ergodicity; they report whether the cross-initial-
condition spread of time averages collapses at the rate an ergodic system
would show at desk scale, under a fixed, named set of observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fiber import SkewProduct, run_steps

ERGODIC_DECAY_FACTOR = 1.5
SCAN_BLOCK_POINTS = 1 << 22   # base orbit points held by the event scan
SUM_BLOCK_POINTS = 1 << 16    # orbit points per observable sum of that scan
OBSERVABLES = ("fiber_cos", "base_cos", "product_cos")


def observable(name: str):
    """Fixed named observables so reports stay comparable across experiments."""
    if name == "fiber_cos":
        return lambda xs, ys: np.cos(2 * math.pi * ys[..., 0])
    if name == "base_cos":
        return lambda xs, ys: np.cos(2 * math.pi * xs[..., 0])
    if name == "product_cos":
        return lambda xs, ys: (np.cos(2 * math.pi * ys[..., 0])
                               * np.cos(2 * math.pi * xs[..., 0]))
    raise ValueError(f"unknown observable {name!r}; choose one of {OBSERVABLES}")


@dataclass(frozen=True)
class ErgodicReport:
    observable: str
    n_iterations: int
    n_initial_conditions: int
    seed: int
    checkpoints: tuple[int, ...]
    sigma: tuple[float, ...]
    per_ic_averages: tuple[float, ...]
    verdict: str  # ERGODIC-LIKE | NON-ERGODIC-LIKE

    @property
    def decay_ratio(self) -> float:
        return self.sigma[-1] / self.sigma[0] if self.sigma[0] > 0 else math.inf


def _scan_generic(sp, fn, xs, ys, n, checkpoints):
    sums = np.zeros(len(xs))
    sigma = []
    finals = None
    cp = set(checkpoints)
    for k in range(1, n + 1):
        sums += fn(xs, ys)
        xs, ys = sp.step(xs, ys)
        if k in cp:
            avgs = sums / k
            sigma.append(float(np.std(avgs)))
            if k == n:
                finals = avgs
    return sigma, finals


def _scan_event_driven(sp, fn, xs, ys, n, checkpoints):
    """Path for families with a quiet mask.

    The fiber state changes only where the base orbit is not quiet (an
    event).  The scan holds the base orbit one block of steps at a time and
    runs the block's events through run_steps, one row per IC; the quiet
    mask and the observable sums over the timeline go SUM_BLOCK_POINTS orbit
    points (steps times initial conditions) at a time.  A block is that long
    until the family first fires and SCAN_BLOCK_POINTS long from that block
    on, since the longer the block, the fewer the event batches.  Each initial
    condition's base point, fiber state and running sum carry over to the
    next block, so memory does not grow with n.
    """
    m = len(xs)
    family = sp.family
    sub = max(1, SUM_BLOCK_POINTS // m)
    full = max(sub, SCAN_BLOCK_POINTS // m)
    width = sub
    sums = np.zeros(m)
    sigma = []
    k0 = 0
    while k0 < n:
        steps = min(width, n - k0)
        orbit = sp.base.orbit(xs, steps)
        after, orbit = orbit[steps], orbit[:steps]   # after starts the next block
        fired = np.empty((steps, m), dtype=bool)
        for s0 in range(0, steps, sub):
            np.logical_not(family.quiet(orbit[s0:s0 + sub]), out=fired[s0:s0 + sub])
        if width < full and fired.any():
            width = full   # the family fires: redo this block at full length
            continue
        xs = after.copy()
        ic, step = np.nonzero(fired.T)   # by IC, then by step
        record = np.empty((len(ic), 1, 2))
        run_steps(family, ic, orbit[step, ic], np.zeros(len(ic), dtype=bool),
                  ys[:, None].copy(), record)
        first = np.searchsorted(ic, np.arange(m))   # each IC's first event
        # per-IC timelines end to end: the state entering the block, then one per event
        timeline = np.insert(record[:, 0], first, ys, axis=0)
        state = first + np.arange(m)
        for s0 in range(0, steps, sub):   # state: each IC's slot entering s0
            f = fired[s0:s0 + sub]
            at = np.cumsum(f, axis=0)   # events up to and including each step
            at -= f
            at += state
            vals = fn(orbit[s0:s0 + sub], timeline[at])
            state = at[-1] + f[-1]
            vals[0] += sums
            np.cumsum(vals, axis=0, out=vals)
            lo = k0 + s0
            sigma += [float(np.std(vals[cpn - 1 - lo] / cpn)) for cpn in checkpoints
                      if lo < cpn <= lo + len(vals)]
            sums = vals[-1].copy()
        ys = timeline[state]
        del orbit, after   # before the next block's orbit is made
        k0 += steps
    return sigma, sums / n


def ergodic_scan(sp: SkewProduct, obs_name: str, n: int, m_ics: int,
                 seed: int) -> ErgodicReport:
    """Cross-IC deviation of running Birkhoff averages at n/4, n/2 and n.

    ERGODIC-LIKE means sigma(n) < sigma(n/4)/1.5; deterministic given the seed.
    The family's quiet hook, asked once on the initial base points, picks
    the path: the event scan where it gives a mask, else the generic loop.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_ics < 2:
        raise ValueError("need at least two initial conditions")
    fn = observable(obs_name)
    rng = np.random.default_rng(seed)
    xs = rng.random((m_ics, 2))
    ys = rng.random((m_ics, 2))
    checkpoints = sorted({max(1, n // 4), max(1, n // 2), n})
    scan = _scan_generic if sp.family.quiet(xs) is None else _scan_event_driven
    sigma, finals = scan(sp, fn, xs, ys, n, checkpoints)
    s0, s_end = sigma[0], sigma[-1]
    verdict = "ERGODIC-LIKE" if s_end < s0 / ERGODIC_DECAY_FACTOR else "NON-ERGODIC-LIKE"
    return ErgodicReport(observable=obs_name, n_iterations=n,
                         n_initial_conditions=m_ics, seed=seed,
                         checkpoints=tuple(checkpoints), sigma=tuple(sigma),
                         per_ic_averages=tuple(float(a) for a in finals),
                         verdict=verdict)
