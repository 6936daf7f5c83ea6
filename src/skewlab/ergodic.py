"""Birkhoff-average diagnostics and su-leg shadowing checks.

These probes never claim ergodicity; they report whether the cross-initial-
condition spread of time averages collapses at the rate an ergodic system
would show at desk scale, under a fixed, named set of observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShadowFailure
from .fiber import ConstantFamily, IdentityMap, SkewProduct
from .holonomy import N_MAX_COMPOSITIONS, leaf_holonomy
from .perturbation import PerturbedFamily
from .torus import lift, torus_dist

ERGODIC_DECAY_FACTOR = 1.5
_DIST_FLOOR = 1e-13
FIRE_BLOCK = 1024   # orbit steps per block of the firing-mask prefilter
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


def birkhoff(sp: SkewProduct, obs, init, n: int) -> float:
    """Time average (1/n) sum_{k<n} obs(F^k(init)) along the exact float orbit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    fn = observable(obs) if isinstance(obs, str) else obs
    x = np.asarray(init[0], float).reshape(2)
    y = np.asarray(init[1], float).reshape(2)
    total = 0.0
    for _ in range(n):
        total += float(fn(x, y))
        x, y = sp.step(x, y)
    return total / n


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


def _frozen_between_events(family) -> bool:
    """True when fiber coordinates change only inside bump base supports."""
    return (isinstance(family, PerturbedFamily)
            and isinstance(family.inner, ConstantFamily)
            and isinstance(family.inner.fiber_map, IdentityMap))


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


def _firing_mask(bumps, orbit):
    """(n, m) mask of the orbit points, which lie in [0, 1)^2, where some
    bump's base value is > 0.

    Only points whose per-axis wrapped distance to a base centre is below its
    outer radius + 1e-9 are evaluated.  That distance differs from the one
    ``torus_dist`` computes by rounding only, far below the margin, so every
    other point has torus distance r >= outer, where the profile is exactly
    0: the mask equals ``base_value(orbit) > 0`` bitwise.  Steps go
    FIRE_BLOCK at a time, so no temporary is as large as the orbit.
    """
    fired = np.zeros(orbit.shape[:-1], dtype=bool)
    for b in bumps:
        c0, c1 = lift(b.base_center)
        reach = b.base_bump.outer_radius + 1e-9
        for k in range(0, len(orbit), FIRE_BLOCK):
            block = orbit[k:k + FIRE_BLOCK]
            a0 = np.abs(block[..., 0] - c0)
            a1 = np.abs(block[..., 1] - c1)
            near = (np.minimum(a0, 1.0 - a0) < reach) & (np.minimum(a1, 1.0 - a1) < reach)
            fired[k:k + FIRE_BLOCK][near] |= b.base_value(block[near]) > 0
    return fired


def _scan_event_driven(sp, fn, xs, ys, n, checkpoints):
    """Path for identity-fiber bump perturbations, in O(n m) memory.

    The fiber state is piecewise constant between visits of the base orbit to
    a bump support, so base orbits and firing masks vectorize, the
    j-th events of all initial conditions go through the family in one
    batch, and observables sum over a gathered fiber timeline.
    """
    m = len(xs)
    family = sp.family
    orbit = np.empty((n, m, 2))
    cur = xs
    for k in range(n):
        orbit[k] = cur
        cur = sp.base.apply(cur)
    fired = _firing_mask(family.bumps, orbit)
    ic, step = np.nonzero(fired.T)   # by IC, then by step
    # per-IC timelines laid end to end: the initial state, then one slot per event
    first = np.searchsorted(ic, np.arange(m)) + np.arange(m)
    slot = np.arange(len(ic)) + ic + 1
    timeline = np.empty((len(ic) + m, 2))
    timeline[first] = ys
    rank = np.arange(len(ic)) - np.searchsorted(ic, ic)
    order = np.argsort(rank, kind="stable")   # by rank; ICs in order within a rank
    for grp in np.split(order, np.cumsum(np.bincount(rank))[:-1]):
        timeline[slot[grp]] = family.apply(orbit[step[grp], ic[grp]],
                                           timeline[slot[grp] - 1])

    at = np.cumsum(fired, axis=0)   # events up to and including each step
    at -= fired
    at += first
    vals = fn(orbit, timeline[at])
    np.cumsum(vals, axis=0, out=vals)
    sigma = [float(np.std(vals[cpn - 1] / cpn)) for cpn in checkpoints]
    return sigma, vals[n - 1] / n


def ergodic_scan(sp: SkewProduct, obs_name: str, n: int, m_ics: int,
                 seed: int) -> ErgodicReport:
    """Cross-IC deviation of running Birkhoff averages at n/4, n/2 and n.

    ERGODIC-LIKE means sigma(n) < sigma(n/4)/1.5; deterministic given the seed.
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
    if _frozen_between_events(sp.family):
        sigma, finals = _scan_event_driven(sp, fn, xs, ys, n, checkpoints)
    else:
        sigma, finals = _scan_generic(sp, fn, xs, ys, n, checkpoints)
    s0, s_end = sigma[0], sigma[-1]
    verdict = "ERGODIC-LIKE" if s_end < s0 / ERGODIC_DECAY_FACTOR else "NON-ERGODIC-LIKE"
    return ErgodicReport(observable=obs_name, n_iterations=n,
                         n_initial_conditions=m_ics, seed=seed,
                         checkpoints=tuple(checkpoints), sigma=tuple(sigma),
                         per_ic_averages=tuple(float(a) for a in finals),
                         verdict=verdict)


@dataclass(frozen=True)
class ShadowReport:
    kind: str
    distances: np.ndarray
    ratio_estimate: float


def shadow_check(sp: SkewProduct, leg, v, n_max: int = 50) -> ShadowReport:
    """Contraction table for an su-leg pairing (x, v) with (y, H(v)).

    The base pair is the holonomy's own anchored orbit pair, so its gap is
    |s| * |rate|^k; the fiber pair evolves through the true fiber maps.
    Distances must decay at ratio <= lambda + 0.1 beyond a burn-in, else
    ShadowFailure.  Endpoints off a common leaf raise BrokenPath.
    """
    kind, x, y = leg
    holonomy = leaf_holonomy(sp, kind, x, y, n_max=max(n_max, N_MAX_COMPOSITIONS))
    s = holonomy.s_to
    v = np.asarray(v, float).reshape(2)
    push, _ = holonomy.push_pull()
    rate = sp.base.contraction_rate(kind)

    dist = np.empty(n_max + 1)
    fib_x, fib_y = v.copy(), holonomy(v)
    for k in range(n_max + 1):
        dist[k] = math.hypot(abs(s) * abs(rate) ** k, float(torus_dist(fib_x, fib_y)))
        if k < n_max:
            fib_x = push(holonomy.from_pts[k], fib_x)
            fib_y = push(holonomy.to_pts[k], fib_y)

    lam = abs(rate)
    burn_in = 3
    window = 4
    step_ratios = []
    win_ratios = []
    for k in range(burn_in, n_max):
        if dist[k] < _DIST_FLOOR or dist[k + 1] < _DIST_FLOOR:
            break
        step_ratios.append(dist[k + 1] / dist[k])
        if k + window <= n_max and dist[k + window] > _DIST_FLOOR:
            win_ratios.append((dist[k + window] / dist[k]) ** (1.0 / window))
    # per-step ratios may stall where the field gradient vanishes along the
    # orbit; the contraction bound applies to windowed rates
    if win_ratios and max(win_ratios) > lam + 0.1:
        raise ShadowFailure(
            f"windowed distance ratio {max(win_ratios):.4f} exceeds "
            f"{lam + 0.1:.4f} (holonomy or domination bug)")
    if len(dist) > burn_in + window and dist[burn_in] > _DIST_FLOOR:
        tail = dist[burn_in:]
        live = tail > _DIST_FLOOR
        idx = np.flatnonzero(live)
        for k in idx[:-window]:
            if tail[k + window] >= tail[k] and tail[k + window] > _DIST_FLOOR:
                raise ShadowFailure("distances not eventually decreasing")
    est = float(np.exp(np.mean(np.log(step_ratios)))) if step_ratios else lam
    return ShadowReport(kind=kind, distances=dist, ratio_estimate=est)
