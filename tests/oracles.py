"""Test oracles that no scenario runs: the fiber cocycle, the shadowing table
along an su-leg, the decay rate of a holonomy's Cauchy increments, and class
exploration by every word."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from skewlab.accessibility import _QUANT, ClassSample, loop_actions, standard_generators
from skewlab.holonomy import N_MAX_COMPOSITIONS, leaf_holonomy
from skewlab.torus import mod1, torus_dist

_DECAY_FLOOR = 1e-13    # increments at or below this are rounding, not decay


def cocycle(sp, x, n: int, y):
    """Fiber component of F^n(x, y); negative n uses inverse fiber maps."""
    xs = np.asarray(x, dtype=float).reshape(2)
    ys = np.asarray(y, dtype=float)
    if n >= 0:
        for _ in range(n):
            ys = sp.family.apply(xs, ys)
            xs = sp.base.apply(xs)
    else:
        for _ in range(-n):
            xs = sp.base.orbit(xs, 1, forward=False)[1]
            ys = sp.family.inverse(xs, ys)
    return ys


def measured_decay_ratio(h) -> float:
    """Geometric-mean per-step ratio of h's Cauchy increments above _DECAY_FLOOR.

    Individual consecutive ratios fluctuate with the field gradient along
    the orbit; the envelope rate (first to last significant increment) is
    the meaningful contraction measurement.
    """
    sig = [(k, d) for k, d in enumerate(h.increments) if d > _DECAY_FLOOR]
    if len(sig) < 2:
        return 0.0
    (k0, d0), (k1, d1) = sig[0], sig[-1]
    return float((d1 / d0) ** (1.0 / (k1 - k0)))


@dataclass(frozen=True)
class ShadowReport:
    kind: str
    distances: np.ndarray
    ratio_estimate: float


def shadow_check(sp, leg, v, n_max: int = 50) -> ShadowReport:
    """Contraction table for an su-leg pairing (x, v) with (y, H(v)).

    The base pair is the holonomy's own anchored orbit pair, so its gap is
    |s| * |rate|^k; the fiber pair evolves through the true fiber maps.
    H(v) is certified only to the holonomy's tol, so a distance below tol
    measures truncation error, not contraction: the table is read down to
    tol.  Distances must decay at ratio <= lambda + 0.1 beyond a burn-in,
    else AssertionError.  Endpoints off a common leaf raise BrokenPath.
    """
    kind, x, y = leg
    holonomy = leaf_holonomy(sp, kind, x, y, n_max=max(n_max, N_MAX_COMPOSITIONS))
    floor = holonomy.tol
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
        if dist[k] < floor or dist[k + 1] < floor:
            break
        step_ratios.append(dist[k + 1] / dist[k])
        if k + window <= n_max and dist[k + window] > floor:
            win_ratios.append((dist[k + window] / dist[k]) ** (1.0 / window))
    # per-step ratios may stall where the field gradient vanishes along the
    # orbit; the contraction bound applies to windowed rates
    if win_ratios and max(win_ratios) > lam + 0.1:
        raise AssertionError(
            f"windowed distance ratio {max(win_ratios):.4f} exceeds "
            f"{lam + 0.1:.4f} (holonomy or domination bug)")
    if len(dist) > burn_in + window and dist[burn_in] > floor:
        tail = dist[burn_in:]
        live = tail > floor
        idx = np.flatnonzero(live)
        for k in idx[:-window]:
            if tail[k + window] >= tail[k] and tail[k + window] > floor:
                raise AssertionError("distances not eventually decreasing")
    est = float(np.exp(np.mean(np.log(step_ratios)))) if step_ratios else lam
    return ShadowReport(kind=kind, distances=dist, ratio_estimate=est)


def explore_all_words(sp, quads, seeds, K: int = 2000, word_length: int = 12,
                      generators=None) -> list[ClassSample]:
    """explore_classes as it was before it skipped images: every level sends
    every frontier point through every action, the inverse of the action
    that made it included, and keeps the points of seeds that hold K."""
    seeds = mod1(np.asarray(seeds, dtype=float).reshape(-1, 2))
    gens = standard_generators(sp, quads) if generators is None else list(generators)
    actions = [(g, False) for g in gens] + [(g, True) for g in gens]
    m = len(seeds)

    def keys_of(pts, sids):
        q = np.round(pts * (1.0 / _QUANT))
        key = np.empty(len(pts), dtype=complex)
        key.real = sids * 2.0 ** 30 + q[:, 0]
        key.imag = q[:, 1]
        return key

    frontier_pts, frontier_sid = seeds, np.arange(m)
    seen = np.sort(keys_of(seeds, frontier_sid))
    taken_pts, taken_sid = [seeds], [frontier_sid]
    counts = np.ones(m, dtype=int)
    for _ in range(word_length):
        if len(frontier_pts) == 0 or np.all(counts >= K):
            break
        pts = mod1(loop_actions(actions, frontier_pts).reshape(-1, 2))
        sids = np.tile(frontier_sid, len(actions))
        keys = keys_of(pts, sids)
        _, first = np.unique(keys, return_index=True)
        at = np.minimum(np.searchsorted(seen, keys[first]), len(seen) - 1)
        first = np.sort(first[seen[at] != keys[first]])
        sid = sids[first]
        by_seed = np.argsort(sid, kind="stable")
        rank = np.empty(len(first), dtype=int)
        rank[by_seed] = np.arange(len(first)) - np.searchsorted(sid[by_seed], sid[by_seed])
        take = first[rank < K - counts[sid]]
        counts += np.bincount(sids[take], minlength=m)
        new_keys = np.sort(keys[take])
        seen = np.insert(seen, np.searchsorted(seen, new_keys), new_keys)
        frontier_pts, frontier_sid = pts[take], sids[take]
        taken_pts.append(frontier_pts)
        taken_sid.append(frontier_sid)

    by_seed = np.argsort(np.concatenate(taken_sid), kind="stable")
    points = np.split(np.concatenate(taken_pts)[by_seed], np.cumsum(counts)[:-1])
    return [ClassSample(seed=(float(s[0]), float(s[1])), points=points[i],
                        generators_used=2 * len(gens), word_length=word_length)
            for i, s in enumerate(seeds)]
