import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import accessibility, perturbation
from skewlab.accessibility import (DIAMETER_TRIVIAL, DYADIC_SCALES, ClassSample, LoopMap,
                                   box_counts, classify_class, displacement_jacobian,
                                   explore_classes, find_fixed_points, loop_actions,
                                   loop_map, sample_diameter, standard_generators,
                                   trivial_set_scan)
from skewlab.holonomy import leaf_holonomy
from skewlab.fiber import LewowiczFamily, ScalarField, SkewProduct, lewowicz_raw
from skewlab.perturbation import BumpTranslation, PerturbedFamily, perturb_skew
from skewlab.torus import BumpProfile, Region, mod1, torus_dist, wrap, wrapped_diff

from oracles import central_differences, explore_all_words, loud_steps
from systems import DESTROYED, workloads


class TestLoopMap:
    def test_constant_family_identity(self, id_sp, quad):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 2))
        L = loop_map(id_sp, quad, 1)
        assert np.max(torus_dist(L(pts), pts)) < 1e-12

    def test_rotation_family_rigid_translation(self, horiz_sp, quad):
        # oracle: the four-leg translation as a convergent double series
        L = loop_map(horiz_sp, quad, 1)
        cat = horiz_sp.base
        tau = horiz_sp.family.field
        n = 70
        x = np.asarray(list(quad.x), float)
        p = np.asarray(list(quad.p1), float)

        def stable_series(anchor, s_from, s_to):
            orbit = cat.orbit(anchor, n)
            lam = cat.lambda_s ** np.arange(n + 1)
            a_pts = (orbit + np.multiply.outer(s_from * lam, cat.e_s)) % 1.0
            b_pts = (orbit + np.multiply.outer(s_to * lam, cat.e_s)) % 1.0
            return np.sum(tau(a_pts) - tau(b_pts), axis=0)

        def unstable_series(anchor, s_from, s_to):
            orbit = cat.orbit(anchor, n, forward=False)
            lam = (1.0 / cat.lambda_u) ** np.arange(n + 1)
            a_pts = (orbit + np.multiply.outer(s_from * lam, cat.e_u)) % 1.0
            b_pts = (orbit + np.multiply.outer(s_to * lam, cat.e_u)) % 1.0
            return np.sum(tau(b_pts[1:]) - tau(a_pts[1:]), axis=0)

        total = (unstable_series(x, 0.0, quad.u_z[0])
                 + stable_series(p, quad.s_z[0], 0.0)
                 + unstable_series(p, 0.0, quad.u_w[0])
                 + stable_series(x, quad.s_w[0], 0.0))
        pts = np.random.default_rng(1).random((50, 2))
        disp = wrapped_diff(L(pts), pts)
        assert np.max(np.abs(disp - total)) < 1e-10
        assert np.max(np.abs(disp[:, 1])) < 1e-8  # horizontal field

    def test_loop_inverse(self, horiz_sp, quad):
        L = loop_map(horiz_sp, quad, 1)
        pts = np.random.default_rng(2).random((50, 2))
        assert np.max(torus_dist(L.inverse(L(pts)), pts)) < 1e-9

    def test_area_preservation_by_finite_differences(self, horiz_sp, quad):
        L = loop_map(horiz_sp, quad, 1)
        rng = np.random.default_rng(3)
        pts = rng.random((1000, 2))
        h = 1e-6
        ex, ey = np.array([h, 0.0]), np.array([0.0, h])
        du = ((L((pts + ex) % 1) - L((pts - ex) % 1) + 0.5) % 1 - 0.5) / (2 * h)
        dv = ((L((pts + ey) % 1) - L((pts - ey) % 1) + 0.5) % 1 - 0.5) / (2 * h)
        det = du[:, 0] * dv[:, 1] - du[:, 1] * dv[:, 0]
        assert np.max(np.abs(det - 1.0)) < 1e-6

    def test_natural_under_base_iteration(self, horiz_sp, quad):
        # conjugating the quad by F gives a loop map conjugate by g_x
        cat = horiz_sp.base
        lam_s, lam_u = cat.lambda_s, cat.lambda_u
        mapped = dataclasses.replace(
            quad,
            x=wrap(cat.apply(np.asarray(list(quad.x)))),
            p1=wrap(cat.apply(np.asarray(list(quad.p1)))),
            p2=wrap(cat.apply(np.asarray(list(quad.p2)))),
            w1=wrap(cat.apply(np.asarray(list(quad.w1)))),
            w2=wrap(cat.apply(np.asarray(list(quad.w2)))),
            z1=wrap(cat.apply(np.asarray(list(quad.z1)))),
            z2=wrap(cat.apply(np.asarray(list(quad.z2)))),
            s_w=tuple(s * lam_s for s in quad.s_w),
            s_z=tuple(s * lam_s for s in quad.s_z),
            u_w=tuple(u * lam_u for u in quad.u_w),
            u_z=tuple(u * lam_u for u in quad.u_z),
            p1_orbit=np.roll(quad.p1_orbit, -1, axis=0),
            p2_orbit=np.roll(quad.p2_orbit, -1, axis=0))
        L = loop_map(horiz_sp, quad, 1, tol=1e-10)
        L_pushed = loop_map(horiz_sp, mapped, 1, tol=1e-10)
        pts = np.random.default_rng(4).random((100, 2))
        x = np.asarray(list(quad.x), float)
        lhs = L_pushed(horiz_sp.family.apply(x, pts))
        rhs = horiz_sp.family.apply(x, L(pts))
        assert np.max(torus_dist(lhs, rhs)) < 1e-9


def lewowicz_loops(destroyed_systems, quad):
    """The fine system's loops with a Lewowicz map under its bumps: no quiet
    mask, so every step of every leg is taken.  No Lewowicz holonomy
    certifies (its pushes and pulls amplify rounding), so the fine system's
    certified legs carry it."""
    fine = destroyed_systems["fine"]
    lew = SkewProduct(base=fine.base, family=PerturbedFamily(LewowiczFamily(ScalarField(0.5)),
                                                             fine.family.bumps))
    return [LoopMap(tuple(dataclasses.replace(h, sp=lew) for h in g.maps))
            for g in standard_generators(fine, [quad])]


def one_leg_at_a_time(loop, inverse, ys):
    """Reference: the loop's legs in turn, written out from the fiber maps.
    A translation family's leg is its one closed-form translation; any other
    leg is every push along its from-orbit, then every pull back over its
    to-orbit, one fiber map at a time, quiet steps included."""
    legs = [h.inverse_map() for h in reversed(loop.maps)] if inverse else loop.maps
    v = mod1(np.asarray(ys, dtype=float))
    for h in legs:
        n = h.truncation_n
        shifts = h._translation_steps(n)
        if shifts is not None:
            v = mod1(v + shifts.sum(axis=0))
            continue
        fam = h.sp.family
        push, pull = ((fam.apply, fam.inverse) if h.kind == "stable"
                      else (fam.inverse, fam.apply))
        for k in range(n):
            v = push(h.from_pts[k], v)
        for k in reversed(range(n)):
            v = pull(h.to_pts[k], v)
    return v


# fiber points over both fiber supports: plateau, band and outside points
FIBERS = np.concatenate([np.random.default_rng(11).random((400, 2)),
                         [[0.5, 0.5], [0.5, 0.1], [0.9, 0.5], [0.0, 0.0], [0.16, 0.5]]])


def assert_lockstep_bitwise(loops, ys=FIBERS):
    """Every loop's map and inverse, evaluated together, bitwise as each alone,
    and at every point a selection picks, bitwise as without one."""
    actions = [(loop, inverse) for loop in loops for inverse in (False, True)]
    images = loop_actions(actions, ys)
    assert images.shape == (len(actions),) + np.shape(ys)
    for image, (loop, inverse) in zip(images, actions):
        assert image.tobytes() == one_leg_at_a_time(loop, inverse, ys).tobytes()
    select = np.random.default_rng(len(actions)).random((len(actions), len(ys))) < 0.3
    select[0], select[-1] = False, True   # an action that moves no point, one that moves all
    masked = loop_actions(actions, ys, select)
    assert masked.shape == images.shape
    assert masked[select].tobytes() == images[select].tobytes()


@pytest.fixture
def explore_levels(monkeypatch):
    """Records the loop_actions calls made from here on.  Returns a function
    that groups them by exploration level (the rounds of a level evaluate
    one frontier, so consecutive calls on bitwise the same points are one
    level) and gives per level (points, select, images, calls): the union of
    its rounds' selections, each selected image from the round that
    selected it, and its number of rounds."""
    recorded = []
    actions_of = accessibility.loop_actions

    def recording(actions, ys, select=None):
        images = actions_of(actions, ys, select)
        recorded.append((np.copy(ys), np.ones(images.shape[:2], bool) if select is None
                         else select.copy(), images))
        return images

    monkeypatch.setattr(accessibility, "loop_actions", recording)

    def levels():
        grouped = []
        for ys, select, images in recorded:
            if grouped and grouped[-1][0].tobytes() == ys.tobytes():
                _, union, merged, calls = grouped[-1]
                merged[select] = images[select]
                grouped[-1] = (ys, union | select, merged, calls + 1)
            else:
                grouped.append((ys, select, images.copy(), 1))
        return grouped

    return levels


def assert_reduced_words_in_order(levels, n_gens):
    """Over explore_levels() levels: each frontier point's candidate (action,
    point), looked up by its bits among the images of the level before, is
    in candidate order, and the point is not sent through the inverse of
    that action."""
    for (_, select, images, _), (ys, select_next, _, _) in zip(levels, levels[1:]):
        made_by = {}
        for c in np.flatnonzero(select):
            made_by.setdefault(images.reshape(-1, 2)[c].tobytes(), c)
        made = np.array([made_by[y.tobytes()] for y in ys])
        assert np.all(np.diff(made) > 0)
        back = (made // select.shape[1] + n_gens) % (2 * n_gens)
        assert not np.any(select_next[back, np.arange(len(ys))])


class TestLoopActions:
    @pytest.mark.parametrize("name", sorted(DESTROYED))
    def test_destroyed_system_bitwise(self, destroyed_systems, quad, name):
        gens = standard_generators(destroyed_systems[name], [quad])
        # destroy's loops, rotated to start at w_i
        rotated = [LoopMap(g.maps[-1:] + g.maps[:-1]) for g in gens]
        # loop 1's legs that miss both base supports: an action with no step
        quiet = LoopMap(tuple(h for h in gens[0].maps if not loud_steps(h).any()))
        assert len(quiet.maps) == 3
        for loop, steps in [(g, 1) for g in gens + rotated] + [(quiet, 0)]:
            for inverse in (False, True):
                kind, (_, points, _) = loop._plans[inverse]
                assert kind == "steps" and len(points) == steps
        assert_lockstep_bitwise(gens + rotated + [quiet])

    def test_interleaved_steps_bitwise(self, id_sp, cat):
        # a base support that each leg's orbits visit three times, so every
        # action has several steps, in an order that matters, and the
        # actions have step lists of different lengths
        bump = BumpTranslation(base_center=wrap((0.5, 0.5)), base_bump=BumpProfile(0.05, 0.15),
                               fiber_center=wrap((0.5, 0.5)), fiber_bump=BumpProfile(0.2, 0.4),
                               v=(0.02, 0.01))
        sp = perturb_skew(id_sp, [bump])
        x = np.array([0.45, 0.52])
        legs = [leaf_holonomy(sp, kind, x, (x + 0.12 * e) % 1.0)
                for kind, e in (("stable", cat.e_s), ("unstable", cat.e_u))]
        loops = [LoopMap(tuple(legs)), LoopMap(legs[:1]), LoopMap(legs[::-1])]
        lengths = {len(loop._plans[inverse][1][1]) for loop in loops for inverse in (0, 1)}
        assert len(lengths) > 1 and min(lengths) > 1
        assert_lockstep_bitwise(loops)

    def test_translation_and_lewowicz_families_bitwise(self, horiz_sp, destroyed_systems, quad):
        rotation = standard_generators(horiz_sp, [quad])
        lewowicz = lewowicz_loops(destroyed_systems, quad)
        # with no quiet mask every step of every leg is kept; legs stretched
        # to truncations 7, 12, 3 and 9 give long step lists, of different
        # lengths per action, in an order that matters
        lewowicz += [LoopMap(tuple(dataclasses.replace(h, truncation_n=n)
                                   for h, n in zip(g.maps, (7, 12, 3, 9)))) for g in lewowicz]
        assert {g._plans[0][0] for g in rotation} == {"shift"}
        for loop in lewowicz:
            for inverse in (0, 1):
                kind, (_, points, _) = loop._plans[inverse]
                assert kind == "steps"
                assert len(points) == 2 * sum(h.truncation_n for h in loop.maps)
        assert_lockstep_bitwise(rotation)
        assert_lockstep_bitwise(lewowicz, FIBERS[::8])

    def test_mixed_families_rejected(self, horiz_sp, destroyed_systems, quad):
        fine = standard_generators(destroyed_systems["fine"], [quad])[0].maps
        rotation = standard_generators(horiz_sp, [quad])[0].maps
        with pytest.raises(ValueError, match="one fiber family"):
            LoopMap(fine[:2] + rotation[2:])
        # no legs: the identity, in both directions
        for image in loop_actions([(LoopMap(()), False), (LoopMap(()), True)], FIBERS):
            assert image.tobytes() == mod1(FIBERS).tobytes()

    def test_families_mixed_in_one_call(self, horiz_sp, destroyed_systems, quad):
        loops = [g for sp in (destroyed_systems["fine"], horiz_sp, destroyed_systems["strong"])
                 for g in standard_generators(sp, [quad])]
        assert_lockstep_bitwise(loops + lewowicz_loops(destroyed_systems, quad)[:1], FIBERS[::4])

    def test_loop_map_keeps_the_shape_of_its_argument(self, destroyed_systems, quad):
        loop = standard_generators(destroyed_systems["strong"], [quad])[1]
        for ys in ([0.9, 0.5], FIBERS.reshape(-1, 3, 2)[:5]):
            for got, inverse in ((loop(ys), False), (loop.inverse(ys), True)):
                assert got.shape == np.shape(ys)
                assert got.tobytes() == one_leg_at_a_time(loop, inverse, ys).tobytes()

    def test_act_matches_apply_and_inverse(self, destroyed_systems, quad, horiz_sp):
        rng = np.random.default_rng(5)
        fine = destroyed_systems["fine"].family
        ws = np.array([tuple(quad.loop_points(i)[1]) for i in (1, 2)])
        near = ws[rng.integers(2, size=120)] + rng.normal(scale=0.3 * quad.ball_radius(1),
                                                          size=(120, 2))
        x = mod1(np.concatenate([near, rng.random((20, 2))]))
        y = np.concatenate([FIBERS[:100], rng.random((40, 2))])
        inverse = rng.random(len(x)) < 0.5
        for fam in (fine, PerturbedFamily(LewowiczFamily(ScalarField(0.5)), fine.bumps),
                    horiz_sp.family):
            want = np.array([fam.inverse(xi, yi) if inv else fam.apply(xi, yi)
                             for xi, yi, inv in zip(x, y, inverse)])
            assert fam.act(x, y, inverse).tobytes() == want.tobytes()

    def test_explore_makes_one_kernel_call_per_level(self, destroyed_systems, quad, monkeypatch):
        fine = destroyed_systems["fine"]
        gens = standard_generators(fine, [quad])   # certifying the legs flows too
        calls = []
        flow = perturbation._flow
        monkeypatch.setattr(perturbation, "_flow",
                            lambda *args, **kw: calls.append(1) or flow(*args, **kw))
        levels = 6
        # seeds on both loops' fiber band, so every level has band points
        explore_classes(fine, [quad], [[0.5, 0.1], [0.9, 0.5]], K=10**5,
                        word_length=levels, generators=gens)
        assert 0 < len(calls) <= levels

    @pytest.mark.parametrize("name", ["fine", "strong", "horizontal"])
    def test_explore_equals_every_word(self, destroyed_systems, horiz_sp, quad, name):
        # explore_classes skips the images no seed can take; the samples are
        # bitwise those of every action on every frontier point
        sp = {"horizontal": horiz_sp, **destroyed_systems}[name]
        gens = standard_generators(sp, [quad])
        # plateau, band and outside points of the destroyed systems' supports
        seeds = [[0.5, 0.55], [0.5, 0.1], [0.9, 0.5], [0.3, 0.6]]
        K, levels = 300, 7
        got = explore_classes(sp, [quad], seeds, K=K, word_length=levels, generators=gens)
        want = explore_all_words(sp, [quad], seeds, K=K, word_length=levels, generators=gens)
        for g, w in zip(got, want, strict=True):
            assert g == dataclasses.replace(w, points=g.points)
            assert g.points.tobytes() == w.points.tobytes()
        if name != "fine":
            return
        # on the fine system seed 1 reaches K partway through level 5, while
        # seed 0 still takes new points at levels 6 and 7
        sizes = [[len(s.points) for s in explore_all_words(sp, [quad], seeds, K=10**6,
                                                           word_length=n, generators=gens)]
                 for n in range(8)]
        assert sizes[4][1] < K < sizes[5][1] and len(got[1].points) == K
        assert sizes[5][0] < sizes[6][0] < sizes[7][0] == len(got[0].points) < K

    @pytest.mark.parametrize("seed", [1, 1017])
    def test_open_battery_equals_every_word(self, explore_levels, seed):
        # open-battery's inputs at its tuning and hold-out seeds: seeds fill
        # partway through levels, and some levels take more than one round
        inp = workloads.setup_open_battery(seed, None)
        gens = standard_generators(inp.sp, [inp.quad])
        args = dict(K=inp.K, word_length=inp.word_length, generators=gens)
        got = explore_classes(inp.sp, [inp.quad], inp.seeds, **args)
        assert max(calls for *_, calls in explore_levels()) >= 2
        want = explore_all_words(inp.sp, [inp.quad], inp.seeds, **args)
        for g, w in zip(got, want, strict=True):
            assert g == dataclasses.replace(w, points=g.points)
            assert g.points.tobytes() == w.points.tobytes()

    @pytest.mark.parametrize("name", ["fine", "strong", "horizontal"])
    def test_explore_prefix_rounds(self, destroyed_systems, horiz_sp, quad, name,
                                   explore_levels):
        # at K = 60 two seeds fill at one level (have more candidates than
        # they can take), a level's later rounds give a filling seed the
        # points it lacks, and a filling seed runs out of candidates short;
        # on the strong system such a seed's later-round points stay in the
        # frontier, so the frontier's candidate order is checked
        sp = {"horizontal": horiz_sp, **destroyed_systems}[name]
        gens = standard_generators(sp, [quad])
        seeds = [[0.5, 0.55], [0.5, 0.1], [0.9, 0.5], [0.3, 0.6], [0.04, 0.02]]
        K, levels = 60, 9
        got = explore_classes(sp, [quad], seeds, K=K, word_length=levels, generators=gens)
        recorded = explore_levels()
        assert_reduced_words_in_order(recorded, len(gens))
        rounds = np.zeros(levels, dtype=int)
        rounds[:len(recorded)] = [calls for *_, calls in recorded]
        want = explore_all_words(sp, [quad], seeds, K=K, word_length=levels, generators=gens)
        for g, w in zip(got, want, strict=True):
            assert g.points.tobytes() == w.points.tobytes()
        # each seed's count after n levels, from every word; a level's
        # candidates are every action on the seed and every action but one
        # on each point the level before made
        sizes = np.array([[len(s.points) for s in explore_all_words(
            sp, [quad], seeds, K=K, word_length=n, generators=gens)] for n in range(levels + 1)])
        cand = np.diff(sizes, axis=0, prepend=0)[:-1] * (2 * len(gens) - 1)
        cand[0] += 1
        fills = (sizes[:-1] < K) & (cand > K - sizes[:-1])
        short = fills & (sizes[1:] < K)
        assert np.any(fills.sum(axis=1) >= 2)
        assert np.any(short)
        assert np.any((rounds >= 2) & fills.any(axis=1) & ~short.any(axis=1))
        assert rounds.max() == 3      # the third round, whose request doubles, ran

    def test_open_battery_work(self, explore_levels, monkeypatch):
        """The open-battery benchmark operation at seed 1: generators and
        exploration send 10,445 band points to the bump kernel in 18 calls
        (38,118 when every action meets every frontier point, and 24,393 in
        16 calls when a seed that fills evaluated every candidate).  One
        level takes three rounds, and each frontier is in candidate order."""
        inp = workloads.setup_open_battery(1, None)
        band_points = []
        flow = perturbation._flow
        monkeypatch.setattr(perturbation, "_flow", lambda y0, *args, **kw:
                            band_points.append(len(y0)) or flow(y0, *args, **kw))
        gens = standard_generators(inp.sp, [inp.quad])
        samples = explore_classes(inp.sp, [inp.quad], inp.seeds, K=inp.K,
                                  word_length=inp.word_length, generators=gens)
        assert [len(s.points) for s in samples] == [4000] * 4
        assert (len(band_points), sum(band_points)) == (18, 10445)
        levels = explore_levels()
        assert sorted(calls for *_, calls in levels) == [1] * 26 + [3]
        assert sum(int(select.sum()) for _, select, _, _ in levels) == 23927
        assert_reduced_words_in_order(levels, len(gens))


class TestFindFixedPoints:
    REGION = Region(center=(0.5, 0.5), half=(0.45, 0.45))

    def test_identity_like(self):
        res = find_fixed_points(lambda p: p, self.REGION, tol=1e-8)
        assert res.identity_like

    def test_translation_fixed_point_free(self):
        calls = []

        def translation(p):
            calls.append(len(p))
            return (p + np.array([0.1, 0.0])) % 1.0

        res = find_fixed_points(translation, self.REGION, tol=1e-8)
        assert not res.identity_like and len(res.points) == 0
        # the seed grid, then one Newton step: its displacement and the four
        # finite differences in one batch, after which every (singular) seed
        # stops
        assert calls == [64 * 64, 5 * 64 * 64]

    def test_converging_search_makes_one_call_per_newton_step(self, monkeypatch):
        # one call on the grid and one per Newton step; no call re-checks the
        # converged points' residuals
        calls, steps = [], []
        jacobian = accessibility.displacement_jacobian
        monkeypatch.setattr(accessibility, "displacement_jacobian", lambda map_fn, pts:
                            steps.append(len(pts)) or jacobian(map_fn, pts))

        def lewowicz(p):
            calls.append(len(p))
            return lewowicz_raw(2.0, p)

        region = Region(center=(0.0, 0.0), half=(0.2, 0.2))
        res = find_fixed_points(lewowicz, region, tol=1e-8)
        assert len(res.points) == 1 and len(steps) > 1
        assert calls == [64 * 64] + [5 * n for n in steps]

    @pytest.mark.parametrize("system", ["lewowicz", "fine"])
    def test_displacement_jacobian_is_the_per_shift_differences(self, system, quad,
                                                                 destroyed_systems):
        # bitwise the displacement and the columns of one forward and one
        # backward call per shift, on a Lewowicz map and on a FINE generator
        # over its bump's band (where the bump kernel flows each point)
        rng = np.random.default_rng(5)
        if system == "lewowicz":
            map_fn, pts = (lambda p: lewowicz_raw(1.2, p)), rng.random((300, 2))
        else:
            map_fn = standard_generators(destroyed_systems["fine"], [quad])[0]
            r, theta = rng.uniform(0.35, 0.45, 300), rng.uniform(0.0, 2.0 * math.pi, 300)
            pts = mod1(0.5 + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1))
            assert np.max(torus_dist(map_fn(pts), pts)) > 1e-3
        got, want = displacement_jacobian(map_fn, pts), central_differences(map_fn, pts)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_lewowicz_contains_origin(self):
        region = Region(center=(0.0, 0.0), half=(0.2, 0.2))
        res = find_fixed_points(lambda p: lewowicz_raw(2.0, p), region, tol=1e-8)
        # Newton lands on both sides of the seam; the copies are one point
        assert len(res.points) == 1
        assert np.min(torus_dist(res.points, (0.0, 0.0))) < 1e-8

    def test_planted_affine_fixed_point(self):
        target = np.array([0.52, 0.47])

        def contraction(p):
            d = ((p - target + 0.5) % 1.0) - 0.5
            return (target + 0.5 * d) % 1.0

        res = find_fixed_points(contraction, self.REGION, tol=1e-10)
        assert len(res.points) == 1
        assert torus_dist(res.points[0], target) < 1e-10

    def test_planted_point_in_a_translated_fiber(self):
        # a contraction toward target inside a disc and a translation outside
        # it: the seeds outside are singular, the ones inside converge
        target = np.array([0.3, 0.6])

        def disc_contraction(p):
            d = wrapped_diff(p, target)
            inside = np.hypot(d[:, 0], d[:, 1]) < 0.1
            return np.where(inside[:, None], mod1(target + 0.5 * d), mod1(p + [0.05, 0.02]))

        res = find_fixed_points(disc_contraction, self.REGION, tol=1e-10)
        assert not res.identity_like and len(res.points) == 1
        assert torus_dist(res.points[0], target) < 1e-10

    def test_residuals_below_tol(self):
        def twist(p):
            d = ((p - 0.5 + 0.5) % 1.0) - 0.5
            rot = np.stack([d[:, 0] * math.cos(1.0) - d[:, 1] * math.sin(1.0),
                            d[:, 0] * math.sin(1.0) + d[:, 1] * math.cos(1.0)], axis=-1)
            return (0.5 + 0.9 * rot) % 1.0

        res = find_fixed_points(twist, self.REGION, tol=1e-9)
        assert len(res.points) == 1
        q = res.points[0]
        assert torus_dist(twist(q[None, :]), q)[0] < 1e-9


class TestExploreAndClassify:
    def test_constant_family_single_point(self, id_sp, quad):
        sample, = explore_classes(id_sp, [quad], (0.3, 0.6), K=500, word_length=8)
        assert sample.points.shape == (1, 2)
        assert classify_class(sample).verdict == "Trivial"

    def test_horizontal_family_circle(self, horiz_sp, quad):
        gens = standard_generators(horiz_sp, [quad])
        sample, = explore_classes(horiz_sp, [quad], (0.3, 0.6), K=2000,
                                  word_length=24, generators=gens)
        assert len(sample.points) > 200
        assert np.max(np.abs(((sample.points[:, 1] - 0.6 + 0.5) % 1) - 0.5)) < 1e-8
        assert classify_class(sample).verdict == "Curve"

    def test_batch_matches_single(self, horiz_sp, quad):
        gens = standard_generators(horiz_sp, [quad])
        seeds = np.array([[0.3, 0.6], [0.71, 0.12]])
        batch = explore_classes(horiz_sp, [quad], seeds, K=300, word_length=10,
                                generators=gens)
        for seed, got in zip(seeds, batch):
            single, = explore_classes(horiz_sp, [quad], seed, K=300, word_length=10,
                                      generators=gens)
            assert np.array_equal(single.points, got.points)

    def test_class_membership_closure(self, horiz_sp, quad):
        gens = standard_generators(horiz_sp, [quad])
        seed = np.array([0.3, 0.6])
        s1, = explore_classes(horiz_sp, [quad], seed, K=400, word_length=10,
                              generators=gens)
        moved = gens[0](seed[None, :])[0]
        s2, = explore_classes(horiz_sp, [quad], moved, K=400, word_length=10,
                              generators=gens)
        d = torus_dist(s1.points[:, None, :], s2.points[None, :, :])
        assert np.min(d) < 1e-9


class TestClassifierExactness:
    def planted_point(self):
        return np.tile(np.array([[0.4, 0.7]]), (50, 1))

    def planted_circle(self, rot, n=2000, radius=0.3):
        th = 2 * math.pi * np.arange(n) / n
        ring = np.stack([radius * np.cos(th), radius * np.sin(th)], axis=-1)
        c, s = math.cos(rot), math.sin(rot)
        ring = ring @ np.array([[c, -s], [s, c]]).T
        return (0.5 + ring) % 1.0

    def planted_square(self, rot, n=2000, side=0.7, seed=0):
        rng = np.random.default_rng(seed)
        pts = (rng.random((n, 2)) - 0.5) * side
        c, s = math.cos(rot), math.sin(rot)
        return (0.5 + pts @ np.array([[c, -s], [s, c]]).T) % 1.0

    def as_sample(self, pts):
        return ClassSample(seed=(0.0, 0.0), points=pts)

    def test_point_trivial(self):
        assert classify_class(self.as_sample(self.planted_point())).verdict == "Trivial"

    @pytest.mark.parametrize("rot", [0.0, 0.35, 1.1, 2.4])
    def test_circle_curve(self, rot):
        cls = classify_class(self.as_sample(self.planted_circle(rot)))
        assert cls.verdict == "Curve", cls

    @pytest.mark.parametrize("rot", [0.0, 0.35, 1.1, 2.4])
    def test_square_open(self, rot):
        cls = classify_class(self.as_sample(self.planted_square(rot)))
        assert cls.verdict == "Open", cls

    def test_box_counts_scale_like_dimension(self):
        # oracle for the [DERIVED] scaling claims: counts ~ 1/eps and 1/eps^2
        circle = self.planted_circle(0.2)
        counts = box_counts(circle, (4, 5, 6))
        assert 1.5 < counts[1] / counts[0] < 2.5
        square = self.planted_square(0.2)
        counts2 = box_counts(square, (3, 4, 5))
        assert 3.0 < counts2[1] / counts2[0] < 5.0


def brute_diameter(points):
    """Oracle: the largest torus_dist over all ordered pairs, 256 rows at a time."""
    best = 0.0
    for i0 in range(0, len(points), 256):
        chunk = points[i0:i0 + 256]
        best = max(best, float(np.max(torus_dist(chunk[:, None, :], points[None, :, :]))))
    return best


def brute_box_counts(points, scales):
    counts = []
    for j in scales:
        cells = np.minimum(np.floor(points * (1 << j)).astype(np.int64), (1 << j) - 1)
        counts.append(len(np.unique(cells, axis=0)))
    return tuple(counts)


BELOW_ONE = np.nextafter(1.0, 0.0)
unit_coord = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                       st.sampled_from([0.0, 0.25, 0.5, 0.75, 1 / 3, BELOW_ONE]))


def diameter_samples():
    rng = np.random.default_rng(7)
    centres = rng.random((3, 2))
    grid = np.arange(16) / 16
    boundary = np.stack(np.meshgrid(np.r_[grid, BELOW_ONE], np.r_[grid, BELOW_ONE]),
                        axis=-1).reshape(-1, 2)
    yield "uniform-50", rng.random((50, 2))
    yield "uniform-3000", rng.random((3000, 2))
    yield "clustered", (centres[rng.integers(0, 3, 2000)]
                        + 0.03 * rng.standard_normal((2000, 2))) % 1.0
    yield "straddle-corner", (0.05 * rng.standard_normal((1500, 2))) % 1.0
    yield "straddle-seam", np.stack([(0.02 * rng.standard_normal(900)) % 1.0,
                                     rng.random(900)], axis=-1)
    yield "circle", ((0.5 + 0.3 * np.stack([np.cos(np.arange(1201) * 0.1),
                                            np.sin(np.arange(1201) * 0.1)], -1)) % 1.0)
    yield "cell-boundaries", boundary
    yield "boundary-corners", np.array([[0.0, 0.0], [BELOW_ONE, BELOW_ONE], [0.5, 0.5],
                                        [0.0, BELOW_ONE], [0.5, 0.0]])
    yield "duplicates", np.repeat(rng.random((40, 2)), 30, axis=0)
    yield "near-duplicates", (np.repeat(rng.random((20, 2)), 25, axis=0)
                              + 1e-13 * rng.random((500, 2))) % 1.0
    yield "trivial", 0.37 + 1e-7 * rng.random((400, 2))
    # spread 1e-10: rounding of the run bounds is absolute, not relative, here
    yield "tiny-cluster", np.array([[0.7745666950466213, 0.3826593600669556],
                                    [0.7745666951095497, 0.38265936001952805],
                                    [0.7745666950996942, 0.38265936005487966],
                                    [0.7745666950990295, 0.3826593600571391]])
    yield "n0", np.empty((0, 2))
    yield "n1", np.array([[0.2, 0.9]])
    # torus_dist(p, q) != torus_dist(q, p) for this pair
    yield "n2-asymmetric", np.array([[0.6369616873214543, 0.2697867137638703],
                                     [0.04097352393619469, 0.016527635528529094]])
    # d -= rint(d) gives a distance one ulp from torus_dist's for this pair
    yield "n2-rounding", np.array([[0.2986961328189226, 0.6719948779563594],
                                   [0.1995154439682133, 0.9421131105064978]])


DIAMETER_SAMPLES = list(diameter_samples())


class TestSampleDiameter:
    @pytest.mark.parametrize("points", [pts for _, pts in DIAMETER_SAMPLES],
                             ids=[name for name, _ in DIAMETER_SAMPLES])
    def test_bitwise_equals_all_pairs(self, points):
        assert sample_diameter(points) == brute_diameter(points)

    def test_trivial_sample_below_threshold(self):
        pts = 0.37 + 1e-7 * np.random.default_rng(3).random((400, 2))
        assert 0.0 < sample_diameter(pts) < DIAMETER_TRIVIAL

    @given(st.lists(st.tuples(unit_coord, unit_coord), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equals_all_pairs_property(self, coords):
        pts = np.array(coords, dtype=float).reshape(-1, 2)
        assert sample_diameter(pts) == brute_diameter(pts)

    @pytest.mark.parametrize("kind", ["one-cell", "duplicates"])
    def test_memory_bounded_by_chunk(self, kind):
        # 4000 points inside one 1/16 cell, or 1500 copies of one point: a
        # single cell, which must not become one n x n block
        rng = np.random.default_rng(5)
        if kind == "one-cell":
            pts = (3 + rng.random((4000, 2))) / 16
        else:
            pts = np.tile([[0.3, 0.7]], (1500, 1))
        chunk_bytes = 256 * len(pts) * 2 * 8
        tracemalloc.start()
        try:
            got = sample_diameter(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * chunk_bytes
        assert got == brute_diameter(pts)

    def test_box_counts_match_row_unique(self):
        rng = np.random.default_rng(11)
        for pts in (rng.random((3000, 2)), (0.2 + 0.01 * rng.random((500, 2))),
                    rng.integers(0, 256, (2000, 2)) / 256,
                    np.array([[0.0, 0.0], [BELOW_ONE, BELOW_ONE], [0.5, BELOW_ONE]])):
            assert box_counts(pts, DYADIC_SCALES) == brute_box_counts(pts, DYADIC_SCALES)

    def test_curve_battery_samples_match_oracles(self):
        # the samples the 64-cell diameter grid was tuned on: curve-battery's
        # first 10 classes at seed 1 (a seed's sample does not depend on the
        # other seeds explored with it)
        inp = workloads.setup_curve_battery(1, None)
        samples = explore_classes(inp.sp, [inp.quad], inp.seeds[:10], K=inp.K,
                                  word_length=inp.word_length)
        for s in samples:
            assert box_counts(s.points) == brute_box_counts(s.points, DYADIC_SCALES)
            assert sample_diameter(s.points) == brute_diameter(s.points)


ALL_LEVELS = range(3, 31)


class TestBoxCounts:
    def test_every_level_matches_row_unique(self):
        # 4 x 4 points 2^-30 apart split only at levels 29 and 30
        corner = np.floor(np.array([0.3, 0.7]) * 2 ** 28) / 2 ** 28
        k = np.arange(4) * 2.0 ** -30
        fine = corner + np.stack(np.meshgrid(k, k), axis=-1).reshape(-1, 2)
        assert box_counts(fine, (28, 29, 30)) == (1, 4, 16)
        edges = np.array([[0.0, 0.0], [BELOW_ONE, BELOW_ONE], [0.0, BELOW_ONE],
                          [BELOW_ONE, 0.0], [0.5, 0.5]])
        dups = np.repeat(np.random.default_rng(2).random((30, 2)), 4, axis=0)
        for pts in (fine, edges, dups, np.concatenate([fine, edges, dups])):
            assert box_counts(pts, ALL_LEVELS) == brute_box_counts(pts, ALL_LEVELS)

    @given(st.lists(st.tuples(unit_coord, unit_coord), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_every_level_matches_row_unique_property(self, coords):
        pts = np.array(coords, dtype=float)
        assert box_counts(pts, ALL_LEVELS) == brute_box_counts(pts, ALL_LEVELS)

    def test_cells_are_torus_cells(self):
        # -0.25 is 0.75 on the torus; a negative y keeps its x's cell apart
        pts = np.array([[0.1, -0.25], [0.6, -0.25], [-0.25, 0.1], [0.75, 0.1], [1.5, 2.0]])
        assert box_counts(pts, ALL_LEVELS) == brute_box_counts(mod1(pts), ALL_LEVELS)
        assert box_counts(pts, (1, 2)) == (3, 4)

    def test_no_points_no_cells(self):
        assert box_counts(np.empty((0, 2)), ALL_LEVELS) == (0,) * len(ALL_LEVELS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            box_counts(np.array([[0.2, 0.3], [0.4, bad]]))


class TestTrivialScan:
    def test_constant_family_all_trivial(self, id_sp, quad):
        scan = trivial_set_scan(id_sp, [quad], 16, 1e-6)
        assert scan.all_trivial
        assert np.max(scan.max_displacement) < 1e-12

    def test_rotation_family_empty(self, horiz_sp, quad):
        scan = trivial_set_scan(horiz_sp, [quad], 16, 1e-6)
        assert scan.empty
        assert np.min(scan.max_displacement) > 1e-4
