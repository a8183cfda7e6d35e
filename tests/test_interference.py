"""Biprism bench densities, the emission measures that generate them, and
the long-time velocity material: potentials, n-body flights and the
momentum box measure."""

import dataclasses
import math

import numpy as np
import pytest

from trajlab import interference
from trajlab.errors import IntegrationError, UnsupportedInputError
from trajlab.interference import (
    BiprismScene,
    CompactBumpPotential,
    GaussianPairPotential,
    NBodySystem,
    ScreenDensity,
    _branch_ranges,
    _deflect_array,
    _pull_back,
    _side_images,
    asymptotic_velocity,
    emission_measure_from_screen,
    emission_tv_distance,
    envelope_target_density,
    estimate_fringe_spacing,
    free_quantum_momentum_measure,
    fringe_target_density,
    fringe_visibility,
    interference_decomposition,
    screen_density_from_emission,
    standard_bench,
)
from trajlab.scenarios import SCENARIOS


def finite_radius_scene(field_on):
    return BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                        wire_radius=0.001, kick_angle=0.02, field_on=field_on,
                        wavelength=2e-5, aperture=0.03)


class TestSceneValidation:
    def test_wire_must_sit_before_screen(self):
        with pytest.raises(ValueError):
            BiprismScene(source_to_screen=1.0, source_to_wire=1.5,
                         wire_radius=0.0, kick_angle=0.02, field_on=True,
                         wavelength=2e-5, aperture=0.03)

    def test_field_on_needs_kick(self):
        with pytest.raises(ValueError):
            BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                         wire_radius=0.0, kick_angle=0.0, field_on=True,
                         wavelength=2e-5, aperture=0.03)
        # 1.55 is past pi/2 - aperture (1.5408 here), where rays can turn
        # past the screen's normal
        for kick in (math.nan, math.inf, -0.01, 1.55):
            for on in (True, False):
                with pytest.raises(ValueError, match="kick"):
                    BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                                 wire_radius=0.0, kick_angle=kick,
                                 field_on=on, wavelength=2e-5, aperture=0.03)

    def test_kick_too_large_to_overlap(self):
        # 1.5 is inside the bound, but it throws even the outermost rays
        # across the axis, so the sides miss each other on the screen
        scene = BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                             wire_radius=0.0, kick_angle=1.5, field_on=True,
                             wavelength=2e-5, aperture=0.03)
        with pytest.raises(UnsupportedInputError,
                           match="not the outermost"):
            fringe_target_density(scene)

    def test_wire_radius_must_be_nonnegative(self):
        for radius in (-0.001, math.nan):
            for on in (True, False):
                with pytest.raises(ValueError, match="wire_radius"):
                    BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                                 wire_radius=radius, kick_angle=0.02,
                                 field_on=on, wavelength=2e-5, aperture=0.03)

    def test_shadow_cannot_swallow_aperture(self):
        with pytest.raises(ValueError):
            BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                         wire_radius=0.02, kick_angle=0.02, field_on=True,
                         wavelength=2e-5, aperture=0.03)

    def test_positive_wavelength_and_aperture(self):
        with pytest.raises(ValueError):
            BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                         wire_radius=0.0, kick_angle=0.02, field_on=True,
                         wavelength=0.0, aperture=0.03)
        for wavelength in (math.nan, math.inf):
            for on in (True, False):
                with pytest.raises(ValueError, match="wavelength"):
                    BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                                 wire_radius=0.0, kick_angle=0.02,
                                 field_on=on, wavelength=wavelength,
                                 aperture=0.03)
        with pytest.raises(ValueError):
            BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                         wire_radius=0.0, kick_angle=0.02, field_on=True,
                         wavelength=2e-5, aperture=-0.1)

    def test_with_field_flips_only_the_flag(self):
        on = standard_bench()
        off = on.with_field(False)
        assert off.field_on is False
        assert off.kick_angle == on.kick_angle
        assert off.source_to_wire == on.source_to_wire

    def test_fringe_spacing_formula(self):
        sc = standard_bench()
        sep = 2.0 * sc.source_to_wire * sc.kick_angle
        assert sc.fringe_spacing == pytest.approx(
            sc.wavelength * sc.source_to_screen / sep, rel=1e-12)


class TestDeflection:
    def test_field_off_straight_flight(self):
        sc = standard_bench(field_on=False)
        a = np.array([-0.02, -0.005, 0.0, 0.011, 0.029])
        assert np.allclose(_deflect_array(a, sc),
                           sc.source_to_screen * np.tan(a), rtol=1e-12,
                           atol=0.0)

    def test_field_on_kick_toward_axis(self):
        sc = standard_bench()
        D, L, d = sc.source_to_wire, sc.source_to_screen, sc.kick_angle
        for a in (0.005, 0.02, 0.029):
            expect = D * math.tan(a) + (L - D) * math.tan(a - d)
            expect_lo = -D * math.tan(a) + (L - D) * math.tan(-a + d)
            assert _deflect_array(np.array([a, -a]), sc) == pytest.approx(
                [expect, expect_lo], rel=1e-12)

    def test_wire_absorbs_only_with_finite_radius(self):
        assert np.all(np.isfinite(_deflect_array(np.array([1e-9, -1e-9]),
                                                 standard_bench())))
        x = _deflect_array(np.array([0.001, -0.001, 0.01]),
                           finite_radius_scene(True))
        assert np.isnan(x[0]) and np.isnan(x[1]) and math.isfinite(x[2])

    def test_rejects_rays_beyond_aperture(self):
        for on in (True, False):
            x = _deflect_array(np.array([0.05, -0.031, 0.029]),
                               standard_bench(on))
            assert np.isnan(x[0]) and np.isnan(x[1]) and math.isfinite(x[2])


ROUND_TRIP_SCENES = [standard_bench(True), standard_bench(False),
                     finite_radius_scene(True), finite_radius_scene(False)]


class TestPullBack:
    @pytest.mark.parametrize("scene", ROUND_TRIP_SCENES,
                             ids=["on", "off", "wire-on", "wire-off"])
    def test_round_trip(self, scene):
        for side, (a0, a1), (lo, hi) in zip(
                (-1, 1), _branch_ranges(scene), _side_images(scene)):
            x = np.linspace(lo, hi, 1001)
            alpha = _pull_back(x, scene, side)
            assert np.all(side * alpha > 0)
            assert abs(alpha[0] - a0) < 1e-15 and abs(alpha[-1] - a1) < 1e-15
            back = _deflect_array(alpha[1:-1], scene)
            assert float(np.max(np.abs(back - x[1:-1]))) < 1e-15


def reference_histogram(measure, scene, edges, n_grid=2_000_001):
    """Midpoint masses of a dense angle grid routed through the map and
    histogrammed; converges to the exact bin masses at first order."""
    masses = np.zeros(len(edges) - 1)
    for a0, a1 in _branch_ranges(scene):
        alphas = np.linspace(a0, a1, n_grid)
        mids = 0.5 * (alphas[1:] + alphas[:-1])
        masses += np.histogram(_deflect_array(mids, scene), bins=edges,
                               weights=measure.density(mids)
                               * np.diff(alphas))[0]
    return masses / (edges[1] - edges[0])


class TestExactPushforward:
    @pytest.mark.parametrize("on", [True, False], ids=["on", "off"])
    def test_matches_dense_histogram(self, on):
        scene = standard_bench(on)
        target = (fringe_target_density if on
                  else envelope_target_density)(scene)
        mu = emission_measure_from_screen(target, scene)
        edges, dens = screen_density_from_emission(mu, scene, bins=256)
        ref = reference_histogram(mu, scene, edges)
        assert float(np.max(np.abs(dens - ref))) < 2e-4 * float(ref.max())


def bisect(f, lo, hi):
    """Points where ``f`` changes sign in each bracket [lo, hi], narrowed
    to neighbouring floats."""
    s_lo = np.sign(f(lo))
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        left = np.sign(f(mid)) == s_lo
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        mid = 0.5 * (lo + hi)
    return lo


def reference_breaks(scene, target):
    """Angles where an emission density may be non-smooth: the branch
    ends, and the angles the forward map sends to the target window's
    ends and taper ends, found by bisection on each side."""
    lo, hi = target.window
    flat = interference._FLAT_FRACTION * hi
    out = [np.ravel(_branch_ranges(scene))]
    for (a0, a1), (x0, x1) in zip(_branch_ranges(scene), _side_images(scene)):
        xs = np.array([x for x in (lo, -flat, flat, hi) if x0 < x < x1])
        out.append(bisect(lambda a: _deflect_array(a, scene) - xs,
                          np.full(len(xs), a0), np.full(len(xs), a1)))
    return np.unique(np.concatenate(out))


def reference_integral(f, breaks, panels=64):
    """Integral of ``f`` over [breaks[0], breaks[-1]]: every piece between
    breaks is cut into ``panels`` equal panels of 20 Gauss-Legendre nodes."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.unique(np.concatenate([np.linspace(a, b, panels + 1)
                                      for a, b in zip(breaks, breaks[1:])]))
    half = 0.5 * np.diff(edges)
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x
    return float(np.sum(half * (f(nodes) @ w)))


EMISSION_CASES = [
    (standard_bench(True), fringe_target_density),
    (standard_bench(False), envelope_target_density),
    (finite_radius_scene(False), envelope_target_density),
    # a quarter of the stock wavelength: about 36 fringes between two
    # breaks, more than one 32-node panel resolves
    (dataclasses.replace(standard_bench(True), wavelength=5e-6),
     fringe_target_density),
]


@pytest.mark.parametrize("scene, make_target", EMISSION_CASES,
                         ids=["on", "off", "wire-off", "on-fine"])
def test_target_breaks_are_window_and_taper_ends(scene, make_target):
    """A target's breaks are bitwise the window ends and the taper ends
    mid -+ flat share * half width, so the emission breaks pulled back
    from them are those of the flat-top construction."""
    target = make_target(scene)
    lo, hi = target.window
    mid, flat = 0.5 * (lo + hi), interference._FLAT_FRACTION * 0.5 * (hi - lo)
    assert target.breaks == (lo, mid - flat, mid + flat, hi)


@pytest.mark.parametrize("scene, make_target", EMISSION_CASES,
                         ids=["on", "off", "wire-off", "on-fine"])
def test_emission_density_normalised(scene, make_target):
    target = make_target(scene)
    mu = emission_measure_from_screen(target, scene)
    mass = reference_integral(mu.density, reference_breaks(scene, target))
    assert abs(mass - 1.0) < 1e-12


def reference_tv(on, n_grid):
    """The TV distance of the field-on bench ``on`` and its field-off twin,
    by dense panels that end at the test's own breaks and at the crossings
    of the two densities, found on a grid of ``n_grid`` angles and bisected;
    with the two emission measures."""
    off = on.with_field(False)
    mu_on = emission_measure_from_screen(fringe_target_density(on), on)
    mu_off = emission_measure_from_screen(envelope_target_density(off), off)

    def diff(alpha):
        return mu_on.density(alpha) - mu_off.density(alpha)

    grid = np.linspace(-on.aperture, on.aperture, n_grid)
    sign = np.sign(diff(grid))
    k = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    breaks = np.unique(np.concatenate([
        reference_breaks(on, fringe_target_density(on)),
        reference_breaks(off, envelope_target_density(off)),
        bisect(diff, grid[k], grid[k + 1])]))
    ref = 0.5 * reference_integral(lambda a: np.abs(diff(a)), breaks,
                                   panels=16)
    return ref, mu_on, mu_off


@pytest.mark.parametrize("radius, expected", [(0.0, 0.6052252941),
                                              (0.001, None)],
                         ids=["bench", "wire"])
def test_tv_distance_matches_reference(radius, expected):
    """Against dense panels that end at the test's own breaks and at the
    crossings of the two densities, found on a fine grid and bisected."""
    on = finite_radius_scene(True) if radius else standard_bench(True)
    ref, mu_on, mu_off = reference_tv(on, 600_001)
    tv = emission_tv_distance(mu_on, mu_off)
    assert abs(tv - ref) < 1e-12 * ref
    if expected is not None:
        assert round(ref, 10) == expected


@pytest.mark.parametrize("index", range(8))
def test_tv_distance_on_random_benches(index):
    """Benches with every length and angle drawn; some hold pairs of
    crossings narrower than the node spacing, which halving alone misses."""
    rng = np.random.default_rng(47)
    for _ in range(index + 1):
        on = random_bench(rng)
    ref, mu_on, mu_off = reference_tv(on, 2_000_001)
    tv = emission_tv_distance(mu_on, mu_off)
    assert abs(tv - ref) < 1e-12 * ref


def test_tv_distance_finds_a_pair_between_nodes():
    # q_a - q_b = (x - x0)^2 - d^2 on [0, 1] is below 0 only on a lobe 2d
    # wide about x0, between Gauss-Legendre nodes some 0.05 apart
    x0, d, piece = 0.4567, 1e-3, np.array([0.0, 1.0])
    a = interference.EmissionMeasure(lambda x: (x - x0) ** 2, piece)
    b = interference.EmissionMeasure(lambda x: np.full_like(x, d * d), piece)
    exact = 0.5 * (((1 - x0) ** 3 + x0 ** 3) / 3 - d * d + 8 * d ** 3 / 3)
    assert abs(emission_tv_distance(a, b) - exact) < 1e-12 * exact
    # panels that are only halved integrate the quadratic exactly, settle,
    # and miss the lobe's 8 d^3 / 3
    halved = 0.5 * interference._integral(
        lambda x: a.density(x) - b.density(x), piece)
    assert abs(halved - exact) > 1e-12 * exact


def three_call_integral(f, edges, stats=None):
    """``_integral`` as it ran before node values carried over: each round
    integrates the whole panels and both halves by three separate panel
    calls. ``stats`` collects the calls of ``f`` and the most panels
    unsettled at once."""
    x, w = interference._gl_nodes(interference._GAUSS_NODES)

    def panels(lo, hi):
        if stats is not None:
            stats["calls"] += 1
        return (hi - lo) * (np.abs(f(lo[:, None] + (hi - lo)[:, None] * x))
                            @ w)

    lo, hi = edges[:-1], edges[1:]
    total = 0.0
    while len(lo):
        if stats is not None:
            stats["peak"] = max(stats["peak"], len(lo))
        if len(lo) > interference._MAX_PANELS:
            raise UnsupportedInputError("too many panels")
        mid = 0.5 * (lo + hi)
        one, two = panels(lo, hi), panels(lo, mid) + panels(mid, hi)
        tol = np.finfo(float).eps * (total + two.sum())
        keep = ~(np.abs(one - two) > tol) | (mid <= lo) | (mid >= hi)
        total += two[keep].sum()
        lo, hi = (np.concatenate([lo[~keep], mid[~keep]]),
                  np.concatenate([mid[~keep], hi[~keep]]))
    return float(total)


def random_bench(rng):
    """A field-on bench with every length and angle drawn, redrawn until
    its passage sides overlap on the screen."""
    while True:
        length = float(rng.uniform(0.5, 2.0))
        scene = BiprismScene(
            source_to_screen=length,
            source_to_wire=length * float(rng.uniform(0.1, 0.6)),
            wire_radius=float(rng.choice([0.0, rng.uniform(0.0, 2e-3)])),
            kick_angle=float(rng.uniform(0.005, 0.04)), field_on=True,
            wavelength=float(rng.uniform(5e-6, 5e-5)),
            aperture=float(rng.uniform(0.02, 0.05)))
        try:
            fringe_target_density(scene)
        except (ValueError, UnsupportedInputError):
            continue
        return scene


class TestCarriedNodeValues:
    """``_integral`` calls ``f`` once on the pieces and then once a round,
    reusing the halves' node values as the next round's panels, with the
    bits of the three-call form."""

    def run_bench(self, monkeypatch, on):
        # every integral the bench takes (the targets' norms, both emission
        # masses, the TV distance) is checked against the three-call form
        new, seen = interference._integral, []

        def both(f, edges):
            calls = {"n": 0}

            def counted(x):
                calls["n"] += 1
                return f(x)

            got = new(counted, edges)
            stats = {"calls": 0, "peak": 0}
            want = three_call_integral(f, edges, stats)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert 3 * (calls["n"] - 1) == stats["calls"]
            seen.append(got)
            return got

        monkeypatch.setattr(interference, "_integral", both)
        off = on.with_field(False)
        mu_on = emission_measure_from_screen(fringe_target_density(on), on)
        mu_off = emission_measure_from_screen(envelope_target_density(off),
                                              off)
        tv = emission_tv_distance(mu_on, mu_off)
        assert len(seen) == 6 and seen[-1] == 2.0 * tv
        return tv

    def test_default_bench(self, monkeypatch):
        tv = self.run_bench(monkeypatch, standard_bench(True))
        assert tv == 0.6052252940737917

    def test_random_benches(self, monkeypatch):
        rng = np.random.default_rng(47)
        for _ in range(8):
            self.run_bench(monkeypatch, random_bench(rng))
            monkeypatch.undo()

    def test_panel_cap_refuses_the_same_input(self, monkeypatch):
        # the TV integrand's halving onto crossings peaks at 148 panels from
        # 19 pieces; a cap just under the peak refuses both forms in a
        # later round, and at the peak both run, to equal bits
        on = dataclasses.replace(standard_bench(True), wavelength=5e-6)
        off = on.with_field(False)
        mu_on = emission_measure_from_screen(fringe_target_density(on), on)
        mu_off = emission_measure_from_screen(envelope_target_density(off),
                                              off)

        def diff(alpha):
            return mu_on.density(alpha) - mu_off.density(alpha)

        edges = np.union1d(mu_on.breaks, mu_off.breaks)
        stats = {"calls": 0, "peak": 0}
        three_call_integral(diff, edges, stats)
        assert stats["peak"] > len(edges) - 1
        monkeypatch.setattr(interference, "_MAX_PANELS", stats["peak"] - 1)
        for form in (interference._integral, three_call_integral):
            with pytest.raises(UnsupportedInputError):
                form(diff, edges)
        monkeypatch.setattr(interference, "_MAX_PANELS", stats["peak"])
        assert (np.float64(interference._integral(diff, edges)).tobytes()
                == np.float64(three_call_integral(diff, edges)).tobytes())


class TestEmissionRoundtrip:
    def setup_method(self):
        self.scene = standard_bench()
        self.target = fringe_target_density(self.scene)
        self.measure = emission_measure_from_screen(self.target, self.scene)

    def test_pushforward_reproduces_target(self):
        edges, dens = screen_density_from_emission(self.measure, self.scene,
                                                   bins=256)
        mids = 0.5 * (edges[1:] + edges[:-1])
        want = self.target(mids)
        scale = float(np.max(want))
        assert float(np.max(np.abs(dens - want))) < 1e-2 * scale

    def test_unreachable_target_rejected(self):
        bad = ScreenDensity(window=(0.02, 0.03),
                            profile=lambda x: np.ones_like(x),
                            breaks=(0.02, 0.03))
        with pytest.raises(UnsupportedInputError):
            emission_measure_from_screen(bad, self.scene)

    def test_massless_profile_rejected(self):
        with pytest.raises(ValueError):
            ScreenDensity((-0.01, 0.01), lambda x: np.zeros_like(x),
                          (-0.01, 0.01))

    def test_fringe_target_needs_field(self):
        with pytest.raises(ValueError):
            fringe_target_density(standard_bench(field_on=False))


class TestVisibilityAndSpacing:
    def test_field_on_fringes(self):
        scene = standard_bench()
        mu = emission_measure_from_screen(fringe_target_density(scene), scene)
        edges, dens = screen_density_from_emission(mu, scene, bins=256)
        assert fringe_visibility(edges, dens) > 0.9
        spacing = estimate_fringe_spacing(edges, dens)
        assert abs(spacing - scene.fringe_spacing) < 0.02 * scene.fringe_spacing

    def test_field_off_smooth(self):
        scene = standard_bench(field_on=False)
        mu = emission_measure_from_screen(envelope_target_density(scene),
                                          scene)
        edges, dens = screen_density_from_emission(mu, scene, bins=256)
        assert fringe_visibility(edges, dens) < 0.05

    def test_emission_measures_differ(self):
        on = standard_bench()
        off = on.with_field(False)
        mu_on = emission_measure_from_screen(fringe_target_density(on), on)
        mu_off = emission_measure_from_screen(envelope_target_density(off),
                                              off)
        tv = emission_tv_distance(mu_on, mu_off)
        assert 0.1 < tv <= 1.0

    def test_visibility_of_flat_density_is_zero(self):
        edges = np.linspace(-1.0, 1.0, 65)
        assert fringe_visibility(edges, np.ones(64)) == 0.0

    def test_spacing_needs_peaks(self):
        edges = np.linspace(-1.0, 1.0, 65)
        with pytest.raises(ValueError):
            estimate_fringe_spacing(edges, np.ones(64))
        with pytest.raises(ValueError):
            estimate_fringe_spacing(np.linspace(0, 1, 4), np.ones(3))


class TestOffStateShadow:
    def test_wire_shadow_is_dark(self):
        scene = finite_radius_scene(False)
        mu = emission_measure_from_screen(envelope_target_density(scene),
                                          scene)
        edges, dens = screen_density_from_emission(mu, scene, bins=64)
        mids = 0.5 * (edges[1:] + edges[:-1])
        # geometric shadow half-width on the screen is r/D * L = 0.004
        assert np.all(dens[np.abs(mids) < 0.0035] == 0.0)
        assert np.all(dens[np.abs(mids) > 0.0045] > 0.0)


class TestInterferenceDecomposition:
    def test_standard_bench_difference(self):
        scene = standard_bench()
        fr = fringe_target_density(scene)
        env = envelope_target_density(scene)
        lo, hi = fr.window
        grid = np.linspace(lo, hi, 4097)
        deco = interference_decomposition(fr(grid), env(grid), grid)
        assert abs(deco.integral) < 1e-6
        assert deco.minimum < 0.0
        assert deco.values.shape == grid.shape

    def test_rejects_unnormalised_inputs(self):
        grid = np.linspace(0.0, 1.0, 101)
        ok = np.ones(101)
        with pytest.raises(ValueError):
            interference_decomposition(2.0 * ok, ok, grid)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            interference_decomposition(np.ones(5), np.ones(6),
                                       np.linspace(0, 1, 6))


class TestPotentials:
    def test_gaussian_value_and_slope(self):
        pot = GaussianPairPotential(2.0, 1.0)
        assert pot.value(0.0) == 2.0
        h = 1e-6
        for r in (0.3, 1.0, 2.5):
            fd = (pot.value(r + h) - pot.value(r - h)) / (2 * h)
            assert pot.dvdr(r) == pytest.approx(fd, rel=1e-6)
            assert pot.dvdr(r) < 0.0  # repulsive: energy falls with distance
        with pytest.raises(ValueError):
            GaussianPairPotential(1.0, 0.0)
        with pytest.raises(ValueError):
            GaussianPairPotential(1.0, float("nan"))

    def test_bump_compact_support(self):
        pot = CompactBumpPotential(2.0, 1.0)
        assert pot.value(1.0) == 0.0
        assert pot.value(5.0) == 0.0
        assert pot.dvdr(2.0) == 0.0
        assert pot.value(0.0) == pytest.approx(2.0, rel=1e-12)
        assert np.array_equal(pot.value(np.array([0.5, 1.0, 3.0])) > 0,
                              [True, False, False])
        with pytest.raises(ValueError):
            CompactBumpPotential(2.0, -1.0)
        with pytest.raises(ValueError):
            CompactBumpPotential(2.0, float("nan"))

    def test_bump_force_is_minus_gradient(self):
        # the radial force -dV/dr is minus the slope of value(r), and both
        # vanish at and beyond the radius
        pot = CompactBumpPotential(2.0, 1.0)
        h = 1e-6
        for r in (0.1, 0.3, 0.54, 0.8, 0.95):
            fd = (pot.value(r + h) - pot.value(r - h)) / (2 * h)
            assert pot.dvdr(r) == pytest.approx(fd, rel=1e-6)
            assert pot.dvdr(r) < 0.0
        for r in (1.0, 1.0 + 1e-12, 1.5, 7.0):
            assert pot.dvdr(r) == 0.0 and pot.value(r) == 0.0


class TestNBodySystem:
    def test_masses_validated(self):
        with pytest.raises(ValueError):
            NBodySystem([1.0, -2.0])
        with pytest.raises(ValueError):
            NBodySystem([[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_masses_must_be_finite_and_positive(self, bad):
        # a nan or inf mass once gave a nan or inf energy and measure
        with pytest.raises(ValueError, match="masses"):
            NBodySystem([bad, 1.0])
        with pytest.raises(ValueError, match="masses"):
            free_quantum_momentum_measure([(np.zeros(6), np.ones(6))],
                                          [bad, 1.0])

    def test_forces_are_minus_energy_gradient(self):
        # three bodies inside the bump's support, with a Gaussian pair:
        # m * a is minus the gradient of the potential part of energy
        m = np.array([1.5, 0.5, 2.0])
        system = NBodySystem(
            m, pair_potential=GaussianPairPotential(2.0, 1.0),
            external_potential=CompactBumpPotential(1.3, 2.0,
                                                    (0.1, -0.2, 0.05)))
        pos = np.array([[0.3, -0.2, 0.4], [-0.5, 0.6, 0.1],
                        [0.9, 0.2, -0.7]]).ravel()
        still = np.zeros(9)
        h = 1e-6
        grad = np.empty(9)
        for k in range(9):
            dx = np.zeros(9)
            dx[k] = h
            grad[k] = (system.energy(pos + dx, still)
                       - system.energy(pos - dx, still)) / (2 * h)
        force = (m[:, None] * system.accelerations(pos)).ravel()
        assert np.allclose(force, -grad, rtol=0.0, atol=1e-8)
        # the pair alone, and the field alone, push every body here
        for kw in ({"pair_potential": system.pair_potential},
                   {"external_potential": system.external_potential}):
            acc = NBodySystem(m, **kw).accelerations(pos)
            assert np.linalg.norm(acc, axis=1).min() > 0.05

    def test_free_flight_is_analytic(self):
        system = NBodySystem([1.5, 0.5])
        assert system.is_free
        p0 = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6]])
        v0 = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])
        (p1,), (v1,) = system.integrate(p0, v0, 1.0, np.array([65.0]))
        assert np.array_equal(v1, v0)
        assert np.array_equal(p1, p0 + v0 * 64.0)

    def test_interacting_flight_conserves(self):
        system = NBodySystem([1.5, 0.5],
                             pair_potential=GaussianPairPotential(2.0, 1.0))
        assert not system.is_free
        v0 = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])
        p0 = v0 * 1.0
        e0 = system.energy(p0, v0)
        mom0 = (np.array([1.5, 0.5])[:, None] * v0).sum(axis=0)
        (p1,), (v1,) = system.integrate(p0, v0, 1.0, np.array([33.0]))
        e1 = system.energy(p1, v1)
        mom1 = (np.array([1.5, 0.5])[:, None] * v1).sum(axis=0)
        assert e1 == pytest.approx(e0, rel=1e-8)
        assert np.allclose(mom1, mom0, atol=1e-9)

    def test_free_flight_at_many_times(self):
        system = NBodySystem([1.5, 0.5])
        p0 = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6]])
        v0 = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])
        times = 2.0 ** np.arange(1, 21)
        p1, v1 = system.integrate(p0, v0, 1.0, times)
        assert p1.shape == v1.shape == (20, 2, 3)
        for t, p, v in zip(times, p1, v1):
            assert np.array_equal(p, p0 + v0 * (t - 1.0))
            assert np.array_equal(v, v0)

    def test_interacting_flight_at_many_times(self):
        system = NBodySystem([1.5, 0.5],
                             pair_potential=GaussianPairPotential(2.0, 1.0))
        v0 = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])
        times = np.array([1.5, 2.0, 3.0, 8.0, 20.0, 33.0])
        p1, v1 = system.integrate(v0, v0, 1.0, times)
        assert p1.shape == v1.shape == (6, 2, 3)
        for t, p, v in zip(times, p1, v1):
            (p_ref,), (v_ref,) = system.integrate(v0, v0, 1.0,
                                                  np.array([t]))
            assert np.allclose(p, p_ref, rtol=0.0, atol=1e-9)
            assert np.allclose(v, v_ref, rtol=0.0, atol=1e-9)
        # the last time is the run's own end state, not an interpolant
        assert np.array_equal(p1[-1], p_ref)
        assert np.array_equal(v1[-1], v_ref)

    @pytest.mark.parametrize("times", [[2.0, 2.0], [3.0, 2.0], [0.5, 2.0],
                                       [], [[2.0, 3.0]], 2.0])
    def test_times_must_increase_from_t0(self, times):
        system = NBodySystem([1.5, 0.5])
        with pytest.raises(ValueError, match="increasing"):
            system.integrate(np.zeros((2, 3)), np.ones((2, 3)), 1.0,
                             np.array(times))

    @pytest.mark.parametrize("pair", [False, True])
    def test_until_stops_after_first_true(self, pair):
        pot = GaussianPairPotential(2.0, 1.0) if pair else None
        system = NBodySystem([1.5, 0.5], pair_potential=pot)
        v0 = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])
        times = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
        seen = []

        def until(t, p, v):
            seen.append(t)
            return t >= 8.0

        p1, v1 = system.integrate(v0, v0, 1.0, times, until=until)
        assert seen == [2.0, 4.0, 8.0]
        assert all(type(t) is float for t in seen)
        p_all, v_all = system.integrate(v0, v0, 1.0, times)
        assert p1.shape == v1.shape == (3, 2, 3)
        assert np.array_equal(p1, p_all[:3]) and np.array_equal(v1, v_all[:3])

    def test_non_finite_force_raises(self, monkeypatch):
        # width^2 underflows to 0, so the force is NaN at the first step;
        # DOP853 would step on for ever, so a capped call count makes a
        # regression fail instead of hang
        system = NBodySystem([1.5, 0.5], pair_potential=GaussianPairPotential(
            2.0, 1e-300))
        v0 = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])
        calls = []
        acc = NBodySystem.accelerations

        def counted(self, positions):
            calls.append(None)
            assert len(calls) <= 1000
            return acc(self, positions)

        monkeypatch.setattr(NBodySystem, "accelerations", counted)
        with np.errstate(all="ignore"), pytest.raises(
                IntegrationError, match="non-finite acceleration"):
            system.integrate(v0, v0, 1.0, np.array([2.0]))


def refuse_to_integrate(*args, **kwargs):
    raise AssertionError("the schedule was not refused before integrating")


def restarted_sweep(system, velocities, t_max, tolerance):
    """Checkpoints t = 2^k from t = 1, one integration restarted per step,
    each entry after the first the mean velocity since the one before."""
    vel = np.asarray(velocities, dtype=float)
    pos, t = vel * 1.0, 1.0
    history = [(t, pos.ravel().copy())]
    while t < t_max:
        t_next = min(2.0 * t, t_max)
        prev = pos
        (pos,), (vel,) = system.integrate(pos, vel, t, np.array([t_next]))
        history.append((t_next, ((pos - prev) / (t_next - t)).ravel()))
        t = t_next
        if np.max(np.abs(history[-1][1] - history[-2][1])) < tolerance:
            break
    return history


def two_body_limit(masses, amplitude, width, velocities):
    """Closed-form late-time velocities of two bodies that leave one point
    at t0 = 1 under the Gaussian pair potential (Landau & Lifshitz,
    *Mechanics*, sections 13-14).

    The relative motion is radial, so energy alone fixes the final
    relative speed, sqrt(2E / mu), along the initial relative velocity;
    the centre of mass moves on unchanged.
    """
    m1, m2 = masses
    v1, v2 = np.asarray(velocities, dtype=float)
    total = m1 + m2
    mu = m1 * m2 / total
    rel = v1 - v2
    speed = float(np.linalg.norm(rel))
    energy = (0.5 * mu * speed ** 2
              + amplitude * math.exp(-0.5 * (speed / width) ** 2))
    rel_inf = rel * (math.sqrt(2.0 * energy / mu) / speed)
    centre = (m1 * v1 + m2 * v2) / total
    return np.concatenate([centre + m2 / total * rel_inf,
                           centre - m1 / total * rel_inf])



def array_form(system, positions, velocities):
    """(accelerations, energy) as the array code took them: 3-vector deltas
    and sums, np.linalg.norm, and a 0-d r in the Gaussian's formulas."""
    pos = positions.reshape(system.n, 3)
    vel = velocities.reshape(system.n, 3)
    pair, field = system.pair_potential, system.external_potential
    terms = [(i, j, pos[i] - pos[j], pair) for i in range(system.n)
             for j in range(i + 1, system.n) if pair is not None]
    if field is not None:
        terms += [(i, None, pos[i] - field.center, field)
                  for i in range(system.n)]
    acc = np.zeros_like(pos)
    energy = 0.5 * float(np.sum(system.masses[:, None] * vel * vel))
    for i, j, delta, pot in terms:
        r = float(np.linalg.norm(delta))
        if isinstance(pot, GaussianPairPotential):
            r0 = np.asarray(r, dtype=float)
            value = pot.amplitude * np.exp(-0.5 * (r0 / pot.width) ** 2)
            slope = -pot.amplitude * (r0 / pot.width ** 2) * np.exp(
                -0.5 * (r0 / pot.width) ** 2)
        else:
            value, slope = pot.value(r), pot.dvdr(r)
        energy += float(value)
        if r == 0.0:
            continue
        f = -float(slope) * delta / r
        acc[i] += f / system.masses[i]
        if j is not None:
            acc[j] -= f / system.masses[j]
    return acc, energy


class TestScalarForces:
    def test_bitwise_equal_to_array_form(self):
        # accelerations and energy run on plain floats, keeping the array
        # form's BLAS dot product for r^2, np.exp, and a pow for the square.
        # The draws must hold inputs where each plain-float shortcut moves
        # a Gaussian term, so that taking one would fail this test.
        rng = np.random.default_rng(31)
        moved = {"sum of squares": 0, "math.exp": 0, "x * x": 0}
        for trial in range(3000):
            n = int(rng.integers(2, 5))
            pair = GaussianPairPotential(float(rng.uniform(0.5, 3.0)),
                                         float(rng.uniform(0.5, 2.0)))
            bump = (CompactBumpPotential(float(rng.uniform(0.5, 2.0)),
                                         float(rng.uniform(1.0, 3.0)),
                                         rng.normal(size=3))
                    if trial % 2 else None)
            system = NBodySystem(rng.uniform(0.2, 3.0, n), pair_potential=pair,
                                 external_potential=bump)
            pos = rng.normal(size=3 * n) * rng.uniform(0.3, 2.0)
            if trial % 7 == 0:
                pos[3:6] = pos[:3]  # a coincident pair, r = 0
            vel = rng.normal(size=3 * n)
            acc, energy = array_form(system, pos, vel)
            got = system.accelerations(pos)
            assert got.shape == (n, 3) and got.tobytes() == acc.tobytes()
            assert (np.float64(system.energy(pos, vel)).tobytes()
                    == np.float64(energy).tobytes())
            for i in range(n):
                for j in range(i + 1, n):
                    d = pos[3 * i:3 * i + 3] - pos[3 * j:3 * j + 3]
                    r = float(np.linalg.norm(d))
                    q = r / pair.width
                    moved["sum of squares"] += (
                        math.sqrt(sum(x * x for x in d.tolist())) != r)
                    moved["math.exp"] += (math.exp(-0.5 * q ** 2)
                                          != np.exp(-0.5 * q ** 2))
                    moved["x * x"] += (pair.dvdr(r) != -pair.amplitude * (
                        r / pair.width ** 2) * np.exp(-0.5 * (q * q)))
        assert min(moved.values()) >= 3, moved


class TestAsymptoticVelocity:
    V0 = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])

    def test_default_bigbang_meets_the_closed_form(self):
        p = {key: spec.default
             for key, spec in SCENARIOS["bigbang"].schema.items()}
        assert p["interaction"] == "gaussian" and p["t0"] == 1.0
        system = NBodySystem(p["masses"], pair_potential=GaussianPairPotential(
            p["amplitude"], p["width"]))
        res = asymptotic_velocity(system, p["velocities"], t_max=p["t_max"],
                                  tolerance=p["tolerance"], growth=p["growth"])
        assert res.converged
        limit = two_body_limit(p["masses"], p["amplitude"], p["width"],
                               p["velocities"])
        assert np.max(np.abs(res.v_plus - limit)) < 1e-10

    @pytest.mark.parametrize("sign", [1.0, -1.0],
                             ids=["repulsive", "attractive"])
    def test_random_unbound_pairs_meet_the_closed_form(self, sign):
        rng = np.random.default_rng(29)
        starts = 0
        while starts < 20:
            masses = rng.uniform(0.5, 2.0, 2)
            vel = rng.normal(size=(2, 3))
            amplitude = sign * rng.uniform(0.5, 3.0)
            width = rng.uniform(0.5, 2.0)
            mu = masses[0] * masses[1] / masses.sum()
            r0 = float(np.linalg.norm(vel[0] - vel[1]))
            if 0.5 * mu * r0 ** 2 + amplitude * math.exp(
                    -0.5 * (r0 / width) ** 2) <= 0:
                continue  # a bound pair has no late-time velocities
            starts += 1
            system = NBodySystem(list(masses), pair_potential=(
                GaussianPairPotential(amplitude, width)))
            res = asymptotic_velocity(system, vel, t_max=2.0 ** 24,
                                      tolerance=1e-10)
            assert res.converged
            limit = two_body_limit(masses, amplitude, width, vel)
            assert np.max(np.abs(res.v_plus - limit)) < 1e-10

    def test_free_checkpoints_are_exact(self):
        system = NBodySystem([1.5, 0.5])
        res = asymptotic_velocity(system, self.V0, t_max=2.0 ** 13,
                                  tolerance=0.0)
        # zero tolerance never declares convergence, so the sweep runs out
        assert res.converged is False
        flat = self.V0.ravel()
        assert len(res.convergence_history) == 14
        for k, (t, ratio) in enumerate(res.convergence_history):
            assert t == float(2 ** k)
            assert np.array_equal(ratio, flat)
        assert np.array_equal(res.v_plus, flat)

    def test_two_body_settles_to_conserving_velocities(self):
        system = NBodySystem([1.5, 0.5],
                             pair_potential=GaussianPairPotential(2.0, 1.0))
        res = asymptotic_velocity(system, self.V0, t_max=2.0 ** 16,
                                  tolerance=1e-5)
        assert res.converged
        e0 = system.energy(self.V0 * 1.0, self.V0)
        m = np.array([1.5, 0.5])
        ke = 0.5 * float((m[:, None]
                          * np.asarray(res.v_plus).reshape(2, 3) ** 2).sum())
        # all potential energy drains into kinetic as the bodies separate
        assert ke == pytest.approx(e0, rel=1e-4)
        diffs = [float(np.max(np.abs(b[1] - a[1])))
                 for a, b in zip(res.convergence_history,
                                 res.convergence_history[1:])]
        assert diffs[-1] < diffs[0]

    def test_rejects_bad_schedule(self):
        system = NBodySystem([1.0])
        with pytest.raises(ValueError):
            asymptotic_velocity(system, np.zeros((1, 3)), t_max=0.5,
                                tolerance=1e-6)
        with pytest.raises(ValueError):
            asymptotic_velocity(system, np.zeros((1, 3)), t_max=8.0,
                                growth=1.0)

    @pytest.mark.parametrize("pair", [False, True])
    def test_refuses_schedule_past_the_cap(self, pair, monkeypatch):
        # growth one ulp above 1 would need ~5e16 checkpoints; refusing
        # means never integrating, so a regression fails instead of hanging
        monkeypatch.setattr(NBodySystem, "integrate", refuse_to_integrate)
        pot = GaussianPairPotential(2.0, 1.0) if pair else None
        system = NBodySystem([1.5, 0.5], pair_potential=pot)
        with pytest.raises(ValueError, match="checkpoints"):
            asymptotic_velocity(system, self.V0, t_max=2.0 ** 24,
                                tolerance=0.0, t0=1.5,
                                growth=1.0000000000000002)

    def test_cap_admits_schedules_up_to_it(self, monkeypatch):
        monkeypatch.setattr(interference, "_MAX_CHECKPOINTS", 13)
        system = NBodySystem([1.5, 0.5])
        res = asymptotic_velocity(system, self.V0, t_max=2.0 ** 13,
                                  tolerance=0.0)
        assert len(res.convergence_history) == 14
        with pytest.raises(ValueError, match="more than 13"):
            asymptotic_velocity(system, self.V0, t_max=2.0 ** 14,
                                tolerance=0.0)

    def test_bound_pair_stops_at_convergence(self, monkeypatch):
        # an attractive pair with negative energy oscillates for ever; the
        # run must end at the converged checkpoint, not step on to t_max
        system = NBodySystem([1.5, 0.5],
                             pair_potential=GaussianPairPotential(-2.0, 1.0))
        vel = 0.1 * self.V0
        assert system.energy(vel, vel) < 0
        calls = []
        acc = NBodySystem.accelerations

        def counted(self, positions):
            # stepping on to t_max takes millions of calls: fail, not hang
            calls.append(None)
            assert len(calls) <= 40_000
            return acc(self, positions)

        monkeypatch.setattr(NBodySystem, "accelerations", counted)
        res = asymptotic_velocity(system, vel, t_max=2.0 ** 24,
                                  tolerance=1e-3)
        assert res.converged
        assert res.convergence_history[-1][0] == 256.0

    @pytest.mark.parametrize("pair", [False, True])
    def test_fine_schedule_converging_early_is_admitted(self, pair):
        # 16,640 checkpoints to t_max; the sweep must stop where it settles
        pot = GaussianPairPotential(2.0, 1.0) if pair else None
        system = NBodySystem([1.5, 0.5], pair_potential=pot)
        res = asymptotic_velocity(system, self.V0, t_max=2.0 ** 24,
                                  tolerance=1e-6, growth=1.001)
        assert res.converged
        times = [t for t, _ in res.convergence_history]
        assert times[:2] == [1.0, 1.001]
        if not pair:
            assert len(times) == 2
        else:
            # over [t, 1.001 t] the quotient is about the instantaneous
            # velocity, which settles once the pair has left the well
            assert len(times) < 1_000 and times[-1] < 2.0

    def test_criterion_13_sweep_is_one_integration(self, monkeypatch):
        system = NBodySystem([1.5, 0.5],
                             pair_potential=GaussianPairPotential(2.0, 1.0))
        ref = restarted_sweep(system, self.V0, 2.0 ** 31, 1e-9)
        calls = {"integrate": 0, "accelerations": 0}

        def counted(name):
            method = getattr(NBodySystem, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(NBodySystem, name, counted(name))
        res = asymptotic_velocity(system, self.V0, t_max=2.0 ** 31,
                                  tolerance=1e-9)
        assert calls["integrate"] == 1
        assert calls["accelerations"] <= 400
        assert res.converged
        assert len(res.convergence_history) == len(ref)
        for (t, ratio), (t_ref, ratio_ref) in zip(res.convergence_history,
                                                  ref):
            assert t == t_ref
            assert np.allclose(ratio, ratio_ref, rtol=0.0, atol=1e-9)


def scipy_dop853(rhs, t0, y0, ends):
    """The stepper's reference: scipy's DOP853 at the same tolerances, run
    once to ends[-1], each earlier time read from its dense output."""
    from scipy.integrate import DOP853

    solver = DOP853(rhs, t0, y0, float(ends[-1]),
                    rtol=interference._NBODY_RTOL,
                    atol=interference._NBODY_ATOL)
    dense = None
    for t in ends:
        while solver.t < t:
            assert solver.step() is None
            dense = None
        if solver.t == t:
            yield solver.y.copy()
        else:
            if dense is None:
                dense = solver.dense_output()
            yield dense(t)


class TestDop853:
    """The in-package 8(5,3) pair: its transcribed table, parity with
    scipy's DOP853, and its step-size failure."""

    V0 = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])

    def test_rows_sum_to_nodes(self):
        # every stage, the extension's three included, is consistent
        assert np.max(np.abs(interference._A.sum(axis=1)
                             - interference._C)) < 1e-14

    def test_weights_meet_the_quadrature_conditions(self):
        b, c = interference._B, interference._C[:12]
        for k in range(1, 9):
            assert abs(np.sum(b * c ** (k - 1)) - 1.0 / k) < 1e-14, k

    def test_error_weights_sum_to_zero(self):
        # each estimate is a difference of two solutions that are exact on
        # constants
        for e in (interference._E3, interference._E5):
            assert abs(e.sum()) < 1e-14

    def test_table_is_scipys_to_the_bit(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        for name, want in [("_C", ref.C), ("_A", ref.A), ("_B", ref.B),
                           ("_E3", ref.E3), ("_E5", ref.E5), ("_D", ref.D)]:
            assert np.array_equal(getattr(interference, name), want), name

    @pytest.mark.parametrize("amplitude,scale,t_max,tolerance", [
        (2.0, 1.0, 2.0 ** 31, 1e-9), (-2.0, 0.1, 2.0 ** 24, 1e-3)],
        ids=["criterion-13", "bound-pair"])
    def test_parity_with_scipy(self, amplitude, scale, t_max, tolerance,
                               monkeypatch):
        system = NBodySystem([1.5, 0.5], pair_potential=GaussianPairPotential(
            amplitude, 1.0))
        acc = NBodySystem.accelerations
        runs = []
        for stepper in (interference._dop853, scipy_dop853):
            calls, states = [], []

            def counted(self, positions):
                calls.append(None)
                return acc(self, positions)

            def recorded(rhs, t0, y0, ends, stepper=stepper, states=states):
                for y in stepper(rhs, t0, y0, ends):
                    states.append(y.copy())
                    yield y

            monkeypatch.setattr(NBodySystem, "accelerations", counted)
            monkeypatch.setattr(interference, "_dop853", recorded)
            res = asymptotic_velocity(system, scale * self.V0, t_max=t_max,
                                      tolerance=tolerance)
            assert res.converged
            runs.append((len(calls), states))
        (calls, states), (ref_calls, ref_states) = runs
        assert calls == ref_calls
        assert len(states) == len(ref_states) > 1
        for y, y_ref in zip(states, ref_states):
            assert np.allclose(y, y_ref, rtol=1e-13, atol=1e-13)

    def test_step_size_failure_raises(self, monkeypatch):
        # a right-hand side of fresh noise every call fails every error
        # test, so the step shrinks until it falls below 10 ulp of t
        rng = np.random.default_rng(5)
        calls = []

        def noise(self, positions):
            calls.append(None)
            assert len(calls) <= 1000
            return rng.normal(size=np.shape(positions)) * 1e6

        monkeypatch.setattr(NBodySystem, "accelerations", noise)
        system = NBodySystem([1.5, 0.5],
                             pair_potential=GaussianPairPotential(2.0, 1.0))
        with pytest.raises(IntegrationError,
                           match=r"propagation 1\.0 -> 2\.0 failed"):
            system.integrate(self.V0, self.V0, 1.0, np.array([2.0]))


class TestMomentumMeasure:
    LO = np.zeros(6)
    HI = np.ones(6)

    def test_default_normalisation(self):
        val = free_quantum_momentum_measure([(self.LO, self.HI)], [1.0, 1.0])
        assert val == pytest.approx((2.0 * math.pi) ** -6, rel=1e-12)

    def test_additive_over_disjoint_boxes(self):
        split = self.HI.copy()
        split[0] = 0.4
        lo2 = self.LO.copy()
        lo2[0] = 0.4
        total = free_quantum_momentum_measure(
            [(self.LO, split), (lo2, self.HI)], [1.0, 1.0])
        whole = free_quantum_momentum_measure([(self.LO, self.HI)],
                                              [1.0, 1.0])
        assert total == pytest.approx(whole, rel=1e-12)

    def test_translation_invariance(self):
        a = free_quantum_momentum_measure([(self.LO, self.HI)], [1.0, 1.0])
        b = free_quantum_momentum_measure([(self.LO + 7.5, self.HI + 7.5)],
                                          [1.0, 1.0])
        assert a == b

    def test_mass_cubed_scaling(self):
        base = free_quantum_momentum_measure([(self.LO, self.HI)], [1.0, 1.0])
        doubled = free_quantum_momentum_measure([(self.LO, self.HI)],
                                                [2.0, 2.0])
        assert doubled == pytest.approx(base * 2.0 ** 6, rel=1e-12)

    def test_no_boxes_have_no_measure(self):
        assert free_quantum_momentum_measure([], [1.0, 1.0]) == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            free_quantum_momentum_measure([(self.LO, self.HI * math.inf)],
                                          [1.0, 1.0])
        with pytest.raises(ValueError):
            free_quantum_momentum_measure([(self.HI, self.LO)], [1.0, 1.0])
        with pytest.raises(ValueError):
            free_quantum_momentum_measure(
                [(self.LO, self.HI), (self.LO + 0.5, self.HI + 0.5)],
                [1.0, 1.0])
        with pytest.raises(ValueError):
            free_quantum_momentum_measure([(np.zeros(4), np.ones(4))],
                                          [1.0, 1.0])
        with pytest.raises(ValueError):
            free_quantum_momentum_measure([(self.LO, self.HI)], [1.0, -1.0])
