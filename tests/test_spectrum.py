import numpy as np
import pytest

from bergtoep import cpoly, spectrum
from bergtoep.spectrum import (OnCurveError, classify_projective,
                               curve_distance, fredholm_index,
                               invertibility_criterion, special_family_region,
                               spectrum_membership, winding_number,
                               winding_of_symbol)
from bergtoep.symbols import (HarmonicPolySymbol, SpecialFamilySymbol, boundary_curve,
                              zbar_power_plus)


def circle(samples=256):
    return np.exp(2j * np.pi * np.arange(samples) / samples)


class TestWindingNumber:
    def test_unit_circle(self):
        w = winding_number(circle(), 0)
        assert w.winding == 1
        assert w.min_distance_to_curve == pytest.approx(1.0)

    def test_negative_powers(self):
        for m in (1, 2, 3):
            curve = np.conj(circle(512)) ** m
            assert winding_number(curve, 0).winding == -m

    def test_exterior_point(self):
        t = 2 * np.pi * np.arange(256) / 256
        curve = 2 * np.cos(t) + 0.5j * np.sin(t)
        assert winding_number(curve, 5.0).winding == 0

    def test_on_curve_rejected(self):
        with pytest.raises(OnCurveError):
            winding_number(circle(), 1.0)

    def test_min_samples(self):
        with pytest.raises(ValueError):
            winding_number(circle(32), 0)

    def test_symbol_refinement(self):
        # high-degree symbol needs more than 512 samples
        sym = zbar_power_plus(1, [0j] * 40 + [0.5])
        w = winding_of_symbol(sym, 0.0)
        assert w.winding == -1

    def test_under_resolved_curve_rejected(self):
        # coarse sampling near the query point trips the increment guard
        with pytest.raises(spectrum.CurveResolutionError):
            winding_number(circle(64), 1.0 - 1e-4)

    def test_near_curve_point_correct_or_explicit(self):
        # within the sample cap the wrapper either resolves the true value
        # or refuses; it never returns a wrong winding
        sym = zbar_power_plus(1, [])
        for lam, want in ((1.0 + 1e-8, 0), (1.0 - 1e-8, -1)):
            try:
                w = winding_of_symbol(sym, lam, max_samples=4096)
            except (spectrum.CurveResolutionError, OnCurveError):
                continue
            assert w.winding == want


class TestFredholmIndex:
    def test_pure_antianalytic(self):
        for m in (1, 2, 3):
            assert fredholm_index(SpecialFamilySymbol(m, 0.0, 0.0), 0) == m

    def test_pure_analytic(self):
        for m in (1, 2):
            assert fredholm_index(SpecialFamilySymbol(m, 1.0, 0.0, 0.0), 0) == -m

    def test_half_coefficient(self):
        assert fredholm_index(SpecialFamilySymbol(1, 0.5, 0.0), 0) == 1

    def test_harmonic_symbol_route(self):
        sym = HarmonicPolySymbol(1, (), (0, 0.5))
        assert fredholm_index(sym, 0) == 1

    def test_on_curve_signal(self):
        sym = SpecialFamilySymbol(1, 0.0, 0.0)
        with pytest.raises(OnCurveError):
            fredholm_index(sym, 1.0)

    def test_adjoint_negates_index(self):
        gen = np.random.default_rng(12)
        done = 0
        while done < 200:
            m = int(gen.integers(1, 4))
            n = int(gen.integers(1, 4))
            c = complex(*gen.uniform(-2, 2, 2))
            if abs(abs(c) - 1) < 0.05 or abs(c) < 0.05:
                continue
            f = [0j] * n + [c]
            sym = zbar_power_plus(m, f)
            adj = zbar_power_plus(n, [0j] * m + [1 / c.conjugate()])
            try:
                i1 = fredholm_index(sym, 0)
                i2 = fredholm_index(adj, 0)
            except OnCurveError:
                continue
            done += 1
            assert i1 == -i2


class TestSpectrumMembership:
    def test_in_by_index(self):
        for m in (1, 2):
            v = spectrum_membership(zbar_power_plus(m, []), 0)
            assert v.status == spectrum.IN_BY_INDEX
            assert v.winding == -m

    def test_out_certified(self):
        sym = HarmonicPolySymbol(1, (), (1.0, 2.0))  # conj(z) + 2z + 1
        v = spectrum_membership(sym, 40 + 40j)
        assert v.status == spectrum.OUT_CERTIFIED
        assert v.winding == 0

    def test_in_essential_on_segment(self):
        sym = HarmonicPolySymbol(1, (), (0, 1))  # conj(z) + z, curve [-2, 2]
        v = spectrum_membership(sym, 0.37)
        assert v.status == spectrum.IN_ESSENTIAL

    def test_distance_refinement(self):
        sym = HarmonicPolySymbol(1, (), (0, 1))
        assert curve_distance(sym, 0.123) < 1e-7
        assert curve_distance(sym, 0.5 + 1j) == pytest.approx(1.0, rel=1e-4)

    def test_special_family_as_general_symbol_hypothesis_gap(self):
        # conj(z)^2 + 0.25 z^2 written with q = z^2: the shifted associated
        # polynomial is a quadratic in z^2, so its zeros come in equal-modulus
        # groups and the distinct-moduli hypothesis honestly fails for m >= 2.
        # The family-specific route still resolves the same point.
        sym = HarmonicPolySymbol(2, (0j,), (0.0, 0.0, 0.25))
        lam = 3.0 + 0.0j
        v = spectrum_membership(sym, lam)
        assert v.status == spectrum.ASSUMPTION_FAILED
        assert v.winding == 0
        assert special_family_region(2, 0.25, 0.0, lam) == spectrum.EXTERIOR
        # for m = 1 the same configuration certifies
        sym1 = HarmonicPolySymbol(1, (), (0.0, 0.25))
        v1 = spectrum_membership(sym1, 3.0)
        assert v1.status == spectrum.OUT_CERTIFIED


class TestSpecialFamilyRegion:
    def test_interior_value(self):
        assert special_family_region(1, 0.5, 0.0, 1.0) == spectrum.INTERIOR

    def test_exterior_point(self):
        assert special_family_region(1, 0.5, 0.0, 2j) == spectrum.EXTERIOR

    def test_disk_case(self):
        assert special_family_region(2, 0.0, 0.0, 0.0) == spectrum.INTERIOR
        assert special_family_region(2, 0.0, 0.0, 1.5) == spectrum.EXTERIOR

    def test_degenerate_segment(self):
        assert special_family_region(1, 1.0, 0.0, 1.0) == spectrum.BOUNDARY
        assert special_family_region(1, 1.0, 0.0, 1e-3j) == spectrum.EXTERIOR

    def test_rotation_consistency(self):
        # alpha = |alpha| e^{i tau}: region invariant under the matching rotation
        gen = np.random.default_rng(3)
        for _ in range(40):
            a = 0.8 * gen.uniform()
            tau = 2 * np.pi * gen.uniform()
            beta = complex(*gen.uniform(-1, 1, 2))
            theta = 2 * np.pi * gen.uniform()
            edge = complex((1 + a) * np.cos(theta), (1 - a) * np.sin(theta))
            for s, want in ((0.7, spectrum.INTERIOR), (1.3, spectrum.EXTERIOR)):
                lam = beta + np.exp(0.5j * tau) * s * edge
                got = special_family_region(2, a * np.exp(1j * tau), beta, lam)
                assert got == want


class TestClassifyProjective:
    def test_pure_antianalytic(self):
        v = classify_projective(2, 0, 0, 1)
        assert v.region == spectrum.OMEGA0 and v.index == 2

    def test_pure_analytic(self):
        v = classify_projective(3, 1, 0, 0)
        assert v.region == spectrum.OMEGA2 and v.index == -3

    def test_scaled_identity(self):
        v = classify_projective(2, 0, 1, 0)
        assert v.region == spectrum.OMEGA1 and v.index == 0

    def test_unimodular_roots_not_fredholm(self):
        v = classify_projective(1, 1, 0, 1)
        assert v.region == spectrum.NOT_FREDHOLM and v.index is None

    def test_zero_pencil(self):
        v = classify_projective(1, 0, 0, 0)
        assert v.region == spectrum.NOT_FREDHOLM

    def test_root_moduli_padded(self):
        v = classify_projective(1, 0, 1, 0.5)
        assert v.root_moduli == (0.5, np.inf)

    def test_inequality_agreement_random(self):
        gen = np.random.default_rng(19)
        checked = 0
        for _ in range(800):
            alpha = complex(*gen.uniform(-1.2, 1.2, 2))
            beta = complex(*gen.uniform(-1.5, 1.5, 2))
            gamma = complex(*gen.uniform(-1.2, 1.2, 2))
            v = classify_projective(2, alpha, beta, gamma)
            chk = v.inequality_checks
            if v.region == spectrum.NOT_FREDHOLM or chk.region is None:
                continue
            if chk.margin <= 1e-9:
                continue
            checked += 1
            assert chk.agrees_with_roots, (alpha, beta, gamma, v.region, chk.region)
        assert checked > 500

    def test_equal_modulus_branch(self):
        # |alpha| = |gamma|, discriminant positive real: invertible
        v = classify_projective(2, 1.0, 3.0, 1.0)
        assert v.region == spectrum.OMEGA1
        assert v.inequality_checks.region == spectrum.OMEGA1
        # |alpha| = |gamma|, discriminant nonpositive real: roots on the circle
        v = classify_projective(2, 1.0, 0.5, 1.0)
        assert v.region == spectrum.NOT_FREDHOLM


class TestInvertibility:
    def test_large_constant_invertible(self):
        sym = zbar_power_plus(1, [2.0])  # phi_0 = 1 + 2z, root -1/2 inside
        rep = invertibility_criterion(sym)
        assert rep.applicable and rep.invertible

    def test_small_constant_not_invertible(self):
        sym = zbar_power_plus(1, [0.5])
        rep = invertibility_criterion(sym)
        assert rep.applicable and rep.invertible is False
        assert rep.in_disk_count == 0

    def test_root_on_circle_flagged(self):
        sym = zbar_power_plus(1, [1.0])  # phi_0 = 1 + z, root on the circle
        rep = invertibility_criterion(sym)
        assert rep.on_circle and rep.invertible is False

    def test_agrees_with_membership(self):
        gen = np.random.default_rng(40)
        for _ in range(25):
            sym = HarmonicPolySymbol(1, (), (complex(*gen.uniform(-2, 2, 2)),
                                             complex(*gen.uniform(-2, 2, 2))))
            rep = invertibility_criterion(sym)
            if not rep.applicable or rep.on_circle:
                continue
            v = spectrum_membership(sym, 0)
            if v.status == spectrum.OUT_CERTIFIED:
                assert rep.invertible
            elif v.status == spectrum.IN_BY_INDEX:
                assert not rep.invertible


class TestWindingZeroCountIdentity:
    def test_random_family(self):
        gen = np.random.default_rng(77)
        done = 0
        while done < 60:
            m = int(gen.integers(1, 4))
            sym = SpecialFamilySymbol(m, complex(*gen.uniform(-1.5, 1.5, 2)),
                                      complex(*gen.uniform(-1.5, 1.5, 2)))
            lam = complex(*gen.uniform(-3, 3, 2))
            if curve_distance(sym, lam) < 1e-3:
                continue
            from bergtoep.symbols import special_to_quadratic
            quad = special_to_quadratic(sym, lam)
            count = cpoly.zero_pattern(quad, 1e-6).in_disk
            if count is None:
                continue
            done += 1
            wind = winding_of_symbol(sym, lam).winding
            assert wind + m == m * count


class TestRegionClassifyConsistency:
    def test_exterior_is_omega1(self):
        gen = np.random.default_rng(15)
        for _ in range(30):
            m = int(gen.integers(1, 4))
            a = 0.85 * np.sqrt(gen.uniform())
            alpha = a * np.exp(2j * np.pi * gen.uniform())
            beta = complex(*gen.uniform(-1, 1, 2))
            tau = np.angle(alpha) if alpha != 0 else 0.0
            theta = 2 * np.pi * gen.uniform()
            edge = complex((1 + a) * np.cos(theta), (1 - a) * np.sin(theta))
            lam_out = beta + np.exp(0.5j * tau) * 1.25 * edge
            assert special_family_region(m, alpha, beta, lam_out) == spectrum.EXTERIOR
            v = classify_projective(m, alpha, beta - lam_out, 1.0)
            assert v.region == spectrum.OMEGA1
            lam_in = beta + np.exp(0.5j * tau) * 0.75 * edge
            assert special_family_region(m, alpha, beta, lam_in) == spectrum.INTERIOR
            v = classify_projective(m, alpha, beta - lam_in, 1.0)
            assert v.region in (spectrum.OMEGA0, spectrum.OMEGA2)


# (m, n) of the spectrum benchmark's general grids, and n = 0
GRID_SHAPES = [(1, 2), (2, 1), (2, 2), (3, 1), (1, 0), (2, 0)]


def grid_symbols():
    """Two seeded symbols per shape: random coefficients, and phi_0 built
    from zeros of distinct moduli; for (2, 0) the second is conj(z)^2 + a_0,
    whose phi_lam has two zeros of equal modulus."""
    gen = np.random.default_rng(11)
    for m, n in GRID_SHAPES:
        yield HarmonicPolySymbol(m, tuple(complex(*gen.uniform(-1, 1, 2)) for _ in range(m - 1)),
                                 tuple(complex(*gen.uniform(-1.5, 1.5, 2)) for _ in range(n + 1)))
        if (m, n) == (2, 0):
            yield zbar_power_plus(2, [complex(*gen.uniform(-1, 1, 2))])
            continue
        zeros = gen.uniform(0.3, 3.0, m + n) * np.exp(2j * np.pi * gen.uniform(size=m + n))
        cs = np.poly(1 / zeros)[::-1] / np.prod(-1 / zeros)
        yield HarmonicPolySymbol(m, tuple(cs[1:m]), tuple(cs[m:]))


def padded_grid(sym, res=16, pad=0.25):
    curve = boundary_curve(sym, 512)
    re0, re1 = curve.real.min(), curve.real.max()
    im0, im1 = curve.imag.min(), curve.imag.max()
    w = pad * max(re1 - re0, im1 - im0, 0.5)
    return [complex(re, im) for im in np.linspace(im0 - w, im1 + w, res)
            for re in np.linspace(re0 - w, re1 + w, res)]


def one_point_answers(sym, lams, **tols):
    """repr of spectrum_membership at each lam, up to the first exception."""
    out = []
    for lam in lams:
        try:
            out.append(repr(spectrum_membership(sym, lam, **tols)))
        except (OnCurveError, spectrum.CurveResolutionError, cpoly.RootFindingError) as exc:
            return out, exc
    return out, None


class TestMembershipGrid:
    def test_verdicts_equal_one_point_answers(self):
        statuses = {}
        refined = 0
        for sym in grid_symbols():
            lams = padded_grid(sym)
            for curve_tol in (1e-6, 0.05):
                want, exc = one_point_answers(sym, lams, curve_tol=curve_tol)
                assert exc is None, exc
                got = spectrum.membership_grid(sym, lams, curve_tol=curve_tol)
                assert [repr(v) for v in got] == want
                for v in got:
                    statuses[v.status] = statuses.get(v.status, 0) + 1
            # points the first 512-sample winding pass cannot resolve
            refined += sum(isinstance(r, spectrum.CurveResolutionError)
                           for r in spectrum.winding_numbers(boundary_curve(sym, 512), lams))
        assert set(statuses) == {spectrum.IN_ESSENTIAL, spectrum.IN_BY_INDEX,
                                 spectrum.OUT_CERTIFIED, spectrum.ASSUMPTION_FAILED}
        assert refined > 0

    def test_first_failing_point_raises(self):
        # lam lies 4.9e-5 from the boundary curve, finer than the finest
        # winding sampling resolves
        sym = HarmonicPolySymbol(1, (), (1.8222031143572273 + 2.0934468164492177j,
                                         1.4112562786244354 - 0.16748957484570237j,
                                         3.975748168089595 - 0.0827677011681982j))
        lam = 4.470470381272609 + 6.146630148753228j
        lams = [complex(re, im) for im in np.linspace(lam.imag - 2, lam.imag, 16)
                for re in np.linspace(lam.real - 2, lam.real, 16)]
        assert lams[-1] == lam
        want, exc = one_point_answers(sym, lams)
        assert len(want) == 255 and isinstance(exc, spectrum.CurveResolutionError)
        with pytest.raises(spectrum.CurveResolutionError) as grid:
            spectrum.membership_grid(sym, lams)
        assert str(grid.value) == str(exc)
        assert [repr(v) for v in spectrum.membership_grid(sym, lams[:-1])] == want

    def test_root_and_winding_failures_in_point_order(self, monkeypatch):
        # of the points that raise, the first raises, whether its winding or
        # the roots of its phi_lam failed
        sym = HarmonicPolySymbol(1, (), (1.8222031143572273 + 2.0934468164492177j,
                                         1.4112562786244354 - 0.16748957484570237j,
                                         3.975748168089595 - 0.0827677011681982j))
        unresolved = 4.470470381272609 + 6.146630148753228j
        far = 40 + 40j
        assert spectrum_membership(sym, far).winding == 0
        conditions = spectrum.poincare_conditions

        def failing(sym, lams, rel_tol):
            if far in lams:
                raise cpoly.RootFindingError("at far")
            return conditions(sym, lams, rel_tol)

        monkeypatch.setattr(spectrum, "poincare_conditions", failing)
        # 5e-10 from a curve sample: off the curve at curve_tol 1e-12, but too
        # close for a winding number
        on_sample = complex(boundary_curve(sym, 512)[7]) + 5e-10
        for lams, want in (([0j, far, unresolved], cpoly.RootFindingError),
                           ([0j, unresolved, far], spectrum.CurveResolutionError),
                           ([far, on_sample, unresolved], cpoly.RootFindingError),
                           ([on_sample, unresolved, far], OnCurveError),
                           ([unresolved, on_sample, far], spectrum.CurveResolutionError)):
            _, exc = one_point_answers(sym, lams, curve_tol=1e-12)
            assert isinstance(exc, want)
            with pytest.raises(want) as grid:
                spectrum.membership_grid(sym, lams, curve_tol=1e-12)
            assert str(grid.value) == str(exc)

    def test_fredholm_index_matches_membership_winding(self):
        for sym in grid_symbols():
            lams = padded_grid(sym)[::5]
            for lam, v in zip(lams, spectrum.membership_grid(sym, lams)):
                if v.status != spectrum.IN_ESSENTIAL:
                    assert fredholm_index(sym, lam) == -v.winding
