import json

import numpy as np
import pytest

from bergtoep import cpoly, symbols
from bergtoep.symbols import (HarmonicPolySymbol, SpecialFamilySymbol,
                              associated_poly, boundary_curve,
                              poincare_condition, special_to_quadratic,
                              zbar_power_plus)


def random_symbol(gen, max_m=3, max_n=3):
    m = int(gen.integers(1, max_m + 1))
    n = int(gen.integers(0, max_n + 1))
    anti = tuple(complex(*gen.uniform(-1, 1, 2)) for _ in range(m - 1))
    ana = [complex(*gen.uniform(-1, 1, 2)) for _ in range(n + 1)]
    if n >= 1 and ana[-1] == 0:
        ana[-1] = 1.0
    return HarmonicPolySymbol(m, anti, tuple(ana))


class TestBoundaryCurve:
    def test_pure_antianalytic(self):
        sym = zbar_power_plus(1, [])
        curve = boundary_curve(sym, 16)
        z = np.exp(2j * np.pi * np.arange(16) / 16)
        assert np.allclose(curve, np.conj(z))

    def test_cosine_curve(self):
        sym = HarmonicPolySymbol(1, (), (0, 1))  # conj(z) + z
        curve = boundary_curve(sym, 16)
        assert np.allclose(curve, 2 * np.cos(2 * np.pi * np.arange(16) / 16))

    def test_shifted_square(self):
        sym = zbar_power_plus(2, [3.0])
        assert abs(sym.eval(1.0) - 4.0) < 1e-14

    def test_min_samples(self):
        with pytest.raises(ValueError):
            boundary_curve(zbar_power_plus(1, []), 8)


class TestAssociatedPoly:
    def test_cos_symbol(self):
        sym = HarmonicPolySymbol(1, (), (0, 1))
        phi = associated_poly(sym, 0).poly
        assert phi.coeffs == (1 + 0j, 0j, 1 + 0j)

    def test_pure_zbar(self):
        for m in (1, 2, 3):
            sym = zbar_power_plus(m, [])
            phi = associated_poly(sym, 0.7).poly
            want = [1 + 0j] + [0j] * (m - 1) + [-0.7 + 0j]
            assert phi.coeffs == tuple(want)

    def test_constant_perturbation(self):
        c = 0.4 + 0.2j
        sym = zbar_power_plus(1, [c])
        phi = associated_poly(sym, 0.1).poly
        assert phi.coeffs == (1 + 0j, c - 0.1)

    def test_constant_term_always_one(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            sym = random_symbol(gen)
            lam = complex(*gen.uniform(-2, 2, 2))
            assert associated_poly(sym, lam).poly.coeffs[0] == 1

    def test_circle_identity(self):
        # phi(z) - lam = phi_lam(z)/z^m on the unit circle
        gen = np.random.default_rng(11)
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        for _ in range(50):
            sym = random_symbol(gen)
            lam = complex(*gen.uniform(-2, 2, 2))
            phi = associated_poly(sym, lam).poly
            lhs = sym.eval(z) - lam
            rhs = cpoly.eval_poly_many(phi.coeffs, z) / z**sym.m
            scale = max(np.max(np.abs(rhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


class TestSpecialToQuadratic:
    def test_basic(self):
        sym = SpecialFamilySymbol(1, 0.25, 0.0)
        q = special_to_quadratic(sym, 0)
        assert q.coeffs == (1 + 0j, 0j, 0.25 + 0j)
        rs = cpoly.roots(q)
        assert all(abs(abs(r) - 2) < 1e-12 for r in rs)

    def test_degenerate_constant(self):
        sym = SpecialFamilySymbol(2, 0.0, 0.0, 1.0)
        q = special_to_quadratic(sym, 0)
        assert q.coeffs == (1 + 0j,)

    def test_unimodular_roots(self):
        q = special_to_quadratic(SpecialFamilySymbol(1, 1.0, 0.0), 0)
        rs = cpoly.roots(q)
        assert all(abs(abs(r) - 1) < 1e-12 for r in rs)

    def test_zero_signal(self):
        sym = SpecialFamilySymbol(1, 0.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            special_to_quadratic(sym, 2.0)

    def test_roots_are_zero_preimages(self):
        gen = np.random.default_rng(3)
        for _ in range(30):
            m = int(gen.integers(1, 4))
            sym = SpecialFamilySymbol(m, complex(*gen.uniform(-1, 1, 2)),
                                      complex(*gen.uniform(-1, 1, 2)))
            if sym.alpha == 0:
                continue
            lam = complex(*gen.uniform(-1, 1, 2))
            quad = special_to_quadratic(sym, lam)
            # z^m (phi - lam) as a polynomial in z
            full = [0j] * (2 * m + 1)
            full[0] = sym.gamma
            full[m] = sym.beta - lam
            full[2 * m] = sym.alpha
            fullp = cpoly.CPoly.make(full)
            for t in cpoly.roots(quad):
                for k in range(m):
                    z = (t ** (1 / m)) * np.exp(2j * np.pi * k / m)
                    assert abs(fullp(z)) <= 1e-8 * fullp.scale() * max(1.0, abs(z)) ** (2 * m)


class TestPoincareCondition:
    def test_equal_moduli_fails(self):
        sym = HarmonicPolySymbol(1, (), (0, 1))
        chk = poincare_condition(sym, 0)
        assert not chk.ok
        assert chk.moduli == pytest.approx((1.0, 1.0))

    def test_vacuous_degree_zero(self):
        chk = poincare_condition(zbar_power_plus(1, []), 0)
        assert chk.ok and chk.moduli == ()

    def test_scaled_equal_moduli(self):
        sym = HarmonicPolySymbol(1, (), (0, 2))
        chk = poincare_condition(sym, 0)
        assert not chk.ok
        assert chk.moduli == pytest.approx((2 ** -0.5, 2 ** -0.5))


class TestValidation:
    def test_bad_m(self):
        with pytest.raises(ValueError):
            HarmonicPolySymbol(0, (), (0,))

    def test_anti_length(self):
        with pytest.raises(ValueError):
            HarmonicPolySymbol(3, (1.0,), (0,))

    def test_trailing_zero_trim(self):
        sym = HarmonicPolySymbol(1, (), (1.0, 2.0, 0.0, 0.0))
        assert sym.ana == (1 + 0j, 2 + 0j)
        assert sym.n == 1

    def test_family_not_all_zero(self):
        with pytest.raises(ValueError):
            SpecialFamilySymbol(1, 0, 0, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, -float("inf"))])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HarmonicPolySymbol(2, (bad,), (0.5,))
        with pytest.raises(ValueError, match="finite"):
            HarmonicPolySymbol(1, (), (0.5, bad))
        with pytest.raises(ValueError, match="finite"):
            SpecialFamilySymbol(1, bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            SpecialFamilySymbol(1, 0.5, 0.5, bad)


def test_json_roundtrip():
    sym = HarmonicPolySymbol(2, (0.5 - 1j,), (0.1, 0.2 + 0.3j))
    data = symbols.to_json(sym)
    back = symbols.from_json(json.dumps(data))
    assert back == sym

    fam = SpecialFamilySymbol(3, 0.5, 1j, 2.0)
    back = symbols.from_json(symbols.to_json(fam))
    assert back == fam
