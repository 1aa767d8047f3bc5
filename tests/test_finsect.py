import warnings

import numpy as np
import pytest

from bergtoep import finsect
from bergtoep.finsect import min_singular_value, min_singular_values, truncation
from bergtoep.oracles import apply_symbol, tstar_zm_check
from bergtoep.symbols import (HarmonicPolySymbol, SpecialFamilySymbol, boundary_curve,
                              zbar_power_plus)


class TestApplySymbol:
    def test_projection_rule(self):
        # conj(z)^2 acting on z^3 gives (2/4) z
        d = [0j, 0j, 0j, 1.0]
        out = apply_symbol(zbar_power_plus(2, []), d)
        assert out[1] == pytest.approx(0.5)
        assert np.all(np.delete(out, 1) == 0)

    def test_cos_symbol_on_one(self):
        out = apply_symbol(HarmonicPolySymbol(1, (), (0, 1)), [1.0, 0, 0, 0])
        assert out[1] == 1
        assert out[0] == 0 and out[2] == 0

    def test_matches_shift_plus_weight_formula(self):
        gen = np.random.default_rng(2)
        m, n, c = 2, 1, 0.7 - 0.2j
        d = gen.uniform(-1, 1, 30) + 1j * gen.uniform(-1, 1, 30)
        out = apply_symbol(zbar_power_plus(m, [0, c]), d)
        for j in range(28):
            want = (j + 1) / (m + j + 1) * d[m + j]
            if j >= n:
                want += c * d[j - n]
            assert out[j] == pytest.approx(want, rel=1e-14)

    def test_linearity_and_truncation_agreement(self):
        gen = np.random.default_rng(4)
        sym = HarmonicPolySymbol(2, (0.4j,), (0.1, -0.3, 0.2))
        n = 24
        T = truncation(sym, n)
        w = np.sqrt(np.arange(n) + 1.0)
        d = gen.uniform(-1, 1, n) + 1j * gen.uniform(-1, 1, n)
        out = apply_symbol(sym, d)
        matvec = (T @ (d / w)) * w
        band = 4
        assert np.allclose(out[: n - band], matvec[: n - band], rtol=1e-13, atol=1e-14)


class TestTstarCheck:
    def test_monomial_zm(self):
        for m in (1, 2, 3):
            d = [0j] * m + [1.0]
            assert tstar_zm_check(m, d) <= 1e-15

    def test_monomial_zm_plus_one(self):
        m = 3
        d = [0j] * (m + 1) + [1.0]
        assert tstar_zm_check(m, d) <= 1e-15

    def test_random_polynomials(self):
        gen = np.random.default_rng(6)
        for _ in range(100):
            m = int(gen.integers(1, 5))
            deg = int(gen.integers(m + 1, 51))
            d = gen.uniform(-1, 1, deg + 1) + 1j * gen.uniform(-1, 1, deg + 1)
            d[:m] = 0
            assert tstar_zm_check(m, d) <= 1e-12

    def test_precondition(self):
        with pytest.raises(ValueError):
            tstar_zm_check(2, [1.0, 0, 0, 1.0])


class TestTruncation:
    def test_zbar_entry(self):
        T = truncation(zbar_power_plus(1, []), 2)
        assert T[0, 1] == pytest.approx(1 / np.sqrt(2))
        assert T[0, 0] == 0 and T[1, 0] == 0 and T[1, 1] == 0

    def test_identity_symbol(self):
        T = truncation(HarmonicPolySymbol(1, (), (1.0,)), 8)
        # symbol conj(z) + 1: subtract the band, expect the identity part
        assert np.allclose(np.diag(T), 1.0)

    def test_z_entry(self):
        T = truncation(SpecialFamilySymbol(1, 1.0, 0.0, 0.0), 2)
        assert T[1, 0] == pytest.approx(1 / np.sqrt(2))

    def test_banded_structure(self):
        sym = HarmonicPolySymbol(2, (0.5,), (0.1, 0.2, 0.3))
        T = truncation(sym, 20)
        nonzero_diags = {int(k) for k in range(-19, 20)
                         if np.any(np.abs(np.diag(T, k)) > 0)}
        assert len(nonzero_diags) <= 2 + 2 + 1

    def test_too_small_dimension(self):
        with pytest.raises(ValueError):
            truncation(HarmonicPolySymbol(3, (0, 0), (0, 0, 0, 1.0)), 4)


class TestMinSingularValue:
    def test_identity(self):
        T = truncation(HarmonicPolySymbol(1, (), (1.0,)), 16)
        # strip the conj(z) band by using the constant symbol directly
        T2 = truncation(SpecialFamilySymbol(1, 0.0, 1.0, 0.0), 16)
        assert min_singular_value(T2, 0.0) == pytest.approx(1.0)
        assert min_singular_value(T2, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_kernel_stream_annihilated(self):
        from bergtoep.kernel import recursion_general
        sym = SpecialFamilySymbol(1, 0.25, 0.0)
        s = recursion_general(sym.as_harmonic(), [1.0], 200)
        out = apply_symbol(sym, s.coefficients())
        assert np.max(np.abs(out[:190])) <= 1e-10


def _corpus_symbol(gen, kind, m, n):
    def c(scale):
        return complex(*gen.uniform(-scale, scale, 2))
    if kind == "family":
        return SpecialFamilySymbol(m, c(0.8), c(0.3))
    return HarmonicPolySymbol(m, tuple(c(0.4) for _ in range(m - 1)),
                              tuple(c(0.6) for _ in range(n + 1)))


def _corpus_points(gen, sym):
    """16^2 padded-box grid, then points on the curve and 1e-6..1e-2 off it."""
    curve = boundary_curve(sym, 64)
    re0, re1 = curve.real.min(), curve.real.max()
    im0, im1 = curve.imag.min(), curve.imag.max()
    pad = 0.25 * max(re1 - re0, im1 - im0, 0.5)
    grid = [complex(re, im) for im in np.linspace(im0 - pad, im1 + pad, 16)
            for re in np.linspace(re0 - pad, re1 + pad, 16)]
    on = curve[::8]
    off = [z + eps * np.exp(2j * np.pi * gen.uniform())
           for z in curve[4::16] for eps in (1e-6, 1e-4, 1e-2)]
    return np.array(grid + list(on) + off)


# (kind, m, n, sizes): every symbol at N=16, three at 64 and one at 128,
# where one dense reference SVD costs 2-4 ms
_CORPUS = [("family", 1, 1, (16, 128)), ("family", 2, 2, (16,)),
           ("family", 3, 3, (16, 64)), ("general", 1, 1, (16,)),
           ("general", 2, 1, (16, 64)), ("general", 1, 2, (16,)),
           ("general", 3, 1, (16, 64))]


class TestMinSingularValues:
    @pytest.mark.parametrize("kind,m,n,sizes", _CORPUS)
    def test_corpus_against_dense_svd(self, kind, m, n, sizes):
        gen = np.random.default_rng(100 * m + 10 * n + (kind == "family"))
        sym = _corpus_symbol(gen, kind, m, n)
        lams = _corpus_points(gen, sym)
        for N in sizes:
            T = truncation(sym, N)
            got = min_singular_values(T, lams)
            assert got.sigma.shape == got.certified.shape == got.nu.shape == lams.shape
            assert got.bounded.shape == lams.shape
            assert got.certified.any()
            assert not np.any(got.certified & got.bounded)
            for i, lam in enumerate(lams):
                sv = np.linalg.svd(T - complex(lam) * np.eye(N), compute_uv=False)
                floor = 1e-10 * sv[0]
                assert got.nu[i] >= sv[0] * (1 - 1e-14)
                if got.bounded[i]:
                    # a proven upper bound at or below the floor N eps nu
                    sub = N * np.finfo(float).eps * got.nu[i]
                    assert got.sigma[i] <= sub, (N, lam)
                    assert sv[-1] <= got.sigma[i] + sub, (N, lam)
                elif not got.certified[i]:
                    # the threshold is below 1e-2 nu for every band width here
                    assert got.sigma[i] < 1e-2 * got.nu[i], (N, lam)
                    assert got.sigma[i] == min_singular_value(T, lam), (N, lam)
                elif sv[-1] > floor:
                    assert abs(got.sigma[i] - sv[-1]) <= 1e-8 * sv[-1], (N, lam)
                else:
                    assert got.sigma[i] <= floor, (N, lam)

    def test_blocks_do_not_change_a_lane(self, monkeypatch):
        sym = SpecialFamilySymbol(2, 0.5 + 0.1j, 0.2)
        gen = np.random.default_rng(326)
        general = _corpus_symbol(gen, "general", 3, 1)
        # the second section has bounded lanes, split over several blocks too
        cases = [(truncation(sym, 32), _corpus_points(np.random.default_rng(3), sym)[:203]),
                 (truncation(general, 64), _corpus_points(gen, general))]
        wholes = [min_singular_values(T, lams) for T, lams in cases]
        assert wholes[1].bounded.sum() >= 5
        monkeypatch.setattr(finsect, "_BLOCK_BYTES", 50_000)
        for (T, lams), whole in zip(cases, wholes):
            split = min_singular_values(T, lams)
            assert split.passes > whole.passes
            assert np.array_equal(split.sigma, whole.sigma)
            assert np.array_equal(split.certified, whole.certified)
            assert np.array_equal(split.bounded, whole.bounded)

    def test_sub_floor_lane_is_bounded(self):
        # the README example: sigma_min at lam = 0 is below N eps nu
        T = truncation(SpecialFamilySymbol(1, 0.5, 0.0), 128)
        got = min_singular_values(T, [0.0, 2.0])
        assert list(got.bounded) == [True, False]
        assert list(got.certified) == [False, True]
        floor = 128 * np.finfo(float).eps * got.nu[0]
        assert min_singular_value(T, 0.0) <= got.sigma[0] <= floor

    def test_bound_that_misses_the_floor_goes_dense(self, monkeypatch):
        gen = np.random.default_rng(222)
        sym = _corpus_symbol(gen, "general", 2, 2)
        T = truncation(sym, 128)
        lams = _corpus_points(gen, sym)
        seen = {}
        step = finsect._inverse_step

        def spy(cl, lam, nu, r):
            t = step(cl, lam, nu, r)
            for z, b, f in zip(lam, t, 128 * np.finfo(float).eps * nu):
                seen[complex(z)] = min(seen.get(complex(z), np.inf), b / f)
            return t

        monkeypatch.setattr(finsect, "_inverse_step", spy)
        got = min_singular_values(T, lams)
        missed = [i for i, z in enumerate(lams) if seen.get(complex(z), 0) > 1]
        assert missed and got.bounded.any()
        for i in missed:
            assert not got.bounded[i] and not got.certified[i]
            assert got.sigma[i] == min_singular_value(T, lams[i])
            # a missed bound is still an upper bound, up to the SVD's own error
            floor = 128 * np.finfo(float).eps * got.nu[i]
            assert seen[complex(lams[i])] >= got.sigma[i] / floor - 1
        for i in np.flatnonzero(got.bounded):
            assert seen[complex(lams[i])] <= 1

    def test_residue_classes(self):
        for m in (1, 2, 3):
            assert min_singular_values(truncation(SpecialFamilySymbol(m, 0.5, 0.1), 24),
                                       [2.0]).classes == m
        general = HarmonicPolySymbol(2, (0.3,), (0.1, 0.2))
        assert min_singular_values(truncation(general, 24), [2.0]).classes == 1

    def test_diagonal_section(self):
        T = truncation(SpecialFamilySymbol(1, 0.0, 1.0, 0.0), 16)
        got = min_singular_values(T, [0.0, 1.0, 3.0 + 4.0j])
        assert got.classes == 16
        assert got.sigma[0] == pytest.approx(1.0, rel=2e-9)
        assert got.sigma[1] == min_singular_value(T, 1.0)
        assert got.sigma[2] == pytest.approx(abs(1 - (3 + 4j)), rel=2e-9)

    def test_overflowing_shift_goes_dense_without_warning(self):
        T = truncation(SpecialFamilySymbol(1, 0.5, 0.0), 16)
        lams = [1e200, -1e200, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = min_singular_values(T, lams)
        assert list(got.certified) == [False, False, True]
        assert not got.bounded.any()
        for i in range(2):
            assert got.sigma[i] == min_singular_value(T, lams[i])

    def test_extreme_and_nan_lanes_never_bounded(self):
        T = truncation(SpecialFamilySymbol(1, 0.5, 0.0), 128)
        lams = [complex("nan"), 1e200, -1e200, complex(0, 1e200), 0.0, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = min_singular_values(T, lams)
        assert list(got.bounded) == [False] * 4 + [True, False]
        assert list(got.certified) == [False] * 5 + [True]
        dense = np.array([min_singular_value(T, lam) for lam in lams[1:4]])
        assert np.isnan(got.sigma[0]) and got.sigma[1:4].tobytes() == dense.tobytes()

    def test_nan_lanes_answer_nan_without_svd(self, monkeypatch):
        # 0.1 and 0.2 are dense band points at N = 32, 1e200 has nu = inf
        T = truncation(SpecialFamilySymbol(1, 0.5, 0, 1), 32)
        nan = complex("nan")
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda A, **kw: calls.append(1) or svd(A, **kw))
        finite = min_singular_values(T, [0.1, 0.2, 1e200])
        assert len(calls) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = min_singular_values(T, [0.1, nan, 0.2, complex(0, float("inf")), 1e200])
        assert np.isnan(got.sigma[[1, 3]]).all() and len(calls) == 6
        assert not got.certified[[1, 3]].any() and not got.bounded[[1, 3]].any()
        for name in ("sigma", "certified", "bounded", "nu"):
            assert getattr(got, name)[[0, 2, 4]].tobytes() == getattr(finite, name).tobytes()
        assert np.isnan(min_singular_value(T, nan))
        E = T.copy()
        E[3, 5] = nan
        assert np.isnan(min_singular_values(E, [0.0, 2.0]).sigma).all()

    def test_exported_from_package(self):
        import bergtoep
        assert bergtoep.min_singular_values is min_singular_values

    def test_empty_grid(self):
        got = min_singular_values(truncation(SpecialFamilySymbol(1, 0.5, 0.0), 16), [])
        assert got.sigma.size == 0 and got.passes == 0
