import json
import math

import numpy as np
import pytest

from bergtoep import cli, cpoly, kernel, oracles, spectrum
from bergtoep.kernel import CoefficientStream, kernel_dimension, l2_membership, recursion_general
from bergtoep.oracles import closed_form_kernel_czn, coburn_classify
from bergtoep.symbols import (HarmonicPolySymbol, SpecialFamilySymbol, to_json,
                              zbar_power_plus)


def stream_of(values, stride=1):
    """The coefficients as a stream at log scale 0, e.g. a synthetic profile."""
    mant = np.asarray(list(values), dtype=complex)
    with np.errstate(divide="ignore"):
        return CoefficientStream(mant, np.log(np.abs(mant)), np.zeros(len(mant)), stride)


def unit_seed(m, j):
    seed = [0j] * m
    seed[j] = 1.0 + 0j
    return seed


class TestAnalyticPerturbationRecursion:
    def test_constant_perturbation_closed_form(self):
        c = 0.3 - 0.4j
        s = recursion_general(zbar_power_plus(1, [c]), [1.0], 60)
        want = np.array([(k + 1) * (-c) ** k for k in range(61)])
        assert np.allclose(s.coefficients(), want, rtol=1e-12, atol=0)

    def test_pure_antianalytic_seed_survives(self):
        s = recursion_general(zbar_power_plus(2, []), [1.0, 1.0], 40)
        d = s.coefficients()
        assert d[0] == 1 and d[1] == 1
        assert np.all(d[2:] == 0)

    def test_linear_perturbation_values(self):
        s = recursion_general(zbar_power_plus(1, [0, 1]), [1.0], 10)
        d = s.coefficients()
        assert d[2] == pytest.approx(-1.5)
        assert d[4] == pytest.approx(15 / 8)
        assert d[1] == 0 and d[3] == 0 and d[5] == 0

    def test_seed_length_checked(self):
        with pytest.raises(ValueError):
            recursion_general(zbar_power_plus(2, []), [1.0], 40)


class TestGeneralRecursion:
    def test_cos_symbol_hand_values(self):
        sym = HarmonicPolySymbol(1, (), (0, 1))
        s = recursion_general(sym, [1.0], 10)
        d = s.coefficients()
        assert d[1] == 0
        assert d[2] == pytest.approx(-1.5)

    def test_zero_seed_gives_zero_stream(self):
        sym = HarmonicPolySymbol(2, (0.3j,), (0.1, 0.2))
        s = recursion_general(sym, [0j, 0j], 50)
        assert np.all(s.coefficients() == 0)
        assert l2_membership(s).status == kernel.MEMBER

    @pytest.mark.parametrize("seed", [[math.nan, 0j], [0j, complex(math.inf, 0)]])
    def test_non_finite_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be finite"):
            recursion_general(HarmonicPolySymbol(2, (0.3j,), (0.1, 0.2)), seed, 50)

    def test_linearity(self):
        gen = np.random.default_rng(9)
        sym = HarmonicPolySymbol(2, (0.2 - 0.1j,), (0.3, 0.4j))
        e0 = recursion_general(sym, unit_seed(2, 0), 60).coefficients()
        e1 = recursion_general(sym, unit_seed(2, 1), 60).coefficients()
        for _ in range(10):
            a, b = complex(*gen.uniform(-1, 1, 2)), complex(*gen.uniform(-1, 1, 2))
            mix = recursion_general(sym, [a, b], 60).coefficients()
            want = a * e0 + b * e1
            assert np.allclose(mix, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def family_stream(m, alpha, beta, j, K, gamma=1.0):
    """recursion_general on psi = phi/gamma for the family symbol, unit seed j."""
    psi = SpecialFamilySymbol(m, alpha, beta, gamma).as_harmonic()
    return recursion_general(psi, unit_seed(m, j), K)


def three_term(m, alpha, beta, j, K):
    """The family recursion in t = z^m, with b_k = d_k/(k+1) on the class of j:

        b_{k+m} = -beta b_k - alpha ((k-m+1)/(k+1)) b_{k-m},

    from b_j = 1/(j+1), the unit seed d_j = 1."""
    d = np.zeros(K + 1, dtype=complex)
    b_prev, b = 0j, 1.0 / (j + 1)
    for k in range(j, K + 1, m):
        d[k] = (k + 1) * b
        b_prev, b = b, -beta * b - alpha * ((k - m + 1) / (k + 1)) * b_prev
    return d


class TestSpecialFamilyRecursion:
    def test_shifted_identity_family(self):
        # conj(z) - 1: d_k = k+1, not square-summable
        s = family_stream(1, 0.0, -1.0, 0, 400)
        d = s.coefficients()
        assert np.allclose(d, np.arange(401) + 1)
        assert l2_membership(s).status == kernel.NON_MEMBER

    def test_pure_antianalytic(self):
        s = family_stream(2, 0.0, 0.0, 1, 30)
        d = s.coefficients()
        assert d[1] == 1.0
        assert np.all(np.delete(d, 1) == 0)

    def test_matches_closed_form_up_to_seed_scale(self):
        # alpha = 1/4, beta = 0 matches the c z^n closed form with m = n = 1;
        # both start from d_0 = 1
        s = family_stream(1, 0.25, 0.0, 0, 80)
        cf = closed_form_kernel_czn(1, 1, 0.25, 0, 80)
        assert np.allclose(s.coefficients(), cf.coefficients(), rtol=1e-12, atol=1e-15)

    def test_matches_general_recursion_all_residues(self):
        # the t = z^m three-term recursion against recursion_general on psi,
        # gamma scaled out
        gen = np.random.default_rng(17)
        for _ in range(15):
            m = int(gen.integers(1, 4))
            alpha = complex(*gen.uniform(-1, 1, 2))
            beta = complex(*gen.uniform(-1, 1, 2))
            gamma = complex(*gen.uniform(0.5, 2, 2))
            k0 = int(gen.integers(0, m))
            a = three_term(m, alpha / gamma, beta / gamma, k0, 90)
            b = family_stream(m, alpha, beta, k0, 90, gamma).coefficients()
            scale = max(1.0, float(np.max(np.abs(b))))
            assert np.allclose(a, b, rtol=0, atol=1e-12 * scale)


class TestClosedForm:
    def test_n_zero_telescopes(self):
        c = 0.7j
        s = closed_form_kernel_czn(1, 0, c, 0, 40)
        want = np.array([(k + 1) * (-c) ** k for k in range(41)])
        assert np.allclose(s.coefficients(), want, rtol=1e-12)

    def test_quarter_coefficient(self):
        s = closed_form_kernel_czn(1, 1, 0.25, 0, 10)
        d = s.coefficients()
        assert d[0] == 1
        assert d[2] == pytest.approx(-3 / 8)
        assert d[1] == 0 and d[3] == 0

    def test_zero_c_is_monomial(self):
        s = closed_form_kernel_czn(2, 1, 0.0, 1, 20)
        d = s.coefficients()
        assert d[1] == 1
        assert np.all(np.delete(d, 1) == 0)

    def test_agrees_with_recursion_grid(self):
        for m in (1, 2, 3):
            for n in (0, 1, 2, 3):
                for c in (0.5, 2.0, -0.8 + 0.3j):
                    for j in range(m):
                        f = [0j] * (n + 1)
                        f[n] = c
                        a = recursion_general(zbar_power_plus(m, f), unit_seed(m, j), 100)
                        b = closed_form_kernel_czn(m, n, c, j, 100)
                        da, db = a.coefficients(), b.coefficients()
                        scale = max(1.0, float(np.max(np.abs(db))))
                        assert np.max(np.abs(da - db)) <= 1e-12 * scale


class TestMembership:
    def test_inside_disk_coefficient_member(self):
        s = closed_form_kernel_czn(2, 1, 0.5, 0, 20000)
        assert l2_membership(s).status == kernel.MEMBER

    def test_unimodular_coefficient_non_member(self):
        s = closed_form_kernel_czn(2, 1, 1.0, 0, 20000)
        v = l2_membership(s)
        assert v.status == kernel.NON_MEMBER
        assert v.tail_ratio is not None and v.tail_ratio > 1.1

    def test_geometric_growth(self):
        s = stream_of([2.0 ** k for k in range(200)], stride=1)
        v = l2_membership(s)
        assert v.status == kernel.NON_MEMBER
        assert v.route == "ratio" and v.terms_used == 199
        assert v.estimated_ratio_modulus == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_undecided(self, bad):
        # zeros after the bad entry must not read as an identically zero tail
        s = stream_of([1.0, bad] + [0.0] * 100, stride=1)
        v = l2_membership(s)
        assert (v.status, v.route) == (kernel.UNDECIDED, kernel.NON_FINITE)

    def test_harmonic_boundary_undecided(self):
        s = stream_of([1.0] * 20001, stride=1)
        v = l2_membership(s)
        assert v.status == kernel.UNDECIDED

    @pytest.mark.parametrize("r,p,want", [
        (0.99, 0.0, kernel.MEMBER),        # geometric decay
        (1.01, 0.0, kernel.NON_MEMBER),    # geometric growth
        (1.0, -1.0, kernel.MEMBER),        # |d_k|^2/(k+1) ~ k^-3, convergent
        (1.0, 0.0, kernel.UNDECIDED),      # exact harmonic boundary
        (1.0, 0.5, kernel.NON_MEMBER),     # divergent power tail
    ])
    def test_synthetic_growth_profiles(self, r, p, want):
        k = np.arange(20001, dtype=float)
        d = r**k * (k + 1.0) ** p
        v = l2_membership(stream_of(d, stride=1))
        assert v.status == want, v
        assert v.route == ("ratio" if r != 1.0 else "dyadic"), v

    def test_ratio_limit_is_dominant_characteristic_root(self):
        # conj(z) + beta + alpha z: b_{k+1} + beta b_k + alpha (...) b_{k-1} = 0
        # has characteristic roots x^2 + beta x + alpha; with roots 0.7 and
        # 0.3 the generic solution tracks 0.7
        lam0, lam1 = 0.7, 0.3
        beta, alpha = -(lam0 + lam1), lam0 * lam1
        v = l2_membership(family_stream(1, alpha, beta, 0, 1500))
        assert (v.status, v.route) == (kernel.MEMBER, "ratio")
        assert v.estimated_ratio_modulus == pytest.approx(lam0, rel=1e-2)
        # by K = 20000 the stream has decayed through the subnormal range
        # to zero; subnormal entries count as zeros, never as ratios near 1
        s = family_stream(1, alpha, beta, 0, 20000)
        assert np.any((s.mant != 0) & (np.abs(s.mant) < np.finfo(float).tiny))
        v = l2_membership(s)
        assert v.status == kernel.MEMBER
        assert v.estimated_ratio_modulus is None

    def test_norm_partials_nondecreasing(self):
        s = closed_form_kernel_czn(1, 1, 0.9, 0, 2000)
        npart = s.norm_partials
        assert np.all(np.diff(npart) >= 0)

    def test_norm_series_two_routes(self):
        # direct |d_k|^2/(k+1) partial sums versus the product-form series
        for (m, n, c, j) in ((1, 1, 0.6, 0), (2, 1, 0.4, 1), (3, 2, 0.7, 2)):
            K = 4000
            s = closed_form_kernel_czn(m, n, c, j, K)
            d = s.coefficients()
            direct = sum(abs(d[k]) ** 2 / (k + 1)
                         for k in range(len(d)) if k != j and d[k] != 0)
            series = 0.0
            prod = 1.0
            k = 1
            while k * (m + n) + j <= K:
                prod *= (k * (m + n) + 1 + j) / (k * n + (k - 1) * m + 1 + j)
                series += abs(c) ** (2 * k) * prod ** 2 / (k * (m + n) + j + 1)
                k += 1
            assert direct == pytest.approx(series, rel=1e-10)


class TestKernelDimension:
    def test_coburn_family_dims(self):
        assert kernel_dimension((2, [0, 0.5]), K=4000).dim == 2
        assert kernel_dimension((2, [0, 0, 0, 2.0]), K=4000).dim == 0
        assert kernel_dimension((3, []), K=400).dim == 3

    def test_special_family_dim(self):
        rep = kernel_dimension(SpecialFamilySymbol(2, 0.5, 0.0), K=4000)
        assert rep.dim == 2
        rep = kernel_dimension(SpecialFamilySymbol(1, 0.0, -1.0), K=4000)
        assert rep.dim == 0

    def test_gamma_zero_is_injective_multiplication(self):
        rep = kernel_dimension(SpecialFamilySymbol(2, 1.0, 0.5, 0.0))
        assert rep.dim == 0 and not rep.undecided

    def test_gamma_scaling_irrelevant(self):
        a = kernel_dimension(SpecialFamilySymbol(2, 0.5, 0.1), K=3000)
        b = kernel_dimension(SpecialFamilySymbol(2, 1.0, 0.2, 2.0), K=3000)
        assert a.dim == b.dim == 2

    def test_undecided_propagates(self):
        rep = kernel.KernelReport(None, True, (), ())
        assert rep.dim is None and rep.undecided

    def test_overflowed_stream_undecided(self):
        # phi_0 has a zero within 1e-308 of the circle (route on_circle), and
        # d_1 overflows: the NaN entries that follow are not zeros
        rep = kernel_dimension((1, [1e308, 1e308]))
        assert rep.dim is None and rep.undecided
        assert rep.reason.startswith("seed 0 stream is not finite from k = 1")
        assert [(v.status, v.route) for v in rep.verdicts] == [
            (kernel.UNDECIDED, kernel.NON_FINITE)]

    @pytest.mark.parametrize("c", [1e160, 1e200])
    def test_large_coefficients_stay_finite(self, c):
        # the rescale limit leaves room for |c| (m + K + 1): Coburn's table
        # (m = 1, n = 0, |c| >= 1) gives 0, and the zero of phi_0 within
        # 1/c of the circle decides by on_circle
        rep = kernel_dimension((1, [c]))
        assert (rep.dim, rep.undecided) == (0, False)
        assert [v.route for v in rep.verdicts] == ["ratio"]
        rep = kernel_dimension((1, [c, c]))
        assert (rep.dim, rep.undecided) == (0, False)
        assert [v.route for v in rep.verdicts] == ["on_circle"]
        s = recursion_general(zbar_power_plus(1, [c]), [1.0], 20000)
        assert np.all(np.isfinite(s.logmag))

    def test_guard_corpus_dim_at_least_index(self):
        # 35 of these symbols count fewer member seeds than the index: their
        # kernel vectors combine non-member seeds.  The adjoint bounds decide
        # 26 of them, each as the index; 9 (m = 3, index 1) stay at [1, 2]
        gen = np.random.default_rng(1)
        guarded = bounded = 0
        for _ in range(400):
            m = int(gen.integers(1, 4))
            n = int(gen.integers(1, 4))
            f = list(gen.normal(size=n + 1) + 1j * gen.normal(size=n + 1))
            index = spectrum.fredholm_index(zbar_power_plus(m, f), 0)
            rep = kernel_dimension((m, f), K=4000)
            if rep.undecided:
                assert rep.dim is None and rep.reason, (m, f)
                # only the guard leaves every seed decided
                if all(v.status != kernel.UNDECIDED for v in rep.verdicts):
                    guarded += 1
                    assert rep.reason.endswith(f"adjoint bounds [{index}, {index + 1}]")
            else:
                assert rep.dim >= max(index, 0), (m, f, rep.dim, index)
                if rep.dim_route == kernel.ADJOINT_BOUNDS:
                    bounded += 1
                    assert rep.dim == index and rep.reason is None, (m, f)
                    assert rep.bounds == (index, index) and rep.basis == ()
        assert guarded == 9
        assert bounded == 26


def _sym_from_phi0_zeros(m, n, zeros):
    cs = np.array([1.0 + 0j])
    for r in zeros:
        cs = np.convolve(cs, np.array([1.0, -1.0 / r]))
    return HarmonicPolySymbol(m, tuple(cs[1:m]), tuple(cs[m:m + n + 1]))


@pytest.fixture
def recursion_calls(monkeypatch):
    """The symbols kernel_dimension runs recursion_general on, in order."""
    calls = []

    def spy(s, seed, K):
        calls.append(s)
        return recursion_general(s, seed, K)
    monkeypatch.setattr(kernel, "recursion_general", spy)
    return calls


class TestAdjointBounds:
    def test_dim_route_recorded(self):
        rep = kernel_dimension((2, [0, 0.5]))
        assert (rep.dim, rep.dim_route, rep.bounds) == (2, kernel.SEED_COUNT, None)
        rep = kernel_dimension(SpecialFamilySymbol(1, 0.5, 0.0, 0.0))
        assert (rep.dim, rep.dim_route) == (0, kernel.ANALYTIC)
        rep = kernel_dimension((1, [0, 0.99995]))
        assert (rep.dim, rep.dim_route, rep.bounds) == (None, None, None)

    def test_n_zero_decided_without_adjoint(self, recursion_calls):
        # phi_0 zeros 0.5 and 2: index 1, both seeds non_member.  T_phi* is
        # analytic, so dim coker = 0 and dim ker = index with no adjoint run
        sym = _sym_from_phi0_zeros(2, 0, [0.5, 2.0])
        rep = kernel_dimension(sym)
        assert (rep.dim, rep.undecided, rep.reason) == (1, False, None)
        assert (rep.dim_route, rep.bounds, rep.basis) == (kernel.ADJOINT_BOUNDS, (1, 1), ())
        assert [(v.status, v.terms_used) for v in rep.verdicts] == [
            (kernel.NON_MEMBER, kernel.K_START)] * 2
        assert recursion_calls == [sym, sym]

    @pytest.mark.parametrize("m,n,zeros", [
        # index 1, no member seed, so 1 <= dim ker <= m - 1; the adjoint's
        # one seed is no member either, so the bounds meet at 1
        (2, 1, [0.5, 2.0, 3.0]),
        (2, 1, [0.853, 1.155j, -1.359]),
        (3, 1, [0.5, 0.7j, -1.5, 2.0]),      # index 1
        (3, 1, [0.4, 1.8, 2.5, 3.0]),        # index 2
    ])
    def test_coupled_repros_decided_as_index(self, m, n, zeros, recursion_calls):
        sym = _sym_from_phi0_zeros(m, n, zeros)
        index = spectrum.fredholm_index(sym, 0)
        rep = kernel_dimension(sym)
        assert all(v.status == kernel.NON_MEMBER for v in rep.verdicts)
        assert (rep.dim, rep.dim_route, rep.bounds) == (index, kernel.ADJOINT_BOUNDS,
                                                        (index, index))
        # one run of phi's seeds and one of the adjoint's, none at the cap
        assert [s.m for s in recursion_calls] == [m] * m + [n] * n
        assert max(v.terms_used for v in rep.verdicts) < 20000

    def test_crossed_bounds_not_recorded(self, monkeypatch):
        # t-zeros e^0.7i/0.98 and 1.2 e^0.7i (m = 1, index 1): at K = 256
        # the seed reads non_member, so the bounds cross at (1, 0).  They are
        # not recorded, the adjoint runs once, and the run at the cap decides
        t1, t2 = np.exp(0.7j) / 0.98, 1.2 * np.exp(0.7j)
        alpha = 1 / (t1 * t2)
        psi = SpecialFamilySymbol(1, alpha, -alpha * (t1 + t2)).as_harmonic()
        found = []

        def spy(*args):
            found.append(adjoint_bounds(*args))
            return found[-1]
        adjoint_bounds = kernel._adjoint_bounds
        monkeypatch.setattr(kernel, "_adjoint_bounds", spy)
        rep = kernel_dimension(psi)
        assert found == [(1, 0, True)]
        assert (rep.dim, rep.dim_route, rep.bounds, rep.reason) == (
            1, kernel.SEED_COUNT, None, None)
        assert [(v.status, v.terms_used) for v in rep.verdicts] == [(kernel.MEMBER, 20000)]

    def test_unclosed_bounds_run_at_the_cap(self, capsys):
        # m = 3, index 1: a non_member seed caps dim ker at 2, and the
        # adjoint (m' = 2, no member seed) at index + n - 1 = 2, so the
        # bounds stay [1, 2] and the seeds run once more at the cap
        sym = _sym_from_phi0_zeros(3, 2, [0.5, 0.6j, 2.0, -2.5, 3.0])
        assert spectrum.fredholm_index(sym, 0) == 1
        rep = kernel_dimension(sym, K=2000)
        assert (rep.dim, rep.undecided, rep.dim_route, rep.bounds) == (None, True, None, (1, 2))
        assert [(v.status, v.route, v.terms_used) for v in rep.verdicts] == [
            (kernel.NON_MEMBER, "ratio", 2000)] * 3
        assert rep.reason == ("0 member seeds but index 1: kernel vectors may combine "
                              "non-member seeds; adjoint bounds [1, 2]")
        rc = cli.main(["kernel", "--symbol", json.dumps(to_json(sym)), "--K", "2000"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out == ("kernel dim: undecided\n"
                       "  seed 0: non_member rho=2.00102\n"
                       "  seed 1: non_member rho=2.00102\n"
                       "  seed 2: non_member rho=2.00102\n")
        assert err == f"undecided: {rep.reason}\n"


def _near_boundary_corpus(js):
    """conj(z)^m + c z^n and a family symbol with one t-zero at e^0.7i/c,
    c = 1 +- 10^-j, with Coburn's kernel dimension."""
    for j in js:
        for sign in (-1, 1):
            c = 1 + sign * 10.0 ** -j
            want = lambda m: m if c < 1 else 0
            for m in (1, 2, 3):
                for n in range(4):
                    yield (m, [0j] * n + [c]), want(m)
                t1, t2 = np.exp(0.7j) / c, 3.0
                alpha = 1 / (t1 * t2)
                yield SpecialFamilySymbol(m, alpha, -alpha * (t1 + t2)), want(m)


class TestAdaptiveK:
    @pytest.mark.parametrize("K,js", [(4000, (1, 2, 3, 4, 5)), (20000, (3,))])
    def test_near_boundary_right_or_undecided(self, K, js):
        decided = 0
        for sym, want in _near_boundary_corpus(js):
            rep = kernel_dimension(sym, K=K)
            if rep.undecided:
                assert rep.dim is None and rep.reason, sym
            else:
                assert rep.dim == want, (sym, K, rep.dim, rep.verdicts)
                decided += 1
        assert decided >= 24

    @pytest.mark.parametrize("c,K", [(0.99995, 20000), (0.999, 1024), (0.995, 256)])
    def test_fixed_K_repros_right_or_undecided(self, c, K):
        rep = kernel_dimension((1, [0, c]), K=K)
        assert rep.dim in (1, None)
        assert rep.undecided == (rep.dim is None)
        if rep.undecided:
            assert rep.reason.startswith("below resolution")
            assert [v.route for v in rep.verdicts] == [kernel.UNRESOLVED]

    @pytest.mark.parametrize("m,n", [(1, 0), (2, 1), (3, 3)])
    def test_resolvable_symbol_stops_early(self, m, n):
        rep = kernel_dimension((m, [0j] * n + [0.5 * np.exp(1j)]))
        assert rep.dim == m
        assert all(v.terms_used <= 1024 for v in rep.verdicts)
        assert all(len(s) == v.terms_used + 1 for s, v in zip(rep.basis, rep.verdicts))

    def test_start_K_grows_with_one_over_gap(self):
        # rho = 0.99^(1/3): RESOLUTION / |1 - rho| = 1347, so the first run
        # is 2048 terms and its half already agrees
        rep = kernel_dimension((3, [0.99]))
        assert rep.dim == 3
        assert [v.terms_used for v in rep.verdicts] == [2048] * 3

    def test_on_circle_decides_at_start(self):
        for sym in ((2, [0, 1.0]), (1, [0, 0, np.exp(0.3j)]), SpecialFamilySymbol(1, 0.0, -1.0)):
            rep = kernel_dimension(sym)
            assert rep.dim == 0 and rep.reason is None
            assert {(v.status, v.route, v.terms_used) for v in rep.verdicts} == {
                (kernel.NON_MEMBER, kernel.ON_CIRCLE, kernel.K_START)}

    def test_zero_just_off_the_circle_is_undecided(self):
        # c = 1 - 5e-13 is a member (Coburn: dim 1), but rho = 1 - 2.5e-13 is
        # beyond every K up to the cap; only ulps from the circle count as on it
        assert coburn_classify(1, 1, 1 - 5e-13).dim_ker == 1
        rep = kernel_dimension((1, [0, 1 - 5e-13]))
        assert rep.dim is None and rep.undecided
        assert rep.reason == "below resolution: K |1 - rho| = 5e-09 < 4.5 at the cap K = 20000"
        assert [v.route for v in rep.verdicts] == [kernel.UNRESOLVED]

    def test_count_below_index_looks_again_at_the_cap(self):
        # t-zeros e^0.7i/c and r e^0.7i, both outside the disk: index m.
        # The k^p prefactor is large (p from about 4 to 12), so the seeds read
        # non_member at K and K/2 early on; the count below the index
        # sends the last run to the cap, where they are members
        def family(c, r, m):
            t1, t2 = np.exp(0.7j) / c, r * np.exp(0.7j)
            alpha = 1 / (t1 * t2)
            return SpecialFamilySymbol(m, alpha, -alpha * (t1 + t2))
        rep = kernel_dimension(family(0.98, 1.2, 1))
        assert rep.dim == 1
        assert rep.verdicts[0].terms_used == 20000
        rep = kernel_dimension(family(0.99, 1.1, 2), K=1000)
        assert rep.dim is None and rep.reason.startswith("0 member seeds but index 2")
        # at index m = 2 every unit seed is in the kernel: the non_member
        # verdicts are wrong at this K, not coupled
        assert [(v.status, v.route) for v in rep.verdicts] == [
            (kernel.UNDECIDED, kernel.UNRESOLVED)] * 2
        rep = kernel_dimension(family(0.99, 1.3, 1), K=1000)
        assert rep.dim is None
        assert rep.reason == "seed verdicts at K = 500 and K = 1000 differ at the cap"
        assert [(v.status, v.route) for v in rep.verdicts] == [
            (kernel.UNDECIDED, kernel.UNRESOLVED)]

    def test_root_failure_runs_to_cap(self, monkeypatch):
        def fail(*args):
            raise cpoly.RootFindingError("no roots")
        monkeypatch.setattr(kernel._cp, "zero_pattern", fail)
        rep = kernel_dimension((2, [0, 0.5]), K=3000)
        assert rep.dim == 2
        assert [v.terms_used for v in rep.verdicts] == [3000, 3000]

    def test_below_cap_start_is_the_cap(self):
        rep = kernel_dimension((1, [0, 0.5]), K=150)
        assert rep.dim == 1 and rep.verdicts[0].terms_used == 150

    @pytest.mark.parametrize("run", [
        lambda K: recursion_general(zbar_power_plus(2, [0, 3.0]), [0, 1.0], K),
        lambda K: recursion_general(HarmonicPolySymbol(2, (0.4 - 0.2j,), (0.5, 1.5)),
                                    [1.0, 0j], K),
        lambda K: family_stream(2, 0.3, 2.5, 1, K),
        lambda K: family_stream(1, 0.25, 0.1, 0, K),
    ])
    def test_prefix_verdict_equals_shorter_run(self, run):
        # the K/2 verdict is read from the K run: its log magnitudes, all
        # l2_membership reads, equal those of a run to K/2 bit for bit,
        # rescales included
        long, short = run(4000), run(2000)
        head = kernel._prefix(long, 2000)
        assert np.array_equal(head.logmag, short.logmag)
        assert l2_membership(head) == l2_membership(short)


class TestCoburn:
    @pytest.mark.parametrize("m,n,c,want", [
        (2, 1, 0.5, (2, 0)),
        (2, 3, 2.0, (0, 3)),
        (3, 1, 0.0, (3, 0)),
        (1, 2, 1.0, (0, 2)),
    ])
    def test_table(self, m, n, c, want):
        v = coburn_classify(m, n, c)
        assert (v.dim_ker, v.dim_coker) == want
        assert v.coburn


class TestStreamPlumbing:
    def test_rescaling_keeps_logmag(self):
        s = recursion_general(zbar_power_plus(1, [3.0]), [1.0], 2000)
        # |d_k| = (k+1) 3^k overflows well before k = 2000
        assert s.log_scale[-1] > 0
        want = math.log(501.0) + 500 * math.log(3.0)
        assert s.logmag[500] == pytest.approx(want, rel=1e-12)

    def test_closed_form_rescaling_matches_recursion(self):
        # growth far beyond the double range: compare true log magnitudes
        a = recursion_general(zbar_power_plus(1, [1.5]), [1.0], 5000)
        b = closed_form_kernel_czn(1, 0, 1.5, 0, 5000)
        assert b.log_scale[-1] > 0
        assert np.all(np.isfinite(b.mant))
        assert np.allclose(a.logmag, b.logmag, rtol=1e-12, atol=1e-9)
        assert l2_membership(b).status == kernel.NON_MEMBER

    def test_csv_export(self, tmp_path):
        s = recursion_general(zbar_power_plus(1, [0.5]), [1.0], 50)
        path = tmp_path / "stream.csv"
        s.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,re,im,norm_partial,log_scale"
        assert len(lines) == 52
        k, re, im, npart, scale = lines[1].split(",")
        assert k == "0" and float(re) == 1.0 and float(scale) == 0.0

    @pytest.mark.parametrize("j", [0, 1])
    def test_rescaled_csv_is_self_consistent(self, tmp_path, j):
        # phi_0 zeros a hair off the circle: the stream grows slowly and
        # rescales 7 times by K = 4000; each row's own log_scale keeps its
        # mantissa a normal double that, with that scale, gives its logmag
        sym = HarmonicPolySymbol(2, (-3.1666566667666656,), (
            2.333311666883331, 0.16666833331666686, -0.33333000003333296))
        s = recursion_general(sym, unit_seed(2, j), 4000)
        path = tmp_path / "stream.csv"
        s.to_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        mant = rows[:, 1] + 1j * rows[:, 2]
        finite = np.isfinite(s.logmag)
        assert finite.sum() == 4000 and np.all(mant[finite] != 0)
        got = np.log(np.abs(mant[finite])) + rows[finite, 4]
        assert np.allclose(got, s.logmag[finite], rtol=1e-12, atol=1e-12)
        assert len(np.unique(rows[:, 4])) == 8

    def test_residual_against_coefficient_operator(self):
        # kernel streams (decaying and growing alike) are annihilated up to
        # the truncation boundary
        for sym, stream in [
            (zbar_power_plus(2, [0, 0.5]),
             recursion_general(zbar_power_plus(2, [0, 0.5]), unit_seed(2, 1), 300)),
            (SpecialFamilySymbol(1, 0.25, 0.1),
             family_stream(1, 0.25, 0.1, 0, 300)),
            (zbar_power_plus(1, [2.0]),
             recursion_general(zbar_power_plus(1, [2.0]), [1.0], 100)),
            (HarmonicPolySymbol(2, (0.4 - 0.2j,), (0.5, 1.5)),
             recursion_general(HarmonicPolySymbol(2, (0.4 - 0.2j,), (0.5, 1.5)),
                               unit_seed(2, 0), 120)),
        ]:
            d = stream.coefficients()
            out = oracles.apply_symbol(sym, d)
            band = 4
            scale = float(np.max(np.abs(d)))
            assert np.max(np.abs(out[: len(d) - band])) <= 1e-10 * scale
