import numpy as np
import pytest

from bergtoep import kernel, oracles
from bergtoep.odekernel import OdeKernelBasis
from bergtoep.oracles import g0_eval, residual_check, taylor_coefficients
from bergtoep.symbols import HarmonicPolySymbol, SpecialFamilySymbol, zbar_power_plus


def family(m, alpha, beta):
    """The basis of conj(z)^m + alpha z^m + beta."""
    return OdeKernelBasis(SpecialFamilySymbol(m, alpha, beta).as_harmonic())


def subspace_angle(A, B):
    qa, _ = np.linalg.qr(A.conj().T)
    qb, _ = np.linalg.qr(B.conj().T)
    return float(np.arcsin(min(np.linalg.norm(qb - qa @ (qa.conj().T @ qb), 2), 1.0)))


def rel_err(got, want):
    """Largest |got - want| / |want|, 0 where both vanish."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    diff = np.abs(got - want)
    assert np.all(diff[want == 0] == 0)
    nz = want != 0
    return float(np.max(diff[nz] / np.abs(want[nz]), initial=0.0))


class TestBasisConstruction:
    def test_quarter_case_fields(self):
        # phi_0 = 1 + z^2/4 = P(z^2), P = 1 + t/4 with its zero at -4
        b = family(1, 0.25, 0.0)
        assert (b.g, b.P.coeffs, b.radius) == (2, (1, 0.25), pytest.approx(4.0))
        t0, t1, e1, e2 = oracles.ode_exponents(b)
        assert [abs(t0), abs(t1)] == pytest.approx([2.0, 2.0])
        assert e2 - e1 == pytest.approx(1.0)
        assert {complex(e1), complex(e2)} == {(-0.5 + 0j), (0.5 + 0j)}

    def test_root_inside_rejected(self):
        # phi_0 = 1 + 2 z^2 = P(z^2): the message gives phi_0's zero modulus, not P's 0.5
        with pytest.raises(ValueError, match="modulus 0.707107 "):
            family(1, 2.0, 0.0)

    def test_anti_coefficient_rejected(self):
        with pytest.raises(ValueError):
            OdeKernelBasis(HarmonicPolySymbol(2, (0.1,), (0.0, 0.2)))

    @pytest.mark.parametrize("alpha,beta", [(0.25, 1.0), (0.0, 0.5)])
    def test_repeated_root_and_alpha_zero_build(self, alpha, beta):
        # beta^2 = 4 alpha (a double t-root at -2) and a linear P
        b = family(1, alpha, beta)
        assert oracles.span_angle(b, 40) < 1e-9


class TestG0:
    def test_value_at_origin(self):
        # G_0 = z^m V(z^m) with V(0) = 1
        for m, a, be in ((1, 0.25, 0.0), (2, 0.1, 0.1), (3, 0.2, 0.1j)):
            b = family(m, a, be)
            assert g0_eval(b, 0.0) == 0
            assert g0_eval(b, 1e-4) / 1e-4**m == pytest.approx(1.0, abs=1e-4)

    def test_closed_form_value(self):
        b = family(1, 0.25, 0.0)
        assert g0_eval(b, 0.5) == pytest.approx(1 / np.sqrt(4.25))
        zs = np.array([0.3 + 0.2j, -0.5j, 0.7])
        want = 2 * zs / np.sqrt(zs**2 + 4)
        assert np.allclose(g0_eval(b, zs), want, rtol=1e-12)

    def test_log_derivative_identity(self):
        gen = np.random.default_rng(8)
        h = 1e-6
        for m, a, be in ((1, 0.25, 0.0), (2, 0.1, 0.1), (3, 0.15, 0.05j)):
            b = family(m, a, be)
            pts = 0.8 * np.sqrt(gen.uniform(0.01, 1, 100)) * \
                np.exp(2j * np.pi * gen.uniform(size=100))
            num = (g0_eval(b, pts + h) - g0_eval(b, pts - h)) / (2 * h)
            lhs = num / g0_eval(b, pts)
            poly = a * pts ** (2 * m) + be * pts**m + 1.0
            rhs = m / (pts * poly)
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-8

    def test_domain_enforced(self):
        b = family(1, 0.25, 0.0)
        with pytest.raises(ValueError):
            g0_eval(b, 1.2)

    def test_g1_is_g0_over_z_phi0(self):
        # the series against the product formula: g_1 = G_0 / (z phi_0(z^m))
        gen = np.random.default_rng(9)
        for m, a, be in ((1, 0.25, 0.0), (2, 0.1, 0.1), (3, 0.15, 0.05j)):
            b = family(m, a, be)
            pts = 0.95 * np.sqrt(gen.uniform(0.01, 1, 100)) * \
                np.exp(2j * np.pi * gen.uniform(size=100))
            zm = pts**m
            want = g0_eval(b, pts) / (pts * (1.0 + be * zm + a * zm**2))
            assert rel_err(b.eval_basis(1, pts), want) < 1e-12


class TestBasisFunctions:
    def test_g1_quarter_closed_form(self):
        b = family(1, 0.25, 0.0)
        assert b.eval_basis(1, 0.0) == 1.0
        zs = np.array([0.1, 0.4 - 0.3j, 0.8j])
        want = 8 * (zs**2 + 4) ** -1.5
        assert np.allclose(b.eval_basis(1, zs), want, rtol=1e-12)

    def test_j_out_of_range(self):
        b = family(1, 0.25, 0.0)
        with pytest.raises(ValueError):
            b.eval_basis(2, 0.1)

    def test_g1_coefficients_proportional_to_recursion(self):
        b = family(1, 0.25, 0.0)
        coeffs = taylor_coefficients(b, 1, 12)
        stream = oracles.closed_form_kernel_czn(1, 1, 0.25, 0, 11).coefficients()
        # both are (1 + z^2/4)^(-3/2)
        assert coeffs[0] == pytest.approx(1.0)
        assert np.allclose(coeffs, stream, rtol=0, atol=1e-9)

    def test_zero_points_and_scalar_input(self):
        b = family(3, 0.2, 0.1j)
        zs = np.array([0j, 0.3 - 0.2j, 0j, 0j])
        for j in (1, 2, 3):
            got = b.eval_basis(j, zs)
            assert got[0] == got[2] == got[3]
            one = b.eval_basis(j, 0.0)
            assert isinstance(one, complex) and one == got[0]
            assert b.eval_basis(j, 0.3 - 0.2j) == got[1]
            assert b.eval_basis(j, np.zeros(0)).shape == (0,)
        # g_2(0) is the singular monomial's closed form, -1/(1 - m)
        assert b.eval_basis(2, 0.0) == pytest.approx(0.5)

    def test_bounded_near_boundary(self):
        b = family(2, 0.1, 0.1)
        zs = 0.99 * np.exp(2j * np.pi * np.arange(32) / 32)
        for j in (1, 2):
            vals = b.eval_basis(j, zs)
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals)) < 1e3


class TestResiduals:
    def test_m1_quarter(self):
        b = family(1, 0.25, 0.0)
        assert residual_check(b, 1) <= 1e-10

    def test_m2_both_basis_functions(self):
        b = family(2, 0.1, 0.1)
        for j in (1, 2):
            assert residual_check(b, j) <= 1e-10

    def test_m3(self):
        b = family(3, 0.2, 0.1j)
        for j in (1, 2, 3):
            assert residual_check(b, j) <= 1e-10

    def test_extraction_guard(self):
        b = family(1, 0.25, 0.0)
        with pytest.raises(oracles.ExtractionError):
            taylor_coefficients(b, 1, 400)


class TestSpanAgreement:
    @pytest.mark.parametrize("m,alpha,beta", [
        (1, 0.25, 0.0),
        (2, 0.1, 0.1),
        (2, 0.3j, 0.2),
        (3, 0.2, 0.1j),
    ])
    def test_matches_recursion_span(self, m, alpha, beta):
        b = family(m, alpha, beta)
        K = 40
        ode = np.vstack([taylor_coefficients(b, j, K) for j in range(1, m + 1)])
        psi = SpecialFamilySymbol(m, alpha, beta).as_harmonic()
        rec = np.vstack([kernel.recursion_general(psi, np.eye(m)[j], K - 1).coefficients()
                         for j in range(m)])
        assert subspace_angle(ode, rec) < 1e-9

    def test_general_f_matches_recursion_span(self):
        # conj(z)^m + f, m = 1..4, n = 0..3, every phi_0 zero of modulus
        # 1.2 or more; f's lower coefficients are zero a third of the time,
        # so that g runs over 1, m and m + n, and conj(z)^4 + 0.2 + 0.1 z^2
        # has g = 2 < m, where w_1 / (j - 1 - m + g) is the skipped 0/0 at j = 3
        gen = np.random.default_rng(31)
        bases = [OdeKernelBasis(zbar_power_plus(4, [0.2, 0, 0.1]))]
        while len(bases) < 60:
            m, n = int(gen.integers(1, 5)), int(gen.integers(0, 4))
            f = (gen.normal(size=n + 1) + 1j * gen.normal(size=n + 1)) * \
                (gen.uniform(size=n + 1) > 1 / 3) / 1.2 ** np.arange(m, m + n + 1)
            f[n] = f[n] or 0.5 / 1.2 ** (m + n)
            try:
                b = OdeKernelBasis(zbar_power_plus(m, f))
            except ValueError:   # a phi_0 zero in the closed disk
                continue
            if b.radius ** (1 / b.g) >= 1.2:
                bases.append(b)
        assert {b.g > b.m for b in bases} == {True, False} and bases[0].g == 2
        assert max(oracles.span_angle(b, 60) for b in bases) < 1e-9

    def test_conj_z_power_alone(self):
        # phi_0 = 1: the kernel of T_{conj(z)^m} is spanned by 1, ..., z^{m-1}
        b = OdeKernelBasis(zbar_power_plus(3, [0]))
        assert (b.g, b.P.coeffs, b.radius) == (1, (1,), np.inf)
        zs = np.array([0.3 + 0.2j, -0.7j])
        assert np.allclose(b.eval_basis(1, zs), zs**2, rtol=1e-15)
        assert np.allclose(b.eval_basis(2, zs), 0.5, rtol=1e-15)
        assert np.allclose(b.eval_basis(3, zs), zs, rtol=1e-15)


# --- the series against a per-point quadrature of the product formula ---

# 15-point Kronrod nodes/weights on [-1, 1] with the embedded 7-point Gauss rule
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


def _ref_gk_panel(f, a, b):
    h = 0.5 * (b - a)
    x = a + h * (_XK + 1.0)
    fx = f(x)
    k15 = h * np.sum(_WK * fx)
    g7 = h * np.sum(_WG * fx[1::2])
    return k15, abs(k15 - g7)


def _ref_adaptive_gk(f, a, b, tol, max_panels=512):
    val, err = _ref_gk_panel(f, a, b)
    panels = [(a, b, val, err)]
    for _ in range(max_panels):
        if sum(p[3] for p in panels) <= tol:
            return sum(p[2] for p in panels)
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        a0, b0, _, _ = panels.pop(worst)
        mid = 0.5 * (a0 + b0)
        panels.append((a0, mid, *_ref_gk_panel(f, a0, mid)))
        panels.append((mid, b0, *_ref_gk_panel(f, mid, b0)))
    raise RuntimeError("quadrature budget exhausted")


def ref_eval_basis(b, j, z, quad_tol=1e-12):
    """g_j from the product formula, with one scalar adaptive integral per
    point for j >= 2: g_j = -z^{m-1} / (phi_0 W) int_0^z t^{j-2-m} W(t^m) dt,
    W = 1/V, the singular monomial integrated in closed form and the rest,
    t^{j-2-m} (W - 1), radially."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    m = b.m
    zm = z**m
    beta, alpha = b.sym.ana[0], b.sym.ana[m]
    phi0 = 1.0 + beta * zm + alpha * zm**2
    if j == 1:
        with np.errstate(invalid="ignore"):
            out = g0_eval(b, z) / (z * phi0)
        out[z == 0] = 0.0         # g_1(0) = 0 for m >= 2, the corpus' m
        return out
    p = j - 2 - m
    out = np.empty(len(z), dtype=complex)
    for idx, zv in enumerate(z):
        q = 0j
        if zv != 0:
            def integrand(s, zv=zv):
                t = zv * s
                return t**p * np.expm1(-oracles.g0_log_v(b, t**m)) * zv
            q = _ref_adaptive_gk(integrand, 0.0, 1.0, quad_tol)
        w = np.exp(-oracles.g0_log_v(b, zm[idx]))
        out[idx] = -(zv ** (j - 2) / (p + 1) + zv ** (m - 1) * q) / (phi0[idx] * w)
    return out


def _polar_points():
    # the points `kernel --out` samples
    radii = np.linspace(0.05, 0.95, 10)
    angles = 2 * np.pi * np.arange(24) / 24
    return np.concatenate([r * np.exp(1j * angles) for r in radii])


def _engine_corpus():
    gen = np.random.default_rng(20)
    near = (1 - 10.0 ** -gen.uniform(2, 6, 16)) * np.exp(2j * np.pi * gen.uniform(size=16))
    pts = np.concatenate([_polar_points(), near, [0j, 0.5 + 0j]])
    cases = []
    for m in (2, 3, 4):
        while sum(c[0].m == m for c in cases) < 2:
            alpha, beta = (complex(*gen.normal(scale=0.3, size=2)) for _ in range(2))
            try:
                cases.append((family(m, alpha, beta), pts))
            except ValueError:
                continue
    return cases


_CORPUS = _engine_corpus()


class TestSeries:
    @pytest.mark.parametrize("case", range(len(_CORPUS)))
    def test_agrees_with_per_point_reference(self, case):
        b, pts = _CORPUS[case]
        for j in range(1, b.m + 1):
            assert rel_err(b.eval_basis(j, pts), ref_eval_basis(b, j, pts)) < 1e-12, (b.m, j)

    def test_term_cap_refuses(self):
        # a t-root at 1.001: |u| = 0.99 needs about 3,300 terms, 0.999 about 18,000
        t0, t1 = 1.001, 5.0
        b = family(1, 1 / (t0 * t1), -(t0 + t1) / (t0 * t1))
        assert np.all(np.isfinite(b.eval_basis(1, [0.5, 0.99])))
        with pytest.raises(ValueError, match="terms"):
            b.eval_basis(1, 0.999)

    @pytest.mark.parametrize("m,g,a,pts", [
        (1, 1, 1.3, _polar_points()), (2, 2, 1.3, _polar_points()), (1, 2, 1.1, _polar_points()),
        (1, 1, 1.1, 0.95 * np.exp(2j * np.pi * np.arange(1, 24) / 24))])
    def test_triple_zero_tail(self, m, g, a, pts):
        # phi_0 = (1 - z^g/a)^3: log V = (m/g)(1/(2u^2) + 1/u - log u - 3/2),
        # u = 1 - t/a, so w_k grows like exp(c k^(2/3)) a^-k and the geometric
        # estimate of D leaves a tail of up to 2e-6 at these points; on the
        # zero's ray at |z| = 0.95, a = 1.1, W cancels and the series refuses
        cs = np.zeros(3 * g + 1, complex)
        cs[::g] = [1, -3 / a, 3 / a**2, -1 / a**3]
        b = OdeKernelBasis(zbar_power_plus(m, cs[m:]))
        u = 1 - pts**g / a
        want = pts ** (m - 1) * np.exp((m / g) * (0.5 / u**2 + 1 / u - np.log(u) - 1.5)) / u**3
        assert rel_err(b.eval_basis(1, pts), want) < 1e-10

    def test_rounding_bound_refuses(self):
        # t-roots 1.001 and 1.002: W is tiny near u = 0.95, where its series
        # cancels terms about 1e10 times larger than its value
        t0, t1 = 1.001, 1.002
        b = family(1, 1 / (t0 * t1), -(t0 + t1) / (t0 * t1))
        assert np.all(np.isfinite(b.eval_basis(1, [0.3, -0.95])))
        with pytest.raises(ValueError, match="rounding"):
            b.eval_basis(1, 0.95)
