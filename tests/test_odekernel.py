import numpy as np
import pytest

from bergtoep import kernel, odekernel, oracles
from bergtoep.odekernel import _GAUSS_IDX, _WG, _WK, _XK, OdeKernelBasis
from bergtoep.oracles import residual_check, taylor_coefficients
from bergtoep.symbols import SpecialFamilySymbol


def subspace_angle(A, B):
    qa, _ = np.linalg.qr(A.conj().T)
    qb, _ = np.linalg.qr(B.conj().T)
    sv = np.clip(np.linalg.svd(qa.conj().T @ qb, compute_uv=False), 0, 1)
    return float(np.arccos(sv.min()))


def one_lane(f, tol=1e-12, max_panels=odekernel._MAX_PANELS):
    """The adaptive Gauss-Kronrod integral of f on [0, 1], as one lane."""
    return odekernel._adaptive_gk_lanes(lambda lanes, s: f(s), 1, 0.0, 1.0, tol, max_panels)[0]


class TestQuadrature:
    def test_polynomial_exact(self):
        val = one_lane(lambda s: 3 * s**2 + 1j * s)
        assert val == pytest.approx(1 + 0.5j, abs=1e-13)

    def test_oscillatory(self):
        val = one_lane(lambda s: np.exp(40j * s))
        want = (np.exp(40j) - 1) / 40j
        assert abs(val - want) < 1e-11

    def test_panel_budget_exhaustion(self):
        with pytest.raises(odekernel.QuadratureError):
            one_lane(lambda s: np.exp(400j * s), tol=1e-14, max_panels=2)


class TestBasisConstruction:
    def test_quarter_case_fields(self):
        b = OdeKernelBasis(1, 0.25, 0.0)
        assert sorted([abs(b.z0m), abs(b.z1m)]) == pytest.approx([2.0, 2.0])
        e1, e2 = b.e1, b.e2
        assert e2 - e1 == pytest.approx(1.0)
        assert {complex(e1), complex(e2)} == {(-0.5 + 0j), (0.5 + 0j)}

    def test_root_inside_rejected(self):
        with pytest.raises(ValueError):
            OdeKernelBasis(1, 2.0, 0.0)  # roots at modulus 1/sqrt(2)

    def test_repeated_root_rejected(self):
        with pytest.raises(ValueError):
            OdeKernelBasis(1, 0.25, 1.0)  # beta^2 = 4 alpha

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            OdeKernelBasis(1, 0.0, 0.5)


class TestG0:
    def test_value_at_origin(self):
        for m, a, be in ((1, 0.25, 0.0), (2, 0.1, 0.1), (3, 0.2, 0.1j)):
            b = OdeKernelBasis(m, a, be)
            assert b.g0_eval(0.0) == 0

    def test_closed_form_value(self):
        b = OdeKernelBasis(1, 0.25, 0.0)
        assert b.g0_eval(0.5) == pytest.approx(0.5 / np.sqrt(4.25))
        zs = np.array([0.3 + 0.2j, -0.5j, 0.7])
        want = zs / np.sqrt(zs**2 + 4)
        assert np.allclose(b.g0_eval(zs), want, rtol=1e-12)

    def test_log_derivative_identity(self):
        gen = np.random.default_rng(8)
        h = 1e-6
        for m, a, be in ((1, 0.25, 0.0), (2, 0.1, 0.1), (3, 0.15, 0.05j)):
            b = OdeKernelBasis(m, a, be)
            pts = 0.8 * np.sqrt(gen.uniform(0.01, 1, 100)) * \
                np.exp(2j * np.pi * gen.uniform(size=100))
            num = (b.g0_eval(pts + h) - b.g0_eval(pts - h)) / (2 * h)
            lhs = num / b.g0_eval(pts)
            poly = a * pts ** (2 * m) + be * pts**m + 1.0
            rhs = m / (pts * poly)
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-8

    def test_domain_enforced(self):
        b = OdeKernelBasis(1, 0.25, 0.0)
        with pytest.raises(ValueError):
            b.g0_eval(1.2)


class TestBasisFunctions:
    def test_g1_quarter_closed_form(self):
        b = OdeKernelBasis(1, 0.25, 0.0)
        assert b.eval_basis(1, 0.0) == pytest.approx(0.5)
        zs = np.array([0.1, 0.4 - 0.3j, 0.8j])
        want = 4 * (zs**2 + 4) ** -1.5
        assert np.allclose(b.eval_basis(1, zs), want, rtol=1e-12)

    def test_j_out_of_range(self):
        b = OdeKernelBasis(1, 0.25, 0.0)
        with pytest.raises(ValueError):
            b.eval_basis(2, 0.1)

    def test_g1_coefficients_proportional_to_recursion(self):
        b = OdeKernelBasis(1, 0.25, 0.0)
        coeffs = taylor_coefficients(b, 1, 12)
        stream = oracles.closed_form_kernel_czn(1, 1, 0.25, 0, 11).coefficients()
        # (1 + z^2/4)^(-3/2) versus 4 (z^2+4)^(-3/2): ratio 1/2 throughout
        assert coeffs[0] == pytest.approx(0.5)
        assert np.allclose(coeffs, 0.5 * stream, rtol=0, atol=1e-9)

    def test_bounded_near_boundary(self):
        b = OdeKernelBasis(2, 0.1, 0.1)
        zs = 0.99 * np.exp(2j * np.pi * np.arange(32) / 32)
        for j in (1, 2):
            vals = b.eval_basis(j, zs)
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals)) < 1e3


class TestResiduals:
    def test_m1_quarter(self):
        b = OdeKernelBasis(1, 0.25, 0.0)
        assert residual_check(b, 1) <= 1e-6

    def test_m2_both_basis_functions(self):
        b = OdeKernelBasis(2, 0.1, 0.1)
        for j in (1, 2):
            assert residual_check(b, j) <= 1e-6

    def test_m3(self):
        b = OdeKernelBasis(3, 0.2, 0.1j)
        for j in (1, 2, 3):
            assert residual_check(b, j) <= 1e-6

    def test_extraction_guard(self):
        b = OdeKernelBasis(1, 0.25, 0.0)
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
        b = OdeKernelBasis(m, alpha, beta)
        K = 40
        ode = np.vstack([taylor_coefficients(b, j, K) for j in range(1, m + 1)])
        psi = SpecialFamilySymbol(m, alpha, beta).as_harmonic()
        rec = np.vstack([kernel.recursion_general(psi, np.eye(m)[j], K - 1).coefficients()
                         for j in range(m)])
        assert subspace_angle(ode, rec) < 1e-6


# --- the lane-wise quadrature against a per-point reference ---------------

def _ref_gk_panel(f, a, b):
    h = 0.5 * (b - a)
    x = a + h * (_XK + 1.0)
    fx = f(x)
    k15 = h * np.sum(_WK * fx)
    g7 = h * np.sum(_WG * fx[_GAUSS_IDX])
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
    raise odekernel.QuadratureError("budget")


def ref_eval_basis(b, j, z, quad_tol=1e-12):
    """g_j, j >= 2, with one scalar adaptive integral per point."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    p = j - 2 - b.m
    out = np.empty(len(z), dtype=complex)
    g1v = b._g1(z)
    zm = z**b.m
    v = b._v(zm)
    for idx, zv in enumerate(z):
        if zv == 0:
            q = 0j
        else:
            def integrand(s, zv=zv):
                t = zv * s
                return (t ** p) * b._dh(t) * zv
            q = _ref_adaptive_gk(integrand, 0.0, 1.0, quad_tol)
        head = (zv ** (j - 2) * v[idx]
                / ((j - 1 - b.m) * b.alpha * (zm[idx] - b.z0m) * (zm[idx] - b.z1m)))
        out[idx] = -(head + g1v[idx] * q)
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
                cases.append((OdeKernelBasis(m, alpha, beta), pts))
            except ValueError:
                continue
    return cases


_CORPUS = _engine_corpus()


def _bits(a):
    return np.asarray(a, dtype=complex).tobytes()


class TestLaneQuadrature:
    @pytest.mark.parametrize("case", range(len(_CORPUS)))
    def test_bitwise_equal_to_per_point_reference(self, case):
        b, pts = _CORPUS[case]
        for j in range(2, b.m + 1):
            assert _bits(b.eval_basis(j, pts)) == _bits(ref_eval_basis(b, j, pts)), (b.m, j)

    def test_subset_permutation_and_blocks_keep_bits(self, monkeypatch):
        b, pts = _CORPUS[2]
        full = b.eval_basis(3, pts)
        monkeypatch.setattr(odekernel, "_LANE_BLOCK", 7)
        assert _bits(b.eval_basis(3, pts)) == _bits(full)
        perm = np.random.default_rng(4).permutation(len(pts))
        assert _bits(b.eval_basis(3, pts[perm])) == _bits(full[perm])
        sub = perm[:37]
        assert _bits(b.eval_basis(3, pts[sub])) == _bits(full[sub])
        for i in (0, 100, 257):
            assert _bits(b.eval_basis(3, pts[i])) == _bits(full[i])

    def test_zero_lanes_and_scalar_input(self):
        b, _ = _CORPUS[0]
        zs = np.array([0j, 0.3 - 0.2j, 0j, 0j])
        got = b.eval_basis(2, zs)
        assert _bits(got) == _bits(ref_eval_basis(b, 2, zs))
        assert got[0] == got[2] == got[3]
        one = b.eval_basis(2, 0.0)
        assert isinstance(one, complex) and _bits(one) == _bits(got[0])
        assert b.eval_basis(2, np.zeros(0)).shape == (0,)

    def test_lane_out_of_panels_raises(self):
        # lane 1 oscillates too fast for two splits; lanes 0 and 2 converge
        freq = np.array([1.0, 400.0, 2.0])

        def f(lanes, s):
            return np.exp(1j * freq[lanes, None] * s)
        with pytest.raises(odekernel.QuadratureError):
            odekernel._adaptive_gk_lanes(f, 3, 0.0, 1.0, 1e-14, 2)
        got = odekernel._adaptive_gk_lanes(lambda ln, s: f(ln * 2, s), 2, 0.0, 1.0, 1e-14, 2)
        for lane, w in enumerate((1.0, 2.0)):
            assert _bits(got[lane]) == _bits(
                _ref_adaptive_gk(lambda s: np.exp(1j * w * s), 0.0, 1.0, 1e-14, 2))

    def test_budget_counts_splits_like_reference(self):
        # the reference raises after max_panels splits without a last test
        outcomes = set()
        for w in (2.0, 8.0, 20.0):
            def f(s, w=w):
                return np.exp(1j * w * s)
            for budget in range(10):
                try:
                    want = _bits(_ref_adaptive_gk(f, 0.0, 1.0, 1e-12, budget))
                except odekernel.QuadratureError:
                    want = None
                try:
                    got = _bits(one_lane(f, 1e-12, budget))
                except odekernel.QuadratureError:
                    got = None
                assert got == want, (w, budget)
                outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_worst_panel_is_the_first_maximum(self):
        # zero at the Gauss nodes, so |K15 - G7| = |K15|; the phase i on
        # the right half is exact, so both halves have the same error
        pattern = np.where(np.arange(15) % 2 == 0, np.arange(15.0) + 1.0, 0.0)
        starts = []

        def f(lanes, x):
            starts.append(x[:, 0].copy())
            return pattern * np.where(x[:, :1] > 0.5, 1j, 1.0)
        with pytest.raises(odekernel.QuadratureError):
            odekernel._adaptive_gk_lanes(f, 1, 0.0, 1.0, 0.0, 2)
        assert len(starts) == 3 and np.all(starts[2] < 0.5)

    def test_eval_basis_out_of_panels_raises(self, monkeypatch):
        # some lanes of this case need five rounds of splits
        b, pts = _CORPUS[5]
        monkeypatch.setattr(odekernel, "_MAX_PANELS", 2)
        with pytest.raises(odekernel.QuadratureError):
            b.eval_basis(2, pts)
        assert _bits(b.eval_basis(2, 0j)) == _bits(ref_eval_basis(b, 2, 0j)[0])


def _ref_gk_lanes(f, n, a, b, tol, max_panels, sums=None):
    """The lane engine as a plain loop: every round re-sums each lane's
    panel errors and scans its panels for the first worst one.  sums, if
    given, receives each error sum that is tested."""
    val, err = odekernel._gk_panels(f, np.arange(n), np.full(n, float(a)), np.full(n, float(b)))
    panels = [[(a, b, val[i], err[i])] for i in range(n)]
    out = np.empty(n, dtype=complex)
    active = list(range(n))
    for _ in range(max_panels):
        lanes, lo, hi = [], [], []
        for i in active:
            ps = panels[i]
            if sums is not None:
                sums.append(sum(p[3] for p in ps))
            if sum(p[3] for p in ps) <= tol:
                out[i] = sum(p[2] for p in ps)
                continue
            worst = max(range(len(ps)), key=lambda k: ps[k][3])
            a0, b0, _, _ = ps.pop(worst)
            mid = 0.5 * (a0 + b0)
            lanes += (i, i)
            lo += (a0, mid)
            hi += (mid, b0)
        active = lanes[::2]
        if not active:
            return out
        val, err = odekernel._gk_panels(f, np.array(lanes), np.array(lo), np.array(hi))
        for r, i in enumerate(lanes):
            panels[i].append((lo[r], hi[r], val[r], err[r]))
    if active:
        raise odekernel.QuadratureError(f"did not reach tol {tol:.1e} within {max_panels} panels")
    return out


# Gauss nodes hold 0 and the Kronrod-only nodes 1, so every panel of a
# lane of this kind has the same error: ties decide the worst panel
_TIE = np.where(np.arange(15) % 2 == 0, 1.0, 0.0)


def _lane_case(gen):
    """(f, n, tol, max_panels): lanes of mixed kinds, smooth, oscillatory,
    a narrow peak, zero, tied errors or an endpoint singularity, and in
    some cases a lane that turns NaN or infinite past part of [0, 1]."""
    n = int(gen.integers(1, 7))
    kind = gen.integers(0, 7 if gen.random() < 0.3 else 5, n)
    freq = gen.uniform(0.0, 100.0, n)
    width = 10.0 ** gen.uniform(-4.0, -1.0, n)
    cut = gen.uniform(0.2, 0.9, n)

    def f(lanes, x):
        k, w, p, c = kind[lanes, None], freq[lanes, None], width[lanes, None], cut[lanes, None]
        return np.select(
            [k == 0, k == 1, k == 2, k == 3, k == 4, k == 5],
            [np.exp(1j * w * x),
             p / ((x - c) ** 2 + p * p),
             -0.0 * x + 0j,
             _TIE * np.where(x[:, :1] > c, 1j, 1.0),
             x ** -0.5 + 0j,
             np.where(x > c, np.nan, np.exp(1j * w * x))],
            np.where(x > c, 1.797e308 * _TIE, 1.0) + 0j)
    tol = float(gen.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    return f, n, tol, int(gen.choice([0, 1, 5, 40, 200]))


def _recorded(engine, f, n, tol, max_panels):
    calls = []

    def g(lanes, x):
        calls.append((lanes.tobytes(), x.tobytes()))
        return f(lanes, x)
    try:
        with np.errstate(all="ignore"):
            outcome = _bits(engine(g, n, 0.0, 1.0, tol, max_panels))
    except odekernel.QuadratureError as exc:
        outcome = str(exc)
    return outcome, calls


def test_lane_engine_bitwise_equal_to_plain_loop():
    gen = np.random.default_rng(25)
    raised = 0
    for case in range(120):
        args = _lane_case(gen)
        got = _recorded(odekernel._adaptive_gk_lanes, *args)
        want = _recorded(_ref_gk_lanes, *args)
        assert got == want, case
        raised += isinstance(want[0], str)
    assert 0 < raised < 120


def test_lane_engine_at_tolerances_on_its_error_sums():
    # tol equal to a reached error sum, and one ulp below it: the row sums
    # cannot decide there, and the lane must still stop where the plain
    # loop stops
    for w in (7.0, 40.0, 150.0):
        def f(lanes, x, w=w):
            return np.exp(1j * w * x) / (1.0 + x)
        sums = []
        with pytest.raises(odekernel.QuadratureError):
            _ref_gk_lanes(f, 1, 0.0, 1.0, 0.0, 60, sums)
        for total in sums[5::6]:
            for tol in (float(total), float(np.nextafter(total, 0.0))):
                got = _recorded(odekernel._adaptive_gk_lanes, f, 1, tol, 60)
                assert got == _recorded(_ref_gk_lanes, f, 1, tol, 60), (w, tol)
