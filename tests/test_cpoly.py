import numpy as np
import pytest

from bergtoep import cpoly, oracles, spectrum
from bergtoep.cpoly import CPoly, ZeroPattern
from bergtoep.symbols import associated_poly, zbar_power_plus


def rng():
    return np.random.default_rng(1234)


def random_poly(gen, max_deg=8):
    # keep the degree honest: a near-zero leading coefficient pushes a root
    # toward infinity where no fixed residual bound is achievable
    while True:
        deg = int(gen.integers(1, max_deg + 1))
        cs = gen.uniform(-1, 1, deg + 1) + 1j * gen.uniform(-1, 1, deg + 1)
        p = CPoly.make(list(cs))
        if p.degree == deg and abs(p.coeffs[-1]) >= 0.25:
            return p


class TestEval:
    def test_root_by_construction(self):
        p = CPoly.make([1, 0, 1])
        assert abs(p(1j)) < 1e-15

    def test_constant(self):
        assert CPoly.make([1])(5 + 2j) == 1

    def test_factored(self):
        p = CPoly.make([2, -3, 1])  # (z-1)(z-2)
        assert abs(p(2)) < 1e-14


class TestRoots:
    def test_unit_quadratic(self):
        rs = cpoly.roots(CPoly.make([1, 0, 1]))
        assert rs == sorted(rs, key=lambda z: (abs(z), np.angle(z)))
        assert sorted([abs(r - 1j) < 1e-12 or abs(r + 1j) < 1e-12 for r in rs]) == [True, True]

    def test_scaled_quadratic(self):
        rs = cpoly.roots(CPoly.make([1, 0, 2]))
        want = 1 / np.sqrt(2)
        assert all(abs(abs(r) - want) < 1e-12 for r in rs)
        assert all(abs(r.real) < 1e-12 for r in rs)

    def test_real_factored(self):
        rs = cpoly.roots(CPoly.make([2, -3, 1]))
        assert abs(rs[0] - 1) < 1e-12 and abs(rs[1] - 2) < 1e-12

    def test_zero_roots_preserved(self):
        rs = cpoly.roots(CPoly.make([0, 0, 1, 1]))  # z^2 (1 + z)
        assert rs[0] == 0 and rs[1] == 0
        assert abs(rs[2] + 1) < 1e-12

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            cpoly.roots(CPoly.make([3.0]))

    def test_residuals_on_corpus(self):
        gen = rng()
        for _ in range(300):
            p = random_poly(gen)
            rs = cpoly.roots(p)
            assert len(rs) == p.degree
            scale = max(abs(c) for c in p.coeffs)
            assert max(abs(p(r)) for r in rs) <= 1e-9 * scale

    def test_gaussian_corpus_accepted_on_backward_error(self):
        # 55 of these raised RootFindingError under the absolute residual
        # test alone, although np.roots reaches backward error <= 31 eps
        gen = np.random.default_rng(7)
        for _ in range(5000):
            deg = int(gen.integers(1, 13))
            cs = gen.normal(size=deg + 1) + 1j * gen.normal(size=deg + 1)
            p = CPoly.make(list(cs))
            rs = np.array(cpoly.roots(p))
            assert len(rs) == p.degree
            resid = np.abs(cpoly.eval_poly_many(p.coeffs, rs))
            bound = cpoly.eval_poly_many(np.abs(p.coeffs), np.abs(rs)).real
            assert np.all(resid <= cpoly.BACKWARD_ERROR_TOL * bound), list(cs)

    def test_deterministic_ordering(self):
        gen = rng()
        for _ in range(20):
            p = random_poly(gen)
            a = cpoly.roots(p)
            b = cpoly.roots(p)
            assert a == b
            mods = [abs(z) for z in a]
            assert mods == sorted(mods)


class TestSignVariations:
    @pytest.mark.parametrize("seq,want", [
        ((1, 3, 9), 0),
        ((1, -3, 9), 2),
        ((1, 0, -4), 1),
        ((), 0),
        ((0, 0, 0), 0),
    ])
    def test_examples(self, seq, want):
        assert oracles.sign_variations(seq) == want

    def test_invariance_under_scaling_and_zero_insertion(self):
        gen = rng()
        for _ in range(100):
            seq = list(gen.uniform(-1, 1, int(gen.integers(1, 10))))
            base = oracles.sign_variations(seq)
            scale = float(gen.uniform(0.1, 10))
            assert oracles.sign_variations([scale * x for x in seq]) == base
            padded = []
            for x in seq:
                padded.extend([x, 0.0])
            assert oracles.sign_variations(padded) == base


class TestSchurCohn:
    def test_quadratic_inside(self):
        rep = oracles.schur_cohn(CPoly.make([1, 0, 2]))
        assert rep.dets == pytest.approx((3.0, 9.0))
        assert rep.variations == 0
        assert rep.in_disk_count == 2

    def test_quadratic_outside(self):
        rep = oracles.schur_cohn(CPoly.make([2, 0, 1]))
        assert rep.dets == pytest.approx((-3.0, 9.0))
        assert rep.variations == 2
        assert rep.in_disk_count == 0

    def test_degenerate_on_circle(self):
        rep = oracles.schur_cohn(CPoly.make([1, 0, 1]))
        assert rep.is_indeterminate
        assert rep.in_disk_count is None

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            oracles.schur_cohn(CPoly.make([1.0]))

    def test_matches_root_count(self):
        gen = rng()
        done = 0
        while done < 250:
            p = random_poly(gen)
            rep = oracles.schur_cohn(p)
            if rep.is_indeterminate:
                continue
            rs = cpoly.roots(p)
            if min(abs(abs(r) - 1) for r in rs) <= 1e-6:
                continue
            done += 1
            assert rep.in_disk_count == sum(1 for r in rs if abs(r) < 1)

    def test_quadratic_closed_forms(self):
        # for gamma + beta t + alpha t^2 the determinants have closed forms:
        # M1 = |alpha|^2 - |gamma|^2,
        # M2 = (|alpha|^2 - |gamma|^2)^2 - |alpha conj(beta) - beta conj(gamma)|^2
        gen = rng()
        for _ in range(60):
            alpha = complex(*gen.uniform(-2, 2, 2))
            beta = complex(*gen.uniform(-2, 2, 2))
            gamma = complex(*gen.uniform(-2, 2, 2))
            if alpha == 0:
                continue
            rep = oracles.schur_cohn(CPoly.make([gamma, beta, alpha]))
            m1 = abs(alpha) ** 2 - abs(gamma) ** 2
            m2 = m1 ** 2 - abs(alpha * beta.conjugate() - beta * gamma.conjugate()) ** 2
            assert rep.dets[0] == pytest.approx(m1, rel=1e-12, abs=1e-12)
            assert rep.dets[1] == pytest.approx(m2, rel=1e-11, abs=1e-11)

    def test_scalar_invariance(self):
        gen = rng()
        for _ in range(50):
            p = random_poly(gen, max_deg=5)
            rep = oracles.schur_cohn(p)
            c = complex(*gen.uniform(0.2, 2, 2))
            q = CPoly.make([c * a for a in p.coeffs])
            rep2 = oracles.schur_cohn(q)
            assert rep.in_disk_count == rep2.in_disk_count
            for k, (m1, m2) in enumerate(zip(rep.dets, rep2.dets), start=1):
                assert m2 == pytest.approx(m1 * abs(c) ** (2 * k), rel=1e-9, abs=1e-12)


def pattern(roots):
    """The ZeroPattern of these roots; distinct() does not read the disk count."""
    return ZeroPattern(tuple(roots), tuple(sorted(map(abs, roots))), None)


class TestDistinctModuli:
    def test_equal_moduli(self):
        assert not pattern([1j, -1j]).distinct()

    def test_separated(self):
        assert pattern([0.5, 2.0]).distinct()

    def test_within_tolerance(self):
        assert not pattern([1.0, 1.0000001]).distinct(rel_tol=1e-3)

    def test_empty_rejected(self):
        # without zeros the condition holds vacuously
        assert pattern([]).distinct()


class TestZeroPattern:
    def test_constant(self):
        zp = cpoly.zero_pattern(CPoly.make([3.0]), 1e-9)
        assert zp == ((), (), 0)
        assert zp.distinct()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            cpoly.zero_pattern(CPoly.make([0.0]), 1e-9)

    def test_near_circle_is_undecided(self):
        # (z - 0.5)(z - (1 + 1e-8)): one zero inside, one 1e-8 outside
        r = 1 + 1e-8
        p = CPoly.make([0.5 * r, -(0.5 + r), 1])
        assert cpoly.zero_pattern(p, 1e-6).in_disk is None
        assert cpoly.zero_pattern(p, 1e-10).in_disk == 1

    def test_circle_distance(self):
        # (z - 0.5)(z - (1 + 1e-8)): the outer zero sets the margin, which
        # decides the circle test against each tolerance
        r = 1 + 1e-8
        p = CPoly.make([0.5 * r, -(0.5 + r), 1])
        zp = cpoly.zero_pattern(p, 1e-6)
        assert oracles.circle_distance(zp) == pytest.approx(1e-8, rel=1e-6)
        assert (zp.in_disk is None) == (oracles.circle_distance(zp) <= 1e-6)
        assert oracles.circle_distance(cpoly.zero_pattern(CPoly.make([3.0]), 1e-9)) == np.inf
        assert oracles.circle_distance(cpoly.zero_pattern(CPoly.make([-2, 1]), 1e-9)) == 1.0
        roots, moduli, in_disk = zp  # no field added: unpacking is unchanged
        assert len(zp) == 3

    def test_distinct(self):
        assert not cpoly.zero_pattern(CPoly.make([1, 0, 2]), 1e-9).distinct()
        assert cpoly.zero_pattern(CPoly.make([2, -3, 1]), 1e-9).distinct(1e-3)

    def test_matches_numpy_roots(self):
        gen = rng()
        for _ in range(300):
            p = random_poly(gen)
            zp = cpoly.zero_pattern(p, 1e-6)
            mods = np.sort(np.abs(np.roots(p.coeffs[::-1])))
            assert zp.roots == tuple(cpoly.roots(p))
            assert zp.moduli == tuple(sorted(zp.moduli))
            np.testing.assert_allclose(zp.moduli, mods, rtol=1e-7, atol=1e-12)
            if np.min(np.abs(mods - 1)) > 1e-6:
                assert zp.in_disk == int(np.sum(mods < 1))

    def test_degree_zero_callers(self):
        # conj(z): phi_0 = 1 has no zeros, and every caller answers as its
        # former degree-0 branch did
        sym = zbar_power_plus(1, [])
        zp = cpoly.zero_pattern(associated_poly(sym), 0.0)
        assert zp == ((), (), 0) and zp.distinct()
        v = spectrum.classify_projective(2, 0, 0, 0.5j)
        assert v.region == spectrum.OMEGA0 and v.root_moduli == (np.inf, np.inf)


def gaussian_corpus():
    # the seed-7 corpus of test_gaussian_corpus_accepted_on_backward_error
    gen = np.random.default_rng(7)
    for _ in range(5000):
        deg = int(gen.integers(1, 13))
        yield CPoly.make(list(gen.normal(size=deg + 1) + 1j * gen.normal(size=deg + 1)))


def wide_corpus(count=400):
    # coefficients spread over 60 decades: Aberth roots that fail both
    # acceptance tests, some rescued by the companion matrix and some not
    gen = np.random.default_rng(8)
    for _ in range(count):
        deg = int(gen.integers(3, 10))
        cs = gen.normal(size=deg + 1) + 1j * gen.normal(size=deg + 1)
        yield CPoly.make(list(cs * 10.0 ** gen.uniform(-30, 30, deg + 1)))


def bits(rs):
    return np.array(rs, dtype=complex).tobytes()


def reversed_branch(p):
    # degree >= 3 once zero constants are stripped, leading coefficient the
    # smaller: the iteration runs on the reversed polynomial
    cs = list(p.coeffs)
    while cs[0] == 0:
        cs.pop(0)
    return len(cs) > 3 and abs(cs[-1]) < abs(cs[0])


def outcome(p):
    try:
        return bits(cpoly.roots(p))
    except cpoly.RootFindingError as exc:
        return exc


class TestRootsMany:
    def test_bitwise_equal_to_roots_by_degree(self):
        corpus = list(gaussian_corpus())
        # every seventh polynomial again, with two zero constants to strip
        corpus += [CPoly.make([0, 0, *p.coeffs]) for p in corpus[::7]]
        groups: dict[int, list[CPoly]] = {}
        for p in corpus:
            groups.setdefault(p.degree, []).append(p)
        assert set(groups) == set(range(1, 15))
        for group in groups.values():
            got = cpoly.roots_many(group)
            assert [bits(rs) for rs in got] == [bits(cpoly.roots(p)) for p in group]
        assert sum(map(reversed_branch, corpus)) > 1000
        # one call mixing all degrees
        assert ([bits(rs) for rs in cpoly.roots_many(corpus[:600])]
                == [bits(cpoly.roots(p)) for p in corpus[:600]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_companion_fallback_lanes(self, monkeypatch):
        corpus = list(wide_corpus())
        want = [outcome(p) for p in corpus]
        fallbacks = []
        numpy_roots = np.roots
        monkeypatch.setattr(np, "roots", lambda a: fallbacks.append(a) or numpy_roots(a))
        ok = [p for p, w in zip(corpus, want) if isinstance(w, bytes)]
        by_degree: dict[int, list[CPoly]] = {}
        for p in ok:
            by_degree.setdefault(p.degree, []).append(p)
        for group in by_degree.values():
            assert [bits(rs) for rs in cpoly.roots_many(group)] == [outcome(p) for p in group]
        assert len(fallbacks) > 20

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_failing_lane_raises(self):
        corpus = list(wide_corpus())
        want = [outcome(p) for p in corpus]
        bad = [i for i, w in enumerate(want) if isinstance(w, Exception)]
        assert len(bad) > 20
        first, second = bad[0], bad[1]
        assert str(want[first]) != str(want[second])
        lanes = corpus[:second + 1] + [CPoly.make([1, 2, 3]), CPoly.make([0, 0, 5, 1])]
        with pytest.raises(cpoly.RootFindingError) as exc:
            cpoly.roots_many(lanes)
        assert str(exc.value) == str(want[first])
        # a failing lane after the zero polynomial: the ValueError comes first
        with pytest.raises(ValueError):
            cpoly.roots_many([CPoly.make([1, 1]), CPoly.make([0]), corpus[first]])

    def test_closed_forms_and_zero_constants(self):
        polys = [CPoly.make([2, -3, 1]), CPoly.make([0, 0, 1, 1]), CPoly.make([3, 1]),
                 CPoly.make([0, 4]), CPoly.make([0, 0, 0, 2]), CPoly.make([1, 0, 2]),
                 CPoly.make([0, 1, 0, 0, 1])]
        got = cpoly.roots_many(polys)
        assert [bits(rs) for rs in got] == [bits(cpoly.roots(p)) for p in polys]
        assert got[4] == [0j, 0j, 0j]
        assert got[1][:2] == [0j, 0j]
        assert cpoly.roots_many([]) == []
