import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bergtoep import cli, cpoly, finsect, kernel, odekernel, oracles, spectrum
from bergtoep.symbols import (HarmonicPolySymbol, SpecialFamilySymbol, associated_poly,
                              to_json, zbar_power_plus)


def run(argv):
    return cli.main(argv)


class TestKernelCommand:
    def test_pure_antianalytic_dim(self, capsys):
        rc = run(["kernel", "--family", "m=1,alpha=0,beta=0", "--K", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel dim: 1" in out

    def test_thin_shell_matches_library(self, capsys, tmp_path):
        rc = run(["kernel", "--family", "m=2,alpha=0.5,beta=0", "--K", "2000",
                  "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        rep = kernel.kernel_dimension(SpecialFamilySymbol(2, 0.5, 0.0), K=2000)
        assert f"kernel dim: {rep.dim}" in out
        summary = json.loads((tmp_path / "kernel_summary.json").read_text())
        assert summary["result"]["dim"] == rep.dim
        assert summary["result"]["reason"] is None
        seeds = summary["result"]["seed_verdicts"]
        assert [(v["route"], v["terms_used"]) for v in seeds] == [
            (v.route, v.terms_used) for v in rep.verdicts]
        for i, v in enumerate(rep.verdicts):
            rows = (tmp_path / f"kernel_basis_seed{i}.csv").read_text().splitlines()
            assert len(rows) == 1 + v.terms_used + 1   # header, k = 0..terms_used

    def test_undecided_reason_in_summary(self, capsys, tmp_path):
        rc = run(["kernel", "--symbol", '{"m": 1, "ana": [[0, 0], [0.99995, 0]]}',
                  "--out", str(tmp_path)])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out == "kernel dim: undecided\n  seed 0: undecided\n"
        assert err.startswith("undecided: below resolution")
        result = json.loads((tmp_path / "kernel_summary.json").read_text())["result"]
        assert result["reason"].startswith("below resolution")
        assert result["seed_verdicts"][0]["route"] == "unresolved"
        assert result["seed_verdicts"][0]["terms_used"] == 20000

    def test_overflowed_stream_undecided(self, capsys, tmp_path):
        # d_1 = -2e308 overflows; Coburn's table (m = 1, n = 0, |c| >= 1)
        # gives 0, so the overflowed stream must not read as a member
        rc = run(["kernel", "--symbol", '{"m": 1, "ana": [[1e308, 0]]}',
                  "--out", str(tmp_path)])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out == "kernel dim: undecided\n  seed 0: undecided\n"
        assert err.startswith("undecided: seed 0 stream is not finite")
        result = json.loads((tmp_path / "kernel_summary.json").read_text())["result"]
        assert result["dim"] is None and result["undecided"]
        assert result["reason"].startswith("seed 0 stream is not finite")
        assert result["seed_verdicts"][0]["route"] == kernel.NON_FINITE

    def test_adjoint_bounds_in_summary(self, capsys, tmp_path):
        # the README repro: phi_0 zeros 0.5, 2 and 3, index 1, no member seed
        sym = ('{"m": 2, "anti": [[-2.8333333333333335, 0]], '
               '"ana": [[1.8333333333333333, 0], [-0.3333333333333333, 0]]}')
        rc = run(["kernel", "--symbol", sym, "--strict", "--out", str(tmp_path)])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out.startswith("kernel dim: 1\n") and err == ""
        result = json.loads((tmp_path / "kernel_summary.json").read_text())["result"]
        assert (result["dim"], result["dim_route"], result["bounds"]) == (
            1, kernel.ADJOINT_BOUNDS, [1, 1])
        assert not list(tmp_path.glob("kernel_basis_seed*.csv"))

    def test_gj_samples_for_nearly_repeated_t_roots(self, capsys, tmp_path):
        # t-roots 2 and 2 (1 + 1e-7): the exponents are near -1e7, but the
        # series of W has modest coefficients
        alpha, beta = 0.24999997500000248, -0.9999999500000051
        rc = run(["kernel", "--family", f"m=2,alpha={alpha!r},beta={beta!r}",
                  "--out", str(tmp_path)])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out.startswith("kernel dim: 2\n") and "Traceback" not in err
        samples = (tmp_path / "odekernel_gj_samples.csv").read_text().splitlines()
        assert len(samples) == 482
        basis = odekernel.OdeKernelBasis(2, alpha, beta)
        assert oracles.span_angle(basis, 40) < 1e-6
        assert max(oracles.residual_check(basis, j) for j in (1, 2)) <= 1e-6

    def test_gj_samples_skipped_when_series_refuses(self, capsys, tmp_path):
        # t-roots 1.01 and 1.02: near u = 0.95 the series of W cancels terms
        # about 1e8 times its value, past the rounding bound
        rc = run(["kernel", "--family", "m=1,alpha=0.9706853038245001,beta=-1.9704911667637355",
                  "--out", str(tmp_path)])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out.startswith("kernel dim: 1\n") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "kernel_basis_seed0.csv", "kernel_summary.json"]

    def test_non_member_seed_at_index_m_is_undecided(self, capsys):
        # t-roots 1.001 and 1.002, both outside the disk: index m = 1, so the
        # seed is in the kernel, but its stream still grows at K = 20000
        rc = run(["kernel", "--family", "m=1,alpha=0.9970069850309372,beta=-1.9970049910169674"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert out == "kernel dim: undecided\n  seed 0: undecided rho=1.00565\n"
        assert err == ("undecided: 0 member seeds but index 1: "
                       "the seed verdicts are wrong at K = 20000\n")

    @pytest.mark.parametrize("c", ["1e160", "1e200"])
    def test_large_coefficient_decides(self, capsys, c):
        # Coburn's table (m = 1, n = 0, |c| >= 1) gives 0
        rc = run(["kernel", "--symbol", f'{{"m": 1, "ana": [[{c}, 0]]}}'])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("kernel dim: 0\n  seed 0: non_member")

    def test_missing_symbol_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["kernel"])
        assert exc.value.code == 2

    def test_symbol_json_file(self, capsys, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(to_json(zbar_power_plus(2, []))))
        rc = run(["kernel", "--symbol", str(path), "--K", "400"])
        assert rc == 0
        assert "kernel dim: 2" in capsys.readouterr().out

    def test_long_inline_symbol_json(self, capsys):
        # inline JSON longer than a file name may be (255 bytes)
        gen = np.random.default_rng(3)
        anti = tuple(complex(*gen.uniform(-0.1, 0.1, 2)) for _ in range(2))
        ana = tuple(complex(*gen.uniform(-0.1, 0.1, 2)) for _ in range(4))
        sym = HarmonicPolySymbol(3, anti, ana)
        text = json.dumps(to_json(sym))
        assert len(text) >= 300
        rc = run(["kernel", "--symbol", text, "--K", "400"])
        assert rc == 0
        rep = kernel.kernel_dimension(sym, K=400)
        assert f"kernel dim: {rep.dim}" in capsys.readouterr().out

    def test_unreadable_symbol_file_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["kernel", "--symbol", str(tmp_path / "missing.json")])
        assert exc.value.code == 2
        assert "cannot read symbol file" in capsys.readouterr().err

    def test_strict_undecided_exits_nonzero(self, capsys, monkeypatch):
        verdict = kernel.MembershipVerdict(kernel.UNDECIDED, None, 500)
        report = kernel.KernelReport(None, True, (verdict,), ())
        monkeypatch.setattr(cli.kernel, "kernel_dimension",
                            lambda *a, **k: report)
        rc = run(["kernel", "--family", "m=1,alpha=0,beta=0", "--K", "500",
                  "--strict"])
        assert rc == 1
        assert "undecided" in capsys.readouterr().out
        rc = run(["kernel", "--family", "m=1,alpha=0,beta=0", "--K", "500"])
        assert rc == 0  # without --strict the verdict is reported, exit 0
        capsys.readouterr()


class TestClassifyCommand:
    @pytest.mark.parametrize("family,region,index", [
        ("m=2,alpha=0,beta=0,gamma=1", spectrum.OMEGA0, 2),
        ("m=2,alpha=1,beta=0,gamma=0", spectrum.OMEGA2, -2),
        ("m=2,alpha=0,beta=1,gamma=0", spectrum.OMEGA1, 0),
    ])
    def test_single_points(self, capsys, family, region, index):
        rc = run(["classify", "--family", family])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"region: {region}" in out
        assert f"index: {index}" in out

    def test_unimodular_not_fredholm(self, capsys):
        rc = run(["classify", "--family", "m=1,alpha=1,beta=0,gamma=1"])
        assert rc == 0
        assert "NotFredholm" in capsys.readouterr().out

    def test_grid_csv(self, tmp_path, capsys):
        rc = run(["classify", "--family", "m=1,alpha=0,beta=0.2,gamma=1",
                  "--grid=-1.5,1.5,-1.5,1.5,16", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "classify.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "alpha_re,alpha_im,beta_re,beta_im,gamma_re,gamma_im,region,index"
        assert len(lines) == 2 + 16 * 16


class TestSpectrumCommand:
    def test_interior_point(self, capsys):
        rc = run(["spectrum", "--family", "m=1,alpha=0.5,beta=0",
                  "--lambda", "1"])
        assert rc == 0
        assert "in (interior)" in capsys.readouterr().out

    def test_exterior_point(self, capsys):
        rc = run(["spectrum", "--family", "m=1,alpha=0.5,beta=0",
                  "--lambda", "2j"])
        assert rc == 0
        assert "out (exterior)" in capsys.readouterr().out

    def test_grid_outputs(self, tmp_path, capsys):
        rc = run(["spectrum", "--family", "m=1,alpha=0.5,beta=0",
                  "--grid=-2,2,-2,2,16", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "spectrum_grid.csv").exists()
        assert (tmp_path / "spectrum_grid.svg").exists()
        svg = (tmp_path / "spectrum_grid.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_general_symbol_membership(self, capsys, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(to_json(zbar_power_plus(1, []))))
        rc = run(["spectrum", "--symbol", str(path), "--lambda", "0"])
        assert rc == 0
        assert spectrum.IN_BY_INDEX in capsys.readouterr().out


    def test_large_zero_root_set_accepted(self, capsys):
        # phi_lam has a zero of modulus 215, whose roots failed the absolute
        # residual test alone; its other three zeros lie in the disk, so
        # m - N(phi_lam) = 0 and the point is outside the spectrum
        sym = HarmonicPolySymbol(3, (0.3168506615543857 + 0.5626069660781077j,
                                     -0.1422734431527493 + 0.21851104893962114j),
                                 (-0.08106802381256345 - 0.016264343559017222j,
                                  -0.004613585391453584 - 0.01705016886484145j))
        lam = -2.860655133842755 - 2.6035714933550804j
        mods = np.abs(np.roots(associated_poly(sym, lam).coeffs[::-1]))
        assert np.sum(mods < 1) == sym.m and 200 < mods.max() < 230
        rc = run(["spectrum", "--symbol", json.dumps(to_json(sym)), f"--lambda={lam!r}"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == spectrum.OUT_CERTIFIED


class TestProbeAndIndex:
    def test_probe_csv(self, tmp_path, capsys):
        rc = run(["probe", "--family", "m=1,alpha=0.5,beta=0",
                  "--grid=-2,2,-2,2,16", "--N", "32", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        assert len(lines) == 2 + 16 * 16

    def test_probe_matches_library_and_records_evidence(self, tmp_path, capsys):
        sym = SpecialFamilySymbol(2, 0.2, 0.0)
        rc = run(["probe", "--family", "m=2,alpha=0.2,beta=0",
                  "--grid=-2,2,-2,2,16", "--N", "96", "--out", str(tmp_path)])
        assert rc == 0
        xs = np.linspace(-2, 2, 16)
        lams = [complex(re, im) for im in xs for re in xs]
        want = finsect.min_singular_values(finsect.truncation(sym, 96), lams)
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        assert lines[1] == "lam_re,lam_im,sigma_min,resolved"
        rows = [line.split(",") for line in lines[2:]]
        floor = 96 * np.finfo(float).eps * want.nu
        for row, lam, s, f in zip(rows, lams, want.sigma, floor):
            assert complex(float(row[0]), float(row[1])) == lam
            assert row[2] == repr(float(s))
            assert row[3] == ("1" if s > f else "0")
        assert {row[3] for row in rows} == {"0", "1"}
        result = json.loads((tmp_path / "probe_summary.json").read_text())["result"]
        certified, bounded = int(want.certified.sum()), int(want.bounded.sum())
        assert result["certified"] == certified and result["bounded"] == bounded
        assert result["dense"] == 256 - certified - bounded
        assert result["certified"] + result["bounded"] + result["dense"] == len(lams)
        assert 0 < certified < 256 and bounded > 0
        assert all(row[3] == "0" for row, b in zip(rows, want.bounded) if b)
        assert result["unresolved"] == sum(row[3] == "0" for row in rows)
        assert result["passes"] == want.passes
        assert result["delta"] == finsect.DELTA
        assert result["classes"] == 2
        assert result["sigma_min"] == float(want.sigma.min())
        assert capsys.readouterr().out == f"sigma_min over grid: {float(want.sigma.min())!r}\n"

    @pytest.mark.parametrize("N", ["4", "0", "-3"])
    def test_probe_small_N_rejected(self, capsys, N):
        with pytest.raises(SystemExit) as exc:
            run(["probe", "--family", "m=3,alpha=0.5", "--grid=-1,1,-1,1,16", "--N", N])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "N must be at least 12" in err and "Traceback" not in err

    def test_probe_leaves_scipy_unimported(self, tmp_path):
        code = ("import sys, bergtoep.cli; "
                "rc = bergtoep.cli.main(['probe', '--family', 'm=1,alpha=0.5', "
                "'--grid=-2,2,-2,2,16', '--N', '16', '--out', sys.argv[1]]); "
                "sys.exit(rc or 3 * ('scipy' in sys.modules))")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_index_value(self, capsys):
        rc = run(["index", "--family", "m=1,alpha=0.5,beta=0", "--lambda", "0"])
        assert rc == 0
        assert "index: 1" in capsys.readouterr().out

    def test_index_route_mismatch_exits_1(self, capsys, monkeypatch):
        # the family's t-quadratic zero count disagrees with the winding
        zero_pattern = cpoly.zero_pattern
        monkeypatch.setattr(cpoly, "zero_pattern",
                            lambda p, circle_tol: zero_pattern(p, circle_tol)._replace(in_disk=1))
        rc = run(["index", "--family", "m=1,alpha=0.5,beta=0", "--lambda", "0"])
        assert rc == 1
        assert capsys.readouterr().out.startswith("route mismatch: ")

    def test_index_on_curve_fails(self, capsys):
        rc = run(["index", "--family", "m=1,alpha=0,beta=0", "--lambda", "1"])
        assert rc == 1
        assert "not Fredholm" in capsys.readouterr().out


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        rc = run(["validate", "--suite", "quick", "--seed", "42"])
        assert rc == 0
        names = [name for name, _, _ in oracles.ORACLES]
        assert len(set(names)) == len(names)
        assert capsys.readouterr().out.splitlines() == [f"PASS  {n}" for n in names]

    def test_all_suite_passes(self, capsys):
        rc = run(["validate", "--suite", "all", "--seed", "7"])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_failure_serialized_for_replay(self, capsys, tmp_path, monkeypatch):
        def broken_check(rng, trials):
            return False, {"trials": trials,
                           "mismatches": [{"coeffs": [[1.0, 0.0]]}]}
        monkeypatch.setattr(oracles, "ORACLES", tuple(
            (n, broken_check if n == "tstar-integral-identity" else check, t)
            for n, check, t in oracles.ORACLES))
        rc = run(["validate", "--suite", "quick", "--seed", "1",
                  "--out", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL  tstar-integral-identity" in out
        blob = json.loads((tmp_path / "validate_failures.json").read_text())
        assert blob[0]["check"] == "tstar-integral-identity"
        assert blob[0]["detail"]["mismatches"]

    def test_determinism(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["classify", "--family", "m=1,alpha=0,beta=0.2,gamma=1",
             "--grid=-1,1,-1,1,16", "--out", str(d1)])
        run(["classify", "--family", "m=1,alpha=0,beta=0.2,gamma=1",
             "--grid=-1,1,-1,1,16", "--out", str(d2)])
        capsys.readouterr()
        assert (d1 / "classify.csv").read_bytes() == (d2 / "classify.csv").read_bytes()


class TestLibraryErrors:
    def test_unresolved_winding_exits_1(self, capsys):
        # lambda lies 4.9e-5 from the boundary curve, finer than the
        # winding number's finest sampling resolves
        sym = HarmonicPolySymbol(1, (), (1.8222031143572273 + 2.0934468164492177j,
                                         1.4112562786244354 - 0.16748957484570237j,
                                         3.975748168089595 - 0.0827677011681982j))
        lam = 4.470470381272609 + 6.146630148753228j
        rc = run(["spectrum", "--symbol", json.dumps(to_json(sym)), f"--lambda={lam!r}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CurveResolutionError: ") and err.count("\n") == 1

    def test_grid_error_matches_point_error(self, capsys):
        # the unresolved-winding lambda as the last node of a 16^2 grid
        sym = json.dumps(to_json(HarmonicPolySymbol(
            1, (), (1.8222031143572273 + 2.0934468164492177j,
                    1.4112562786244354 - 0.16748957484570237j,
                    3.975748168089595 - 0.0827677011681982j))))
        lam = 4.470470381272609 + 6.146630148753228j
        assert run(["spectrum", "--symbol", sym, f"--lambda={lam!r}"]) == 1
        point = capsys.readouterr().err
        grid = f"--grid={lam.real - 2!r},{lam.real!r},{lam.imag - 2!r},{lam.imag!r},16"
        assert run(["spectrum", "--symbol", sym, grid]) == 1
        assert capsys.readouterr().err == point

    @pytest.mark.parametrize("where", ["--lambda=1.5000000005",
                                       "--grid=-2,1.5000000005,-2,0,16"])
    def test_point_on_sampled_curve_exits_1(self, capsys, where):
        # conj(z) + z/2 passes 1.5 at a curve sample; 5e-10 from it is off
        # the curve at --tol-curve 1e-12, but too close for a winding number
        sym = '{"m":1,"anti":[],"ana":[[0,0],[0.5,0]]}'
        rc = run(["spectrum", "--symbol", sym, where, "--tol-curve", "1e-12"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: OnCurveError: point within ") and err.count("\n") == 1

    @pytest.mark.parametrize("exc", [cpoly.RootFindingError, cpoly.NumericIntegrityError])
    def test_numeric_failures_exit_1(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc("boom")
        monkeypatch.setattr(cli.spectrum, "fredholm_index", fail)
        rc = run(["index", "--family", "m=1,alpha=0.5,beta=0", "--lambda", "0"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {exc.__name__}: boom\n"


class TestConfigValidation:
    @pytest.mark.parametrize("argv", [
        ["kernel", "--family", "m=1,alpha=nan"],
        ["index", "--family", "m=1,alpha=nan", "--lambda", "0"],
        ["spectrum", "--family", "m=1,alpha=inf", "--lambda", "0"],
        ["spectrum", "--family", "m=1,alpha=0.5", "--lambda", "nan"],
        ["spectrum", "--family", "m=1,alpha=0.5", "--grid=-2,inf,-2,2,16"],
        ["kernel", "--symbol", '{"m": 1, "ana": [[NaN, 0]]}'],
        ["kernel", "--family", "m=1,alpha=0,beta=0", "--tol-ratio", "nan"],
        ["spectrum", "--family", "m=1,alpha=0.5", "--lambda", "1", "--tol-curve", "nan"],
        ["spectrum", "--symbol", '{"m": 1, "ana": [[0, 0], [0.5, 0]]}', "--lambda", "2",
         "--tol-moduli", "nan"],
        ["kernel", "--family", "m=1,alpha=0,beta=0", "--tol-ratio", "inf"],
    ])
    def test_non_finite_input_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["kernel", "--family", "m=1,alpha=0.5", "--grid=-1,1,-1,1,16"],
        ["classify", "--family", "m=1,alpha=0.5", "--lambda", "1"],
        ["spectrum", "--family", "m=1,alpha=0.5", "--lambda", "1", "--K", "500"],
        ["probe", "--family", "m=1,alpha=0.5", "--grid=-1,1,-1,1,16", "--K", "500"],
        ["index", "--family", "m=1,alpha=0.5", "--lambda", "0", "--tol-ratio", "1e-3"],
        ["validate", "--suite", "quick", "--N", "64"],
        ["index", "--family", "m=1,alpha=0.5", "--lambda", "0", "--tol-degeneracy", "nan"],
    ])
    def test_unread_option_rejected(self, capsys, argv):
        # each subcommand declares only the options it reads
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --" in capsys.readouterr().err

    @pytest.mark.parametrize("symbol", [
        '{"m": 1.9, "anti": [], "ana": [[0, 0], [0.5, 0]]}',
        '{"family": {"m": 2.9, "alpha": [0.5, 0], "beta": [0, 0]}}',
        '{"m": true, "anti": [], "ana": [[0, 0], [0.5, 0]]}',
    ], ids=["float", "family-float", "bool"])
    def test_non_integer_m_rejected(self, capsys, symbol):
        with pytest.raises(SystemExit) as exc:
            run(["index", "--symbol", symbol, "--lambda", "0"])
        assert exc.value.code == 2
        assert "bad symbol JSON: m must be a JSON integer" in capsys.readouterr().err

    @pytest.mark.parametrize("symbol", [
        '{"m": 1, "anti": [], "ana": [[0, 0], [true, false]]}',
        '{"family": {"m": 1, "alpha": "1", "beta": [0, 0]}}',
        '{"family": {"m": 1, "alpha": [0.5], "beta": [0, 0]}}',
    ], ids=["bool", "string", "one-element"])
    def test_coefficient_not_a_number_pair_rejected(self, capsys, symbol):
        with pytest.raises(SystemExit) as exc:
            run(["index", "--symbol", symbol, "--lambda", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad symbol JSON: a coefficient must be a [re, im] pair" in err
        assert "Traceback" not in err

    def test_abbreviated_option_rejected(self, capsys):
        # --tol would otherwise expand to kernel's only --tol-* option
        with pytest.raises(SystemExit) as exc:
            run(["kernel", "--family", "m=1,alpha=0.5", "--tol", "0.5", "--K", "200"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --tol 0.5" in capsys.readouterr().err

    def test_small_K_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["kernel", "--family", "m=1,alpha=0,beta=0", "--K", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("symbol", [
        ["--family", "m=150,alpha=0.5,beta=0"],
        ["--symbol", json.dumps({"m": 150, "anti": [[0, 0]] * 149})],
    ])
    def test_K_below_m_rejected(self, capsys, symbol):
        with pytest.raises(SystemExit) as exc:
            run(["kernel", *symbol, "--K", "100"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: K must be at least m = 150\n")
        assert "Traceback" not in err

    def test_bad_tolerance_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["kernel", "--family", "m=1,alpha=0,beta=0", "--tol-ratio", "-1"])
        assert exc.value.code == 2

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--family", "m=1,alpha=0,beta=0", "--grid=0,1,0,1,4"])
        assert exc.value.code == 2


class TestParserReuse:
    # argparse type error, unrecognized option, parser.error inside a
    # command, --version, then valid lines of three commands
    SEQUENCE = [
        ["spectrum", "--family", "m=1,alpha=0.5,beta=0", "--lambda", "nan"],
        ["index", "--family", "m=1,alpha=0.5,beta=0", "--lambda", "0", "--K", "500"],
        ["spectrum", "--family", "m=1,alpha=0.5,beta=0"],
        ["--version"],
        ["spectrum", "--family", "m=1,alpha=0.5,beta=0", "--lambda", "1"],
        ["index", "--family", "m=1,alpha=0.5,beta=0", "--lambda", "0"],
        ["kernel", "--family", "m=2,alpha=0.5,beta=0", "--K", "500"],
    ]

    def outcomes(self, capsys):
        got = []
        for argv in self.SEQUENCE * 2:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = ("exit", exc.code)
            got.append((rc, *capsys.readouterr()))
        return got

    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        reused = self.outcomes(capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outcomes(capsys)
        assert reused == fresh
        assert [rc for rc, _, _ in fresh[:7]] == [
            ("exit", 2), ("exit", 2), ("exit", 2), ("exit", 0), 0, 0, 0]

    def test_main_builds_one_parser(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        self.outcomes(capsys)
        assert len(built) == 1
