import json

import numpy as np
import pytest

from bergtoep import cli, cpoly, kernel, spectrum
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
        assert (tmp_path / "kernel_basis_seed0.csv").exists()

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
        mods = np.abs(np.roots(associated_poly(sym, lam).poly.coeffs[::-1]))
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

    def test_index_value(self, capsys):
        rc = run(["index", "--family", "m=1,alpha=0.5,beta=0", "--lambda", "0"])
        assert rc == 0
        assert "index: 1" in capsys.readouterr().out

    def test_index_on_curve_fails(self, capsys):
        rc = run(["index", "--family", "m=1,alpha=0,beta=0", "--lambda", "1"])
        assert rc == 1
        assert "not Fredholm" in capsys.readouterr().out


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        rc = run(["validate", "--suite", "quick", "--seed", "42"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_all_suite_passes(self, capsys):
        rc = run(["validate", "--suite", "all", "--seed", "7"])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_failure_serialized_for_replay(self, capsys, tmp_path, monkeypatch):
        def broken_check(rng, trials):
            return False, {"trials": trials,
                           "mismatches": [{"coeffs": [[1.0, 0.0]]}]}
        monkeypatch.setattr(cli, "_check_tstar_identity", broken_check)
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
    ])
    def test_non_finite_input_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_small_K_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["kernel", "--family", "m=1,alpha=0,beta=0", "--K", "10"])
        assert exc.value.code == 2

    def test_bad_tolerance_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["kernel", "--family", "m=1,alpha=0,beta=0", "--tol-ratio", "-1"])
        assert exc.value.code == 2

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--family", "m=1,alpha=0,beta=0", "--grid=0,1,0,1,4"])
        assert exc.value.code == 2
