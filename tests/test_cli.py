import math

import numpy as np
import pytest

from hqm.cli import main


def run_cli(capsys, command, cfg_text, tmp_path, extra=(), name="exp.cfg"):
    cfg = tmp_path / name
    cfg.write_text(cfg_text)
    out_dir = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out_dir), *extra])
    captured = capsys.readouterr()
    summary = {}
    for line in captured.out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            summary[key] = value
    return code, summary, captured, out_dir


class TestFourierCommand:
    def test_planted_recovery(self, capsys, tmp_path):
        code, summary, _, out_dir = run_cli(capsys, "fourier", """
            grid_points = 128
            family = PhaseForm
            N = 8
            phi0 = 0.3
            xi0 = 1.1
            plant = 2:3.0; 5:-1.0
        """, tmp_path)
        assert code == 0
        assert float(summary["plant_recovery_error"]) < 1e-10
        assert float(summary["residual"]) < 1e-9
        assert (out_dir / "gram.csv").is_file()
        assert (out_dir / "coefficients.csv").is_file()
        assert (out_dir / "coefficients.csv.meta").is_file()

    def test_orthogonality_run(self, capsys, tmp_path):
        code, summary, _, out_dir = run_cli(capsys, "fourier", """
            grid_points = 256
            family = PhaseForm
            N = 16
            phi0 = 0.9
            xi0 = 0.2
        """, tmp_path)
        assert code == 0
        assert float(summary["gram_max_offdiag"]) < 1e-10
        assert not (out_dir / "coefficients.csv").exists()

    def test_expression_target(self, capsys, tmp_path):
        # theta0 = 0 degenerates ExpForm to plain complex exponentials, so
        # e^{2ix} lies exactly in the span
        code, summary, _, _ = run_cli(capsys, "fourier", """
            grid_points = 128
            family = ExpForm
            N = 6
            theta0 = 0
            f_x0 = cos(2*x)
            f_x1 = sin(2*x)
        """, tmp_path)
        assert code == 0
        assert float(summary["residual"]) < 1e-10

    def test_out_of_span_target_reports_large_residual(self, capsys, tmp_path):
        # with theta0 != 0 each basis element drags a j component along, so a
        # pure complex exponential cannot be represented with real weights
        code, summary, _, _ = run_cli(capsys, "fourier", """
            grid_points = 128
            family = ExpForm
            N = 6
            theta0 = 0.7
            f_x0 = cos(2*x)
            f_x1 = sin(2*x)
        """, tmp_path)
        assert code == 0
        assert float(summary["residual"]) > 0.5

    def test_ill_conditioned_three_index_exits_3(self, capsys, tmp_path):
        code, summary, captured, _ = run_cli(capsys, "fourier", """
            grid_points = 64
            family = ThreeIndex
            N = 1
            L = 1
            plant = 1 1 1:1.0
        """, tmp_path)
        assert code == 3
        assert float(summary["condition_estimate"]) > 1e12
        assert "condition" in captured.err

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        code, _, captured, _ = run_cli(capsys, "fourier", """
            grid_points = 64
            family = PhaseForm
            N = 4
            bogus = 1
        """, tmp_path)
        assert code == 2
        assert "unknown config keys: bogus" in captured.err

    def test_unknown_family_exits_2(self, capsys, tmp_path):
        code, *_ = run_cli(capsys, "fourier", """
            grid_points = 64
            family = Nonsense
            N = 4
        """, tmp_path)
        assert code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("line, key", [("f_x0 = 1/(x-x)", "f_x0"),
                                           ("theta0 = 1/(x-x)", "theta0")])
    def test_non_finite_input_exits_2(self, capsys, tmp_path, line, key):
        code, summary, captured, _ = run_cli(capsys, "fourier", f"""
            grid_points = 32
            family = ExpForm
            N = 2
            f_x1 = cos(x)
            {line}
        """, tmp_path)
        assert code == 2
        assert summary == {}
        assert captured.err.strip().splitlines() == [f"config error: {key} has non-finite samples"]


EVOLVE_REAL_U = """
    grid_points = 32
    V_re = cos(x)
    alpha = 0.3*sin(x)
    psi0_x0 = exp(-cos(x - pi)^2)
    psi0_x1 = 0.3*sin(x)
    t1 = 0.1
    dt = 0.001
"""


class TestEvolveCommand:
    def test_real_potential_sources_nothing(self, capsys, tmp_path):
        code, summary, _, out_dir = run_cli(capsys, "evolve", EVOLVE_REAL_U, tmp_path)
        assert code == 0
        assert float(summary["max_abs_int_g"]) < 1e-10
        assert float(summary["norm_drift"]) < 1e-8
        assert (out_dir / "trajectory.csv").is_file()
        assert (out_dir / "continuity.csv").is_file()

    def test_quaternionic_potential_drift_matches_source(self, capsys, tmp_path):
        code, summary, _, out_dir = run_cli(capsys, "evolve", """
            grid_points = 32
            V_re = 0.2
            W_re = 0.4
            W_im = 0.3
            psi0_x0 = 1 + 0.3*cos(x)
            psi0_x1 = 0.2*sin(x)
            psi0_x2 = 0.5
            psi0_x3 = 0.1*cos(2*x)
            t1 = 0.05
            dt = 0.0002
        """, tmp_path)
        assert code == 0
        assert float(summary["norm_drift"]) > 1e-4
        rows = [line.split(",") for line in
                (out_dir / "continuity.csv").read_text().splitlines()[2:]]
        dnorm = np.array([float(r[3]) for r in rows[1:-1]])
        int_g = np.array([float(r[4]) for r in rows[1:-1]])
        assert np.max(np.abs(dnorm - int_g)) / np.max(np.abs(int_g)) < 1e-6

    def test_free_plane_wave_matches_closed_form(self, capsys, tmp_path):
        code, _, _, out_dir = run_cli(capsys, "evolve", """
            grid_points = 16
            psi0_x0 = cos(2*x)
            psi0_x1 = sin(2*x)
            t1 = 1.0
            dt = 0.002
        """, tmp_path)
        assert code == 0
        last = (out_dir / "trajectory.csv").read_text().splitlines()[-1].split(",")
        t = float(last[0])
        values = np.array([float(v) for v in last[1:]]).reshape(-1, 4)
        x = np.arange(16) * 2 * math.pi / 16
        omega = 2.0  # k^2/2 with k = 2
        expected_z0 = np.exp(2j * x) * np.exp(-1j * omega * t) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(values[:, 0] - expected_z0.real)) < 1e-7
        assert np.max(np.abs(values[:, 1] - expected_z0.imag)) < 1e-7
        assert np.max(np.abs(values[:, 2:])) == 0.0

    def test_instability_exits_4(self, capsys, tmp_path):
        with pytest.warns(Warning):
            code, summary, _, _ = run_cli(capsys, "evolve", """
                grid_points = 32
                psi0_x0 = exp(-cos(x)^2)
                t1 = 10.0
                dt = 0.1
            """, tmp_path)
        assert code == 4
        assert float(summary["suggested_dt"]) > 0.0

    def test_non_dividing_dt_exits_2(self, capsys, tmp_path):
        code, summary, captured, _ = run_cli(capsys, "evolve", """
            grid_points = 16
            psi0_x0 = 1
            t1 = 0.0105
            dt = 0.001
        """, tmp_path)
        assert code == 2
        assert summary == {}
        assert captured.err.strip().splitlines() == [
            "config error: (t1 - t0)/dt = 10.5 is not an integer step count"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_potential_exits_2(self, capsys, tmp_path):
        code, summary, captured, _ = run_cli(capsys, "evolve", """
            grid_points = 16
            V_re = 1/(x-x)
            psi0_x0 = 1
            t1 = 0.01
            dt = 0.001
        """, tmp_path)
        assert code == 2
        assert summary == {}
        assert captured.err.strip().splitlines() == ["config error: V has non-finite samples"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_initial_state_exits_2(self, capsys, tmp_path):
        code, summary, captured, _ = run_cli(capsys, "evolve", """
            grid_points = 16
            psi0_x0 = 1/(x-x)
            t1 = 0.01
            dt = 0.001
        """, tmp_path)
        assert code == 2
        assert summary == {}
        assert captured.err.strip().splitlines() == ["config error: psi0_x0 has non-finite samples"]

    def test_non_finite_initial_state_file_exits_2(self, capsys, tmp_path):
        psi_file = tmp_path / "psi0.csv"
        rows = [f"{2 * math.pi * k / 16:.17e},{'nan' if k == 3 else '1.0'},0,0,0" for k in range(16)]
        psi_file.write_text("x,x0,x1,x2,x3\n" + "\n".join(rows) + "\n")
        code, summary, captured, _ = run_cli(capsys, "evolve", f"""
            grid_points = 16
            psi0_file = {psi_file}
            t1 = 0.01
            dt = 0.001
        """, tmp_path)
        assert code == 2
        assert summary == {}
        assert captured.err.strip().splitlines() == [
            "config error: psi0_file has non-finite samples"]

    def test_dyson_comparison_block(self, capsys, tmp_path):
        code, summary, _, _ = run_cli(capsys, "evolve", """
            grid_points = 8
            V_re = 0.3
            psi0_x0 = cos(x)
            psi0_x1 = sin(x)
            t1 = 0.05
            dt = 0.001
            dyson_terms = 6
            dyson_quad = 65
        """, tmp_path)
        assert code == 0
        assert float(summary["dyson_gap"]) < 1e-6  # complex initial data


class TestSpectralCommand:
    def test_free_hamiltonian_spectrum(self, capsys, tmp_path):
        code, summary, _, out_dir = run_cli(capsys, "spectral", """
            grid_points = 17
            operator = hamiltonian
        """, tmp_path)
        assert code == 0
        assert float(summary["reconstruction_error"]) < 1e-9
        rows = (out_dir / "spectrum.csv").read_text().splitlines()[1:]
        eigs = [(float(a), int(b)) for a, b in (r.split(",") for r in rows)]
        expected = [(k * k / 2.0, 8 if k else 4) for k in range(9)]
        assert len(eigs) == len(expected)
        for (lam, mult), (lam_e, mult_e) in zip(eigs, expected):
            assert lam == pytest.approx(lam_e, abs=1e-9)
            assert mult == mult_e

    def test_identity_operator(self, capsys, tmp_path):
        code, summary, _, out_dir = run_cli(capsys, "spectral", """
            grid_points = 8
            operator = identity
        """, tmp_path)
        assert code == 0
        assert summary["n_eigenspaces"] == "1"
        assert float(summary["eigenvalue_min"]) == pytest.approx(1.0)

    def test_multiplication_operator(self, capsys, tmp_path):
        code, summary, _, _ = run_cli(capsys, "spectral", """
            grid_points = 8
            operator = multiplication
            v = 1 + cos(x)
        """, tmp_path)
        assert code == 0
        assert float(summary["eigenvalue_max"]) == pytest.approx(2.0, abs=1e-12)

    def test_eigenfunction_dump(self, capsys, tmp_path):
        from hqm import Grid, inner, read_qfunction_csv
        code, summary, _, out_dir = run_cli(capsys, "spectral", """
            grid_points = 8
            operator = multiplication
            v = 1 + cos(x)
            eigenfunctions = true
        """, tmp_path)
        assert code == 0
        dumps = sorted(out_dir.glob("eigenfunction_*.csv"))
        assert len(dumps) == 4 * 8  # every eigenspace basis vector
        f = read_qfunction_csv(dumps[0])
        assert f.grid == Grid(8)
        assert inner(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_non_self_adjoint_exits_3(self, capsys, tmp_path):
        code, summary, captured, _ = run_cli(capsys, "spectral", """
            grid_points = 16
            operator = hamiltonian
            W_re = 0.5
        """, tmp_path)
        assert code == 3
        assert float(summary["asymmetry"]) > 1e-6
        assert "self-adjoint" in captured.err


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_multiplication_exits_3(self, capsys, tmp_path):
        code, summary, captured, _ = run_cli(capsys, "spectral", """
            grid_points = 8
            operator = multiplication
            v = 1/(x-x)
        """, tmp_path)
        assert code == 3
        assert list(summary) == ["asymmetry"]
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "self-adjoint" in err[0] and "NaN" in err[0]


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["evolve.cfg", "fourier.cfg", "spectral.cfg"])
    def test_runs_clean(self, capsys, tmp_path, name):
        from pathlib import Path
        cfg = Path(__file__).resolve().parent.parent / "configs" / name
        code = main([name.split(".")[0], "--config", str(cfg), "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 0


def test_import_leaves_scipy_out():
    # scipy is a test dependency only; the package and its CLI run on numpy
    import subprocess
    import sys
    from pathlib import Path
    import hqm
    code = "import sys, hqm, hqm.cli; print('scipy' in sys.modules)"
    src = str(Path(hqm.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, cwd=src)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_console_entry_point_runs_in_subprocess(tmp_path):
    # exercise the installed script end to end, byte-identical across runs
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "hqm.cli", "check", "--seed", "11"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    assert first.returncode == 0
    assert first.stdout == second.stdout


class TestCheckCommand:
    def test_default_run_passes(self, capsys, tmp_path):
        code = main(["check", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert all(line.startswith("PASS") for line in lines if "value=" in line)
        assert "checks_failed = 0" in captured.out

    def test_tightened_tolerance_fails(self, capsys, tmp_path):
        code = main(["check", "--seed", "7", "--tol", "1e-16"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out

    def test_seed_required(self, capsys, tmp_path):
        code = main(["check"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--seed" in captured.err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        main(["check", "--seed", "42"])
        first = capsys.readouterr().out
        main(["check", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second
        main(["check", "--seed", "43"])
        other_seed = capsys.readouterr().out
        assert other_seed != first  # the seed genuinely feeds the draws
