import csv
import json
import os
import pathlib
import shlex
import time
from dataclasses import fields

import numpy as np
import pytest

from sadprec import spectral
from sadprec.cli import BenchRecord, _csv_text, _rule, build_parser, main
from sadprec.krylov import StoppingRule
from sadprec.precond import SHIFTS, PrecondSpec, make_preconditioner
from sadprec.problems import load_bundle, save_bundle
from sadprec.sparse import CsrMatrix, SaddleSystem


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def toy_bundle(tmp_path, name="t1", generator="toy"):
    sys_ = SaddleSystem(
        CsrMatrix.from_dense([[2.0]]),
        CsrMatrix.from_dense([[1.0]]),
        CsrMatrix.zeros(1, 1),
        np.array([1.0]),
        np.array([0.0]),
    )
    path = tmp_path / name
    save_bundle(sys_, path, meta={"generator": generator})
    return str(path)


@pytest.fixture(scope="module")
def q12_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("q12") / "stokes"
    assert main(["generate", "stokes", "--q", "12", "--out", str(path)]) == 0
    return str(path)


class TestGenerate:
    def test_stokes_table_dimensions(self, tmp_path, capsys):
        out = tmp_path / "t16"
        rc = main(["generate", "stokes", "--q", "16", "--no-pin", "--out", str(out)])
        assert rc == 0
        _, meta = load_bundle(out)
        assert meta["n"] == 578 and meta["m"] == 256

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "ra", tmp_path / "rb"
        assert main(["generate", "random", "--n", "10", "--m", "4", "--seed", "1", "--out", str(a)]) == 0
        assert main(["generate", "random", "--n", "10", "--m", "4", "--seed", "1", "--out", str(b)]) == 0
        assert (a / "A.mtx").read_text() == (b / "A.mtx").read_text()
        assert (a / "f.vec").read_text() == (b / "f.vec").read_text()

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        # os.makedirs refuses an existing file with FileExistsError, an
        # OSError like a missing bundle: an error line, no traceback
        out = tmp_path / "A.mtx"
        out.write_text("kept\n")
        assert main(["generate", "stokes", "--q", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "kept\n"

    def test_odd_q_rejected(self, tmp_path, capsys):
        rc = main(["generate", "stokes", "--q", "3", "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    def test_negative_stab_rejected_without_bundle(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["generate", "stokes", "--q", "8", "--stab", "-40", "--out", str(out)]) == 2
        assert "stab_param must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_stokes_meta_is_the_config(self, tmp_path, capsys):
        out = tmp_path / "q4"
        assert main(["generate", "stokes", "--q", "4", "--stab", "0.5", "--no-pin", "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta == {"generator": "stokes-q1p0", "n": 50, "m": 16, "q": 4, "stab_param": 0.5,
                        "pin_pressure": False}

    def test_density_out_of_range_rejected_without_bundle(self, tmp_path, capsys):
        out = tmp_path / "dense"
        assert main(["generate", "random", "--n", "6", "--m", "3", "--density", "2", "--out", str(out)]) == 2
        assert "density must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_other_generators_options_rejected(self, tmp_path, capsys):
        # each generator takes only its own options
        for argv in (["random", "--n", "4", "--m", "2", "--no-pin"], ["stokes", "--q", "4", "--seed", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(["generate", *argv, "--out", str(tmp_path / "x")])
            assert exc.value.code == 2
        assert not (tmp_path / "x").exists()


class TestSolve:
    def test_solver_defaults_are_the_stopping_rule_defaults(self):
        args = build_parser().parse_args(["solve", "--in", "b", "--method", "mgss"])
        assert _rule(args) == StoppingRule()

    def test_toy_rmgss_two_steps(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(
            ["solve", "--in", bundle, "--method", "rmgss", "--beta", "1", "--restart", "2"]
        )
        out = capsys.readouterr().out
        rec = json.loads(out.strip().splitlines()[-1])
        assert rc == 0 and rec["converged"] and rec["it"] <= 2

    def test_tol_one_zero_iterations(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(["solve", "--in", bundle, "--method", "none", "--tol", "1"])
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rc == 0 and rec["it"] == 0 and rec["converged"]

    def test_bad_vector_entry_exits_2(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        pathlib.Path(bundle, "f.vec").write_text("abc\n")
        assert main(["solve", "--in", bundle, "--method", "none"]) == 2
        assert f"{pathlib.Path(bundle, 'f.vec')}:1: not a number: 'abc'" in capsys.readouterr().err

    def test_repeated_matrix_entry_exits_2(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        path = pathlib.Path(bundle, "A.mtx")
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.0\n1 1 1.0\n")
        assert main(["solve", "--in", bundle, "--method", "none"]) == 2
        assert f"{path}:4: entry (1, 1) repeats line 3" in capsys.readouterr().err

    def test_invalid_parameters_per_spec(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(["solve", "--in", bundle, "--method", "mgss", "--alpha", "0", "--beta", "1"])
        assert rc != 0

    @pytest.mark.parametrize("method,shift,message", [
        ("hss", ["--alpha", "0.1", "--beta", "5"], "hss takes no beta"),
        ("rmgss", ["--alpha", "0.1"], "rmgss takes no alpha"),
        ("none", ["--alpha", "3"], "none takes no alpha"),
    ], ids=["hss-beta", "rmgss-alpha", "none-alpha"])
    def test_shift_the_method_does_not_take_rejected(self, tmp_path, capsys, method, shift, message):
        bundle = toy_bundle(tmp_path)
        rc = main(["solve", "--in", bundle, "--method", method] + shift)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("method,shifts", [("mgss", (0.001, 0.001)), ("rmgss", (0.0, 0.001)),
                                               ("hss", (0.1, 0.0)), ("none", (0.0, 0.0))])
    def test_unset_shifts_default(self, tmp_path, capsys, method, shifts):
        # the CLI passes no shift on, so PrecondSpec fills in the Table-2 values
        bundle = toy_bundle(tmp_path)
        main(["solve", "--in", bundle, "--method", method])
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        spec = PrecondSpec(method)
        assert (rec["alpha"], rec["beta"]) == shifts == (spec.alpha, spec.beta)

    def test_hss_default_shift_converges(self, tmp_path, capsys):
        # hss defaults to the Table-2 alpha 0.1; at 0.001 it stagnates here
        out = tmp_path / "b8"
        assert main(["generate", "stokes", "--q", "8", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", "--in", str(out), "--method", "hss"]) == 0
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec["alpha"] == 0.1 and rec["converged"]

    def test_missing_bundle(self, tmp_path, capsys):
        rc = main(["solve", "--in", str(tmp_path / "nope"), "--method", "none"])
        assert rc != 0

    def test_stationary_requires_mgss(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(["solve", "--in", bundle, "--method", "rmgss", "--stationary"])
        assert rc == 2
        assert "--stationary runs the mgss splitting scheme" in capsys.readouterr().err

    def test_stationary_runs(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(
            [
                "solve", "--in", bundle, "--method", "mgss",
                "--alpha", "1", "--beta", "1", "--inner", "direct", "--stationary",
            ]
        )
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rc == 0 and rec["converged"] and rec["it"] <= 2
        assert rec["method"] == "stationary-mgss"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, tmp_path, capsys, tol):
        bundle = toy_bundle(tmp_path)
        rc = main(["solve", "--in", bundle, "--method", "none", "--tol", tol])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rel_tol must be positive and finite" in captured.err

    def test_non_finite_bundle_rejected(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        with open(os.path.join(bundle, "f.vec"), "w") as fh:
            fh.write("nan\n")
        rc = main(["solve", "--in", bundle, "--method", "none"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--method", "rmgss", "--beta", "1"],
                                       ["--method", "mgss", "--alpha", "1", "--beta", "1",
                                        "--inner", "direct", "--stationary"]])
    def test_cpu_excludes_preconditioner_setup(self, tmp_path, capsys, monkeypatch, extra):
        built = []

        def slow_setup(sys_, spec):
            time.sleep(0.3)
            built.append(spec.kind)
            return make_preconditioner(sys_, spec)

        monkeypatch.setattr("sadprec.cli.make_preconditioner", slow_setup)
        rc = main(["solve", "--in", toy_bundle(tmp_path)] + extra)
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rc == 0 and built
        assert rec["cpu"] < 0.3

    def test_csv_round_trip(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        csv_path = tmp_path / "rec.csv"
        rc = main(
            ["solve", "--in", bundle, "--method", "mgss", "--alpha", "1", "--beta", "1",
             "--csv", str(csv_path)]
        )
        assert rc == 0
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        header, row = csv_path.read_text().strip().splitlines()
        assert header == _csv_text([]).strip()
        cells = row.split(",")
        assert cells[0] == rec["problem"]
        assert int(cells[4]) == rec["it"]
        assert float(cells[7]) == rec["final_relres"]
        assert cells[11] == rec["stop_reason"] == "tolerance"

    def test_csv_that_is_a_directory_exits_2(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(["solve", "--in", bundle, "--method", "mgss", "--csv", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert json.loads(captured.out.strip().splitlines()[-1])["converged"]

    def test_csv_quotes_commas(self, tmp_path, capsys):
        # solve and sweep ids are both <generator>:<bundle directory>
        bundle = toy_bundle(tmp_path, name="a,b", generator="toy,v2")
        csv_path = tmp_path / "rec.csv"
        assert main(["solve", "--in", bundle, "--method", "rmgss", "--beta", "1",
                     "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--in", bundle, "--method", "rmgss", "--beta-grid", "1:2:2"]) == 0
        sweep_rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        for rows, problem in ((list(csv.reader(csv_path.read_text().splitlines())), "toy,v2:a,b"),
                              (sweep_rows, "toy,v2:a,b")):
            assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
            assert all(row[0] == problem for row in rows[1:])

    def test_step_cap_reports_max_outer(self, q12_bundle, capsys):
        rc = main(["solve", "--in", q12_bundle, "--method", "none", "--max-outer", "3"])
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rc == 1 and not rec["converged"] and rec["it"] == 3
        assert rec["stop_reason"] == "max_outer"

    def test_csv_header_names_every_field(self):
        header = _csv_text([]).strip().split(",")
        assert header[:11] == ["problem", "method", "alpha", "beta", "it", "cpu", "converged",
                               "final_relres", "inner_iterations", "restart", "tol"]
        assert header[11:] == ["stop_reason", "timing_scope"]


class TestSweep:
    def test_single_point_marked_optimal(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(
            ["sweep", "--in", bundle, "--method", "rmgss", "--beta-grid", "1:1:1"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[0].endswith(",optimal")
        assert out[1].endswith(",true")

    def test_mgss_grid_rows(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(
            [
                "sweep", "--in", bundle, "--method", "mgss",
                "--alpha-grid", "0.5:1:2", "--beta-grid", "0.5:1:2",
            ]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(out) == 1 + 4  # header + 2x2 grid
        assert sum(1 for line in out[1:] if line.endswith(",true")) == 1

    def test_tie_marks_the_earliest_point(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        assert main(["sweep", "--in", bundle, "--method", "rmgss", "--beta-grid", "1:1:3"]) == 0
        flags = [line.rsplit(",", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert flags == ["true", "false", "false"]

    def test_nothing_converged_marks_no_point(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        assert main(["sweep", "--in", bundle, "--method", "rmgss", "--beta-grid", "1:2:2",
                     "--max-outer", "0"]) == 1
        flags = [line.rsplit(",", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert flags == ["false", "false"]

    def test_empty_grid_rejected(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        for grid in ("1:2:0", "1:2", "1:x:2"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--in", bundle, "--method", "hss", "--alpha-grid", grid])
            assert exc.value.code == 2

    def test_hss_sweep_q16_interior_optimum(self, tmp_path, capsys):
        # on the 16x16 grid the best hss shift lies strictly inside a
        # bracketing grid, and both benchmark mgss points converge
        out = tmp_path / "q16"
        assert main(["generate", "stokes", "--q", "16", "--no-pin", "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(
            ["sweep", "--in", str(out), "--method", "hss", "--alpha-grid", "0.02:0.4:5"]
        )
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rc == 0
        optimal_idx = [i for i, row in enumerate(rows) if row.endswith(",true")]
        assert len(optimal_idx) == 1
        assert 0 < optimal_idx[0] < len(rows) - 1

        rc = main(
            [
                "sweep", "--in", str(out), "--method", "mgss",
                "--alpha-grid", "0.001:0.01:2", "--beta-grid", "0.001:0.001:1",
            ]
        )
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rc == 0
        assert len(rows) == 2
        assert all(row.split(",")[6] == "true" for row in rows)

    def test_same_problem_cell_as_solve(self, tmp_path, capsys):
        out = tmp_path / "b8"
        assert main(["generate", "stokes", "--q", "8", "--out", str(out)]) == 0
        solve_csv, sweep_csv = tmp_path / "solve.csv", tmp_path / "sweep.csv"
        # the id does not depend on convergence, so five steps will do
        main(["solve", "--in", str(out), "--method", "rmgss", "--max-outer", "5",
              "--csv", str(solve_csv)])
        main(["sweep", "--in", str(out), "--method", "rmgss", "--beta-grid", "0.001:0.001:1",
              "--max-outer", "5", "--csv", str(sweep_csv)])
        cells = [row[0] for path in (solve_csv, sweep_csv)
                 for row in list(csv.reader(path.read_text().splitlines()))[1:]]
        assert cells == ["stokes-q1p0:b8", "stokes-q1p0:b8"]

    def test_grid_the_method_does_not_take_rejected(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(["sweep", "--in", bundle, "--method", "hss", "--alpha-grid", "0.1:0.2:2",
                   "--beta-grid", "1:2:2"])
        assert rc == 2 and "hss takes no beta" in capsys.readouterr().err

    def test_no_grid_runs_default_shifts(self, tmp_path, capsys):
        # a shift without a grid is swept at its default: one point for hss
        # without a grid, the alpha grid times the default beta for mgss
        bundle = toy_bundle(tmp_path)
        beta = SHIFTS["mgss"]["beta"]
        for method, grid, shifts in (("hss", [], [(SHIFTS["hss"]["alpha"], 0.0)]),
                                     ("mgss", ["--alpha-grid", "0.5:1:2"], [(0.5, beta), (1.0, beta)])):
            assert main(["sweep", "--in", bundle, "--method", method, *grid]) == 0
            rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
            assert [(float(row["alpha"]), float(row["beta"])) for row in rows] == shifts


class TestSpectrum:
    @pytest.mark.parametrize("operator,build", [
        ("saddle", lambda sys_: spectral.preconditioned_dense(sys_, PrecondSpec("none"))),
        ("mgss-prec", lambda sys_: spectral.preconditioned_dense(sys_, PrecondSpec("mgss", 0.2, 0.3))),
        ("rmgss-prec", lambda sys_: spectral.rmgss_preconditioned_dense(sys_, 0.3)),
        ("gamma", lambda sys_: spectral.gamma_dense(sys_, 0.2, 0.3)),
        ("rmgss-predicted", lambda sys_: spectral.predicted_rmgss_spectrum(sys_, 0.3)),
    ])
    def test_csv_is_the_library_spectrum(self, tmp_path, capsys, operator, build):
        bundle = tmp_path / "q4"
        assert main(["generate", "stokes", "--q", "4", "--out", str(bundle)]) == 0
        shifts = {"saddle": [], "rmgss-prec": ["--beta", "0.3"], "rmgss-predicted": ["--beta", "0.3"]}
        given = shifts.get(operator, ["--alpha", "0.2", "--beta", "0.3"])
        cli_csv, lib_csv = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["spectrum", "--in", str(bundle), "--operator", operator, *given,
                     "--csv", str(cli_csv)]) == 0
        result = build(load_bundle(bundle)[0])
        spec = result if isinstance(result, spectral.Spectrum) else spectral.dense_eigen_real_schur(result)
        spec.save_csv(lib_csv)
        assert cli_csv.read_bytes() == lib_csv.read_bytes()

    def test_toy_rmgss_prec_values(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        csv = tmp_path / "spec.csv"
        rc = main(
            ["spectrum", "--in", bundle, "--operator", "rmgss-prec", "--beta", "1",
             "--csv", str(csv)]
        )
        assert rc == 0
        rows = csv.read_text().strip().splitlines()[1:]
        vals = sorted(float(r.split(",")[0]) for r in rows)
        assert np.allclose(vals, [1.0 / 3.0, 1.0], atol=1e-10)
        assert all(abs(float(r.split(",")[1])) < 1e-12 for r in rows)
        assert os.path.exists(tmp_path / "spec.gp")

    def test_script_beside_csv_plots_its_basename(self, tmp_path, capsys, monkeypatch):
        bundle = toy_bundle(tmp_path)
        (tmp_path / "plots").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--in", bundle, "--operator", "saddle", "--csv", "plots/s.csv"]) == 0
        script = (tmp_path / "plots" / "s.gp").read_text()
        assert "set title 'eigenvalue distribution: saddle'\n" in script
        assert "plot 's.csv' every ::1 using 1:2" in script and script.endswith("'press enter to close'\n")

    def test_gnuplot_option_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--in", toy_bundle(tmp_path), "--operator", "saddle", "--gnuplot", "x"])
        assert exc.value.code == 2

    def test_predicted_matches_computed_multiset(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--in", bundle, "--operator", "rmgss-prec", "--beta", "1", "--csv", str(c1)])
        main(["spectrum", "--in", bundle, "--operator", "rmgss-predicted", "--beta", "1", "--csv", str(c2)])
        load = lambda p: sorted(
            (round(float(r.split(",")[0]), 9), round(float(r.split(",")[1]), 9))
            for r in p.read_text().strip().splitlines()[1:]
        )
        assert load(c1) == load(c2)

    def test_gamma_nilpotent(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        csv = tmp_path / "g.csv"
        rc = main(
            ["spectrum", "--in", bundle, "--operator", "gamma", "--alpha", "1", "--beta", "1",
             "--csv", str(csv)]
        )
        assert rc == 0
        rows = csv.read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        for r in rows:
            re_, im_, _ = r.split(",")
            assert abs(float(re_)) <= 1e-8 and abs(float(im_)) <= 1e-8

    def test_unset_shifts_default(self, tmp_path, capsys):
        # an operator takes its preconditioner's default shifts, as solve does
        bundle = toy_bundle(tmp_path)
        mgss, rmgss = SHIFTS["mgss"], SHIFTS["rmgss"]
        for operator, given in (("gamma", ["--alpha", str(mgss["alpha"]), "--beta", str(mgss["beta"])]),
                                ("rmgss-prec", ["--beta", str(rmgss["beta"])])):
            unset, explicit = tmp_path / f"{operator}-unset.csv", tmp_path / f"{operator}-given.csv"
            assert main(["spectrum", "--in", bundle, "--operator", operator, "--csv", str(unset)]) == 0
            assert main(["spectrum", "--in", bundle, "--operator", operator, *given,
                         "--csv", str(explicit)]) == 0
            assert unset.read_text() == explicit.read_text()
        # the toy's mu is 1/2, so rmgss-prec has 1 and mu / (beta + mu)
        vals = sorted(float(row.split(",")[0]) for row in unset.read_text().splitlines()[1:])
        beta = rmgss["beta"]
        assert np.allclose(vals, [0.5 / (beta + 0.5), 1.0], atol=1e-12)

    @pytest.mark.parametrize("operator,shift", [
        ("saddle", "alpha"), ("saddle", "beta"),
        ("rmgss-prec", "alpha"), ("rmgss-predicted", "alpha"),
    ])
    def test_shift_the_operator_does_not_take_rejected(self, tmp_path, capsys, operator, shift):
        shifts = ["--beta", "0.1"] if operator.startswith("rmgss") else []
        rc = main(["spectrum", "--in", toy_bundle(tmp_path), "--operator", operator, *shifts,
                   f"--{shift}", "5", "--csv", str(tmp_path / "x.csv")])
        kind = "none" if operator == "saddle" else "rmgss"
        assert rc == 2
        assert f"{kind} takes no {shift}; it must be 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("operator", ["rmgss-prec", "rmgss-predicted"])
    def test_zero_beta_rejected(self, tmp_path, capsys, operator):
        rc = main(["spectrum", "--in", toy_bundle(tmp_path), "--operator", operator,
                   "--beta", "0", "--csv", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "rmgss requires beta > 0" in capsys.readouterr().err

    def test_pinned_q12_spectrum(self, q12_bundle, tmp_path, capsys):
        # order 481, beyond the 400 the dense eigensolver was once capped at
        csv = tmp_path / "s.csv"
        rc = main(["spectrum", "--in", q12_bundle, "--operator", "rmgss-prec", "--beta", "0.001",
                   "--csv", str(csv)])
        assert rc == 0
        assert len(csv.read_text().strip().splitlines()) == 1 + 481

    def test_dense_cap_refuses_operator(self, q12_bundle, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SADPREC_DENSE_CAP", "100000")
        rc = main(["spectrum", "--in", q12_bundle, "--operator", "saddle", "--csv", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "exceeds cap" in capsys.readouterr().err


class TestBench:
    def test_small_grid_all_converged(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        rc = main(
            ["bench", "--grids", "4", "8", "--methods", "none", "mgss", "rmgss", "--csv", str(csv)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        rows = csv.read_text().strip().splitlines()
        assert len(rows) == 1 + 6  # header + 2 grids x 3 methods
        assert all(row.split(",")[6] == "true" for row in rows[1:])
        assert "stokes-4x4" in out and "stokes-8x8" in out

    def test_stdout_is_the_csv_file(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc = main(["bench", "--grids", "4", "--methods", "mgss", "hss", "--max-outer", "3",
                   "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert rc == 1  # neither method converges in 3 steps at q=4
        assert out == csv_path.read_text()
        assert out.splitlines()[0] == ",".join(f.name for f in fields(BenchRecord))
        assert [row["stop_reason"] for row in csv.DictReader(out.splitlines())] == ["max_outer"] * 2

    def test_pin_is_opt_in_and_labelled(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        rc = main(
            ["bench", "--grids", "4", "8", "--methods", "mgss", "rmgss", "--pin", "--csv", str(csv)]
        )
        assert rc == 0
        rows = [row.split(",") for row in csv.read_text().strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["stokes-4x4-pinned"] * 2 + ["stokes-8x8-pinned"] * 2
        assert all(row[6] == "true" for row in rows)

    def test_no_pin_still_accepted(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        rc = main(["bench", "--grids", "4", "--methods", "rmgss", "--no-pin", "--csv", str(csv)])
        assert rc == 0
        assert csv.read_text().splitlines()[1].startswith("stokes-4x4,")

    def test_empty_methods_rejected(self, tmp_path, capsys):
        for methods in ([], [""]):
            with pytest.raises(SystemExit) as exc:
                main(["bench", "--grids", "4", "--methods", *methods])
            assert exc.value.code == 2

    def test_unknown_method_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--grids", "4", "--methods", "mgss", "ilu"])
        assert exc.value.code == 2

    def test_given_shift_reaches_every_method(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--grids", "4", "--methods", "mgss", "hss", "--alpha", "0.05",
                     "--csv", str(csv_path)]) == 0
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert [(row["method"], float(row["alpha"]), float(row["beta"])) for row in rows] == [
            ("mgss", 0.05, SHIFTS["mgss"]["beta"]), ("hss", 0.05, 0.0)]
        capsys.readouterr()
        assert main(["bench", "--grids", "4", "--methods", "mgss", "rmgss", "--alpha", "0.05"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "rmgss takes no alpha" in captured.err

    def test_odd_grid_rejected_before_any_solve(self, capsys, monkeypatch):
        monkeypatch.setattr("sadprec.cli._solve_once", lambda *args: pytest.fail("solved"))
        assert main(["bench", "--grids", "4", "3", "--methods", "mgss"]) == 2
        assert "q must be an even integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "abc", "-5"])
    def test_malformed_dense_cap_rejected(self, value, capsys, monkeypatch):
        monkeypatch.setenv("SADPREC_DENSE_CAP", value)
        rc = main(["bench", "--grids", "4", "--methods", "mgss"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SADPREC_DENSE_CAP must be a finite, non-negative number")


class TestReadme:
    def test_command_line_block_runs(self, tmp_path, monkeypatch, capsys):
        # every sadprec line of the "Command line" bash block, in order
        section = README.read_text().split("\n## Command line\n", 1)[1]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("sadprec ")]
        assert lines
        monkeypatch.chdir(tmp_path)
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line
