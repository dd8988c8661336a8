import csv
import json
import os
import time

import numpy as np
import pytest

from sadprec.cli import BenchRecord, main
from sadprec.precond import make_preconditioner
from sadprec.problems import load_bundle, save_bundle
from sadprec.sparse import CsrMatrix, SaddleSystem


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
    assert main(["generate", "--stokes", "q=12", "--out", str(path)]) == 0
    return str(path)


class TestGenerate:
    def test_stokes_table_dimensions(self, tmp_path, capsys):
        out = tmp_path / "t16"
        rc = main(["generate", "--stokes", "q=16", "--no-pin", "--out", str(out)])
        assert rc == 0
        _, meta = load_bundle(out)
        assert meta["n"] == 578 and meta["m"] == 256

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "ra", tmp_path / "rb"
        assert main(["generate", "--random", "n=10", "m=4", "seed=1", "--out", str(a)]) == 0
        assert main(["generate", "--random", "n=10", "m=4", "seed=1", "--out", str(b)]) == 0
        assert (a / "A.mtx").read_text() == (b / "A.mtx").read_text()
        assert (a / "f.vec").read_text() == (b / "f.vec").read_text()

    def test_odd_q_rejected(self, tmp_path, capsys):
        rc = main(["generate", "--stokes", "q=3", "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    def test_both_generators_rejected(self, tmp_path):
        rc = main(
            ["generate", "--stokes", "q=4", "--random", "n=4", "m=2", "--out", str(tmp_path / "x")]
        )
        assert rc != 0


class TestSolve:
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
        bundle = toy_bundle(tmp_path)
        main(["solve", "--in", bundle, "--method", method])
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (rec["alpha"], rec["beta"]) == shifts

    def test_hss_default_shift_converges(self, tmp_path, capsys):
        # hss defaults to the Table-2 alpha 0.1; at 0.001 it stagnates here
        out = tmp_path / "b8"
        assert main(["generate", "--stokes", "q=8", "--out", str(out)]) == 0
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
        assert rc != 0

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
        assert header == BenchRecord.csv_header()
        cells = row.split(",")
        assert cells[0] == rec["problem"]
        assert int(cells[4]) == rec["it"]
        assert float(cells[7]) == rec["final_relres"]
        assert cells[11] == rec["stop_reason"] == "tolerance"

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
        header = BenchRecord.csv_header().split(",")
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

    def test_empty_grid_rejected(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(["sweep", "--in", bundle, "--method", "hss", "--alpha-grid", "1:2:0"])
        assert rc != 0

    def test_hss_sweep_q16_interior_optimum(self, tmp_path, capsys):
        # on the 16x16 grid the best hss shift lies strictly inside a
        # bracketing grid, and both benchmark mgss points converge
        out = tmp_path / "q16"
        assert main(["generate", "--stokes", "q=16", "--no-pin", "--out", str(out)]) == 0
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
        assert main(["generate", "--stokes", "q=8", "--out", str(out)]) == 0
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

    def test_missing_grid_rejected(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(["sweep", "--in", bundle, "--method", "hss"])
        assert rc != 0


class TestSpectrum:
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

    def test_missing_parameter(self, tmp_path, capsys):
        bundle = toy_bundle(tmp_path)
        rc = main(["spectrum", "--in", bundle, "--operator", "gamma", "--csv", str(tmp_path / "x.csv")])
        assert rc != 0

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
            ["bench", "--grids", "4,8", "--methods", "none,mgss,rmgss", "--csv", str(csv)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        rows = csv.read_text().strip().splitlines()
        assert len(rows) == 1 + 6  # header + 2 grids x 3 methods
        assert all(row.split(",")[6] == "true" for row in rows[1:])
        assert "stokes-4x4" in out and "stokes-8x8" in out

    def test_pin_is_opt_in_and_labelled(self, tmp_path, capsys):
        csv = tmp_path / "bench.csv"
        rc = main(
            ["bench", "--grids", "4,8", "--methods", "mgss,rmgss", "--pin", "--csv", str(csv)]
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
        rc = main(["bench", "--grids", "4", "--methods", ""])
        assert rc != 0

    def test_unknown_method_rejected(self, capsys):
        rc = main(["bench", "--grids", "4", "--methods", "ilu"])
        assert rc != 0

    @pytest.mark.parametrize("value", ["inf", "abc", "-5"])
    def test_malformed_dense_cap_rejected(self, value, capsys, monkeypatch):
        monkeypatch.setenv("SADPREC_DENSE_CAP", value)
        rc = main(["bench", "--grids", "4", "--methods", "mgss"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SADPREC_DENSE_CAP must be a finite, non-negative number")
