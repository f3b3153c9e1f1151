import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maximin
from maximin import (
    Dataset,
    GroupSpec,
    IoError,
    MaximinFit,
    MissingColumn,
    ParseError,
    RaggedRows,
    SeriesReport,
    consecutive_blocks,
)
from maximin.cli import main as cli_main
from maximin.io import (
    read_csv,
    read_fit,
    read_series,
    write_csv_dataset,
    write_fit,
    write_series,
)


# the directory holding the maximin package this test process imported
PACKAGE_ROOT = str(Path(maximin.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    """Run ``python -m maximin`` on the same package copy the suite imports.

    The package root goes first on the child's PYTHONPATH as an absolute
    path, so a relative entry such as ``src`` cannot miss once ``cwd``
    moves the child into a temporary directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "maximin", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestReadCsv:
    def test_header_table(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n1,2,3\n4,5,6\n7,8,9\n")
        ds, spec = read_csv(f)
        assert ds.n == 3 and ds.p == 2
        np.testing.assert_array_equal(ds.Y, [1.0, 4.0, 7.0])
        np.testing.assert_array_equal(ds.X[:, 0], [2.0, 5.0, 8.0])
        assert spec is None

    def test_group_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,g\n1,2,a\n3,4,a\n5,6,b\n")
        ds, spec = read_csv(f, group_column="g")
        assert ds.p == 1
        assert spec.n_groups == 2
        assert [list(i) for i in spec.groups] == [[0, 1], [2]]

    def test_parse_error_names_row_and_col(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as e:
            read_csv(f)
        assert e.value.row == 3 and e.value.col == 2

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n1,2\n3,4,5\n")
        with pytest.raises(RaggedRows):
            read_csv(f)

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            read_csv(f, y_column="y")

    def test_headerless_positional_columns(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,3\n4,5,6\n")
        ds, _ = read_csv(f, has_header=False, y_column="1")
        np.testing.assert_array_equal(ds.Y, [1.0, 4.0])
        assert ds.p == 2

    def test_standardize(self, tmp_path):
        f = tmp_path / "d.csv"
        rows = ["y,x1,x2"] + [f"{i},{2*i+1},{-i}" for i in range(10)]
        f.write_text("\n".join(rows) + "\n")
        ds, _ = read_csv(f, standardize=True)
        np.testing.assert_allclose(ds.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose((ds.X ** 2).mean(axis=0), 1.0, atol=1e-12)

    def test_quoted_numeric_cell(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('y,x1\n"1.5",2\n3,"-4e-3"\n')
        ds, _ = read_csv(f)
        np.testing.assert_array_equal(ds.Y, [1.5, 3.0])
        np.testing.assert_array_equal(ds.X[:, 0], [2.0, -4e-3])

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("\ny,x1\n\n1,2\n\n3,4\n\n")
        ds, _ = read_csv(f)
        np.testing.assert_array_equal(ds.Y, [1.0, 3.0])
        np.testing.assert_array_equal(ds.X[:, 0], [2.0, 4.0])

    def test_crlf_line_ends(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"y,x1,g\r\n1,2,a\r\n3,4,b\r\n5,6,a\r\n")
        ds, spec = read_csv(f, group_column="g")
        np.testing.assert_array_equal(ds.Y, [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(ds.X[:, 0], [2.0, 4.0, 6.0])
        assert [list(i) for i in spec.groups] == [[0, 2], [1]]

    def test_header_names_are_stripped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(" y , x 1 \n1,2\n3,4\n")
        ds, _ = read_csv(f, y_column="y")
        np.testing.assert_array_equal(ds.Y, [1.0, 3.0])
        with pytest.raises(MissingColumn):
            read_csv(f, y_column=" y ")

    def test_whitespace_around_numbers(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n 1 ,\t2\n3 , 4\n")
        ds, _ = read_csv(f)
        np.testing.assert_array_equal(ds.Y, [1.0, 3.0])
        np.testing.assert_array_equal(ds.X[:, 0], [2.0, 4.0])

    def test_python_float_literals_accepted(self, tmp_path):
        # underscores and non-ASCII digits are numbers to Python's float()
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n1_0,2\n3,\u0664\n", encoding="utf-8")
        ds, _ = read_csv(f)
        np.testing.assert_array_equal(ds.Y, [10.0, 3.0])
        np.testing.assert_array_equal(ds.X[:, 0], [2.0, 4.0])

    def test_labels_keep_their_text(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('y,x1,g\n1,2,"a,b"\n3,4, a\n5,6,a\n7,8,"a,b"\n')
        ds, spec = read_csv(f, group_column="g")
        assert ds.p == 1
        assert [list(i) for i in spec.groups] == [[0, 3], [1], [2]]

    def test_parse_error_in_y_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,y,x2\n1,2,3\n4,5,6\n7,bad,9\n")
        with pytest.raises(ParseError) as e:
            read_csv(f)
        assert (e.value.row, e.value.col) == (4, 2)
        assert "'bad'" in str(e.value)

    def test_parse_error_with_group_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,g,x1\n1,a,2\n3,b,x\n")
        with pytest.raises(ParseError) as e:
            read_csv(f, group_column="g")
        assert (e.value.row, e.value.col) == (3, 3)

    def test_parse_error_first_bad_cell_in_row_order(self, tmp_path):
        # the predictor cells of a row are checked before its response
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n1,2,3\nu,5,v\nw,8,9\n")
        with pytest.raises(ParseError) as e:
            read_csv(f)
        assert (e.value.row, e.value.col) == (3, 3)

    def test_empty_cell_is_a_parse_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n1,2\n3,\n")
        with pytest.raises(ParseError) as e:
            read_csv(f)
        assert (e.value.row, e.value.col) == (3, 2)

    def test_ragged_rows_names_the_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n1,2,3\n4,5,6\n7,8\n")
        with pytest.raises(RaggedRows, match="row 4 has 2 cells, expected 3"):
            read_csv(f)

    def test_ragged_rows_before_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n3,4,5\n")
        with pytest.raises(RaggedRows, match="row 3"):
            read_csv(f, y_column="y")

    def test_header_only_table(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n\n")
        with pytest.raises(RaggedRows, match="no data rows"):
            read_csv(f)
        f.write_text("\n\n")
        with pytest.raises(RaggedRows, match="empty table"):
            read_csv(f)

    def test_matches_cell_by_cell_reference(self, tmp_path):
        # the reader must agree bit for bit with float() applied per cell
        rng = np.random.default_rng(5)
        values = rng.standard_normal((300, 4)) * 10.0 ** rng.integers(-30, 30, (300, 4))
        formats = ["{!r}", "{:.17g}", "{:.6e}", "{:.3f}", "{:.20e}"]
        lines = ["a,y,b,c"]
        for i, row in enumerate(values.tolist()):
            lines.append(",".join(formats[(i + j) % 5].format(v) for j, v in enumerate(row)))
        f = tmp_path / "d.csv"
        f.write_text("\n".join(lines) + "\n")
        ds, _ = read_csv(f)
        cells = [[float(c) for c in line.split(",")] for line in lines[1:]]
        ref = np.array(cells)
        assert ds.Y.tobytes() == ref[:, 1].tobytes()
        assert ds.X.tobytes() == np.ascontiguousarray(ref[:, [0, 2, 3]]).tobytes()

    def test_not_utf8_is_an_io_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"y,x1\n1,2\n3,\xff\n")
        with pytest.raises(IoError, match="UTF-8"):
            read_csv(f)

    def test_oversized_cell_is_an_io_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y," + "x" * (csv.field_size_limit() + 1) + "\n1,2\n")
        with pytest.raises(IoError, match="CSV"):
            read_csv(f)

    def test_write_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(X=rng.standard_normal((5, 2)), Y=rng.standard_normal(5))
        labels = ["a", "b,c", 'say "hi"', "", "line\nbreak"]
        f, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
        write_csv_dataset(ds, f, labels=labels)
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x1", "x2", "group"])
            for i in range(5):
                writer.writerow([format(float(v), ".17g")
                                 for v in (ds.Y[i], *ds.X[i])] + [labels[i]])
        assert f.read_bytes() == ref.read_bytes()

    def test_round_trip_dataset(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(X=rng.standard_normal((20, 3)), Y=rng.standard_normal(20))
        f = tmp_path / "d.csv"
        write_csv_dataset(ds, f)
        back, _ = read_csv(f)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.Y, ds.Y)


class TestFitArtifacts:
    def test_round_trip_bit_equal(self, tmp_path):
        rng = np.random.default_rng(1)
        fit = MaximinFit(beta=rng.standard_normal(5) * np.pi,
                         group_V=rng.standard_normal(3),
                         scale=1.0 / 3.0, iterations=7, converged=True)
        f = tmp_path / "fit.json"
        write_fit(fit, f, groups=consecutive_blocks(9, 3))
        back, spec = read_fit(f)
        np.testing.assert_array_equal(back.beta, fit.beta)
        np.testing.assert_array_equal(back.group_V, fit.group_V)
        assert back.scale == fit.scale
        assert [list(g) for g in spec.groups] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_canonical_bytes_stable(self, tmp_path):
        fit = MaximinFit(beta=np.array([0.1, -2.5e-17]), group_V=np.array([1.0]),
                         scale=1.0, iterations=1, converged=False)
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        write_fit(fit, f1)
        write_fit(fit, f2)
        assert f1.read_bytes() == f2.read_bytes()
        doc = json.loads(f1.read_text())
        assert sorted(doc.keys()) == list(doc.keys())

    def test_one_based_groups_on_disk(self, tmp_path):
        fit = MaximinFit(beta=np.array([1.0]), group_V=np.array([1.0, 1.0]),
                         scale=1.0, iterations=1, converged=True)
        f = tmp_path / "fit.json"
        write_fit(fit, f, groups=consecutive_blocks(4, 2))
        doc = json.loads(f.read_text())
        assert doc["groups"] == [[1, 2], [3, 4]]

    def test_exact_bytes_with_groups(self, tmp_path):
        fit = MaximinFit(beta=np.array([0.1, -2.5e-17]),
                         group_V=np.array([1.0, 1.0 / 3.0]),
                         scale=0.5, iterations=3, converged=True)
        spec = GroupSpec(groups=(np.array([0, 1, 2]), np.array([4, 3])),
                         replacement="with_replacement")
        f = tmp_path / "fit.json"
        write_fit(fit, f, groups=spec)
        assert f.read_bytes() == (
            b'{"beta":[0.10000000000000001,-2.4999999999999999e-17],'
            b'"converged":true,"group_v":[1,0.33333333333333331],'
            b'"groups":[[1,2,3],[5,4]],"iterations":3,'
            b'"replacement":"with_replacement","scale":0.5}\n')
        write_fit(fit, f)
        assert f.read_bytes() == (
            b'{"beta":[0.10000000000000001,-2.4999999999999999e-17],'
            b'"converged":true,"group_v":[1,0.33333333333333331],'
            b'"iterations":3,"scale":0.5}\n')


class TestSeriesArtifacts:
    def test_empty_series_header_only(self, tmp_path):
        f = tmp_path / "s.csv"
        write_series(SeriesReport(cumsum=np.array([]), standardized=False), f)
        assert f.read_text().strip() == "t,cumsum"

    def test_three_rows(self, tmp_path):
        f = tmp_path / "s.csv"
        write_series(SeriesReport(cumsum=np.array([1.0, 0.0, 2.0]),
                                  standardized=False), f)
        lines = f.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("1,")
        np.testing.assert_array_equal(read_series(f), [1.0, 0.0, 2.0])

    def test_exact_bytes(self, tmp_path):
        f = tmp_path / "s.csv"
        write_series(SeriesReport(cumsum=np.array([1.0, 1.0 / 3.0, -2e-5]),
                                  standardized=False), f)
        assert f.read_bytes() == (b"t,cumsum\r\n1,1\r\n2,0.33333333333333331\r\n"
                                  b"3,-2.0000000000000002e-05\r\n")


class TestCliSurface:
    def test_pipeline_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            r = run_cli("simulate", "--scenario", "figure2", "--n", "2000",
                        "--seed", "9", "--out", "data.csv",
                        "--truth-out", "truth.json", cwd=d)
            assert r.returncode == 0, r.stderr
            r = run_cli("fit", "--data", "data.csv", "--groups", "blocks:10",
                        "--penalty", "l2", "--mode", "lambda:0",
                        "--out", "fit.json", cwd=d)
            assert r.returncode == 0, r.stderr
        assert (tmp_path / "a" / "fit.json").read_bytes() == \
            (tmp_path / "b" / "fit.json").read_bytes()
        assert (tmp_path / "a" / "data.csv").read_bytes() == \
            (tmp_path / "b" / "data.csv").read_bytes()

    def test_evaluate_emits_series_and_scores(self, tmp_path):
        r = run_cli("simulate", "--scenario", "figure2", "--n", "3000",
                    "--seed", "4", "--out", "data.csv", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("fit", "--data", "data.csv", "--groups", "blocks:12",
                    "--penalty", "l2", "--mode", "lambda:0",
                    "--out", "fit.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("evaluate", "--data", "data.csv", "--fit", "fit.json",
                    "--emit-series", "series.csv", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "group 1:" in r.stdout
        assert "overall standardized cross-product" in r.stdout
        series = read_series(tmp_path / "series.csv")
        assert series.shape == (3000,)
        # worst-group-optimal fit keeps every fifth of the series climbing
        c = np.concatenate([[0.0], series])
        marks = np.linspace(0, 3000, 6).astype(int)
        assert np.all(np.diff(c[marks]) > 0.0)

    def test_oracle_command(self, tmp_path):
        (tmp_path / "support.json").write_text(
            '{"points": [[1.0, -4.0], [1.0, 6.0]], '
            '"sigma": [[1.0, 0.0], [0.0, 1.0]]}')
        r = run_cli("oracle", "--support", "support.json", "--which", "maximin",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        beta = json.loads(r.stdout)["beta"]
        np.testing.assert_allclose(beta, [1.0, 0.0], atol=1e-8)
        r = run_cli("oracle", "--support", "support.json", "--which", "pooled",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        np.testing.assert_allclose(json.loads(r.stdout)["beta"], [1.0, 1.0])
        r = run_cli("oracle", "--support", "support.json", "--which",
                    "pred-maximin", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        np.testing.assert_allclose(json.loads(r.stdout)["beta"], [1.0, 1.0],
                                   atol=1e-6)
        # an explicit Gram matrix file overrides the one in the support:
        # under [[1, .5], [.5, 1]] the segment objective 1 + t + t^2 has its
        # minimum at t = -1/2
        (tmp_path / "sigma.csv").write_text("1.0,0.5\n0.5,1.0\n")
        r = run_cli("oracle", "--support", "support.json",
                    "--sigma", "sigma.csv", "--which", "maximin", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        beta = np.array(json.loads(r.stdout)["beta"])
        np.testing.assert_allclose(beta, [1.0, -0.5], atol=1e-7)

    def test_cv_groups_command(self, tmp_path):
        r = run_cli("simulate", "--scenario", "jump", "--n", "1200", "--p", "2",
                    "--delta", "0.02", "--seed", "3", "--out", "data.csv",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("cv-groups", "--data", "data.csv", "--candidates", "2,6",
                    "--splits", "4", "--g-test", "3", "--min-block", "50",
                    "--mode", "lambda:0", "--penalty", "l2", "--time-ordered",
                    "--seed", "0", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "chosen G:" in r.stdout

    def test_exit_code_validation_error(self, tmp_path):
        r = run_cli("fit", "--data", "missing.csv", "--groups", "blocks:2",
                    "--out", "x.json", cwd=tmp_path)
        # exit 2 alone would also pass on an argparse usage error; the
        # message shows the missing data file is what was reported
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:"), r.stderr
        assert "missing.csv" in r.stderr

    def test_exit_code_bad_mode_value(self, tmp_path):
        (tmp_path / "d.csv").write_text("y,x1\n1,2\n3,4\n5,7\n")
        r = run_cli("fit", "--data", "d.csv", "--groups", "blocks:2",
                    "--mode", "lambda:abc", "--out", "x.json", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:"), r.stderr
        assert "lambda:abc" in r.stderr

    def test_exit_code_non_utf8_data(self, tmp_path):
        (tmp_path / "d.csv").write_bytes(b"y,x1\n1,2\n3,\xff\xfe\n")
        r = run_cli("fit", "--data", "d.csv", "--groups", "blocks:2",
                    "--out", "x.json", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:"), r.stderr
        assert "d.csv" in r.stderr

    def test_contaminated_without_predictors_is_a_validation_error(self, tmp_path, capsys):
        code = cli_main(["simulate", "--scenario", "contaminated", "--n", "10",
                     "--p", "0", "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: p must be >= 1")

    @pytest.mark.parametrize("scenario,n", [
        ("mixture", "-1"), ("jump", "-1"), ("contaminated", "-1"),
        ("mixture", "0"), ("jump", "0"), ("contaminated", "0"),
    ])
    def test_simulate_without_observations_is_a_validation_error(
            self, tmp_path, capsys, scenario, n):
        code = cli_main(["simulate", "--scenario", scenario, "--n", n,
                         "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: n must be at least 1")

    def test_nan_penalty_is_a_validation_error(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("y,x1\n1,2\n3,4\n5,7\n6,1\n")
        code = cli_main(["fit", "--data", str(tmp_path / "d.csv"),
                         "--groups", "blocks:2", "--penalty", "l2",
                         "--mode", "lambda:nan", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: lam must be >= 0")

    def test_import_loads_no_scipy(self):
        # scipy costs about a second per interpreter; only the bounded
        # design and the l2 penalty root-find load it, when they run
        code = ("import sys, maximin, maximin.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_exit_code_solver_error(self, tmp_path):
        # opposed single-predictor signals make the maximal-penalty program
        # infeasible: no direction aligns positively with both groups
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 1))
        Y = np.concatenate([X[:100, 0], -X[100:, 0]])
        write_csv_dataset(Dataset(X=X, Y=Y), tmp_path / "data.csv")
        r = run_cli("fit", "--data", "data.csv", "--groups", "blocks:2",
                    "--mode", "maximal", "--out", "x.json", cwd=tmp_path)
        assert r.returncode == 3
        assert "solver error" in r.stderr

    def test_mixture_truth_feeds_oracle(self, tmp_path):
        r = run_cli("simulate", "--scenario", "mixture", "--n", "300",
                    "--p", "4", "--sigma-noise", "0.05", "--seed", "8",
                    "--out", "data.csv", "--truth-out", "truth.json",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["scenario"] == "mixture"
        assert len(truth["assignments"]) == 300
        assert min(truth["assignments"]) >= 1  # file indices are 1-based
        r = run_cli("oracle", "--support", "truth.json", "--which", "maximin",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        beta = np.array(json.loads(r.stdout)["beta"])
        # the built-in mixture support shares its first coordinate
        assert beta[0] == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(beta[1:], 0.0, atol=1e-8)

    def test_group_labels_from_file(self, tmp_path):
        (tmp_path / "d.csv").write_text(
            "y,x1,grp\n1.0,0.5,a\n2.0,1.0,a\n0.5,0.2,b\n0.8,0.4,b\n")
        r = run_cli("fit", "--data", "d.csv", "--groups", "labels:grp",
                    "--penalty", "l2", "--mode", "lambda:0",
                    "--out", "fit.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        _, spec = read_fit(tmp_path / "fit.json")
        assert spec.n_groups == 2
