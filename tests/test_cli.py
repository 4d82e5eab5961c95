"""Command-line interface: verify suites, experiments, formats, exit codes."""

import csv
import hashlib
import json

import pytest

from hyperhaar import cli, coincidence


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_default_suites_pass(self, capsys):
        code, payload = run_json(["verify", "--n", "3"], capsys)
        assert code == 0
        assert payload["ok"]
        assert payload["failures"] == []
        names = {s["name"] for s in payload["suites"]}
        assert {"product-rule-d3", "riesz-d2-identity", "gamma-identity",
                "inclusion-exclusion", "exponent-recursion"} <= names

    def test_injected_sign_error_names_tuple(self, capsys, monkeypatch):
        true_rule = coincidence.product_rule

        def flipped(rects):
            out = true_rule(rects)
            if out.kind == "haar":
                return coincidence.ProductResult("haar", sign=-out.sign,
                                                 rectangle=out.rectangle)
            return out

        monkeypatch.setattr(coincidence, "product_rule", flipped)
        code, payload = run_json(["verify", "--n", "2"], capsys)
        assert code == 1
        broken = [f for f in payload["failures"]
                  if f["suite"].startswith("product-rule")]
        assert broken
        assert broken[0]["details"]["failures"][0]["shapes"]

    def test_budget_exit_code(self, capsys):
        code, _ = run(["verify", "--n", "3", "--budget", "1"], capsys)
        assert code == 2

    def test_grid_limit_exit_code(self, capsys):
        code = cli.main(["sharpness", "--n-range", "9..9", "--trials", "1",
                         "--d", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "limit"
        assert "total level 30" in err["detail"]

    def test_oversized_discrepancy_scan_refused(self, capsys):
        # halton d=3 with N > 40 takes the scan bound, whose default grid
        # level 10 asks for 2^30 cells; it is refused before allocating
        code = cli.main(["discrepancy", "--generator", "halton", "--d", "3",
                         "--n-range", "64..64"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "limit"
        assert "total level 30" in err["detail"]
        assert "grid-level" in err["detail"]

    def test_unknown_flag_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--frobnicate"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


class TestExperiments:
    def test_riesz2d(self, capsys):
        code, payload = run_json(
            ["riesz2d", "--n", "3", "--trials", "2"], capsys)
        assert code == 0
        assert payload["ok"]
        assert payload["provenance"]["config"]["command"] == "riesz2d"

    def test_riesz3d_shape(self, capsys):
        code, payload = run_json(["riesz3d", "--n", "3", "--q", "2"], capsys)
        assert code == 0
        assert payload["ok"]
        assert {"params", "checks", "norms", "certificate"} <= set(payload)
        assert all(c["ok"] for c in payload["checks"])

    @pytest.mark.parametrize("n, digest", [
        ("4", "bb716ca00b2bb206c7da58fd6a0d1ad3b915f82f10c6cd27e10a20621aa5e6ff"),
        ("5", "7f699c4766857bc2ceaafa7f851ff88a1c6ad9e350b8a6bf8a0d4d9f72d60afd"),
        ("6", "50baeb166a2798070fd6b3d04e417b6365bd15bc7f40c5cc7c1c8af5dd49a03d"),
    ])
    def test_riesz3d_output_frozen(self, n, digest, capsys):
        # stdout of the reference runs, byte for byte: n=4 as recorded
        # before the short-product reductions were pooled, n=5 the
        # benchmark's riesz3d workload at seed 0
        code, out = run(["riesz3d", "--n", n, "--q", "3", "--seed", "0"],
                        capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_beck_gain_output_frozen(self, capsys):
        # stdout of the benchmark's beck-gain run, byte for byte, as recorded
        # before prod_over summed on join grids; n=9 is past the size at
        # which the earlier code switched from full-grid to per-tuple sums
        code, out = run(["beck-gain", "--kind", "C2_restricted", "--n-range",
                         "4..9", "--p-list", "2,4", "--seed", "0"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "38392b9a5a343c238a15a92916c784989b3db121177691a2a37075fcd3ed7ff6")

    @pytest.mark.parametrize("argv, digest", [
        (["riesz2d", "--n", "4", "--trials", "3", "--seed", "0"],
         "6337dfcdc28b5a25de6fa731b790a932e62c22a11a95eb19982d74b3ed91818d"),
        (["riesz2d", "--n", "4", "--trials", "3", "--seed", "0", "--float"],
         "cb0b84d0c9dab13749ea7aa9a083209a42640a5f31c6c1486b409727a1ff9ed1"),
        (["verify", "--n", "4"],
         "9ddf02d0898b0a37b14bef60053506f6171bf62de712bf881e49b122087bcdb2"),
        (["riesz2d", "--n", "3", "--seed", "0", "--float"],
         "0c008e7fe8067068d0b02520e5344938a4da5881391ccdc99cd6dd507df2f04f"),
        (["riesz2d", "--n", "5", "--seed", "0", "--float"],
         "135e765a2910c2e4c8dd17ab56f0b4d53ea96ac738e97871b8941174d0a4f0e1"),
    ])
    def test_r_function_paths_output_frozen(self, argv, digest, capsys):
        # stdout byte for byte, as recorded before every one-shape r-function
        # was built by hyperbolic.r_function_grid; the two float cases at
        # n=3 and n=5 were recorded while shape sums still synthesized a full
        # spectrum, and fix the order in which float64 H adds its terms
        code, out = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["sharpness", "--n-range", "3..5", "--trials", "3", "--seed", "0"],
         "da08fb8efc84ad899f47e480a900abe7eafab849296afc6d96fbbb6cac92d0cd"),
        (["lp-profile", "--n", "3", "--p-list", "2,4", "--seed", "0"],
         "7c416a31854c10c23fd224bcddc8bbac873a41bfe7ee7a0a2c59336c08efd063"),
        (["discrepancy", "--generator", "vdc", "--n-range", "2..64",
          "--seed", "0"],
         "d8dd1eae91757b65f703744e6a560b845889e92c0cda617e8d6a30c6bd7fe264"),
        (["graphs", "--vertices", "4", "--primes", "--seed", "0"],
         "d939b36003dca905db7c370dda6039a488d29135fc084066813fa0d7ca4c3977"),
    ])
    def test_list_flag_paths_output_frozen(self, argv, digest, capsys):
        # stdout byte for byte, as recorded before the range, --p-list and
        # --vertices flags were validated
        code, out = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["lp-profile", "--n", "5", "--p-list", "2,4,8", "--seed", "0"],
         "16e5070beacd82c1a2180f631a5fbedc2a4787016dbe6a5b14e2222cd22b3bf0"),
        (["lp-profile", "--d", "2", "--n", "8", "--p-list", "2,4,8",
          "--seed", "1"],
         "536decb99a591c85805ca8fcc4d0605a49597674bc1aa5bd3f2306521df20175"),
    ])
    def test_lp_profile_output_frozen(self, argv, digest, capsys):
        # stdout byte for byte, as recorded while Haar analysis still ran
        # over Fraction object arrays; S(f) and both norms go through the
        # exact spectrum
        code, out = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["discrepancy", "--n-range", "2..1024", "--seed", "0"],
         "39df5b3580ab85004ca63282b05bc696bff5e98af23817313ea5585e0a7744e8"),
        (["discrepancy", "--generator", "halton", "--d", "3", "--n-range",
          "2..256", "--grid-level", "6", "--seed", "0"],
         "8ce05183a87105632baebc07f915083725c6a78c85b1b2ef292ae40622b21cb5"),
        (["discrepancy", "--generator", "random", "--n-range", "64..256",
          "--grid-level", "7", "--seed", "0"],
         "6cb7b232cebccbe6bc1e6ef84b80e96d5b4078cb33ac65a4d5d3fa74e03e6acd"),
        (["discrepancy", "--generator", "random", "--d", "3", "--n-range",
          "16..64", "--grid-level", "5", "--seed", "0"],
         "93e7091a7392344c1d359aef339e4549001d681090ee4b2792f3aa076b406a61"),
    ])
    def test_discrepancy_scan_output_frozen(self, argv, digest, capsys):
        # stdout byte for byte, as recorded while the corner counts still
        # ran bisect over Fraction coordinates; every row past the exact
        # cap is a grid-scan bound with a float L2 estimate
        code, out = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["discrepancy", "--n-range", "0..16"],
        ["discrepancy", "--n-range=-4..16"],
        ["discrepancy", "--n-range", "16..2"],
        ["sharpness", "--n-range", "7..3", "--trials", "1"],
        ["beck-gain", "--n-range", "7..3"],
        ["beck-gain", "--n-range", "4..5", "--p-list", "2.5"],
        ["beck-gain", "--n-range", "4..5", "--p-list", "0,2"],
        ["lp-profile", "--n", "3", "--p-list", "2.7,4"],
        ["lp-profile", "--n", "3", "--p-list=-2"],
        ["beck-gain", "--n-range", "4..5", "--p-list", "4,2"],
        ["beck-gain", "--n-range", "4..5", "--p-list", "2,2"],
    ])
    def test_bad_range_or_p_list_rejected(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "validation"

    @pytest.mark.parametrize("argv", [
        ["beck-gain", "--n-range", "0..2"],
        ["beck-gain", "--n-range", "0"],
        ["sharpness", "--n-range", "0..3", "--trials", "2"],
        ["sharpness", "--n-range=-1..3", "--trials", "2"],
    ])
    def test_nonpositive_n_rejected_before_work(self, argv, capfd):
        # n = 0 used to reach rho = sqrt(q) / n (a ZeroDivisionError
        # traceback) and log(0) in the sharpness fit (LAPACK DLASCL lines
        # and "SVD did not converge"); capfd also sees C-level output
        code = cli.main(argv)
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation"
        assert "--n-range" in err["detail"]
        assert "DLASCL" not in captured.err and "SVD" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["riesz3d", "--n", "0"],
        ["verify", "--n", "0"],
        ["beck-gain", "--kind", "C2_restricted", "--n-range", "3..3",
         "--block-s", "0"],
        ["beck-gain", "--kind", "C2_restricted", "--n-range", "3..3",
         "--block-t", "9"],
        ["riesz3d", "--n", "3", "--q", "2", "--d", "2"],
        ["beck-gain", "--kind", "C2_restricted", "--n-range", "3..3", "--q", "0"],
        ["beck-gain", "--kind", "C2", "--n-range", "3..4", "--q", "0"],
        ["beck-gain", "--kind", "C2_restricted", "--block-s", "1",
         "--block-t", "1"],
    ])
    def test_out_of_range_parameters_rejected(self, argv, capfd):
        # n = 0 used to reach rho~ = a q^b / n, a ZeroDivisionError
        # traceback with exit 1 (a failed identity); riesz3d --d 2 ran the
        # d=3 product and recorded d=2; --block-s 0 silently measured
        # block 2 and --block-t 9 raised an IndexError; beck-gain --q 0
        # ran with q = 2 and recorded q = 0; --block-s 1 --block-t 1
        # measured diagonal pairs (r, r) and each other pair twice
        code = cli.main(argv)
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "validation"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, named", [
        (["beck-gain", "--kind", "B4a", "--n-range", "3..3"],
         "B4a class has no tuples at n=3 with --pin 0"),
        (["beck-gain", "--kind", "C2b", "--pin", "99", "--n-range", "3..4"],
         "C2b class has no tuples at n=3 with --pin 99"),
    ], ids=["B4a-pin0", "C2b-pin99"])
    def test_empty_class_rejected(self, argv, named, capsys):
        # an empty class used to exit 0 with zero norms and a NaN fit
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "validation"
        assert named in err["detail"]

    @pytest.mark.parametrize("argv", [["lp-profile", "--n", "0"],
                                      ["riesz2d", "--n", "0"]])
    def test_zero_n_runs_where_defined(self, argv, capsys):
        code, _ = run(argv, capsys)
        assert code == 0

    def test_beck_gain_from_one_still_runs(self, capsys):
        code, payload = run_json(["beck-gain", "--n-range", "1..2"], capsys)
        assert code == 0
        assert sorted({row["n"] for row in payload["rows"]}) == [1, 2]

    @pytest.mark.parametrize("vertices", ["0", "-1"])
    def test_graphs_nonpositive_vertices_rejected(self, vertices, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["graphs", "--vertices", vertices])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--vertices" in captured.err

    @pytest.mark.parametrize("argv", [
        ["riesz2d", "--trials", "0"],
        ["sharpness", "--n-range", "3..3", "--trials", "-1"],
        ["riesz2d", "--threads", "-4"],
        ["sharpness", "--n-range", "3..3", "--trials", "1", "--threads", "0"],
        ["lp-profile", "--n", "2", "--threads", "0"],
    ])
    def test_nonpositive_trials_or_threads_rejected(self, argv, capsys):
        # riesz2d --trials 0 used to exit 0 with "ok": true after checking
        # nothing, and --threads -4 ran serially
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("--threads" if "--threads" in argv else "--trials") in captured.err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_riesz3d_nonpositive_budget_rejected(self, budget, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["riesz3d", "--n", "3", "--q", "2", "--budget", budget])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_riesz3d_budget_refusal(self, capsys):
        code = cli.main(["riesz3d", "--n", "3", "--q", "2", "--budget", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "budget"

    def test_riesz3d_float_rejected(self, capsys):
        code = cli.main(["riesz3d", "--n", "3", "--q", "2", "--float"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "validation"

    def test_riesz3d_deterministic(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        argv = ["riesz3d", "--n", "3", "--q", "2", "--seed", "7",
                "--out", str(path)]
        assert cli.main(argv) == 0
        first = path.read_bytes()
        assert cli.main(argv) == 0
        assert path.read_bytes() == first

    def test_beck_gain_csv(self, tmp_path):
        out = tmp_path / "gain.csv"
        code = cli.main(["beck-gain", "--kind", "C2", "--n-range", "4..5",
                         "--p-list", "2", "--format", "csv",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# provenance:")
        rows = list(csv.DictReader(lines[1:]))
        assert {"kind", "n", "p", "norm", "fitted_exponent",
                "predicted_exponent"} == set(rows[0])
        assert len(rows) == 2

    def test_sharpness(self, capsys):
        code, payload = run_json(
            ["sharpness", "--n-range", "3..4", "--trials", "3"], capsys)
        assert code == 0
        assert payload["fitted_exponent"] < 2

    def test_lp_profile(self, capsys):
        code, payload = run_json(
            ["lp-profile", "--n", "3", "--p-list", "2,4"], capsys)
        assert code == 0
        assert [row["p"] for row in payload["rows"]] == [2, 4]
        assert all(row["b_p"] > 0 for row in payload["rows"])

    def test_discrepancy_scaling_table(self, capsys):
        code, payload = run_json(
            ["discrepancy", "--generator", "vdc", "--n-range", "2..32"],
            capsys)
        assert code == 0
        assert [r["n"] for r in payload["rows"]] == [2, 4, 8, 16, 32]

    def test_graphs_count(self, capsys):
        code, payload = run_json(["graphs", "--vertices", "3"], capsys)
        assert code == 0
        assert payload["count"] == 8

    def test_graphs_primes(self, capsys):
        code, payload = run_json(
            ["graphs", "--vertices", "2", "--primes"], capsys)
        assert code == 0
        assert payload["count"] == 2
        assert [row["prime"] for row in payload["rows"]] == [True, True]


# ---------------------------------------------------------------------------
# IO and formats
# ---------------------------------------------------------------------------


class TestOutput:
    def test_io_error_exit_three(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.json"
        code = cli.main(["graphs", "--vertices", "2", "--out", str(missing)])
        assert code == 3

    def test_json_is_sorted_and_fraction_free(self, capsys):
        code, out = run(["riesz3d", "--n", "3", "--q", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        dumped = json.dumps(payload, sort_keys=True, indent=2)
        assert out.strip() == dumped.strip()

    def test_float_scalar_mode_flag(self, capsys):
        code, payload = run_json(
            ["riesz2d", "--n", "2", "--float", "--trials", "1"], capsys)
        assert code == 0
        assert payload["provenance"]["scalar_mode"] == "float"

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "2"],
        ["lp-profile", "--n", "2"],
        ["beck-gain", "--n-range", "3..4"],
        ["sharpness", "--n-range", "3..3", "--trials", "1"],
        ["discrepancy", "--n-range", "2..4"],
        ["graphs", "--vertices", "2"],
    ])
    def test_float_rejected_where_exact_only(self, argv, capsys):
        code = cli.main([*argv, "--float"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "validation"
