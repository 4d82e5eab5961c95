"""Command-line interface: verify suites, experiments, formats, exit codes."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperhaar import cli, coincidence, discrepancy, grid, hyperbolic


#: riesz3d scalars that pass the float range: refused as a limit.
OVERFLOWING = [
    ["riesz3d", "--n", "2", "--eps", "2000"],
    ["riesz3d", "--n", "2", "--q", "2", "--a", "1e308"],
]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


def _subparsers(parser):
    (subs,) = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


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
        true_signs = coincidence.product_signs

        def flipped(shapes):
            # one wrong sign, at the last cell of the join
            signs = true_signs(shapes).copy()
            signs[(-1,) * signs.ndim] *= -1
            return signs

        monkeypatch.setattr(coincidence, "product_signs", flipped)
        code, payload = run_json(["verify", "--n", "2"], capsys)
        assert code == 1
        broken = [f for f in payload["failures"]
                  if f["suite"].startswith("product-rule")]
        assert broken
        assert broken[0]["details"]["failures"][0]["shapes"]
        first = broken[0]["details"]["failures"][0]
        assert first["position"] is not None
        shapes = first["shapes"]
        assert first["position"] == [(1 << max(s[axis] for s in shapes)) - 1
                                     for axis in range(len(shapes[0]))]

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

    @pytest.mark.parametrize("error", [
        MemoryError("out of memory"),
        np._core._exceptions._ArrayMemoryError((1 << 40,), np.dtype(float)),
    ], ids=["MemoryError", "numpy"])
    def test_memory_error_exit_two(self, capsys, monkeypatch, error):
        def raising(*args):
            raise error

        monkeypatch.setattr(discrepancy, "_count_slabs", raising)
        code = cli.main(["discrepancy", "--generator", "vdc",
                         "--n-range", "2..2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "memory",
                                            "detail": str(error)}

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

    @pytest.mark.parametrize("n, q, digest", [
        ("4", "3", "bb716ca00b2bb206c7da58fd6a0d1ad3b915f82f10c6cd27e10a20621aa5e6ff"),
        ("5", "3", "7f699c4766857bc2ceaafa7f851ff88a1c6ad9e350b8a6bf8a0d4d9f72d60afd"),
        ("6", "3", "50baeb166a2798070fd6b3d04e417b6365bd15bc7f40c5cc7c1c8af5dd49a03d"),
        ("6", "4", "ee6301ed222905723601ac5ba226b0a6db3f27d9b7a58a20320d63d16634e1a4"),
    ])
    def test_riesz3d_output_frozen(self, n, q, digest, capsys):
        # stdout of the reference runs, byte for byte: n=4 as recorded
        # before the short-product reductions were pooled, n=5 the
        # benchmark's riesz3d workload at seed 0, and q=4 for its mix of
        # nsd sign patterns
        code, out = run(["riesz3d", "--n", n, "--q", q, "--seed", "0"],
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

    def test_beck_gain_int16_sums_output_frozen(self, capsys):
        # stdout byte for byte, as recorded while beck-gain still built each
        # class sum as one grid; B4 has 192 tuples at n=6, so its sums are
        # int16, which the power sums count over the whole int16 span
        code, out = run(["beck-gain", "--kind", "B4", "--n-range", "4..6",
                         "--p-list", "2,4", "--seed", "0"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "65569aef0d6799fbfd28ebc639a43a5db6131c24d50aa974128f5484f5f1e1f5")

    @pytest.mark.parametrize("budget, code", [("8", 2), ("9", 0)])
    def test_beck_gain_budget_checked_before_r_grids(self, budget, code,
                                                     capsys, monkeypatch):
        # C2_restricted has 9 tuples at n=4; a budget below that refuses
        # the class before any r-function grid is built
        built = []
        signed_r_sum = hyperbolic.signed_r_sum
        monkeypatch.setattr(hyperbolic, "signed_r_sum",
                            lambda *a, **k: built.append(a) or signed_r_sum(*a, **k))
        assert cli.main(["beck-gain", "--kind", "C2_restricted", "--n-range",
                         "4..4", "--budget", budget]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert json.loads(captured.err)["error"] == "budget"
            assert captured.out == ""
            assert not built
        else:
            assert built

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
        # was built by one provider (now hyperbolic.signed_r_sum); the two float cases at
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
        # over Fraction object arrays; S(f)^2 now comes from the
        # coefficients, with no analysis at all
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
        ["beck-gain", "--kind", "C2", "--n-range", "3..4", "--block-s", "7"],
        ["beck-gain", "--kind", "C2b", "--n-range", "3..4", "--pin", "1",
         "--block-t", "3"],
        ["beck-gain", "--kind", "B4", "--n-range", "3..3", "--block-s", "2"],
        ["beck-gain", "--kind", "B4a", "--n-range", "4..4", "--pin", "2",
         "--block-t", "1"],
        ["beck-gain", "--kind", "C2", "--n-range", "3..4", "--pin", "5"],
        ["beck-gain", "--kind", "C2_restricted", "--n-range", "3..3",
         "--pin", "1"],
        ["beck-gain", "--kind", "B4", "--n-range", "3..3", "--pin", "2"],
        ["beck-gain", "--kind", "C2", "--n-range", "3..3", "--n", "5"],
        ["beck-gain", "--kind", "C2", "--n-range", "3..3", "--d", "2"],
        ["beck-gain", "--kind", "C2", "--n-range", "3..3", "--a", "2"],
        ["beck-gain", "--kind", "C2", "--n-range", "3..3", "--eps", "0.25"],
        ["beck-gain", "--kind", "C2", "--n-range", "3..3", "--threads", "2"],
        ["riesz2d", "--n", "2", "--trials", "1", "--budget", "5"],
        ["sharpness", "--n-range", "3..3", "--trials", "1", "--budget", "5"],
        ["lp-profile", "--n", "2", "--budget", "5"],
        ["discrepancy", "--n-range", "2..4", "--budget", "5"],
        ["graphs", "--vertices", "2", "--budget", "5"],
        ["verify", "--n", "2", "--d", "2"],
        ["verify", "--n", "2", "--q", "3"],
        ["verify", "--n", "2", "--a", "2"],
        ["verify", "--n", "2", "--eps", "0.25"],
        ["verify", "--n", "2", "--threads", "2"],
        ["riesz2d", "--n", "2", "--trials", "1", "--q", "5"],
        ["sharpness", "--n-range", "3..3", "--trials", "1", "--n", "9",
         "--q", "4"],
        ["lp-profile", "--n", "2", "--q", "7", "--eps", "0.1"],
        ["graphs", "--vertices", "2", "--d", "2", "--n", "9"],
        ["discrepancy", "--n-range", "2..4", "--n", "8", "--threads", "2"],
        ["riesz3d", "--n", "3", "--q", "2", "--threads", "2"],
        ["beck-gain", "--kind", "C2", "--n-range", "3..3", "--q", "3"],
        ["riesz3d", "--n", "2", "--q", "2", "--a", "inf"],
        ["riesz3d", "--n", "2", "--a", "inf"],
        ["riesz3d", "--n", "2", "--eps", "inf"],
        *OVERFLOWING,
        ["discrepancy", "--generator", "vdc", "--n-range", "2..4", "--d", "2"],
    ])
    def test_out_of_range_parameters_rejected(self, argv, capfd):
        # n = 0 used to reach rho~ = a q^b / n, a ZeroDivisionError
        # traceback with exit 1 (a failed identity); riesz3d --d 2 ran the
        # d=3 product and recorded d=2; --block-s 0 silently measured
        # block 2 and --block-t 9 raised an IndexError; beck-gain --q 0
        # ran with q = 2 and recorded q = 0; --block-s 1 --block-t 1
        # measured diagonal pairs (r, r) and each other pair twice; block
        # flags off C2_restricted, --pin off C2b/B4a and --budget where
        # nothing is enumerated were ignored yet recorded in provenance, as
        # were --n, --d, --a, --eps and --threads in beck-gain, and --d,
        # --q, --a, --eps and --threads in verify (verify --n 2 --d 2
        # exited 0 after checking the d=3 suites); so were the common flags
        # of riesz2d, sharpness, lp-profile, graphs, discrepancy and riesz3d
        # and beck-gain's --q off C2_restricted; a non-finite --a/--eps, or
        # one that overflows a float, ended riesz3d in a traceback (exit 1);
        # discrepancy --generator vdc ran the d=2 set under any --d
        code = cli.main(argv)
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == (
            "limit" if argv in OVERFLOWING else "validation")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, named", [
        (OVERFLOWING[0], ["--eps", "2000", "--a 1.0"]),
        (OVERFLOWING[1], ["--a 1e+308", "q=2", "n=2"]),
    ], ids=["eps", "a"])
    def test_overflow_names_the_flag(self, argv, named, capfd):
        # the bare C message, "(34, 'Numerical result out of range')",
        # named neither the flag nor its value
        assert cli.main(argv) == 2
        detail = json.loads(capfd.readouterr().err)["detail"]
        for word in named:
            assert word in detail

    def test_flag_table_covers_every_subcommand(self):
        # every subcommand has a row, every common flag but --seed, --out and
        # --format a default there, and each such default is the parser's
        subs = _subparsers(cli.build_parser())
        assert set(subs) == set(cli._IGNORED_FLAGS)
        common = argparse.ArgumentParser(add_help=False)
        cli._common_flags(common)
        dests = {a.dest for a in common._actions} - {"seed", "out", "format"}
        assert dests == set(cli._COMMON_DEFAULTS)
        for command, (names, _) in cli._IGNORED_FLAGS.items():
            assert set(names) <= dests
            for dest, default in cli._COMMON_DEFAULTS.items():
                assert subs[command].get_default(dest) == default

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

    def test_lp_profile_csv_rows_are_the_library_rows(self, capsys):
        # the CSV header and cells are grid.lp_profile's rows, in key order
        code, out = run(["lp-profile", "--n", "3", "--p-list", "2,4", "--seed",
                         "5", "--format", "csv"], capsys)
        assert code == 0
        field = hyperbolic.CoefficientField.random_signs(3, 3, 5)
        rows = grid.lp_profile(hyperbolic.hyperbolic_sum(field),
                               hyperbolic.square_function_squared(field), [2, 4])
        assert out.splitlines()[1:] == [",".join(rows[0])] + [
            ",".join(repr(v) for v in row.values()) for row in rows]

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


# ---------------------------------------------------------------------------
# start-up: the parser loads no library module, a subcommand only its own
# ---------------------------------------------------------------------------


#: The modules whose loading the start-up tests watch.
LIBRARY = {"numpy", *(f"hyperhaar.{m}" for m in
                      ("grid", "hyperbolic", "coincidence", "riesz",
                       "discrepancy"))}

#: Standard-library and numpy modules that the parser need not load:
#: ``fractions`` loads ``decimal``, and ``np.unique`` loads ``numpy.ma``.
DEFERRED = {"fractions", "decimal", "csv", "numpy.ma"}

#: sha256 of ``hyperhaar [<command>] --help`` at 80 columns, as Python
#: 3.11's argparse formats it; the top-level parser under "".
HELP_DIGESTS = {
    "": "7a7a3b2722805f5d7e71dde647bb689a84e2a3e3689bbe7cd16270105c0a9d87",
    "verify":
        "586d4d20ee5a41894943c0f9f3b1b369bdf9b364f95a71a7746d1c403412cee8",
    "riesz2d":
        "48ed432a79c5c5aef50451ef0b7fe835927323e2f80e76fc6ee6d33b525e340c",
    "riesz3d":
        "30669f3d0166f24a6ef867681d2d79225c2eb279e0a80af233cd4e5604cca7b7",
    "beck-gain":
        "d4a1420dacca81d298094de0fa040e92bb74dcf39b0d223dfbc8f922571963b6",
    "sharpness":
        "93652354c87c5cb00925260ff5dc64f7f451b1adfef28e1d6d6f48097d5e43a6",
    "lp-profile":
        "17b55a8b1c1740b96b2c7b6ebecb7fff6d248949ee819dbc0c2b51684a84d54b",
    "discrepancy":
        "f2ba96935d95d6de46d951b4ddbbd8cc16c2bd69ec8509087418084c93fe6077",
    "graphs":
        "4babfec7b112228dba0092562e0115633ffa0944368d775c3dba26b51fd25564",
}


class TestStartup:
    @staticmethod
    def _loaded_after(code: str) -> set:
        """The watched modules (``LIBRARY`` and ``DEFERRED``) loaded by a
        fresh interpreter that imports ``hyperhaar.cli`` and runs ``code``."""
        watched = sorted(LIBRARY | DEFERRED)
        script = "\n".join([
            "import contextlib, io, sys",
            "import hyperhaar.cli as cli",
            code,
            f"print(*sorted(set(sys.modules) & set({watched!r})))",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    @pytest.mark.parametrize("code, loaded", [
        ("cli.build_parser()", set()),
        ("with contextlib.redirect_stdout(io.StringIO()):\n"
         "    assert cli.main(['discrepancy', '--n-range', '2..8']) == 0",
         {"numpy", "hyperhaar.grid", "hyperhaar.discrepancy", "fractions",
          "decimal"}),
        ("with contextlib.redirect_stdout(io.StringIO()):\n"
         "    assert cli.main(['discrepancy', '--n-range', '2..8',\n"
         "                     '--format', 'csv']) == 0",
         {"numpy", "hyperhaar.grid", "hyperhaar.discrepancy", "fractions",
          "decimal", "csv"}),
        ("with contextlib.redirect_stdout(io.StringIO()):\n"
         "    assert cli.main(['sharpness', '--n-range', '2..3',\n"
         "                     '--trials', '1']) == 0",
         {"numpy", "hyperhaar.grid", "hyperhaar.hyperbolic", "fractions",
          "decimal"}),
    ], ids=["parser", "discrepancy", "discrepancy-csv", "sharpness"])
    def test_loads_only_the_modules_it_runs(self, code, loaded):
        assert self._loaded_after(code) == loaded

    def test_choice_tuples_match_the_library(self):
        subs = _subparsers(cli.build_parser())
        (kind,) = [a for a in subs["beck-gain"]._actions if a.dest == "kind"]
        (gen,) = [a for a in subs["discrepancy"]._actions
                  if a.dest == "generator"]
        assert list(kind.choices) == sorted(coincidence.PREDICTED_EXPONENT)
        assert list(gen.choices) == sorted(discrepancy.GENERATORS)

    @pytest.mark.parametrize("command", list(HELP_DIGESTS))
    def test_help_text_frozen(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = cli.build_parser()
        if command:
            parser = _subparsers(parser)[command]
        text = parser.format_help()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            HELP_DIGESTS[command]
