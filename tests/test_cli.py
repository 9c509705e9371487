"""End-to-end checks of the command-line front end and its exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hadcensus

from hadcensus import arith, census, construct, errors, solver
from hadcensus.cli import (
    EXIT_COVERAGE_GAP,
    EXIT_IO,
    EXIT_NOT_HADAMARD,
    EXIT_NO_PRIME,
    EXIT_OK,
    FAILURES,
    main,
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuildVerify:
    def test_build_then_verify(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        code, out, _ = run(
            ["build", "--k", "3", "--epsilon", "1", "--out", str(plan_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert "order 12" in out
        plan = json.loads(plan_path.read_text())
        assert plan["kind"] == "paley_ii"
        assert plan["claimed_order"] == 12

        code, out, _ = run(["verify", str(plan_path) + ".pm"], capsys)
        assert code == EXIT_OK
        assert "order 12: Hadamard" in out

    def test_verify_rejects_corrupted_matrix(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        run(["build", "--k", "1", "--epsilon", "1", "--out", str(plan_path)],
            capsys)
        pm_path = tmp_path / "plan.json.pm"
        lines = pm_path.read_text().splitlines()
        lines[1] = ("-" if lines[1][0] == "+" else "+") + lines[1][1:]
        pm_path.write_text("\n".join(lines) + "\n")

        code, out, _ = run(["verify", str(pm_path)], capsys)
        assert code == EXIT_NOT_HADAMARD
        assert "NOT Hadamard" in out

    def test_verify_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.pm"
        code, out, err = run(["verify", str(path)], capsys)
        assert (code, out) == (EXIT_IO, "")
        # the shared file-error line; the errno text names the path
        assert err == f"I/O error: [Errno 2] No such file or directory: {str(path)!r}\n"

    def test_verify_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pm"
        bad.write_text("2\n++\n+*\n")
        code, _, err = run(["verify", str(bad)], capsys)
        assert code == EXIT_IO
        assert "parse error" in err

    def test_verify_non_ascii_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.pm"
        bad.write_bytes(b"2\n+\xff\n+-\n")
        code, out, err = run(["verify", str(bad)], capsys)
        assert code == EXIT_IO
        assert out == ""
        assert err == "parse error: line 2: invalid character '\\xff'\n"

    def test_verify_huge_order_header(self, tmp_path, capsys):
        # the header claims 10^36 entries; the file holds one
        bad = tmp_path / "bad.pm"
        bad.write_bytes(b"999999999999999999\n+\n")
        code, out, err = run(["verify", str(bad)], capsys)
        assert (code, out) == (EXIT_IO, "")
        assert err == ("parse error: line 3: expected 999999999999999999 rows "
                       "plus trailing newline\n")

    def test_build_no_prime_in_window(self, capsys):
        code, _, err = run(["build", "--k", "509203", "--epsilon", "1/2"],
                           capsys)
        assert code == EXIT_NO_PRIME
        assert "no prime in window" in err
        assert err == "no prime in window m = 1..9 for k = 509203\n"

    def test_build_probable_prime(self, capsys):
        # 763 * 2^55 - 1, past 2^64, is only a probable prime
        code, out, err = run(["build", "--k", "763", "--epsilon", "6"], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out == "order 27489972125469507584 = 2^55 * 763 (certified=False)\n"
        code, out, err = run(["build", "--k", "763", "--epsilon", "6",
                              "--strict-primality"], capsys)
        assert (code, out) == (EXIT_NO_PRIME, "")
        assert err == "no prime in window m = 1..57 for k = 763\n"

    def test_build_without_out_builds_nothing(self, monkeypatch, capsys):
        def no_build(plan):
            raise AssertionError("built a matrix with no --out to write it to")

        monkeypatch.setattr(construct, "build_plan", no_build)
        code, out, err = run(["build", "--k", "4095", "--epsilon", "2"], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out == "order 65520 = 2^4 * 4095 (certified=True)\n"

    def test_build_max_order_cap(self, tmp_path, monkeypatch, capsys):
        def no_build(plan):
            raise AssertionError("built past the order cap")

        # the plan is Paley I of order 160 020: 3.2 GB of packed rows alone
        monkeypatch.setattr(construct, "build_plan", no_build)
        plan_path = tmp_path / "p.json"
        code, out, err = run(["build", "--k", "40005", "--epsilon", "1",
                              "--out", str(plan_path)], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out == "order 160020 = 2^2 * 40005 (certified=True)\n"
        assert json.loads(plan_path.read_text())["claimed_order"] == 160020
        assert not (tmp_path / "p.json.pm").exists()
        # the cap is a constant: build has no --max-order option
        with pytest.raises(SystemExit) as exc:
            main(["build", "--k", "5", "--epsilon", "1", "--max-order", "16"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-order 16" in capsys.readouterr().err


class TestSearch:
    def test_search_success_json(self, tmp_path, capsys):
        out_path = tmp_path / "search.json"
        code, out, _ = run(
            ["search", "--k", "5", "--epsilon", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text())
        assert payload == json.loads(out)
        assert payload["found_m"] == 2
        assert payload["prime_value"] == 19

    def test_search_exhausted(self, capsys):
        code, out, _ = run(["search", "--k", "509203", "--epsilon", "1/2"],
                           capsys)
        assert code == EXIT_NO_PRIME
        assert json.loads(out)["found_m"] is None


class TestCensus:
    def test_hand_case_values(self, capsys):
        code, out, _ = run(["census", "--x", "4", "--epsilon", "2"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sigma"] == 5
        assert payload["sum_S_squared"] == 13
        assert payload["N"] == 2
        assert payload["pi_terms"] == [[1, 1], [2, 2], [3, 2]]

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        args = ["census", "--x", "100", "--epsilon", "1"]
        first = run(args + ["--out", str(tmp_path / "a.json")], capsys)
        second = run(args + ["--out", str(tmp_path / "b.json")], capsys)
        assert first == second
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_csv_sidecar(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            ["census", "--x", "4", "--epsilon", "2", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["pi_terms"] == [[1, 1], [2, 2], [3, 2]]
        assert not (tmp_path / "report.json.csv").exists()
        with pytest.raises(SystemExit) as exc:
            main(["census", "--x", "4", "--epsilon", "2", "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_window_too_small(self, capsys):
        code, _, err = run(["census", "--x", "2", "--epsilon", "1/2"], capsys)
        assert code == EXIT_IO
        assert err == "domain error: empty window: L = -1 for x = 2, epsilon = 1/2\n"

    def test_unwritable_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        code, out, err = run(["census", "--x", "100", "--epsilon", "1",
                              "--out", str(path)], capsys)
        assert (code, out) == (EXIT_IO, "")
        assert err == f"I/O error: [Errno 2] No such file or directory: {str(path)!r}\n"

    def test_planted_table_fault_fails_the_check(self, monkeypatch, capsys):
        rows = census._prime_rows

        def faulty(*args):
            for m, row in enumerate(rows(*args), 1):
                if m == 1:
                    row[1] = False  # 2*3 - 1 = 5
                yield row

        monkeypatch.setattr(census, "_prime_rows", faulty)
        code, out, err = run(["census", "--x", "100", "--epsilon", "1"], capsys)
        assert (code, out) == (EXIT_NOT_HADAMARD, "")
        assert err == "check failed: sigma identity violated at l = 1: k = 3\n"


class TestRiesel:
    def test_default_certificate(self, capsys):
        code, out, _ = run(["riesel"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["period"] == 24
        assert payload["family_invariance"] is True

    def test_coverage_gap(self, capsys):
        code, _, err = run(["riesel", "--cover", "3", "5", "7"], capsys)
        assert code == EXIT_COVERAGE_GAP
        assert "coverage gap" in err
        assert err == "coverage gap: no covering prime for m = 3 (mod 12)\n"

    def test_no_strict_primality_option(self, capsys):
        # riesel tests no primes, so the flag had nothing to act on
        with pytest.raises(SystemExit) as exc:
            main(["riesel", "--strict-primality"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strict-primality" in capsys.readouterr().err


class TestScalarCommands:
    def test_pi(self, capsys):
        code, out, _ = run(["pi", "--x", "100", "--q", "4", "--a", "3"],
                           capsys)
        assert code == EXIT_OK
        assert out.strip() == "13"

    def test_psi(self, capsys):
        code, out, _ = run(["psi", "--x", "10", "--q", "2", "--a", "1"],
                           capsys)
        assert code == EXIT_OK
        assert float(out) == pytest.approx(math.log(315), rel=1e-9)

    def test_planted_spf_fault_fails_the_check(self, monkeypatch, capsys):
        spf = census._spf(1000, 4, 5)  # members 5, 9, 13, ...
        spf[(13 - 5) // 4] = 7
        monkeypatch.setattr(census, "_spf", lambda limit, q, start: spf)
        direct, enumerated = census.psi_paths(1000, 4, 1)
        code, out, err = run(["psi", "--x", "1000", "--q", "4", "--a", "1"], capsys)
        assert (code, out) == (EXIT_NOT_HADAMARD, "")
        assert err == f"check failed: psi paths disagree: {direct} vs {enumerated}\n"

    @pytest.mark.parametrize("a,printed", [
        ("1", "0\n"), (str(10**30 + 9), "1.09861229\n")])
    def test_psi_modulus_past_x(self, a, printed, capsys):
        # the class a mod 10^30 holds at most one integer <= 10: a mod 10^30
        code, out, err = run(["psi", "--x", "10", "--q", str(10**30), "--a", a],
                             capsys)
        assert (code, out, err) == (EXIT_OK, printed, "")

    @pytest.mark.parametrize("a,printed", [(1, "4999334.18\n"), (3, "4999189.28\n")])
    def test_psi_workload_scale(self, a, printed, capsys):
        code, out, _ = run(["psi", "--x", "10000000", "--q", "4", "--a", str(a)],
                           capsys)
        assert code == EXIT_OK
        assert out == printed

    def test_bad_fraction_rejected(self, capsys):
        # 1e-5000 has a denominator of 5001 digits, which str() refuses past
        # 4300; 1e-1000000000 would take minutes to parse
        for argv in (["census", "--x", "4", "--epsilon", "abc"],
                     ["census", "--x", "100", "--epsilon", "1e-5000"],
                     ["search", "--k", "3", "--epsilon", "1e-5000"],
                     ["build", "--k", "3", "--epsilon", "1e-5000"],
                     ["census", "--x", "100", "--epsilon", "1e-1000000000"]):
            start = time.perf_counter()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert time.perf_counter() - start < 1
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(f"not a rational number: {argv[-1]!r}\n"), err


class TestErrorExits:
    @pytest.mark.parametrize("argv,message", [
        (["search", "--k", "4", "--epsilon", "1"],
         "domain error: k must be odd and positive"),
        (["pi", "--x", "100", "--q", "0", "--a", "1"],
         "domain error: q must be positive"),
        (["census", "--x", "100", "--epsilon", "-1"],
         "domain error: epsilon must be positive"),
        (["riesel", "--cover", "4", "5"],
         "domain error: cover element 4 is not an odd prime"),
        (["riesel", "--k0", "0"], "domain error: k0 must be positive"),
        (["psi", "--x", "100000001", "--q", "4", "--a", "1"],
         "domain error: x = 100000001 exceeds the psi limit 100000000"),
        (["census", "--x", "1000000000", "--epsilon", "1"],
         "domain error: census for x = 1000000000 sieves 14500000000 row "
         "flags, over the budget of 134217728"),
        (["search", "--k", "5", "--epsilon", "1e300"],
         "domain error: epsilon too large: k^numerator over 262144 bits"),
        (["census", "--x", "5", "--epsilon", "1000000000001/1000000000000"],
         "domain error: epsilon too large: k^numerator over 262144 bits"),
        # the certificate would cover no family, or spot-check nothing
        (["riesel", "--k0", "-509203"], "domain error: k0 must be positive"),
        (["riesel", "--r-max", "-5"], "domain error: spot-check grid is empty"),
        (["riesel", "--m-max", "-1"], "domain error: spot-check grid is empty"),
        # 1198001 * 14 bits: about 200 powers of 16.8 M bits each
        (["census", "--x", "10000", "--epsilon", "1198001/1000000"],
         "domain error: epsilon too large: k^numerator over 262144 bits"),
        # L = 0, the largest empty census window
        (["census", "--x", "4", "--epsilon", "1/2"],
         "domain error: empty window: L = 0 for x = 4, epsilon = 1/2"),
        # k = 1 is the order-4 Sylvester matrix, but only for an epsilon that
        # search accepts
        (["build", "--k", "1", "--epsilon", "-1"], "domain error: epsilon must be positive"),
        (["build", "--k", "1", "--epsilon", "0"], "domain error: epsilon must be positive"),
        (["build", "--k", "1", "--epsilon", "1e300"],
         "domain error: epsilon too large: k^numerator over 262144 bits"),
        (["search", "--k", "1", "--epsilon", "-1"], "domain error: epsilon must be positive"),
        (["search", "--k", "1", "--epsilon", "0"], "domain error: epsilon must be positive"),
        (["search", "--k", "1", "--epsilon", "1e300"],
         "domain error: epsilon too large: k^numerator over 262144 bits"),
        # 2 060 and 158 496 rows, all but the first 32 testing their
        # survivors past 2^34: over the row cap, refused before any is sieved
        (["census", "--x", "3", "--epsilon", "1300"],
         "domain error: census for x = 3 needs 2060 rows, over the cap of 1024"),
        (["census", "--x", "3", "--epsilon", "100000"],
         "domain error: census for x = 3 needs 158496 rows, over the cap of 1024"),
    ])
    def test_bad_argument_exits_with_one_line(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_IO
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("x,extra", [
        (10**20, []),  # the base-prime table alone would take 10^10 bytes
    ])
    def test_pi_sieve_budget(self, x, extra, monkeypatch, capsys):
        def no_table(limit):
            raise AssertionError("a table was built past the budget")

        # at the x cap the sieve holds the base flags, a few int64 arrays
        # with one entry per base prime (fewer than isqrt(x)/8 of them) and
        # one segment of SEGMENT_SIZE flags, tenfold of which stays under budget
        root = math.isqrt(census.PI_MAX_X)
        assert 10 * (root + 1 + 2 * 8 * root + census.SEGMENT_SIZE) < census.TABLE_BYTES_MAX
        monkeypatch.setattr(census, "_prime_flags", no_table)
        code, out, err = run(["pi", "--x", str(x), "--q", "4", "--a", "3"] + extra,
                             capsys)
        assert (code, out) == (EXIT_IO, "")
        assert err == f"domain error: x = {x} exceeds the pi limit 100000000000\n"

    def test_pi_x_cap(self, monkeypatch, capsys):
        class TableBuilt(Exception):
            pass

        def no_table(limit):
            raise TableBuilt

        monkeypatch.setattr(census, "_prime_flags", no_table)
        x = 10**16  # a sieve of 10^16 integers
        code, out, err = run(["pi", "--x", str(x), "--q", "4", "--a", "3"], capsys)
        assert (code, out) == (EXIT_IO, "")
        assert err == f"domain error: x = {x} exceeds the pi limit 100000000000\n"
        # the limit itself passes the cap and goes on to build the base primes
        with pytest.raises(TableBuilt):
            census.pi_count(census.PI_MAX_X, 4, 3)

    @pytest.mark.parametrize("extra,owner,guarded,message", [
        # p - 1 is trial-divided up to sqrt(p); 2^32 + 15 is the least prime past 2^32
        (["--cover", "3", "5", "4294967311"], arith, "mult_order",
         "cover element 4294967311 is not below 4294967296"),
        # ord(2) mod 1000000007 is 500000003: 12000000072 residues to assign
        (["--cover", "3", "5", "7", "13", "17", "241", "1000000007"], solver, "pow",
         "covering period 12000000072 exceeds 1048576"),
        (["--r-max", "2092"], solver, "pow",  # 2093 * 501 pairs
         "more than 1048576 spot checks"),
        (["--r-max", "9", "--m-max", str(10**30)], solver, "pow",
         "more than 1048576 spot checks"),
    ])
    def test_riesel_caps(self, extra, owner, guarded, message, monkeypatch, capsys):
        def refused_first(*args):
            raise AssertionError(f"{guarded} ran past a riesel cap")

        # solver.pow, when set, shadows the builtin in the assignment and
        # spot-check loops
        monkeypatch.setattr(owner, guarded, refused_first, raising=False)
        code, out, err = run(["riesel"] + extra, capsys)
        assert (code, out) == (EXIT_IO, "")
        assert err == f"domain error: {message}\n"


def test_every_error_type_has_a_failure_line():
    # a refusal type FAILURES does not map would end in a traceback
    defined = {kind for kind in vars(errors).values()
               if isinstance(kind, type) and kind.__module__ == errors.__name__}
    assert defined <= {kind for kind, _, _ in FAILURES}


def test_import_does_not_load_scipy():
    # numpy is the one runtime dependency: not even I_quadrature needs scipy
    src = str(Path(hadcensus.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, hadcensus; hadcensus.census.I_quadrature(0, 10**4, 1e-6); "
             "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
