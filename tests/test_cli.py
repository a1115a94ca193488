import csv
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from conftest import DELTA_60
from gompertz import cli, verify
from gompertz.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: name -> (arguments before --format, exit code); tests/golden/NAME.FORMAT
#: holds the stdout of `python -m gompertz.cli ARGS --format FORMAT`.
GOLDEN_CASES = {
    "delta": (("delta", "--digits", "15"), 0),
    "approx-1-r0": (("approx", "--corollary", "1", "--r", "0",
                     "--max-m", "6", "--digits", "12"), 0),
    # m = 2 has b = 0, so its ratio and error are "undefined"
    "approx-2-r2": (("approx", "--corollary", "2", "--r", "2",
                     "--max-m", "6", "--digits", "12"), 0),
    "theorem-u2_3-r1": (("theorem", "--u", "2/3", "--r", "1",
                         "--max-m", "6", "--digits", "12"), 0),
    "identities-fault": (("identities", "--max-m", "5", "--inject-fault"), 1),
    "conjecture-u2-both": (("conjecture", "--u", "2", "--max-m", "4",
                            "--digits", "12", "--convention", "both"), 0),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDelta:
    def test_fifty_digits_cross(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--digits", "50",
                               "--method", "cross")
        assert code == 0
        assert out.startswith("delta = " + DELTA_60[:40])

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--digits", "15",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "delta"
        assert payload["method"] == "cross_validated"
        assert payload["value"].startswith("0.59634736232319")

    def test_methods(self, capsys):
        for method in ("quadrature", "e1"):
            code, out, _ = run_cli(capsys, "delta", "--digits", "15",
                                   "--method", method)
            assert code == 0
            assert "0.5963473623" in out


class TestApprox:
    def test_json_matches_hand_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "--corollary", "1", "--r", "0",
                               "--max-m", "3", "--digits", "10",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "approx"
        assert payload["corollary"] == 1
        assert payload["r"] == 0
        assert payload["digits"] == 10
        assert payload["target_sign"] == "+"
        rows = [(row["m"], row["a"], row["b"]) for row in payload["rows"]]
        assert rows == [(1, "1", "2"), (2, "4", "7"), (3, "20", "34")]
        assert payload["rows"][1]["ratio"].startswith("0.5714")

    def test_csv_json_parity(self, capsys):
        code, json_out, _ = run_cli(capsys, "approx", "--corollary", "2",
                                    "--r", "1", "--max-m", "4",
                                    "--digits", "12", "--format", "json")
        assert code == 0
        code, csv_out, _ = run_cli(capsys, "approx", "--corollary", "2",
                                   "--r", "1", "--max-m", "4",
                                   "--digits", "12", "--format", "csv")
        assert code == 0
        payload = json.loads(json_out)
        reader = csv.DictReader(io.StringIO(csv_out))
        csv_rows = list(reader)
        assert len(csv_rows) == len(payload["rows"])
        for jrow, crow in zip(payload["rows"], csv_rows):
            assert str(jrow["m"]) == crow["m"]
            assert jrow["a"] == crow["a"]
            assert jrow["b"] == crow["b"]
            assert jrow["ratio"] == crow["ratio"]
            assert jrow["abs_error"] == crow["abs_error"]
            assert payload["target_sign"] == crow["target_sign"]

    def test_integers_serialized_as_strings(self, capsys):
        # the exact integers overflow doubles by m ~ 20; JSON must carry them
        # as decimal strings, never binary floats
        code, out, _ = run_cli(capsys, "approx", "--corollary", "1", "--r", "0",
                               "--max-m", "25", "--digits", "10",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        big = payload["rows"][-1]
        assert isinstance(big["a"], str) and isinstance(big["b"], str)
        assert int(big["b"]) > 2 ** 63


class TestTheorem:
    def test_partial_sums_emitted(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--u", "1", "--r", "1",
                               "--max-m", "6", "--digits", "20",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["u"] == "1"
        assert [row["m"] for row in payload["rows"]] == [1, 2, 3, 4, 5, 6]

    def test_rational_u_never_through_float(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--u", "1/3", "--r", "0",
                               "--max-m", "3", "--digits", "15",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["u"] == "1/3"


class TestIdentities:
    def test_small_grid_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--max-m", "6")
        assert code == 0
        assert "all passed" in out

    def test_inject_fault_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--max-m", "4",
                               "--inject-fault", "--format", "csv")
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        fails = [r for r in rows if r["verdict"] == "Fail"]
        assert len(fails) == 1
        assert "fault=injected" in fails[0]["params"]

    # sha256 of the stdout of `identities --max-m 25 --format FORMAT`, as
    # printed by the per-point grids the row kernels replaced
    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "cebdd041692afa8a1f6b646e8d4b447e"
                "19f932f4b5fd85e63252aeac5233ff60"),
        ("json", "306fa2ba7630040b7dc9e655c71a8e10"
                 "23c3f7430d8b2d8efee85c9484811e37")])
    def test_workload_grid_digest(self, capsys, fmt, digest):
        code, out, err = run_cli(capsys, "identities", "--max-m", "25",
                                 "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_max_m_above_cap_is_a_usage_error(self, capsys):
        assert verify.IDENTITY_M_MAX_CAP == 100
        code, out, err = run_cli(capsys, "identities", "--max-m", "101")
        assert (code, out) == (2, "")
        assert err == "error: --max-m capped at 100\n"

    def test_max_m_at_cap_is_accepted(self, capsys, monkeypatch):
        # the grids are stubbed: only the cap is under test here
        seen = []
        for name in ("gen_binomial_grid", "int_binomial_grid", "gauss_grid"):
            monkeypatch.setattr(cli, name,
                                lambda m_max: seen.append(m_max) or [])
        code, out, err = run_cli(capsys, "identities", "--max-m", "100")
        assert (code, out, err) == (0, "all passed\n", "")
        assert seen == [100, 100, 100]

    def test_csv_json_parity(self, capsys):
        code, json_out, _ = run_cli(capsys, "identities", "--max-m", "5",
                                    "--format", "json")
        code2, csv_out, _ = run_cli(capsys, "identities", "--max-m", "5",
                                    "--format", "csv")
        assert code == code2 == 0
        payload = json.loads(json_out)
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(csv_rows) == len(payload["rows"])
        for jrow, crow in zip(payload["rows"], csv_rows):
            assert jrow["identity"] == crow["identity"]
            assert jrow["params"] == crow["params"]
            assert jrow["verdict"] == crow["verdict"]
            assert jrow["residual"] == crow["residual"]


class TestConjecture:
    def test_scan_both_conventions(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--u", "1", "--max-m", "3",
                               "--digits", "15", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["calibrated_convention"] in ("B1_minus_half",
                                                    "B1_plus_half")
        assert len(payload["rows"]) == 6
        assert len(payload["notes"]) == 2

    def test_both_conventions_evaluate_each_point_once(self, capsys,
                                                       monkeypatch):
        # the calibration reads the scan's m = max-m points
        calls = []
        real = verify.digamma_series_rhs

        def spy(*args):
            calls.append(args[:3])
            return real(*args)

        monkeypatch.setattr(verify, "digamma_series_rhs", spy)
        code, _, _ = run_cli(capsys, "conjecture", "--u", "2", "--max-m", "3",
                             "--digits", "12", "--convention", "both")
        assert code == 0
        assert len(calls) == 2 * 3 == len(set(calls))

    def test_single_convention(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--u", "2", "--max-m", "2",
                               "--digits", "15", "--convention", "plus",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["calibrated_convention"] is None
        assert all(r["convention"] == "B1_plus_half" for r in payload["rows"])

    def test_csv_json_parity(self, capsys):
        args = ("conjecture", "--u", "1", "--max-m", "2", "--digits", "15")
        code, json_out, _ = run_cli(capsys, *args, "--format", "json")
        code2, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == code2 == 0
        payload = json.loads(json_out)
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(csv_rows) == len(payload["rows"])
        for jrow, crow in zip(payload["rows"], csv_rows):
            assert jrow["convention"] == crow["convention"]
            assert str(jrow["m"]) == crow["m"]
            assert jrow["rhs"] == crow["rhs"]
            assert jrow["digamma"] == crow["digamma"]
            assert jrow["residual"] == crow["residual"]


class TestUsageErrors:
    def test_bad_digits(self, capsys):
        code, _, _ = run_cli(capsys, "delta", "--digits", "5")
        assert code == 2

    def test_missing_required(self, capsys):
        code, _, _ = run_cli(capsys, "approx", "--r", "0", "--max-m", "3")
        assert code == 2

    def test_family2_r0_rejected(self, capsys):
        code, _, err = run_cli(capsys, "approx", "--corollary", "2", "--r", "0",
                               "--max-m", "3")
        assert code == 2
        assert "error" in err

    def test_conjecture_u_zero_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "conjecture", "--u", "0", "--max-m", "2")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_threads_option_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "approx", "--corollary", "1", "--r", "0",
                             "--max-m", "3", "--threads", "2")
        assert code == 2


class TestOutputFile:
    def test_atomic_write_matches_stdout(self, capsys, tmp_path):
        out_file = tmp_path / "rows.json"
        code, stdout, _ = run_cli(capsys, "approx", "--corollary", "1",
                                  "--r", "0", "--max-m", "3", "--digits", "12",
                                  "--format", "json")
        code2, empty, _ = run_cli(capsys, "approx", "--corollary", "1",
                                  "--r", "0", "--max-m", "3", "--digits", "12",
                                  "--format", "json", "--out", str(out_file))
        assert code == code2 == 0
        assert empty == ""
        assert out_file.read_text() == stdout
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".gompertz")]
        assert leftovers == []

    def test_unwritable_path_is_a_usage_error(self, capsys, tmp_path):
        (tmp_path / "taken").mkdir()
        for target in (tmp_path / "missing" / "rows.txt", tmp_path / "taken"):
            code, out, err = run_cli(capsys, "delta", "--digits", "10",
                                     "--out", str(target))
            assert code == 2
            assert out == ""
            assert err.startswith("error:")
            assert str(target) in err
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".gompertz")]
        assert leftovers == []
        assert os.listdir(tmp_path / "taken") == []

    def test_working_directory_target_is_refused(self, capsys, tmp_path,
                                                 monkeypatch):
        # the temporary file of "--out ." must not be made in the parent
        inner = tmp_path / "inner"
        inner.mkdir()
        monkeypatch.chdir(inner)
        made_in = []
        mkstemp = cli.tempfile.mkstemp

        def spy(*args, **kwargs):
            made_in.append(os.path.realpath(kwargs.get("dir") or "."))
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(cli.tempfile, "mkstemp", spy)
        code, out, err = run_cli(capsys, "delta", "--digits", "10",
                                 "--out", ".")
        assert code == 2
        assert out == ""
        assert err == "error: cannot write .: Is a directory\n"
        assert [d for d in made_in if d != os.path.realpath(inner)] == []
        assert os.listdir(tmp_path) == ["inner"]


class TestGoldenOutput:
    """Every command's stdout pinned byte for byte in each format."""

    @pytest.mark.parametrize("fmt", ("text", "csv", "json"))
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_stdout_matches_golden(self, capsys, name, fmt):
        argv, expected_code = GOLDEN_CASES[name]
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (expected_code, "")
        assert out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode()


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        runs = [run_cli(capsys, "conjecture", "--u", "1/2", "--max-m", "2",
                        "--digits", "15", "--format", "json")[1]
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_repeat_identities_and_approx_byte_identical(self, capsys):
        outputs = [run_cli(capsys, "identities", "--max-m", "5",
                           "--format", "csv")[1]
                   for _ in range(2)]
        assert outputs[0] == outputs[1]
        outputs = [run_cli(capsys, "approx", "--corollary", "1", "--r", "1",
                           "--max-m", "8", "--digits", "12", "--format", "csv")[1]
                   for _ in range(2)]
        assert outputs[0] == outputs[1]
