import hashlib
import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from fneg.cli import cli, main
from fneg.states import canonical_vector


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(cli, args, catch_exceptions=False, **kwargs)


class TestReproduce:
    def test_paper_values_pass(self, runner):
        result = invoke(runner, ["reproduce", "paper-values"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "name,computed,expected,abs_delta"
        assert len(lines) >= 15
        for line in lines[1:]:
            assert float(line.rsplit(",", 1)[1]) <= 1e-9

    def test_paper_values_json(self, runner):
        result = invoke(runner, ["--output", "json", "reproduce", "paper-values"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert all(r["abs_delta"] <= 1e-9 for r in rows)

    def test_table1(self, runner):
        result = invoke(runner, ["reproduce", "table1"])
        assert result.exit_code == 0
        assert result.output.count("true") == 6

    @pytest.mark.parametrize("output,digest", [
        ("csv", "94e1d1e75e2f332c14509a1a73f961a5ecfbef21b9d2488f2f3398e03af2632a"),
        ("json", "1fa521db8a60a186c676b8dd3d2e6af4926bef7e8581bffb10ae1b21f0a88028"),
    ])
    def test_table1_output_is_pinned(self, runner, output, digest):
        # every exemplar's row, label and formatting, byte for byte
        result = invoke(runner, ["--output", output, "reproduce", "table1"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    def test_deterministic_output(self, runner):
        first = invoke(runner, ["reproduce", "paper-values"]).output
        second = invoke(runner, ["reproduce", "paper-values"]).output
        assert first == second


class TestSweep:
    def test_werner_endpoint(self, runner):
        result = invoke(
            runner,
            ["sweep", "werner", "--min", "1", "--max", "1", "--steps", "1",
             "--measures", "log_negativity"],
        )
        assert result.exit_code == 0
        header, row = result.output.strip().splitlines()
        assert header == "p,log_negativity"
        assert abs(float(row.split(",")[1]) - np.log(2)) <= 1e-9

    def test_psi_p_normalized_at_one(self, runner):
        result = invoke(
            runner,
            ["sweep", "psi_p", "--min", "1", "--max", "1", "--steps", "1",
             "--normalized"],
        )
        header, row = result.output.strip().splitlines()
        assert header == "p,j_abc,three_tangle,n_abc,pi_abc,label"
        cells = row.split(",")
        assert all(abs(float(x) - 1.0) <= 1e-9 for x in cells[1:5])
        assert cells[5] == "GHZ"

    def test_unknown_measure_rejected(self, runner):
        result = runner.invoke(cli, ["sweep", "werner", "--measures", "entropy"])
        assert result.exit_code != 0

    def test_normalized_requires_psi_p(self, runner):
        result = runner.invoke(cli, ["sweep", "werner", "--normalized"])
        assert result.exit_code != 0

    def test_rows_ordered_by_parameter(self, runner):
        result = invoke(runner, ["sweep", "psi_p", "--steps", "9"])
        ps = [float(line.split(",")[0]) for line in result.output.strip().splitlines()[1:]]
        assert ps == sorted(ps)

    def test_csv_round_trip_precision(self, runner):
        result = invoke(
            runner,
            ["sweep", "werner", "--min", "0.3", "--max", "0.3", "--steps", "1",
             "--measures", "negativity"],
        )
        cell = result.output.strip().splitlines()[1].split(",")[1]
        from fneg.measures import negativity
        from fneg.states import canonical_state
        from fneg.fock import SubsystemSpec

        exact = negativity(canonical_state("werner", p=0.3), SubsystemSpec((1,)))
        assert float(cell) == exact  # 17 significant digits survive the round trip


class TestClassifyCommand:
    def _write(self, tmp_path, payload):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_pure_ghz(self, runner, tmp_path):
        vec, _ = canonical_vector("ghz")
        path = self._write(
            tmp_path,
            {"num_modes": 3, "labels": ["A", "B", "C"],
             "pure": [[z.real, z.imag] for z in vec]},
        )
        result = invoke(runner, ["classify", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["label"] == "GHZ"
        # GHZ superposes empty and occupied mode A: subsystem parity is mixed
        assert payload["parity_type"]["kind"] == "type_II"

    def test_maximally_mixed_three_modes(self, runner, tmp_path):
        eye = np.eye(8) / 8
        path = self._write(
            tmp_path,
            {"num_modes": 3, "labels": ["A", "B", "C"],
             "matrix": [[z.real, z.imag] for z in eye.ravel()]},
        )
        result = invoke(runner, ["classify", path])
        assert result.exit_code == 0
        assert json.loads(result.output)["label"] == "fully_separable"

    def test_two_mode_dispatch(self, runner, tmp_path):
        from fneg.states import canonical_state

        dimer = canonical_state("majorana_dimer")
        path = self._write(
            tmp_path,
            {"num_modes": 2, "labels": ["A", "B"],
             "matrix": [[z.real, z.imag] for z in dimer.matrix.ravel()]},
        )
        result = invoke(runner, ["classify", path])
        payload = json.loads(result.output)
        assert payload["label"] == "inseparable"
        assert payload["parity_type"]["kind"] == "type_II"

    def test_two_mode_pure_file(self, runner, tmp_path):
        amp = 1 / np.sqrt(2)
        path = self._write(
            tmp_path,
            {"num_modes": 2, "labels": ["A", "B"], "pure": [amp, 0.0, 0.0, amp]},
        )
        result = invoke(runner, ["classify", path])
        payload = json.loads(result.output)
        assert payload["label"] == "inseparable"
        assert abs(payload["witnesses"]["negativity"] - 0.5) <= 1e-9

    def test_malformed_json_exits_3(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"num_modes": 2,,}')
        code = main(["classify", str(path)])
        assert code == 3

    @pytest.mark.parametrize(
        "content, cause",
        [(b'{"num_modes": ' + b"1" * 5001 + b"}", "digits"),
         (b'{"num_modes": 2, "labels": ["\xff", "B"]}', "utf-8")],
        ids=["long_integer", "not_utf8"],
    )
    def test_undecodable_file_exits_3(self, tmp_path, capsys, content, cause):
        path = tmp_path / "state.json"
        path.write_bytes(content)
        assert main(["classify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and cause in err

    def test_invalid_state_exits_4(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"num_modes": 2, "labels": ["A", "B"],
                   "matrix": [[1.0, 0.0]] * 16}  # trace 4, not a state
        path.write_text(json.dumps(payload))
        assert main(["classify", str(path)]) == 4

    def test_unnormalized_pure_exits_4(self, tmp_path):
        path = tmp_path / "bad2.json"
        payload = {"num_modes": 2, "labels": ["A", "B"], "pure": [1.0, 0, 0, 1.0]}
        path.write_text(json.dumps(payload))
        assert main(["classify", str(path)]) == 4

    @pytest.mark.parametrize("modes", ["x", float("inf"), 0, 13, 100000, 2.5, 2.0, True, "2"])
    def test_bad_num_modes_exits_4(self, tmp_path, capsys, modes):
        # only a JSON integer is read: 2.0 and "2" would fit the 16 entries, true would be 1
        path = tmp_path / "modes.json"
        path.write_text(json.dumps({"num_modes": modes, "matrix": [[0.25, 0.0]] * 16}))
        assert main(["classify", str(path)]) == 4
        assert f"num_modes must be an integer in 1..12: {modes!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", [5, ["A", ["B"]], ["A"]])
    def test_bad_labels_exits_4(self, tmp_path, capsys, labels):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"num_modes": 2, "labels": labels,
                                    "matrix": [[0.25, 0.0]] * 16}))
        assert main(["classify", str(path)]) == 4
        assert "labels" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", [[float("nan"), 0.0], [0.0, float("inf")], ["a", 0.0], [10**400, 0.0]]
    )
    def test_bad_matrix_entry_exits_4(self, tmp_path, capsys, entry):
        # a true message: the entry is at fault, not Hermiticity or the trace
        entries = [[z, 0.0] for z in (np.eye(4) / 4).ravel()]
        entries[5] = entry
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({"num_modes": 2, "matrix": entries}))
        assert main(["classify", str(path)]) == 4
        err = capsys.readouterr().err
        assert "matrix entries must be" in err and "Hermitian" not in err

    def test_parity_violating_matrix_exits_4(self, tmp_path):
        # couples |00> to |10>: a unit-trace PSD matrix that breaks parity
        mat = np.zeros((4, 4))
        mat[0, 0] = mat[1, 1] = 0.5
        mat[0, 1] = mat[1, 0] = 0.3
        path = tmp_path / "odd.json"
        payload = {"num_modes": 2, "labels": ["A", "B"],
                   "matrix": [[z, 0.0] for z in mat.ravel()]}
        path.write_text(json.dumps(payload))
        assert main(["classify", str(path)]) == 4


class TestVerifyCommand:
    def test_identities_passes(self, runner):
        result = invoke(runner, ["verify", "identities", "--trials", "6",
                                 "--modes", "2,3"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["passed"] is True

    def test_locc_passes(self, runner):
        result = invoke(runner, ["verify", "locc", "--trials", "5"])
        assert result.exit_code == 0

    def test_conjecture_passes(self, runner):
        result = invoke(runner, ["verify", "conjecture", "--trials", "60",
                                 "--modes", "2"])
        assert result.exit_code == 0

    def test_perturbation_reports_failure(self, runner):
        # quartic residual vs the cubic default bracket [6, 10]: exit 1
        result = invoke(runner, ["verify", "perturbation", "--trials", "3"])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["passed"] is False

    def test_seed_determinism_and_env_override(self, runner):
        a = invoke(runner, ["verify", "conjecture", "--trials", "25"]).output
        b = invoke(runner, ["verify", "conjecture", "--trials", "25"]).output
        assert a == b
        c = invoke(runner, ["verify", "conjecture", "--trials", "25"],
                   env={"FNEG_SEED": "777"}).output
        d = invoke(runner, ["verify", "conjecture", "--trials", "25",
                            "--seed", "777"]).output
        assert c == d
        assert json.loads(c)["diagnostics"][0]["minimum_at"] != \
            json.loads(a)["diagnostics"][0]["minimum_at"]


class TestMainExitCodes:
    def test_usage_error_is_internal(self):
        assert main(["sweep", "unknown-family"]) == 2

    def test_usage_error_raised_in_a_command_exits_2(self, capsys):
        assert main(["sweep", "psi_p", "--steps", "0"]) == 2
        assert "usage error: need steps >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("args, option", [
        (["verify", "identities", "--modes", "x"], "--modes"),
        (["verify", "identities", "--modes", "1"], "--modes"),
        (["verify", "conjecture", "--trials", "0"], "--trials"),
        (["verify", "locc", "--trials", "-3"], "--trials"),
        (["--seed", "-1", "verify", "locc"], "--seed"),
        (["verify", "locc", "--seed", "-5"], "--seed"),
        (["--seed", "-1", "sweep", "werner"], "--seed"),
        (["--tolerance", "nan", "reproduce", "paper-values"], "--tolerance"),
        (["--tolerance", "inf", "reproduce", "paper-values"], "--tolerance"),
        (["--tolerance", "-1", "reproduce", "table1"], "--tolerance"),
        (["sweep", "werner", "--measures", ","], "--measures"),
        (["sweep", "werner", "--measures", "negativity,negativity", "--steps", "2"], "--measures"),
        (["sweep", "psi_p", "--measures", "n_abc,j_abc,n_abc", "--steps", "2"], "--measures"),
        (["sweep", "werner", "--max", "inf", "--steps", "2"], "--max"),
        (["sweep", "werner", "--min", "nan", "--steps", "2"], "--min"),
        (["sweep", "werner", "--min", "-inf", "--steps", "2"], "--min"),
        (["sweep", "psi_p", "--max", "nan", "--steps", "2"], "--max"),
    ])
    def test_bad_verify_option_is_a_usage_error(self, capsys, args, option):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RuntimeWarning on a NaN grid included
            assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: Invalid value for '{option}'")
        assert "internal error" not in captured.err
        assert captured.out == ""

    def test_nan_tolerance_from_the_environment_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("FNEG_TOLERANCE", "nan")
        assert main(["reproduce", "paper-values"]) == 2
        assert capsys.readouterr().err.startswith("usage error: Invalid value for '--tolerance'")

    @pytest.mark.parametrize("subject", ["locc", "perturbation"])
    def test_modes_is_refused_where_ignored(self, capsys, subject):
        assert main(["verify", subject, "--modes", "5", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any trial runs
        assert captured.err == ("usage error: Invalid value for '--modes': only identities "
                                f"and conjecture take it, not {subject}\n")

    def test_ok_path(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        capsys.readouterr()
