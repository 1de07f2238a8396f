import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tdlab import cli, forge, split, suite
from tdlab.linalg import Matrix
from tdlab.report import CheckResult, VerificationReport

W1_ARGS = ["--d", "1", "--q", "2", "--a", "3", "--b", "5"]
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def w1_file(tmp_path):
    path = tmp_path / "w1.json"
    forge.export_instance(forge.fixture(1), path)
    return str(path)


class TestGenerate:
    def test_writes_instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        code = cli.main(["generate", *W1_ARGS, "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["A"] == [["37/6", "0"], ["1", "13/6"]]

    def test_stdout_matches_file(self, tmp_path, capsys):
        assert cli.main(["generate", *W1_ARGS]) == 0
        printed = capsys.readouterr().out
        assert printed == forge.format_instance(forge.fixture(1))

    def test_explicit_phi(self, tmp_path, capsys):
        assert cli.main(["generate", *W1_ARGS, "--phi", "7"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["Astar"][0][1] == "7"

    def test_degenerate_params_exit_2(self, capsys):
        code = cli.main(["generate", "--d", "1", "--q", "1", "--a", "3", "--b", "5"])
        assert code == 2
        assert "invalid parameters" in capsys.readouterr().err

    def test_invalid_phi_exit_2(self, capsys):
        code = cli.main(["generate", *W1_ARGS, "--phi", "x"])
        assert code == 2

    def test_non_instance_phi_exit_2(self, capsys):
        # the all-ones superdiagonal is off the d = 2 Leonard line
        code = cli.main(["generate", "--d", "2", "--q", "2", "--a", "3", "--b", "5",
                         "--phi", "1,1"])
        assert code == 2
        assert "validation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("d", range(1, 7))
    def test_default_phi_is_an_instance(self, d, tmp_path):
        path = tmp_path / "inst.json"
        argv = ["--d", str(d), "--q", "2", "--a", "3", "--b", "5"]
        assert cli.main(["generate", *argv, "--out", str(path)]) == 0
        if d <= 2:
            assert path.read_text() == forge.format_instance(forge.fixture(d))
        for command in ("verify", "decompose"):
            assert cli.main([command, "--instance", str(path)]) == 0

    def test_unwritable_out_exit_3(self, capsys):
        code = cli.main(["generate", *W1_ARGS, "--out", "/nonexistent-dir/x.json"])
        assert code == 3

    @pytest.mark.parametrize("d", [forge.MAX_DIAMETER + 1, 100000])
    def test_d_beyond_the_limit_refused_at_once(self, d, capsys):
        start = time.perf_counter()
        code = cli.main(["generate", "--d", str(d), "--q", "2", "--a", "3", "--b", "5"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "exceeds the limit" in captured.err
        assert elapsed < 1.0


class TestVerify:
    def test_full_suite_passes(self, w1_file, tmp_path):
        out = tmp_path / "report.jsonl"
        code = cli.main(["verify", "--instance", w1_file, "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) >= 30
        assert all(r["pass"] for r in records)
        ids = [r["check_id"] for r in records]
        assert ids == sorted(ids)
        assert all("residual" not in r for r in records)

    def test_suite_prefix_subset(self, w1_file, capsys):
        code = cli.main(
            ["verify", "--instance", w1_file, "--suite", "thm.KBquad"]
        )
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["check_id"] for r in records] == ["thm.KBquad"]

    def test_unselected_checks_are_not_evaluated(self, tmp_path, monkeypatch, capsys):
        """The module structures and the MK_i rows are neither built nor
        checked when the selection takes none of their ids."""
        def unselected(*args, **kwargs):
            raise RuntimeError("evaluated a check that was not selected")

        for name in ("verify_minpoly_on_MKi", "verify_uq_relations",
                     "first_structure", "second_structure"):
            monkeypatch.setattr(suite, name, unselected)
        path = tmp_path / "w2.json"
        forge.export_instance(forge.fixture(2), path)
        code = cli.main(["verify", "--instance", str(path), "--suite", "thm.KBquad"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert records == [{"anchor": "a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0",
                            "check_id": "thm.KBquad", "pass": True}]

    def test_empty_suite_selection(self, w1_file, capsys):
        code = cli.main(["verify", "--instance", w1_file, "--suite", ","])
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_corrupt_instance_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code = cli.main(["verify", "--instance", str(path)])
        assert code == 2
        assert "invalid instance" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        code = cli.main(["verify", "--instance", str(tmp_path / "nope.json")])
        assert code == 2

    def test_check_failure_exit_1(self, w1_file, monkeypatch, capsys):
        def fake_suite(instance, select=None):
            rep = VerificationReport()
            rep.add(CheckResult("fake.check", "forced failure", False, Matrix([["1"]])))
            return rep

        monkeypatch.setattr(suite, "full_suite", fake_suite)
        code = cli.main(["verify", "--instance", w1_file])
        assert code == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record == {
            "anchor": "forced failure",
            "check_id": "fake.check",
            "pass": False,
            "residual": [["1"]],
        }

    def test_unwritable_out_exit_3(self, w1_file):
        code = cli.main(
            ["verify", "--instance", w1_file, "--out", "/nonexistent-dir/x.jsonl"]
        )
        assert code == 3


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_fresh_process_matches_in_process(command, w1_file, capsys):
    """The layers a command imports after validation load in a new process."""
    assert cli.main([command, "--instance", w1_file]) == 0
    expected = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "tdlab.cli", command, "--instance", w1_file],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


class TestDecompose:
    def test_w1(self, w1_file, capsys):
        code = cli.main(["decompose", "--instance", w1_file])
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records == [
            {"casimir": "17/4", "component": "L(1,1)", "i": 0, "multiplicity": 1}
        ]

    def test_d3(self, tmp_path, capsys):
        path = tmp_path / "w3.json"
        forge.export_instance(forge.fixture(3), path)
        code = cli.main(["decompose", "--instance", str(path)])
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records[0]["component"] == "L(3,1)"
        assert records[0]["casimir"] == "257/16"


class TestExport:
    def test_operators(self, w1_file, capsys):
        code = cli.main(["export", "--instance", w1_file, "--what", "operators"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["psi"] == [["0", "9/4"], ["0", "0"]]
        assert data["K"] == [["2", "0"], ["0", "1/2"]]
        assert data["Lambda"] == [["17/4", "0"], ["0", "17/4"]]

    def test_apparatus(self, w1_file, capsys):
        code = cli.main(["export", "--instance", w1_file, "--what", "apparatus"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["U"] == [[["1"], ["0"]], [["0"], ["1"]]]
        assert data["Udd"][1] == [["1"], ["1/4"]]
        assert "0,0" in data["cells"] and "0,1" in data["cells"]

    def test_unwritable_out_exit_3(self, w1_file):
        code = cli.main(
            ["export", "--instance", w1_file, "--out", "/nonexistent-dir/x.json"]
        )
        assert code == 3


class TestFailureMapping:
    @pytest.mark.parametrize("command", ["verify", "decompose", "export"])
    def test_operator_failure_exit_2(self, command, w1_file, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise split.SplitStructureError("forced")

        # The commands import these from their modules once the instance
        # is validated, so the modules are where they are replaced.
        monkeypatch.setattr(split, "build_apparatus", broken)
        monkeypatch.setattr(suite, "full_suite", broken)
        code = cli.main([command, "--instance", w1_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "internal consistency failure: forced\n"

    @pytest.mark.parametrize("command", ["verify", "decompose", "export"])
    def test_unwritable_out_message(self, command, w1_file, capsys):
        code = cli.main([command, "--instance", w1_file, "--out", "/nonexistent-dir/x"])
        assert code == 3
        assert capsys.readouterr().err.startswith("cannot write output: ")
