"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_speak_args(self):
        args = build_parser().parse_args(["speak", "SELECT a FROM t"])
        assert args.sql == "SELECT a FROM t"

    def test_serve_still_accepts_deprecated_async(self):
        # `--async` selected a daemon that no longer has an alternative;
        # it must keep parsing (scripts pass it) and change nothing.
        parser = build_parser()
        legacy = vars(parser.parse_args(["serve", "--async", "--port", "0"]))
        current = vars(parser.parse_args(["serve", "--port", "0"]))
        assert legacy.pop("use_async") is True
        assert current.pop("use_async") is False
        assert legacy == current


class TestCommands:
    def test_speak(self, capsys):
        assert main(["speak", "SELECT * FROM Employees"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "select star from employees"

    def test_schema(self, capsys):
        assert main(["schema", "--schema", "yelp"]) == 0
        out = capsys.readouterr().out
        assert "Business" in out
        assert "Stars: int" in out

    def test_correct(self, capsys):
        code = main(
            ["correct", "select salary from celeries", "--schema", "employees"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SELECT salary FROM Salaries" in out

    def test_correct_batch_with_workers(self, capsys):
        transcriptions = [
            "select salary from celeries",
            "select star from employees",
        ]
        assert main(["correct", *transcriptions, "--workers", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert out[0] == "SELECT salary FROM Salaries"
        assert out[1].startswith("SELECT * FROM Employees")
        # The parallel path must match the serial one line for line.
        assert main(["correct", *transcriptions, "--workers", "1"]) == 0
        serial_out = capsys.readouterr().out.strip().splitlines()
        assert serial_out == out

    def test_correct_execute(self, capsys):
        code = main(
            [
                "correct",
                "select count open parenthesis star close parenthesis "
                "from employees",
                "--schema",
                "employees",
                "--execute",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 row(s)" in out

    def test_correct_record_explain_replay(self, capsys, tmp_path):
        """End-to-end forensics loop: record, explain, replay."""
        bundle_path = tmp_path / "bundle.json"
        transcriptions = [
            "select salary from celeries",
            "select first name from employees",
        ]
        assert main(
            ["correct", *transcriptions, "--record-out", str(bundle_path)]
        ) == 0
        captured = capsys.readouterr()
        assert "SELECT salary FROM Salaries" in captured.out
        assert f"wrote 2 record(s) to {bundle_path}" in captured.err
        assert bundle_path.is_file()

        assert main(
            [
                "explain",
                str(bundle_path),
                "--index", "1",
                "--gold", "SELECT FirstName FROM Employees",
            ]
        ) == 0
        narrative = capsys.readouterr().out
        assert "mode   : transcription" in narrative
        assert "-- structure search --" in narrative
        assert "-- literal determination --" in narrative
        assert "verdict: correct" in narrative

        assert main(["replay", str(bundle_path)]) == 0
        replay_out = capsys.readouterr().out
        assert "record 0: OK" in replay_out
        assert "2/2 record(s) bit-identical" in replay_out

    def test_replay_single_index(self, capsys, tmp_path):
        bundle_path = tmp_path / "bundle.json"
        assert main(
            ["correct", "select salary from celeries",
             "--record-out", str(bundle_path)]
        ) == 0
        capsys.readouterr()
        assert main(["replay", str(bundle_path), "--index", "0"]) == 0
        out = capsys.readouterr().out
        assert "1/1 record(s) bit-identical" in out

    def test_replay_tampered_fingerprint_fails(self, capsys, tmp_path):
        import json

        bundle_path = tmp_path / "bundle.json"
        assert main(
            ["correct", "select salary from celeries",
             "--record-out", str(bundle_path)]
        ) == 0
        capsys.readouterr()
        data = json.loads(bundle_path.read_text())
        data["fingerprint"]["speakql_index_structures"] = 1
        bundle_path.write_text(json.dumps(data))
        assert main(["replay", str(bundle_path)]) == 1
        err = capsys.readouterr().err
        assert "replay failed" in err
        assert "speakql_index_structures" in err

    def test_replay_missing_bundle_fails(self, capsys, tmp_path):
        assert main(["replay", str(tmp_path / "nope.json")]) == 1
        assert "cannot load bundle" in capsys.readouterr().err

    def test_explain_index_out_of_range(self, capsys, tmp_path):
        bundle_path = tmp_path / "bundle.json"
        assert main(
            ["correct", "select salary from celeries",
             "--record-out", str(bundle_path)]
        ) == 0
        capsys.readouterr()
        assert main(["explain", str(bundle_path), "--index", "5"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_dictate(self, capsys):
        code = main(
            [
                "dictate",
                "SELECT AVG ( salary ) FROM Salaries",
                "--seed",
                "3",
                "--train",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "heard" in out and "output" in out
