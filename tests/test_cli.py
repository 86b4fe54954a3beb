import json
from pathlib import Path

import pytest

from lefschetz import certify, cli
from lefschetz.cli import main
from lefschetz.report import Report, emit_report

SPECS = Path(__file__).resolve().parent.parent / "specs"


@pytest.fixture
def stanley_spec(tmp_path):
    path = tmp_path / "stanley22.spec"
    path.write_text("field rational\nextend x : x^2\nextend y : y^2\n")
    return str(path)


@pytest.fixture
def char2_spec(tmp_path):
    path = tmp_path / "char2.spec"
    path.write_text("field prime 2\nextend x : x^2\nextend y : y^2\n")
    return str(path)


class TestHilbertCommand:
    def test_text_output(self, stanley_spec, capsys):
        assert main(["hilbert", stanley_spec]) == 0
        out = capsys.readouterr().out
        assert "hilbert: 1 2 1" in out
        assert "symmetric=true" in out and "unimodal=true" in out and "gorenstein=true" in out

    def test_json_output(self, stanley_spec, capsys):
        assert main(["--format", "json", "hilbert", stanley_spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hilbert"]["values"] == [1, 2, 1]
        assert payload["hilbert"]["sigma"] == 2


class TestCheckCommand:
    def test_strong_certifies(self, stanley_spec, capsys):
        assert main(["check", stanley_spec, "--mode", "strong", "--trials", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "certified_success" in out

    def test_inconclusive_exits_one(self, char2_spec, capsys):
        assert main(["check", char2_spec, "--mode", "strong", "--trials", "4", "--seed", "0"]) == 1
        assert "search_inconclusive" in capsys.readouterr().out

    def test_weak_on_char2(self, char2_spec, capsys):
        # x + y fails in char 2 but x alone is Lefschetz, so sampling finds it
        code = main(["check", char2_spec, "--mode", "weak", "--trials", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0 and "certified_success" in out

    def test_maxrank(self, stanley_spec, capsys):
        assert main(["check", stanley_spec, "--mode", "maxrank", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "maxrank_degree_1" in out and "maxrank_degree_2" in out

    def test_strong_ranks_only_the_maps_no_longer_map_decides(self, capsys, monkeypatch):
        # The 512-dim quotient's Hilbert function 1 5 14 ... 70 46 16 is not
        # symmetric; of the 55 maps of the element that certifies it, longer
        # powers and the row before decide 45.
        ranked, rank_of = [], certify.rank_of

        def counting(image, q, exact, bound):
            ranked.append(bound)
            return rank_of(image, q, exact, bound)

        monkeypatch.setattr(certify, "rank_of", counting)
        assert main(["check", str(SPECS / "quotient512.spec"), "--mode", "strong", "--seed", "0"]) == 0
        assert "certified_success" in capsys.readouterr().out
        assert len(ranked) == 10

    def test_deterministic_modulo_timing(self, stanley_spec, capsys):
        def run():
            main(["check", stanley_spec, "--mode", "strong", "--seed", "9"])
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if not line.startswith("timing")]

        assert run() == run()


class TestVerifyCommands:
    def test_coefficients(self, capsys):
        assert main(["verify", "coefficients", "--kmax", "3", "--rmax", "10"]) == 0
        assert "coefficients: ok" in capsys.readouterr().out.replace("verdict ", "")

    def test_smatrix(self, capsys):
        assert main(["verify", "smatrix", "--rmax", "8"]) == 0

    def test_duality(self, capsys):
        assert main(["verify", "duality", "--instances", "4", "--seed", "2"]) == 0

    def test_blockmatrix(self, capsys):
        assert main(["verify", "blockmatrix", "--seed", "0"]) == 0

    def test_stanley(self, capsys):
        assert main(["verify", "stanley", "--dimcap", "16", "--trials", "8", "--seed", "0"]) == 0


class TestExitCodes:
    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("field rational\nextend x : x^2 + y\n")
        assert main(["hilbert", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and str(bad) in err, err
        # A build error (found after parsing) names the file too.
        unbuildable = tmp_path / "unbuildable.spec"
        unbuildable.write_text("field rational\nquotient random degree=1 seed=0\n")
        for argv in (["hilbert", str(unbuildable)], ["check", str(unbuildable), "--mode", "weak"]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "line 2" in err and str(unbuildable) in err, err

    def test_multiplicity_above_the_cap_is_two(self, tmp_path, capsys):
        # Refused at parse time, as is an exponent past int()'s 4300 digits.
        for name, relation in (("huge", "x^4097"), ("digits", "x^" + "1" * 5000)):
            spec = tmp_path / f"{name}.spec"
            spec.write_text(f"field rational\nextend x : {relation}\n")
            assert main(["hilbert", str(spec)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {spec}: line 2: ") and err.count("\n") == 1, err

    def test_missing_file_is_two(self, stanley_spec, tmp_path, capsys):
        latin1 = tmp_path / "latin1.spec"
        latin1.write_bytes("# caf\xe9\nfield rational\nextend x : x^2\n".encode("latin-1"))
        for argv in (
            ["hilbert", "/nonexistent/path.spec"],
            ["hilbert", str(tmp_path)],
            ["hilbert", str(latin1)],
            ["--output", str(tmp_path / "no" / "such" / "x.json"), "hilbert", stanley_spec],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            if argv[-1] == str(latin1):
                assert str(latin1) in err, err

    def test_missing_output_directory_is_two_before_the_command_runs(self, tmp_path, capsys, monkeypatch):
        def command_must_not_run(args):
            raise AssertionError("the command ran before --output was checked")

        monkeypatch.setattr(cli, "_cmd_reproduce", command_must_not_run)
        missing = tmp_path / "no" / "such" / "x.json"
        assert main(["--output", str(missing), "reproduce", "gegen", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not missing.parent.exists()

    def test_usage_error_is_two(self, stanley_spec):
        for argv in (
            ["check", stanley_spec, "--mode", "bogus"],
            ["check", stanley_spec, "--mode", "strong", "--trials", "0"],
            ["verify", "coefficients", "--rmax", "-1"],
            ["verify", "duality", "--instances", "-2"],
            ["reproduce", "gegen", "--trials", "0"],
            ["verify", "stanley", "--dimcap", "many"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestReproduceCommand:
    def test_pipeline_reports_and_exit(self, capsys):
        # The generic quotient stage reproduces its reference values; the
        # power-quotient stage is a documented mismatch, so the exit code is 1.
        code = main(["reproduce", "gegen", "--seed", "1", "--trials", "3"])
        out = capsys.readouterr().out
        assert "generic_quotient_hilbert: ok" in out
        assert "1 5 14 30 51 71 84 84 70 46 16" in out
        assert "maximal_rank_property: ok" in out
        assert "power_quotient_hilbert: failed" in out
        assert code == 1

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main(["--format", "json", "--output", str(out_path),
              "verify", "coefficients", "--kmax", "2", "--rmax", "5"])
        payload = json.loads(out_path.read_text())
        assert payload["verdicts"][0]["status"] == "ok"


class TestEmitReport:
    def test_byte_identical_without_timing(self):
        report = Report(command="demo", field="rational", hilbert={
            "values": [1, 2, 1], "sigma": 2, "multiplicity": 4,
        })
        report.timing_seconds = 0.123
        first = emit_report(report, fmt="json", include_timing=False)
        report.timing_seconds = 9.876
        second = emit_report(report, fmt="json", include_timing=False)
        assert first == second
        assert emit_report(report, fmt="text", include_timing=False) == emit_report(
            report, fmt="text", include_timing=False
        )

    def test_timing_included_by_default(self):
        report = Report(command="demo")
        report.timing_seconds = 0.5
        assert b"timing" in emit_report(report, fmt="json")

    def test_hilbert_serialized_as_integer_array(self):
        report = Report(command="demo", hilbert={"values": [1, 5, 14], "sigma": 2, "multiplicity": 20})
        payload = json.loads(emit_report(report, fmt="json").decode())
        assert payload["hilbert"]["values"] == [1, 5, 14]

    def test_verdicts_lowercase(self):
        report = Report(command="demo", verdicts=[{"name": "search", "status": "certified_success"}])
        payload = json.loads(emit_report(report, fmt="json").decode())
        assert payload["verdicts"][0]["status"] == "certified_success"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(Report(command="demo"), fmt="yaml")
