import json
import warnings

import pytest

from roimeta.cli import main
from roimeta.reportio import report_from_json


SIM_CFG = """\
n_campaigns = 10
m_a = 6
m_b = 6
treatment_share = 0.1
treatment_lift = 0.10
part_noise_sd = 0.08
seed = 42
"""

EVAL_CFG = """\
confidence_level = 0.95
aa_seed = 11
aa_treatment_share = 0.1
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sim.cfg").write_text(SIM_CFG, encoding="utf-8")
    (tmp_path / "eval.cfg").write_text(EVAL_CFG, encoding="utf-8")
    return tmp_path


def simulate(workdir, seed=42, name="data.csv"):
    out = workdir / name
    code = main([
        "simulate", "--config", str(workdir / "sim.cfg"),
        "--seed", str(seed), "--out", str(out),
    ])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_csv(self, workdir, capsys):
        out = simulate(workdir)
        assert out.exists()
        assert "wrote 10 campaigns" in capsys.readouterr().out
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "campaign_id,arm,part_id,impressions,spend,value"

    def test_seed_changes_output(self, workdir):
        first = simulate(workdir, seed=1, name="a.csv").read_text()
        second = simulate(workdir, seed=2, name="b.csv").read_text()
        assert first != second

    def test_missing_config_file_is_exit_2(self, workdir, capsys):
        code = main(["simulate", "--config", str(workdir / "nope.cfg"),
                     "--out", str(workdir / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_accept_exit_zero_and_report(self, workdir, capsys):
        data = simulate(workdir)
        report_path = workdir / "report.json"
        code = main([
            "evaluate", str(data), "--config", str(workdir / "eval.cfg"),
            "--out", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: accept" in out
        report = report_from_json(report_path.read_text(encoding="utf-8"))
        assert report.decision.verdict.value == "accept"

    def test_reject_exit_one(self, workdir, capsys):
        (workdir / "sim_null.cfg").write_text(
            SIM_CFG.replace("treatment_lift = 0.10", "treatment_lift = 0.0"),
            encoding="utf-8",
        )
        out = workdir / "null.csv"
        main(["simulate", "--config", str(workdir / "sim_null.cfg"),
              "--seed", "3", "--out", str(out)])
        code = main(["evaluate", str(out), "--config", str(workdir / "eval.cfg")])
        assert code == 1
        assert "verdict: reject" in capsys.readouterr().out

    def test_json_format_parses(self, workdir, capsys):
        data = simulate(workdir)
        capsys.readouterr()
        code = main([
            "evaluate", str(data), "--config", str(workdir / "eval.cfg"),
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == "2"

    def test_flag_overrides_config_file(self, workdir, capsys):
        data = simulate(workdir)
        code = main([
            "evaluate", str(data), "--config", str(workdir / "eval.cfg"),
            "--min-impressions-per-part", "1000000",
        ])
        assert code == 2  # every part excluded, nothing to analyze
        assert "disqualified" in capsys.readouterr().err

    def test_bad_config_key_is_exit_2(self, workdir, capsys):
        (workdir / "broken.cfg").write_text("not_a_key = 5\n", encoding="utf-8")
        data = simulate(workdir)
        code = main(["evaluate", str(data), "--config", str(workdir / "broken.cfg")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_conflicting_threshold_sources_rejected(self, workdir, capsys):
        data = simulate(workdir)
        code = main([
            "evaluate", str(data), "--config", str(workdir / "eval.cfg"),
            "--micro-theta", "0.01", "--macro-theta", "0.02",
        ])
        assert code == 2

    def test_explicit_thetas_without_aa_keys(self, workdir, capsys):
        data = simulate(workdir)
        code = main([
            "evaluate", str(data),
            "--micro-theta", "0.01", "--macro-theta", "0.02",
        ])
        assert code in (0, 1)

    @pytest.mark.parametrize("input_format, text", [
        ("delimited-text", "campaign_id,arm,part_id,impressions,spend,value\nc1,A,0,10,1e303,1\n"),
        ("record-lines", '{"campaign_id": "c1", "arm": "A", "part_id": 0, '
                         '"impressions": 10, "spend": 1, "value": 1e303}\n'),
    ])
    def test_money_too_large_to_quantize_is_exit_2(self, workdir, capsys, input_format, text):
        data = workdir / "parts.txt"
        data.write_text(text, encoding="utf-8")
        assert main(["evaluate", str(data), "--input-format", input_format]) == 2
        assert "too large to quantize" in capsys.readouterr().err


class TestCalibrateAndSubgroup:
    """The subcommands are gone: every report carries the thresholds as
    ``baselines[*].threshold_theta`` and prints the ``subgroup`` block."""

    @pytest.mark.parametrize("command", ["calibrate", "subgroup"])
    def test_removed_subcommand_exits_2(self, workdir, capsys, command):
        data = simulate(workdir)
        with pytest.raises(SystemExit) as caught:
            main([command, str(data), "--config", str(workdir / "eval.cfg")])
        assert caught.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


def warning_data(workdir):
    """The simulated data plus a top-spending campaign with one control part:
    A/A calibration skips it, and its spend tier has no effect size, so the
    analysis warns."""
    data = simulate(workdir)
    with open(data, "a", encoding="utf-8") as out:
        out.write("big,A,0,5000,1000000000.000000,1100000000.000000\n")
        for part_id in range(2):
            out.write(f"big,B,{part_id},5000,1000000000.000000,1200000000.000000\n")
    return data


class TestConfigErrorsBeforeAnalysis:
    @pytest.mark.parametrize("flag,value,message", [
        ("--current-share", "0.3",
         "current_share 0.3 is not one of the schedule phases (0.01, 0.1, 0.2, 0.5)"),
        ("--variance-formula", "foo",
         "variance_formula must be one of ('noncentral_t', 'hedges'), got 'foo'"),
    ], ids=["current-share", "variance-formula"])
    def test_exit_2_before_any_warning(self, workdir, capsys, flag, value, message):
        data = warning_data(workdir)
        config = ["--config", str(workdir / "eval.cfg")]
        with pytest.warns(UserWarning):
            assert main(["evaluate", str(data), *config]) in (0, 1)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", str(data), *config, flag, value])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []


class TestSubgroupLabelsCheckedBeforeAnalysis:
    def test_incomplete_label_map_is_exit_2_when_subgroups_are_skipped(self, workdir, capsys):
        (workdir / "harm.cfg").write_text(
            "n_campaigns = 10\ntreatment_lift = -0.3\nseed = 4\n", encoding="utf-8")
        data = workdir / "harm.csv"
        assert main(["simulate", "--config", str(workdir / "harm.cfg"), "--out", str(data)]) == 0
        share = ["--aa-treatment-share", "0.1"]
        assert main(["evaluate", str(data), *share]) == 1
        out = capsys.readouterr().out
        assert "verdict: reject_harmful" in out and "skipped (strong rejection)" in out
        code = main(["evaluate", str(data), *share, "--subgroup-labels", "camp_000:x"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: campaign 'camp_0' has no subgroup label\n")


class TestSubcommandsAgreeWithEvaluate:
    def test_evaluate_prints_the_subgroup_block_after_a_harmful_rejection(
            self, workdir, capsys):
        (workdir / "harm.cfg").write_text(
            "n_campaigns = 10\ntreatment_lift = -0.3\nseed = 4\n", encoding="utf-8")
        data = workdir / "harm.csv"
        assert main(["simulate", "--config", str(workdir / "harm.cfg"), "--out", str(data)]) == 0
        capsys.readouterr()
        code = main(["evaluate", str(data), "--aa-treatment-share", "0.1", "--format", "json",
                     "--skip-subgroup-on-strong-reject", "false"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["decision"]["verdict"] == "reject_harmful"
        block = report["subgroup"]
        assert block is not None and len(block["summaries"]) >= 1
        assert block["q_star_total"] == pytest.approx(
            block["q_within"] + block["q_between"], abs=1e-9
        )


class TestReport:
    def test_rerender_matches_evaluate_output(self, workdir, capsys):
        data = simulate(workdir)
        report_path = workdir / "report.json"
        capsys.readouterr()
        main([
            "evaluate", str(data), "--config", str(workdir / "eval.cfg"),
            "--out", str(report_path), "--format", "human",
        ])
        human_first = capsys.readouterr().out
        code = main(["report", str(report_path), "--format", "human"])
        assert code == 0
        assert capsys.readouterr().out == human_first
        code = main(["report", str(report_path), "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out.encode("utf-8") == report_path.read_bytes()

    def test_json_roundtrip_is_byte_identical(self, workdir, capsys):
        data = simulate(workdir)
        report_path = workdir / "report.json"
        capsys.readouterr()
        main([
            "evaluate", str(data), "--config", str(workdir / "eval.cfg"),
            "--out", str(report_path), "--format", "json",
        ])
        from_evaluate = capsys.readouterr().out
        code = main(["report", str(report_path), "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == from_evaluate

    def test_malformed_report_is_exit_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["report", str(bad)]) == 2

    def test_rerender_uses_the_recorded_homogeneity_level(self, workdir, capsys):
        data = simulate(workdir)
        report_path = workdir / "report.json"
        capsys.readouterr()
        main(["evaluate", str(data), "--config", str(workdir / "eval.cfg"),
              "--out", str(report_path), "--homogeneity-level", "0.05"])
        from_evaluate = capsys.readouterr().out
        assert "at the 5% level" in from_evaluate
        main(["report", str(report_path)])
        assert capsys.readouterr().out == from_evaluate

    def test_schema_version_1_report_is_exit_2(self, workdir, capsys):
        data = simulate(workdir)
        out = workdir / "report.json"
        main(["evaluate", str(data), "--config", str(workdir / "eval.cfg"),
              "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc["schema_version"] = "1"
        out.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert "schema_version '1'" in capsys.readouterr().err
