import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import roimeta
from roimeta.cli import main
from roimeta.reportio import report_from_json

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_report.json"
GOLDEN_TEXT = GOLDEN_PATH.with_suffix(".txt")


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

    @pytest.mark.parametrize("line, message", [
        ("impressions_per_part_mean = inf", "impressions_per_part_mean must be finite, got inf"),
        ("impressions_per_part_mean = nan", "impressions_per_part_mean must be finite, got nan"),
        ("budget_log_mean = 1000", "simulated budget is too large for a float "
                                   "(budget_log_mean = 1000.0, budget_log_sd = 2.0)"),
    ], ids=["mean-inf", "mean-nan", "budget-overflow"])
    def test_unusable_simulation_is_exit_2(self, workdir, capsys, line, message):
        (workdir / "bad.cfg").write_text(line + "\n", encoding="utf-8")
        out = workdir / "bad.csv"
        assert main(["simulate", "--config", str(workdir / "bad.cfg"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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
        assert doc["schema_version"] == "5"
        # the audit block names where each config value came from
        config = doc["audit"]["config"]
        assert config["file"] == ["confidence_level = 0.95", "aa_seed = 11",
                                  "aa_treatment_share = 0.1"]
        assert config["flag"] == config["data"] == config["caller"] == []

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

    @pytest.mark.parametrize("key, value, flag", [
        # the effect variance has one formula
        ("variance_formula", "noncentral_t", "--variance-formula"),
        # a label map alone chooses the subgroup partition
        ("subgroup_kind", "by_spend_cumulative", "--subgroup-kind"),
        # the subgroups are always skipped after a harmful rejection
        ("skip_subgroup_on_strong_reject", "true", "--skip-subgroup-on-strong-reject"),
    ], ids=["variance_formula", "subgroup_kind", "skip_subgroup_on_strong_reject"])
    def test_removed_key_is_exit_2(self, workdir, capsys, key, value, flag):
        # the audit line of an older report names a key that no longer exists
        (workdir / "old.cfg").write_text(f"{key} = {value}\n", encoding="utf-8")
        data = simulate(workdir)
        capsys.readouterr()
        assert main(["evaluate", str(data), "--config", str(workdir / "old.cfg")]) == 2
        assert capsys.readouterr().err == f"error: evaluation config: unknown key {key!r}\n"
        with pytest.raises(SystemExit) as caught:
            main(["evaluate", str(data), flag, "x"])
        assert caught.value.code == 2
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err

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
    report carries warnings."""
    data = simulate(workdir)
    with open(data, "a", encoding="utf-8") as out:
        out.write("big,A,0,5000,1000000000.000000,1100000000.000000\n")
        for part_id in range(2):
            out.write(f"big,B,{part_id},5000,1000000000.000000,1200000000.000000\n")
    return data


class TestConfigErrorsBeforeAnalysis:
    @pytest.mark.parametrize("flags,message", [
        (("--current-share", "0.3"),
         "current_share 0.3 is not one of the schedule phases (0.01, 0.1, 0.2, 0.5)"),
        (("--confidence-level", "1.5"), "confidence_level must be in (0, 1), got 1.5"),
        # a non-finite threshold would be written as NaN or Infinity, which is not JSON
        (("--micro-theta", "nan", "--macro-theta", "0"), "micro_theta must be finite, got nan"),
        (("--micro-theta", "inf", "--macro-theta=-inf"), "micro_theta must be finite, got inf"),
        (("--micro-theta", "0", "--macro-theta=-inf"), "macro_theta must be finite, got -inf"),
        (("--spend-fractions", "nan,1"), "spend fractions must be positive"),
        (("--subgroup-labels", "c1:x, c1:y"), "campaign 'c1' is labelled twice, got 'c1:y'"),
        (("--subgroup-labels", "c1:, :y"), "labels must be campaign:group pairs, got 'c1:'"),
        (("--subgroup-labels", ":y"), "labels must be campaign:group pairs, got ':y'"),
        (("--subgroup-labels", "c1:a#b, c2:x"),
         "subgroup labels cannot hold '#' or ',', a ':' in a campaign id, or spaces around "
         "a campaign or group, got 'c1:a#b'"),
    ], ids=["current-share", "confidence-level", "micro-theta-nan", "thetas-inf",
            "macro-theta-inf", "spend-fractions-nan", "labels-twice", "labels-empty-group",
            "labels-empty-campaign", "labels-hash"])
    def test_exit_2_before_any_warning(self, workdir, capsys, flags, message):
        data = warning_data(workdir)
        # explicit thresholds replace the A/A keys of the config file
        config = [] if "--micro-theta" in flags else ["--config", str(workdir / "eval.cfg")]
        capsys.readouterr()
        assert main(["evaluate", str(data), *config, "--format", "json"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["audit"]["warnings"] == [
            "excluded 1 campaign(s) with fewer than 2 control parts from A/A calibration: big",
            "only 2 of 3 spend groups are non-empty",
            "subgroup 'group_1' has no analyzable campaigns; dropped",
        ]
        out = workdir / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", str(data), *config, *flags, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [str(w.message) for w in caught] == []
        assert not out.exists()


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
    def test_evaluate_prints_the_subgroup_block_unless_the_rejection_is_harmful(
            self, workdir, capsys):
        (workdir / "harm.cfg").write_text(
            "n_campaigns = 10\ntreatment_lift = -0.3\nseed = 4\n", encoding="utf-8")
        harm = workdir / "harm.csv"
        assert main(["simulate", "--config", str(workdir / "harm.cfg"), "--out", str(harm)]) == 0
        capsys.readouterr()
        share = ["--aa-treatment-share", "0.1", "--format", "json"]
        assert main(["evaluate", str(harm), *share]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["decision"] == {"verdict": "reject_harmful"}
        assert report["subgroup"] is None
        data = simulate(workdir)
        capsys.readouterr()
        assert main(["evaluate", str(data), *share]) == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert report["decision"] == {"verdict": "accept"}
        block = report["subgroup"]
        assert block is not None and len(block["summaries"]) >= 1
        # the block stores the total; the decoded report computes its split
        assert sorted(block) == ["p_between", "q_star_total", "summaries"]
        split = report_from_json(text).subgroup
        assert split.q_within == math.fsum(s["q_star_k"] for s in block["summaries"])
        assert block["q_star_total"] == pytest.approx(
            split.q_within + split.q_between, abs=1e-9
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

    def test_module_entry_point_reprints_the_golden_report(self):
        # `python -m roimeta.cli` is how the benchmark launches the command line
        src = Path(roimeta.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "roimeta.cli", "report", str(GOLDEN_PATH), "--format", "json"],
            capture_output=True, env=env, timeout=120,
        )
        golden = GOLDEN_PATH.read_bytes()
        accepted = json.loads(golden)["decision"]["verdict"] == "accept"
        assert (done.returncode, done.stderr) == (0 if accepted else 1, b"")
        assert done.stdout == golden

    def test_golden_report_prints_the_pinned_human_table(self, capsys):
        # the table as the schema-2 golden report printed it, before the
        # computed fields and the part list left the report, with schema 5's
        # basis line, which names the interval, and no significant= flag
        assert main(["report", str(GOLDEN_PATH)]) == 0
        assert capsys.readouterr().out == GOLDEN_TEXT.read_text(encoding="utf-8")

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

    @pytest.mark.parametrize("version", ["1", "2", "3", "4"])
    def test_earlier_schema_version_report_is_exit_2(self, workdir, capsys, version):
        data = simulate(workdir)
        out = workdir / "report.json"
        main(["evaluate", str(data), "--config", str(workdir / "eval.cfg"),
              "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text(encoding="utf-8"))
        doc["schema_version"] = version
        out.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert f"schema_version '{version}'" in capsys.readouterr().err


class TestMalformedInputIsExit2:
    """Input nested too deeply for the JSON parser, a report integer too large
    for a float, an integer literal longer than int() converts, or a CSV field
    over the csv module's limit, is an input error: exit 2 with one ``error:``
    line."""

    NESTED = "[" * 100_000 + "]" * 100_000
    GOLDEN = GOLDEN_PATH.read_text(encoding="utf-8")
    BIG_TAU2 = GOLDEN.replace(
        f'"tau2": {json.loads(GOLDEN)["heterogeneity"]["tau2"]!r}', '"tau2": 1' + "0" * 400)
    LONG_INT = "1" * 5000
    LONG_DF = GOLDEN.replace(f'"df": {json.loads(GOLDEN)["heterogeneity"]["df"]},',
                             f'"df": {LONG_INT},')
    LONG_INT_ERROR = str(pytest.raises(ValueError, int, LONG_INT).value)

    @pytest.mark.parametrize("text, argv, message", [
        (NESTED, ["report"], "invalid report JSON: nested too deeply"),
        (BIG_TAU2, ["report"], "malformed report document: "
                               "HeterogeneityStats.tau2 is outside the range of a float"),
        (NESTED + "\n", ["evaluate", "--input-format", "record-lines"],
         "line 1: invalid JSON: nested too deeply"),
        (LONG_DF, ["report"], f"invalid report JSON: {LONG_INT_ERROR}"),
        ('{"campaign_id": "c", "arm": "A", "part_id": %s, "impressions": 10, "spend": 1, '
         '"value": 1}\n' % LONG_INT, ["evaluate", "--input-format", "record-lines"],
         f"line 1: invalid JSON: {LONG_INT_ERROR}"),
        ("campaign_id,arm,part_id,impressions,spend,value\n" + "c" * 131_073 + ",A,0,10,1,1\n",
         ["evaluate"], "line 2: invalid CSV: field larger than field limit (131072)"),
    ], ids=["nested-report", "int-tau2-1e400", "int-df-5000-digits", "nested-record-line",
            "int-part-id-5000-digits", "long-csv-field"])
    def test_no_traceback(self, workdir, capsys, text, argv, message):
        bad = workdir / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main([argv[0], str(bad), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
