"""The report's audit block: the effective config with the source of each
value, the A/A statistics per repeat, the arm-B spend share, the warnings of
the stages that ran, and the package version."""

import re
import warnings
from math import fsum
from pathlib import Path

import pytest

import roimeta
from conftest import campaign_from_rows, make_part
from roimeta.baselines import campaign_micro_totals, observed_share
from roimeta.campaigns import Arm, ExperimentDataset
from roimeta.config import load_evaluation_config
from roimeta.errors import ConfigError
from roimeta.pipeline import (
    AaSettings, EvaluationConfig, ExplicitThetas, TrafficSchedule, Verdict, _observed_share,
    evaluate,
)
from roimeta.preprocess import qualify
from roimeta.records import AaRecord, BaselineMethod
from roimeta.reportio import render_report
from roimeta.simulate import SimConfig, generate_experiment
from roimeta.subgroups import SubgroupSpec

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
THETAS = ExplicitThetas(micro_theta=0.0, macro_theta=0.0)


@pytest.fixture(scope="module")
def dataset():
    return generate_experiment(SimConfig(
        n_campaigns=9, m_a=6, m_b=6, treatment_share=0.2, treatment_lift=0.1, seed=17,
    ))


@pytest.fixture(scope="module")
def share(dataset):
    return observed_share(campaign_micro_totals(qualify(dataset).qualified))


def with_thin(dataset):
    """``dataset`` plus a campaign of one part per arm: A/A calibration skips
    it and it has no effect size."""
    thin = campaign_from_rows([
        make_part("thin", Arm.CONTROL, 0, roi=1.0),
        make_part("thin", Arm.TREATMENT, 0, roi=1.1),
    ])
    return ExperimentDataset(dataset.campaigns + (thin,))


def all_lines(record):
    return [line for name in record._fields for line in getattr(record, name)]


class TestVersion:
    def test_package_and_project_state_one_version(self):
        text = PYPROJECT.read_text(encoding="utf-8")
        project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        assert re.findall(r'^version = "([^"]+)"$', project, re.M) == [roimeta.__version__]

    def test_report_records_the_version(self, dataset):
        assert evaluate(dataset).audit.version == roimeta.__version__


class TestAaRecord:
    def test_thresholds_are_the_means_of_the_recorded_repeats(self, dataset, share):
        report = evaluate(dataset, EvaluationConfig(aa=AaSettings(repeats_k=7, seed=3)))
        aa = report.audit.aa
        assert (aa.repeats_k, aa.split_seed, aa.treatment_share) == (7, 3, share)
        for baseline in report.baselines:
            stats = getattr(aa, baseline.method.value)
            assert len(stats) == 7
            assert baseline.threshold_theta == fsum(stats) / 7

    def test_one_field_per_baseline_method(self):
        names = list(AaRecord._fields)
        assert names[2:] == [m.value for m in BaselineMethod]

    def test_a_configured_share_is_the_one_used(self, dataset):
        assert evaluate(dataset, EvaluationConfig(
            aa=AaSettings(treatment_share=0.25))).audit.aa.treatment_share == 0.25

    def test_explicit_thresholds_record_no_calibration(self, dataset):
        audit = evaluate(dataset, EvaluationConfig(aa=THETAS)).audit
        assert audit.aa is None
        assert audit.spend_share_configured is None


class TestSpendShare:
    def test_observed_and_configured(self, dataset, share):
        audit = evaluate(dataset, EvaluationConfig(aa=AaSettings(treatment_share=0.25))).audit
        assert (audit.spend_share_observed, audit.spend_share_configured) == (share, 0.25)
        audit = evaluate(dataset).audit
        assert (audit.spend_share_observed, audit.spend_share_configured) == (share, None)

    def test_never_drives_the_verdict(self, dataset):
        far = evaluate(dataset, EvaluationConfig(aa=AaSettings(treatment_share=0.9)))
        near = evaluate(dataset, EvaluationConfig(aa=AaSettings(treatment_share=0.2)))
        assert (far.significance, far.decision) == (near.significance, near.decision)

    def test_observed_is_null_without_spend_in_both_arms(self):
        assert _observed_share({}) is None
        assert _observed_share({"c": (1_000_000, 2_000_000, 0, 0)}) is None


class TestConfigRecord:
    def test_defaults_and_the_share_from_the_data(self, dataset, share):
        record = evaluate(dataset).audit.config
        assert record.file == record.flag == record.caller == ()
        assert record.data == (f"aa_treatment_share = {share!r}",)
        assert record.default == (
            "confidence_level = 0.95", "homogeneity_level = 0.1",
            "min_impressions_per_part = 100", "min_qualified_fraction = 0.9",
            "aa_repeats_k = 5", "aa_seed = 0",
            f"spend_fractions = {1 / 3!r},{1 / 3!r},{1 / 3!r}",
            "phases = 0.01,0.1,0.2,0.5", "current_share = 0.01",
        )

    def test_file_flag_and_caller_sources(self, tmp_path, dataset):
        path = tmp_path / "eval.cfg"
        path.write_text("aa_seed = 4\nconfidence_level = 0.9\naa_repeats_k = 5\n",
                        encoding="utf-8")
        config = load_evaluation_config(path, {
            "confidence_level": "0.8", "phases": "0.1, 0.5", "current_share": "0.1",
            "aa_treatment_share": None,
        })
        record = evaluate(dataset, config).audit.config
        # a file value equal to the default is still the file's
        assert record.file == ("aa_repeats_k = 5", "aa_seed = 4")
        assert record.flag == ("confidence_level = 0.8", "phases = 0.1,0.5", "current_share = 0.1")
        assert [line.split(" = ")[0] for line in record.data] == ["aa_treatment_share"]
        caller = evaluate(dataset, EvaluationConfig(homogeneity_level=0.2, aa=THETAS))
        assert caller.audit.config.caller == ("homogeneity_level = 0.2",
                                              "micro_theta = 0.0", "macro_theta = 0.0")

    def test_explicit_thresholds_replace_the_aa_keys(self, dataset):
        lines = all_lines(evaluate(dataset, EvaluationConfig(aa=THETAS)).audit.config)
        assert not [line for line in lines if line.startswith("aa_")]

    def test_a_label_map_is_one_line(self, tmp_path, dataset):
        ids = [c.campaign_id for c in dataset.campaigns]
        labels = ",".join(f"{cid}:g{i % 2}" for i, cid in enumerate(ids))
        config = load_evaluation_config(None, {"subgroup_labels": labels})
        record = evaluate(dataset, config).audit.config
        assert record.flag == (f"subgroup_labels = {labels}",)

    def test_a_label_that_would_not_replay_is_refused(self, tmp_path):
        # A config file reads '#' as the start of a comment, and the label parser
        # splits pairs at ',' and the first ':' and strips each part, so the audit
        # line of such a map would replay as another map, or not load.
        path = tmp_path / "labels.cfg"
        path.write_text("subgroup_labels = c1:a, c2:x#y\n", encoding="utf-8")
        assert load_evaluation_config(path).subgroups.labels == {"c1": "a", "c2": "x"}
        message = re.escape(
            "subgroup labels cannot hold '#' or ',', a ':' in a campaign id, or spaces "
            "around a campaign or group, got 'c2:x#y'")
        with pytest.raises(ConfigError, match=message):  # a flag over the file
            load_evaluation_config(path, {"subgroup_labels": "c1:a, c2:x#y"})
        with pytest.raises(ConfigError, match=message):  # a library caller
            SubgroupSpec(labels={"c1": "a", "c2": "x#y"})
        for campaign_id, group, shown in [
            ("c#2", "x", "'c#2:x'"), ("c:1", "g", "'c:1:g'"), ("c", " g ", "'c: g '"),
            ("c", "g ", "'c:g '"), (" c", "g", "' c:g'"), ("c", "a,b", "'c:a,b'"),
            ("c,1", "g", "'c,1:g'"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(f"got {shown}")):
                SubgroupSpec(labels={"c1": "a", campaign_id: group})

    @pytest.mark.parametrize("config", [
        EvaluationConfig(),
        EvaluationConfig(aa=AaSettings(repeats_k=3, seed=9, treatment_share=0.3),
                         confidence_level=0.9, schedule=TrafficSchedule(current_share=0.2)),
        EvaluationConfig(aa=THETAS, subgroups=SubgroupSpec(spend_fractions=(0.5, 0.25, 0.25)),
                         homogeneity_level=0.05),
        EvaluationConfig(subgroups=SubgroupSpec(
            labels={f"camp_{i}": f"g {i % 2}" for i in range(9)})),
        # '=', a ':' in a group and non-ASCII text are kept
        EvaluationConfig(subgroups=SubgroupSpec(
            labels={f"camp_{i}": ("a=b:c", "caf\u00e9 \u2014 x")[i % 2] for i in range(9)})),
    ], ids=["defaults", "aa-settings", "thresholds", "labels", "labels-odd-text"])
    @pytest.mark.parametrize("lift", [0.1, -0.3], ids=["accept", "harmful"])
    def test_the_lines_replay_the_decision(self, tmp_path, config, lift):
        dataset = generate_experiment(SimConfig(
            n_campaigns=9, m_a=6, m_b=6, treatment_share=0.2, treatment_lift=lift, seed=17,
        ))
        report = evaluate(dataset, config)
        assert report.decision.verdict is (Verdict.ACCEPT if lift > 0 else Verdict.REJECT_HARMFUL)
        # the subgroups always run, except after a harmful rejection
        assert (report.subgroup is None) == (lift < 0)
        path = tmp_path / "replay.cfg"
        path.write_text("\n".join(all_lines(report.audit.config)) + "\n", encoding="utf-8")
        replay = evaluate(dataset, load_evaluation_config(path))
        assert replay._replace(audit=None) == report._replace(audit=None)
        assert sorted(replay.audit.config.file) == sorted(all_lines(report.audit.config))


class TestWarnings:
    def test_each_condition_in_stage_order(self, dataset):
        ids = [c.campaign_id for c in dataset.campaigns]
        labels = {**{cid: "real" for cid in ids}, "thin": "ghost"}
        report = evaluate(with_thin(dataset), EvaluationConfig(
            subgroups=SubgroupSpec(labels=labels)))
        assert report.audit.warnings == (
            "excluded 1 campaign(s) with fewer than 2 control parts from A/A calibration: thin",
            "subgroup 'ghost' has no analyzable campaigns; dropped",
        )
        assert render_report(report).endswith("\nwarnings\n" + "".join(
            f"  {w}\n" for w in report.audit.warnings))

    def test_only_for_stages_that_ran(self, dataset):
        report = evaluate(with_thin(dataset), EvaluationConfig(aa=THETAS))
        assert report.audit.warnings == ()
        assert "\nwarnings\n" not in render_report(report)

    def test_evaluate_emits_no_python_warning(self, dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate(with_thin(dataset))
            evaluate(ExperimentDataset(dataset.campaigns[:2]), EvaluationConfig(aa=THETAS))
