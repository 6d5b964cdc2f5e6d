"""Every config and campaign type checks itself however it is built.

Each checked type is a named tuple, so it can be built positionally, by
keyword, through ``_make`` and through ``_replace`` of a good instance. Each
way must refuse a bad value with the same exception type and message, and a
list given for a tuple field must be stored as a tuple.
"""

import math

import pytest

from conftest import make_campaign
from roimeta.campaigns import CampaignExperiment, ExperimentDataset
from roimeta.config import (
    AaSettings, EvaluationConfig, ExplicitThetas, QualificationConfig, SubgroupSpec,
    TrafficSchedule, load_evaluation_config,
)
from roimeta.errors import ConfigError, InsufficientDataError
from roimeta.meta import ArmSampleStats

C1 = make_campaign("c1", [1.0, 1.1], [0.9, 1.0])

# A good instance of each type, every field given.
GOOD = {
    AaSettings: dict(repeats_k=5, seed=0, treatment_share=0.5),
    QualificationConfig: dict(min_impressions_per_part=100, min_qualified_fraction=0.9),
    SubgroupSpec: dict(spend_fractions=(0.5, 0.5), labels=None),
    TrafficSchedule: dict(phases=(0.1, 0.5), current_share=0.1),
    EvaluationConfig: EvaluationConfig()._asdict(),
    CampaignExperiment: C1._asdict(),
    ExperimentDataset: dict(campaigns=(C1,)),
    ArmSampleStats: dict(mean=1.0, variance=0.5, m=3),
    ExplicitThetas: dict(micro_theta=0.01, macro_theta=0),
}

FINITE = "mean must be finite and variance finite and >= 0"
INCREASING = "phases must be strictly increasing within (0, 0.5], got "
LABEL = ("subgroup labels cannot hold '#', ',' or a line break, a ':' in a campaign id, "
         "an empty campaign or group, or spaces around one, got ")

# (type, the fields a bad instance changes, the exception type, its message)
REFUSED = [
    (AaSettings, dict(repeats_k=0), ConfigError, "repeats_k must be an integer >= 1, got 0"),
    (AaSettings, dict(repeats_k=2.0), ConfigError, "repeats_k must be an integer >= 1, got 2.0"),
    (AaSettings, dict(treatment_share=0.0), ConfigError,
     "treatment_share must be in (0, 1), got 0.0"),
    (AaSettings, dict(treatment_share=1.0), ConfigError,
     "treatment_share must be in (0, 1), got 1.0"),
    (QualificationConfig, dict(min_impressions_per_part=0), ConfigError,
     "min_impressions_per_part must be an integer >= 1, got 0"),
    (QualificationConfig, dict(min_impressions_per_part=1.5), ConfigError,
     "min_impressions_per_part must be an integer >= 1, got 1.5"),
    (QualificationConfig, dict(min_qualified_fraction=0.0), ConfigError,
     "min_qualified_fraction must be in (0, 1], got 0.0"),
    (QualificationConfig, dict(min_qualified_fraction=1.5), ConfigError,
     "min_qualified_fraction must be in (0, 1], got 1.5"),
    (SubgroupSpec, dict(spend_fractions=(0.5, 0.0, 0.5)), ConfigError,
     "spend fractions must be positive"),
    (SubgroupSpec, dict(spend_fractions=()), ConfigError, "spend fractions must be positive"),
    (SubgroupSpec, dict(spend_fractions=(math.nan, 1.0)), ConfigError,
     "spend fractions must be positive"),
    (SubgroupSpec, dict(spend_fractions=[0.5, 0.4]), ConfigError,
     "spend fractions must sum to 1, got 0.9"),
    # labels choose the partition, and the fractions are still checked
    (SubgroupSpec, dict(spend_fractions=(0.5, 0.6), labels={"c1": "x"}), ConfigError,
     "spend fractions must sum to 1, got 1.1"),
    (SubgroupSpec, dict(labels={}), ConfigError, "a labels map must label at least one campaign"),
    # a label whose audit line would not load back as the same map
    (SubgroupSpec, dict(labels={"": "g"}), ConfigError, LABEL + "':g'"),
    (SubgroupSpec, dict(labels={"c1": ""}), ConfigError, LABEL + "'c1:'"),
    (SubgroupSpec, dict(labels={"c1": "a\nb"}), ConfigError, LABEL + "'c1:a\\nb'"),
    (SubgroupSpec, dict(labels={"c\u20281": "g"}), ConfigError, LABEL + "'c\\u20281:g'"),
    # a campaign id that is no text: its line reads back as the text '1'
    (SubgroupSpec, dict(labels={1: "g"}), ConfigError, LABEL + "'1:g'"),
    (TrafficSchedule, dict(phases=()), ConfigError, "phases must be non-empty"),
    (TrafficSchedule, dict(phases=(0.1, 0.1, 0.5)), ConfigError, INCREASING + "(0.1, 0.1, 0.5)"),
    (TrafficSchedule, dict(phases=[0.1, 0.6]), ConfigError, INCREASING + "(0.1, 0.6)"),
    (TrafficSchedule, dict(current_share=0.33), ConfigError,
     "current_share 0.33 is not one of the schedule phases (0.1, 0.5)"),
    (EvaluationConfig, dict(confidence_level=1.2), ConfigError,
     "confidence_level must be in (0, 1), got 1.2"),
    (EvaluationConfig, dict(homogeneity_level=0.0), ConfigError,
     "homogeneity_level must be in (0, 1), got 0.0"),
    (EvaluationConfig, dict(homogeneity_level=1.0), ConfigError,
     "homogeneity_level must be in (0, 1), got 1.0"),
    (CampaignExperiment, dict(campaign_id=""), ValueError, "campaign_id must be non-empty text"),
    (CampaignExperiment, dict(campaign_id=7), ValueError, "campaign_id must be non-empty text"),
    (CampaignExperiment, dict(campaign_id=" c1"), ValueError,
     "campaign_id ' c1' has leading or trailing whitespace"),
    (ExperimentDataset, dict(campaigns=(C1, C1)), ValueError, "duplicate campaign_id 'c1'"),
    (ExperimentDataset, dict(campaigns=[C1, C1]), ValueError, "duplicate campaign_id 'c1'"),
    (ArmSampleStats, dict(m=1), InsufficientDataError, "need >= 2 parts per arm, got 1"),
    (ArmSampleStats, dict(mean=math.nan), ValueError, FINITE),
    (ArmSampleStats, dict(variance=-1.0), ValueError, FINITE),
    (ArmSampleStats, dict(variance=math.inf), ValueError, FINITE),
    (ExplicitThetas, dict(micro_theta=math.nan), ConfigError, "micro_theta must be finite, got nan"),
    (ExplicitThetas, dict(micro_theta=math.inf), ConfigError, "micro_theta must be finite, got inf"),
    (ExplicitThetas, dict(macro_theta=-math.inf), ConfigError,
     "macro_theta must be finite, got -inf"),
]

WAYS = ("positional", "keyword", "_make", "_replace")


def build(tp, change, way):
    fields = {**GOOD[tp], **change}
    values = [fields[name] for name in tp._fields]
    if way == "positional":
        return tp(*values)
    if way == "keyword":
        return tp(**fields)
    if way == "_make":
        return tp._make(values)
    return tp(**GOOD[tp])._replace(**change)


def case_id(case):
    tp, change, *_ = case
    return f"{tp.__name__}-" + ",".join(f"{k}={v!r}" for k, v in change.items())


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("tp, change, error, message", REFUSED, ids=map(case_id, REFUSED))
def test_every_way_of_building_refuses_alike(tp, change, error, message, way):
    with pytest.raises(error) as caught:
        build(tp, change, way)
    assert (type(caught.value), str(caught.value)) == (error, message)


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("tp, change", [
    (TrafficSchedule, dict(phases=[0.1, 0.2, 0.5], current_share=0.2)),
    (SubgroupSpec, dict(spend_fractions=[0.25, 0.75])),
    (ExperimentDataset, dict(campaigns=[C1])),
], ids=["phases", "spend_fractions", "campaigns"])
def test_a_list_is_stored_as_a_tuple(tp, change, way):
    (name, given), = ((k, v) for k, v in change.items() if isinstance(v, list))
    built = build(tp, change, way)
    assert type(getattr(built, name)) is tuple and getattr(built, name) == tuple(given)
    assert built == build(tp, {**change, name: tuple(given)}, way)


@pytest.mark.parametrize("tp", GOOD, ids=lambda tp: tp.__name__)
def test_a_good_instance_is_built_alike_every_way(tp):
    built = {way: build(tp, {}, way) for way in WAYS}
    assert all(type(b) is tp and b == built["keyword"] for b in built.values())


def test_the_dataset_is_a_one_field_tuple():
    dataset = ExperimentDataset((C1, make_campaign("c2", [1.0, 1.1], [0.9, 1.0])))
    assert (len(dataset), dataset.n) == (1, 2)


def test_sources_count_in_equality_and_have_no_shared_default():
    assert EvaluationConfig().sources is None
    # the loader records no sources as None, so a config of defaults equals the default
    assert load_evaluation_config() == EvaluationConfig()
    # the same values from a flag give another audit block, so another config
    flagged = load_evaluation_config(None, {"aa_seed": "0"})
    assert flagged.sources == {"aa_seed": "flag"}
    assert flagged != EvaluationConfig()
    assert flagged == EvaluationConfig(sources={"aa_seed": "flag"})
