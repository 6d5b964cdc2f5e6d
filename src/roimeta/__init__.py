"""ROI-based A/B evaluation of bidding models across heterogeneous campaigns.

Each campaign is treated as its own experiment; per-campaign standardized ROI
effects are combined with a random-effects meta-analysis, compared against
micro/macro-averaged baselines with A/A-calibrated thresholds, decomposed into
spend subgroups, and turned into an accept/reject verdict plus a traffic-ramp
recommendation.

The public names resolve on first use (PEP 562), each by importing only the
module that defines it, so ``import roimeta`` loads no submodule.
``roimeta.<module>.<Name>`` reaches the same objects.
"""

import importlib

# Each submodule the package namespace reaches, with the public names it defines.
_EXPORTS = {
    "baselines": (
        "AaCalibration", "AaSettings", "aa_calibrate", "campaign_micro_totals", "macro_delta",
        "micro_delta", "micro_roi", "threshold_decision",
    ),
    "campaigns": ("ArmColumns", "CampaignExperiment", "ExperimentDataset", "PartMeasurement"),
    "dataio": ("dataset_from_rows", "ingest", "render_dataset_csv", "write_dataset"),
    "errors": (
        "ConfigError", "DegenerateEffectError", "IngestError", "InsufficientDataError",
        "NoQualifiedCampaignsError", "RoimetaError", "SchemaError", "UndefinedRoiError",
    ),
    "meta": (
        "ArmSampleStats", "MetaSummary", "arm_stats", "cochran_q", "effect_size",
        "fixed_effect_summary", "heterogeneity_stats", "random_effect_summary",
        "summarize_effects", "tau_squared", "z_significance",
    ),
    "pipeline": (
        "EvaluationConfig", "ExplicitThetas", "TrafficSchedule", "collect_effects", "decide",
        "evaluate", "recommend_traffic",
    ),
    "preprocess": ("QualificationConfig", "QualificationReport", "qualify"),
    "randomness": (),
    "records": (
        "Arm", "BaselineDecision", "BaselineMethod", "BaselineResult", "Decision",
        "DisqualifiedCampaign", "EffectExclusion", "EffectSize", "EvaluationReport",
        "FixedEffectSummary", "HeterogeneityStats", "PartExclusions", "RandomEffectSummary",
        "SignificanceResult", "SubgroupReport", "SubgroupSummary", "TrafficRecommendation",
        "Verdict",
    ),
    "reportio": ("render_report", "report_from_json", "report_to_json"),
    "simulate": ("SimConfig", "generate_experiment"),
    "statfuncs": ("chi_square_sf", "normal_cdf", "normal_quantile"),
    "subgroups": (
        "GroupAssignment", "SubgroupSpec", "partition_by_label", "partition_by_spend",
        "resolve_subgroups", "subgroup_analysis",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
