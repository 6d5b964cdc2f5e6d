"""ROI-based A/B evaluation of bidding models across heterogeneous campaigns.

Each campaign is treated as its own experiment; per-campaign standardized ROI
effects are combined with a random-effects meta-analysis, compared against
micro/macro-averaged baselines with A/A-calibrated thresholds, decomposed into
spend subgroups, and turned into an accept/reject verdict plus a traffic-ramp
recommendation.
"""

from .baselines import (
    AaCalibration,
    AaSettings,
    BaselineDecision,
    BaselineMethod,
    BaselineResult,
    aa_calibrate,
    campaign_micro_totals,
    macro_delta,
    micro_delta,
    micro_roi,
    threshold_decision,
)
from .campaigns import (
    Arm,
    ArmColumns,
    CampaignExperiment,
    ExperimentDataset,
    PartMeasurement,
)
from .dataio import ingest, render_dataset_csv, write_dataset
from .errors import (
    ConfigError,
    DegenerateEffectError,
    IngestError,
    InsufficientDataError,
    NoQualifiedCampaignsError,
    RoimetaError,
    SchemaError,
    UndefinedRoiError,
)
from .meta import (
    ArmSampleStats,
    EffectSize,
    FixedEffectSummary,
    HeterogeneityStats,
    MetaSummary,
    RandomEffectSummary,
    SignificanceResult,
    arm_stats,
    cochran_q,
    effect_size,
    fixed_effect_summary,
    heterogeneity_stats,
    random_effect_summary,
    summarize_effects,
    tau_squared,
    z_significance,
)
from .pipeline import (
    Decision,
    EffectExclusion,
    EvaluationConfig,
    EvaluationReport,
    ExplicitThetas,
    TrafficRecommendation,
    TrafficSchedule,
    Verdict,
    collect_effects,
    decide,
    evaluate,
    recommend_traffic,
)
from .preprocess import (
    DisqualifiedCampaign,
    ExcludedPart,
    QualificationConfig,
    QualificationReport,
    qualify,
)
from .reportio import render_report, report_from_json, report_to_json
from .simulate import SimConfig, generate_experiment
from .statfuncs import chi_square_sf, normal_cdf, normal_quantile
from .subgroups import (
    GroupAssignment,
    SubgroupReport,
    SubgroupSpec,
    SubgroupSummary,
    partition_by_label,
    partition_by_spend,
    resolve_subgroups,
    subgroup_analysis,
)

__version__ = "0.1.0"
