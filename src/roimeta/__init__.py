"""ROI-based A/B evaluation of bidding models across heterogeneous campaigns.

Each campaign is treated as its own experiment; per-campaign standardized ROI
effects are combined with a random-effects meta-analysis, compared against
micro/macro-averaged baselines with A/A-calibrated thresholds, decomposed into
spend subgroups, and turned into an accept/reject verdict plus a traffic-ramp
recommendation.

The package exports what README's "Library use" section calls, plus the
exception classes. Those names resolve on first use (PEP 562), each by
importing only the module that defines it, so ``import roimeta`` loads no
submodule. ``roimeta.<module>.<Name>`` reaches the same objects, and every
other name.
"""

import importlib

# Every submodule, reached as ``roimeta.<module>``, with the names it exports.
_EXPORTS = {
    "baselines": ("AaSettings", "aa_calibrate", "campaign_micro_totals"),
    "campaigns": (),
    "cli": (),
    "config": (),
    "dataio": ("dataset_from_rows",),
    "errors": (
        "ConfigError", "DegenerateEffectError", "IngestError", "InsufficientDataError",
        "NoQualifiedCampaignsError", "RoimetaError", "SchemaError", "UndefinedRoiError",
    ),
    "meta": (),
    "pipeline": ("EvaluationConfig", "evaluate"),
    "preprocess": ("qualify",),
    "randomness": (),
    "records": (),
    "reportio": ("render_human", "report_to_json"),
    "simulate": ("SimConfig", "generate_experiment"),
    "statfuncs": (),
    "subgroups": ("SubgroupSpec", "resolve_subgroups"),
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
