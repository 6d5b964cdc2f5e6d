"""Flat key/value configuration files and their command-line twins.

Config files hold one ``key = value`` pair per line (``#`` comments allowed).
Every evaluation key has a CLI flag of the same name, and flags override file
values. Baseline thresholds come either from A/A calibration (``aa_*`` keys)
or from explicit ``micro_theta``/``macro_theta`` values, never both.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, get_type_hints

from .errors import ConfigError
from .pipeline import AaSettings, EvaluationConfig, ExplicitThetas, TrafficSchedule
from .preprocess import QualificationConfig
from .simulate import SimConfig
from .subgroups import SubgroupSpec


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_float_list(raw: str) -> tuple[float, ...]:
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated number list, got {raw!r}")
    return tuple(_parse_float(item) for item in items)


def _parse_labels(raw: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"labels must be campaign:group pairs, got {item!r}")
        campaign_id, group = item.split(":", 1)
        labels[campaign_id.strip()] = group.strip()
    if not labels:
        raise ConfigError(f"expected campaign:group pairs, got {raw!r}")
    return labels


def _parse_str(raw: str) -> str:
    return raw.strip()


EVAL_KEY_PARSERS: dict[str, Callable[[str], object]] = {
    "confidence_level": _parse_float,
    "homogeneity_level": _parse_float,
    "min_impressions_per_part": _parse_int,
    "min_qualified_fraction": _parse_float,
    "aa_repeats_k": _parse_int,
    "aa_seed": _parse_int,
    "aa_treatment_share": _parse_float,
    "micro_theta": _parse_float,
    "macro_theta": _parse_float,
    "subgroup_kind": _parse_str,
    "spend_fractions": _parse_float_list,
    "subgroup_labels": _parse_labels,
    "variance_formula": _parse_str,
    "skip_subgroup_on_strong_reject": _parse_bool,
    "phases": _parse_float_list,
    "current_share": _parse_float,
}

SIM_KEY_PARSERS: dict[str, Callable[[str], object]] = {
    key: {int: _parse_int, float: _parse_float}[hint]
    for key, hint in get_type_hints(SimConfig).items()
}


def parse_kv_text(text: str, source: str = "config") -> dict[str, str]:
    """Parse ``key = value`` lines; later occurrences of a key override earlier ones."""
    values: dict[str, str] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {line_no}: expected 'key = value', got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source} line {line_no}: empty key or value")
        values[key] = value
    return values


def _given(values: dict[str, object], *keys: str, **renamed: str) -> dict[str, object]:
    """Keyword arguments for the config keys present in ``values``; absent keys
    are left out so that the dataclass defaults apply. ``renamed`` maps a
    field name to its config key."""
    fields = {key: key for key in keys} | renamed
    return {field: values[key] for field, key in fields.items() if key in values}


def evaluation_config_from_values(values: dict[str, object]) -> EvaluationConfig:
    has_thetas = "micro_theta" in values or "macro_theta" in values
    has_aa = any(k in values for k in ("aa_repeats_k", "aa_seed", "aa_treatment_share"))
    if has_thetas and has_aa:
        raise ConfigError(
            "give either explicit micro_theta/macro_theta or aa_* calibration keys, not both"
        )
    if has_thetas:
        if "micro_theta" not in values or "macro_theta" not in values:
            raise ConfigError("explicit thresholds need both micro_theta and macro_theta")
        aa: AaSettings | ExplicitThetas = ExplicitThetas(
            micro_theta=values["micro_theta"], macro_theta=values["macro_theta"]
        )
    else:
        aa = AaSettings(**_given(
            values, repeats_k="aa_repeats_k", seed="aa_seed", treatment_share="aa_treatment_share"
        ))
    subgroup_args = _given(
        values, "spend_fractions", kind="subgroup_kind", labels="subgroup_labels"
    )
    if "subgroup_labels" in values:
        subgroup_args.setdefault("kind", "by_label")
    return EvaluationConfig(
        qualification=QualificationConfig(
            **_given(values, "min_impressions_per_part", "min_qualified_fraction")
        ),
        aa=aa,
        subgroups=SubgroupSpec(**subgroup_args),
        schedule=TrafficSchedule(**_given(values, "phases", "current_share")),
        **_given(
            values, "confidence_level", "homogeneity_level", "variance_formula",
            "skip_subgroup_on_strong_reject",
        ),
    )


def _load_values(
    path: str | Path | None, overrides: dict[str, str] | None,
    parsers: dict[str, Callable[[str], object]], source: str,
) -> dict[str, object]:
    """Typed values of an optional file plus raw-string overrides (None skipped)."""
    raw: dict[str, str] = {}
    if path is not None:
        raw.update(parse_kv_text(Path(path).read_text(encoding="utf-8"), source=str(path)))
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    typed: dict[str, object] = {}
    for key, value in raw.items():
        if key not in parsers:
            raise ConfigError(f"{source}: unknown key {key!r}")
        typed[key] = parsers[key](value)
    return typed


def load_evaluation_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> EvaluationConfig:
    """Build an EvaluationConfig from an optional file plus raw-string overrides."""
    return evaluation_config_from_values(
        _load_values(path, overrides, EVAL_KEY_PARSERS, "evaluation config")
    )


def load_sim_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> SimConfig:
    """Build a SimConfig from an optional file plus raw-string overrides."""
    return SimConfig(**_load_values(path, overrides, SIM_KEY_PARSERS, "simulation config"))
