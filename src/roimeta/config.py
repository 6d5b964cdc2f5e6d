"""Flat key/value configuration files and their command-line twins.

Config files hold one ``key = value`` pair per line (``#`` comments allowed).
Every evaluation key has a CLI flag of the same name, and flags override file
values. Baseline thresholds come either from A/A calibration (``aa_*`` keys)
or from explicit ``micro_theta``/``macro_theta`` values, never both. Subgroups
are spend tiers (``spend_fractions``) unless ``subgroup_labels`` gives each
campaign a group; the labels alone choose that partition. A label map holds
no ``#``, ``,`` or line break, no ``:`` in a campaign id and no empty or padded
part (``SubgroupSpec`` refuses them), so its config line reads back as it was
written.

``EVAL_KEYS`` places each key in an ``EvaluationConfig``; the loader builds
the config through it and ``config_record`` reads it back as config lines,
each with the source of its value, for a report's audit block.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import TYPE_CHECKING, Callable, get_type_hints

from .errors import ConfigError

if TYPE_CHECKING:
    from .pipeline import EvaluationConfig
    from .records import ConfigRecord
    from .simulate import SimConfig


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
        campaign_id, colon, group = (part.strip() for part in item.partition(":"))
        if not (campaign_id and colon and group):
            raise ConfigError(f"labels must be campaign:group pairs, got {item!r}")
        if campaign_id in labels:
            raise ConfigError(f"campaign {campaign_id!r} is labelled twice, got {item!r}")
        labels[campaign_id] = group
    if not labels:
        raise ConfigError(f"expected campaign:group pairs, got {raw!r}")
    return labels


INPUT_FORMATS = ("delimited-text", "record-lines")  # dataio.ingest's; the parser loads no dataio

# Each evaluation key's parser and the place of its value in an EvaluationConfig:
# (field,) or (section, field). The ``aa`` section is an AaSettings or, with the
# theta keys, an ExplicitThetas.
EVAL_KEYS: dict[str, tuple[Callable[[str], object], tuple[str, ...]]] = {
    "confidence_level": (_parse_float, ("confidence_level",)),
    "homogeneity_level": (_parse_float, ("homogeneity_level",)),
    "min_impressions_per_part": (_parse_int, ("qualification", "min_impressions_per_part")),
    "min_qualified_fraction": (_parse_float, ("qualification", "min_qualified_fraction")),
    "aa_repeats_k": (_parse_int, ("aa", "repeats_k")),
    "aa_seed": (_parse_int, ("aa", "seed")),
    "aa_treatment_share": (_parse_float, ("aa", "treatment_share")),
    "micro_theta": (_parse_float, ("aa", "micro_theta")),
    "macro_theta": (_parse_float, ("aa", "macro_theta")),
    "spend_fractions": (_parse_float_list, ("subgroups", "spend_fractions")),
    "subgroup_labels": (_parse_labels, ("subgroups", "labels")),
    "phases": (_parse_float_list, ("schedule", "phases")),
    "current_share": (_parse_float, ("schedule", "current_share")),
}
EVAL_KEY_PARSERS = {key: parser for key, (parser, _) in EVAL_KEYS.items()}


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


def evaluation_config_from_values(
    values: dict[str, object], sources: dict[str, str] | None = None
) -> EvaluationConfig:
    """The config of typed ``values``; ``sources`` names where each was given."""
    from .pipeline import AaSettings, EvaluationConfig, ExplicitThetas, TrafficSchedule
    from .preprocess import QualificationConfig
    from .subgroups import SubgroupSpec

    has_thetas = "micro_theta" in values or "macro_theta" in values
    has_aa = any(k in values for k in ("aa_repeats_k", "aa_seed", "aa_treatment_share"))
    if has_thetas and has_aa:
        raise ConfigError(
            "give either explicit micro_theta/macro_theta or aa_* calibration keys, not both"
        )
    if has_thetas and ("micro_theta" not in values or "macro_theta" not in values):
        raise ConfigError("explicit thresholds need both micro_theta and macro_theta")
    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {
        "qualification": {}, "aa": {}, "subgroups": {}, "schedule": {}}
    for key, value in values.items():
        *section, name = EVAL_KEYS[key][1]
        (sections[section[0]] if section else top)[name] = value
    aa = (ExplicitThetas if has_thetas else AaSettings)(**sections["aa"])
    return EvaluationConfig(
        qualification=QualificationConfig(**sections["qualification"]),
        aa=aa,
        subgroups=SubgroupSpec(**sections["subgroups"]),
        schedule=TrafficSchedule(**sections["schedule"]),
        sources=sources or None,
        **top,
    )


def _format_float(value: object) -> str:
    return repr(float(value))


# The config-file text of a value, by the parser that reads it back.
_FORMATTERS: dict[Callable[[str], object], Callable] = {
    _parse_float: _format_float,
    _parse_int: str,
    _parse_float_list: lambda values: ",".join(map(_format_float, values)),
    _parse_labels: lambda labels: ",".join(f"{c}:{g}" for c, g in labels.items()),
}


def _config_lines(config: EvaluationConfig) -> dict[str, str]:
    """``key = value`` lines of every key ``config`` holds a value for."""
    lines = {}
    for key, (parser, path) in EVAL_KEYS.items():
        value = functools.reduce(lambda obj, name: getattr(obj, name, None), path, config)
        if value is not None:
            lines[key] = f"{key} = {_FORMATTERS[parser](value)}"
    return lines


@functools.cache
def _default_lines() -> dict[str, str]:
    from .pipeline import EvaluationConfig

    return _config_lines(EvaluationConfig())


def config_record(config: EvaluationConfig, aa_share: float | None) -> ConfigRecord:
    """The effective ``config`` as config lines grouped by source: where the loader
    found the key, else ``default`` when the value equals the default, else
    ``caller``. ``aa_share`` is the share A/A calibration used; when ``config``
    sets none, it is the one observed in the data."""
    from .records import ConfigRecord

    groups: dict[str, list[str]] = {s: [] for s in ("caller", "data", "default", "file", "flag")}
    default, sources = _default_lines(), config.sources or {}
    lines = _config_lines(config)
    for key, line in lines.items():
        source = sources.get(key) or ("default" if default.get(key) == line else "caller")
        groups[source].append(line)
    if aa_share is not None and "aa_treatment_share" not in lines:
        groups["data"].append(f"aa_treatment_share = {_format_float(aa_share)}")
    return ConfigRecord(**{source: tuple(lines) for source, lines in groups.items()})


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
    """Build an EvaluationConfig from an optional file plus raw-string overrides,
    the command-line flags, which the config records as each key's source."""
    values = _load_values(path, overrides, EVAL_KEY_PARSERS, "evaluation config")
    flags = {key for key, value in (overrides or {}).items() if value is not None}
    return evaluation_config_from_values(
        values, {key: "flag" if key in flags else "file" for key in values}
    )


def load_sim_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> SimConfig:
    """Build a SimConfig from an optional file plus raw-string overrides."""
    from .simulate import SimConfig

    parsers = {
        key: {int: _parse_int, float: _parse_float}[hint]
        for key, hint in get_type_hints(SimConfig).items()
    }
    return SimConfig(**_load_values(path, overrides, parsers, "simulation config"))
