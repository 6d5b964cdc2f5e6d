"""The evaluation config: its six types, its keys, its file syntax and its audit lines.

An ``EvaluationConfig`` holds a ``QualificationConfig``, an ``AaSettings`` or
``ExplicitThetas``, a ``SubgroupSpec`` and a ``TrafficSchedule``, and each
checks itself however it is built, so a config loads without the analysis.

Config files hold one ``key = value`` pair per line (``#`` comments allowed).
Every evaluation key has a CLI flag of the same name, and flags override file
values. Baseline thresholds come either from A/A calibration (``aa_*`` keys)
or from explicit ``micro_theta``/``macro_theta`` values, never both. Subgroups
are spend tiers (``spend_fractions``) unless ``subgroup_labels`` gives each
campaign a group; the labels alone choose that partition. ``SubgroupSpec``
takes a label pair only when its config line reads back as that pair through
``parse_kv_text`` and the label parser, so an audit line replays its map.

``EVAL_KEYS`` places each key in an ``EvaluationConfig``; the loader builds
the config through it and ``config_record`` reads it back as config lines,
each with the source of its value, for a report's audit block.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, get_type_hints

from .errors import ConfigError
from .records import ConfigRecord, checked

if TYPE_CHECKING:
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


# dataio.ingest's, the first its default; here, so the parser loads no dataio
INPUT_FORMATS = ("delimited-text", "record-lines")

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


def _format_float(value: object) -> str:
    return repr(float(value))


def _format_labels(labels: dict[str, str]) -> str:
    return ",".join(f"{c}:{g}" for c, g in labels.items())


# The config-file text of a value, by the parser that reads it back.
_FORMATTERS: dict[Callable[[str], object], Callable] = {
    _parse_float: _format_float,
    _parse_int: str,
    _parse_float_list: lambda values: ",".join(map(_format_float, values)),
    _parse_labels: _format_labels,
}


@checked
class QualificationConfig(NamedTuple):
    min_impressions_per_part: int = 100
    min_qualified_fraction: float = 0.9

    def _check(self):
        if not isinstance(self.min_impressions_per_part, int) or self.min_impressions_per_part < 1:
            raise ConfigError(
                f"min_impressions_per_part must be an integer >= 1, "
                f"got {self.min_impressions_per_part!r}"
            )
        if not 0.0 < self.min_qualified_fraction <= 1.0:
            raise ConfigError(
                f"min_qualified_fraction must be in (0, 1], got {self.min_qualified_fraction!r}"
            )


@checked
class AaSettings(NamedTuple):
    """A/A calibration parameters; ``treatment_share`` overrides the share
    observed in the data (see ``baselines.aa_calibrate``)."""

    repeats_k: int = 5
    seed: int = 0
    treatment_share: float | None = None

    def _check(self):
        if not isinstance(self.repeats_k, int) or self.repeats_k < 1:
            raise ConfigError(f"repeats_k must be an integer >= 1, got {self.repeats_k!r}")
        if self.treatment_share is not None and not 0.0 < self.treatment_share < 1.0:
            raise ConfigError(
                f"treatment_share must be in (0, 1), got {self.treatment_share!r}"
            )


@checked
class ExplicitThetas(NamedTuple):
    """Pre-computed baseline thresholds, bypassing A/A calibration; each finite,
    so the report stays JSON."""

    micro_theta: float
    macro_theta: float

    def _check(self):
        for name, theta in zip(self._fields, self):
            if not math.isfinite(theta):
                raise ConfigError(f"{name} must be finite, got {theta!r}")


@checked
class SubgroupSpec(NamedTuple):
    """How to partition campaigns: by ``labels``, a campaign-to-group map, when
    it is set, else by cumulative-spend tiers of ``spend_fractions``. The
    fractions are checked either way, and each label pair must read back from
    its own config line as that pair, so the audit line replays the map."""

    spend_fractions: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)
    labels: dict[str, str] | None = None

    def _check(self):
        fractions = self.spend_fractions
        if type(fractions) is not tuple:
            return self._replace(spend_fractions=tuple(fractions))
        if not fractions or any(not f > 0 for f in fractions):
            raise ConfigError("spend fractions must be positive")
        if abs(math.fsum(fractions) - 1.0) > 1e-12:
            raise ConfigError(f"spend fractions must sum to 1, got {math.fsum(fractions)!r}")
        if self.labels is not None and not self.labels:
            raise ConfigError("a labels map must label at least one campaign")
        for pair in (self.labels or {}).items():
            label = _format_labels(dict([pair]))
            line = f"subgroup_labels = {label}"
            try:
                replay = _parse_labels(parse_kv_text(line)["subgroup_labels"])
            except ConfigError:
                replay = None
            if replay != dict([pair]):
                raise ConfigError(
                    "subgroup labels cannot hold '#', ',' or a line break, a ':' in a "
                    "campaign id, an empty campaign or group, or spaces around one, "
                    f"got {label!r}")


@checked
class TrafficSchedule(NamedTuple):
    """Ramp phases for the treatment share, strictly increasing in (0, 0.5],
    and the current share, which must be one of them."""

    phases: tuple[float, ...] = (0.01, 0.10, 0.20, 0.50)
    current_share: float = 0.01

    def _check(self):
        if type(self.phases) is not tuple:
            return self._replace(phases=tuple(self.phases))
        if not self.phases:
            raise ConfigError("phases must be non-empty")
        previous = 0.0
        for share in self.phases:
            if not previous < share <= 0.5:
                raise ConfigError(
                    f"phases must be strictly increasing within (0, 0.5], got {self.phases!r}"
                )
            previous = share
        if self.phase_index() is None:
            raise ConfigError(
                f"current_share {self.current_share!r} is not one of the "
                f"schedule phases {self.phases!r}"
            )

    def phase_index(self) -> int | None:
        """The index of ``current_share`` in ``phases``; None when it is none of them."""
        return next((i for i, phase in enumerate(self.phases)
                     if math.isclose(phase, self.current_share, rel_tol=0.0, abs_tol=1e-12)),
                    None)


@checked
class EvaluationConfig(NamedTuple):
    confidence_level: float = 0.95
    homogeneity_level: float = 0.10
    qualification: QualificationConfig = QualificationConfig()
    aa: AaSettings | ExplicitThetas = AaSettings()
    subgroups: SubgroupSpec = SubgroupSpec()
    schedule: TrafficSchedule = TrafficSchedule()
    # Where the loader found each key ("file" or "flag"); compared, as the audit shows it.
    sources: dict[str, str] | None = None

    def _check(self):
        for name in ("confidence_level", "homogeneity_level"):
            level = getattr(self, name)
            if not 0.0 < level < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {level!r}")


def _config_lines(config: EvaluationConfig) -> dict[str, str]:
    """``key = value`` lines of every key ``config`` holds a value for."""
    lines = {}
    for key, (parser, path) in EVAL_KEYS.items():
        value = functools.reduce(lambda obj, name: getattr(obj, name, None), path, config)
        if value is not None:
            lines[key] = f"{key} = {_FORMATTERS[parser](value)}"
    return lines


_DEFAULT_LINES = _config_lines(EvaluationConfig())


def config_record(config: EvaluationConfig, aa_share: float | None) -> ConfigRecord:
    """The effective ``config`` as config lines grouped by source: where the loader
    found the key, else ``default`` when the value equals the default, else
    ``caller``. ``aa_share`` is the share A/A calibration used; when ``config``
    sets none, it is the one observed in the data."""
    groups: dict[str, list[str]] = {s: [] for s in ("caller", "data", "default", "file", "flag")}
    sources = config.sources or {}
    lines = _config_lines(config)
    for key, line in lines.items():
        source = sources.get(key) or ("default" if _DEFAULT_LINES.get(key) == line else "caller")
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
    flags = {key for key, value in (overrides or {}).items() if value is not None}
    return EvaluationConfig(
        qualification=QualificationConfig(**sections["qualification"]),
        aa=(ExplicitThetas if has_thetas else AaSettings)(**sections["aa"]),
        subgroups=SubgroupSpec(**sections["subgroups"]),
        schedule=TrafficSchedule(**sections["schedule"]),
        sources={key: "flag" if key in flags else "file" for key in values} or None,
        **top,
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
