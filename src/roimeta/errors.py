"""Exception types shared across the package."""


class RoimetaError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(RoimetaError):
    """Input violates a declared schema (missing label, bad report document, ...)."""


class UndefinedRoiError(RoimetaError):
    """ROI was requested where spend is zero or negative."""


class InsufficientDataError(RoimetaError):
    """Too few measurements to compute the requested statistic."""


class DegenerateEffectError(RoimetaError):
    """Pooled spread is zero while the arm means differ; no finite effect size."""


class ConfigError(RoimetaError):
    """Invalid configuration value or combination."""


class IngestError(RoimetaError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NoQualifiedCampaignsError(RoimetaError):
    """Qualification or effect-size screening left nothing to analyze."""
