"""Shared configuration error type and checks.

Raised for invalid settings wherever they are detected; the CLI maps it to
exit code 2.
"""

import math
from dataclasses import fields


class ConfigError(Exception):
    """A configuration value is missing, unknown, or inconsistent."""


def check_finite(settings):
    """Raise ConfigError naming the first field of a config dataclass that
    holds a NaN or an infinity: range checks such as ``x <= 0`` let a NaN
    through."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
