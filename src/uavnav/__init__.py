"""uavnav: toolchain for generating, validating, and evaluating aerial
vision-language navigation episodes at desk scale."""

__version__ = "0.1.0"


class UavnavError(Exception):
    """Base of every error the library raises on purpose (CLI exit code 1)."""


class ConfigError(UavnavError, ValueError):
    """Bad configuration or malformed input files (CLI exit code 2)."""
