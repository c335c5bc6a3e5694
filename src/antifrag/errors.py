"""Exception hierarchy shared across the package."""


class AntifragError(Exception):
    """Base class for all errors the command line surfaces as diagnostics."""


class IngestionError(AntifragError):
    """An input file, the config included, violates its schema or an invariant."""


class ComputeError(AntifragError):
    """A measure cannot be computed from the data at hand."""
