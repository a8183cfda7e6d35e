"""Exception types shared across the package."""


class TrajlabError(Exception):
    """Base class for all errors raised by this package."""


class NoTrialsError(TrajlabError):
    """An outcome row held no trial."""


class EmptyEnsembleError(TrajlabError):
    """Every trajectory in the ensemble was excluded by the trial-count floor."""


class IntegrationError(TrajlabError):
    """A numerical integration failed to reach the requested accuracy or region."""


class NoSolutionError(TrajlabError):
    """A stationarity solve exhausted all starts without converging."""


class UnconditionedSettingError(TrajlabError):
    """Conditioning on a setting pair that carries zero measure."""


class UnsupportedInputError(TrajlabError):
    """The input is structurally outside what the operation supports."""


class SchemaError(TrajlabError):
    """A scenario config violated its schema.

    Carries the offending key path and, when the config came from a file,
    the line number of the offending node.
    """

    def __init__(self, message, key_path=None, line=None):
        self.key_path = key_path
        self.line = line
        loc = ""
        if key_path:
            loc = f" at key '{key_path}'"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
