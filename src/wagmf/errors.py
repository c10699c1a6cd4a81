"""Exception types shared across the package."""


class WagmfError(Exception):
    """Base class for every error raised by this package."""


class DimMismatch(WagmfError):
    """Operands have different dimensions."""


class ShapeMismatch(WagmfError):
    """Array shapes are inconsistent with the declared layout."""


class NonFiniteInput(WagmfError):
    """An input contained NaN or Inf."""


class NonFiniteGradient(WagmfError):
    """A gradient fed to an optimizer step contained NaN or Inf."""


class UnknownPreset(WagmfError):
    """The requested optimizer preset name is not registered."""


class InvalidOverride(WagmfError):
    """An override key or value is not valid for the preset."""


class ParseError(WagmfError):
    """A data file could not be parsed."""


class LabelOutOfRange(WagmfError):
    """A class label falls outside the valid range [0, K)."""


class MagicMismatch(WagmfError):
    """An IDX file carries an unexpected magic number."""


class MissingBranchRecord(WagmfError):
    """Regret for a stochastic problem needs the recorded per-round realization."""


class UnboundedSet(WagmfError):
    """The operation requires a feasible set with finite diameter."""


class LambdaOne(WagmfError):
    """The closed-form regret bound diverges at momentum decay lambda = 1."""


class DomainViolation(WagmfError):
    """A numeric input falls outside the stated domain."""


class InsufficientSeeds(WagmfError):
    """Significance testing needs at least two seeds per optimizer."""


class ConfigError(WagmfError):
    """The experiment configuration is invalid."""


class NonFinitePreconditioner(WagmfError):
    """The preconditioner V_t overflowed to Inf or NaN during a run."""
