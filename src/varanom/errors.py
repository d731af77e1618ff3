"""Exception types shared across the package, and the enumerated-option rule."""


class ParameterError(ValueError):
    """Invalid model or configuration parameters.

    Raised for rejected process parameters (non-stationary coefficients,
    covariance not positive definite), infeasible interval constructions
    and out-of-range tuning values.
    """


class DesignError(ValueError):
    """A regression problem is ill-posed for the requested operation.

    Covers rank-deficient or underdetermined least-squares designs,
    intervals without enough lagged observations and training slices
    that are too short.
    """


class PanelFormatError(ValueError):
    """An input file could not be parsed into a numeric T x p panel."""


class NumericalError(RuntimeError):
    """A pipeline stage failed numerically (for example, an estimated law
    too unstable to simulate from)."""


def check_choice(value, name: str, choices: tuple) -> None:
    """Reject a value of the enumerated option ``name`` outside ``choices``."""
    if value not in choices:
        raise ParameterError(f"unknown {name} {value!r}")
