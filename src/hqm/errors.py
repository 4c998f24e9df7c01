"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """Two grid functions (or an operator and a function) live on different grids."""


class RankDeficiencyError(ValueError):
    """A function set is linearly dependent; `index` names the offending element."""

    def __init__(self, index: int, residual: float):
        self.index = index
        self.residual = residual
        super().__init__(
            f"element {index} is linearly dependent on its predecessors "
            f"(relative residual {residual:.3e})"
        )


class ConditioningError(RuntimeError):
    """A Gram system is singular or too ill-conditioned to solve reliably."""

    def __init__(self, condition: float, cap: float):
        self.condition = condition
        self.cap = cap
        super().__init__(
            f"Gram matrix condition estimate {condition:.3e} exceeds cap {cap:.3e}"
        )


class BasisValidationError(ValueError):
    """A basis failed an orthonormality check requested by the caller."""


class NotSelfAdjointError(ValueError):
    """Operator fails the self-adjointness contract; carries the asymmetry norm."""

    def __init__(self, asymmetry: float, tol: float):
        self.asymmetry = asymmetry
        self.tol = tol
        if asymmetry != asymmetry:
            reason = f"relative asymmetry is NaN (non-finite entries), tolerance {tol:.3e}"
        else:
            reason = f"relative asymmetry {asymmetry:.3e} exceeds tolerance {tol:.3e}"
        super().__init__(f"operator is not self-adjoint: {reason}")


class InstabilityError(RuntimeError):
    """Time integration produced non-finite or exploding values."""

    def __init__(self, message: str, suggested_dt: float):
        self.suggested_dt = suggested_dt
        super().__init__(f"{message}; try dt <= {suggested_dt:.3e}")


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value, missing file)."""
