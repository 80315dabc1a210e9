"""Exception types shared across the package."""


class BudgetError(RuntimeError):
    """A requested computation exceeds the configured resource budget."""


class BranchPointCondition(ArithmeticError):
    """The Renyi power sum vanished: the requested complex order sits on a
    branch point of the entropy, where the entropy itself is undefined."""


class DegenerateSpectrumError(ValueError):
    """Branch points requested for a spectrum whose two weights coincide to
    working precision; the defining ratio is numerically meaningless."""


class ConvergenceError(RuntimeError):
    """The iterative eigensolver failed to reach its target within the
    configured sweep limit."""


class InvariantError(ValueError):
    """An internal invariant failed on a computed object (a state's norm, a
    density matrix's Hermiticity or trace, the sign or sum of its spectrum):
    the computation is broken, not the request.  Subclasses ValueError so
    library callers that catch ValueError keep working; the CLI maps it to
    its own exit code."""
