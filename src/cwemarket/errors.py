"""Exception types shared across the package.

Each type carries the process exit code the CLI returns for it, so
solver and oracle code should raise the most specific type that
applies.
"""


class MarketError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InputError(MarketError):
    """Malformed or out-of-contract input (bad file, bad parameter)."""

    exit_code = 2


class ResourceLimitError(MarketError):
    """An exhaustive routine was asked to exceed its configured cap."""

    exit_code = 3


class SolverInvariantError(MarketError):
    """Internal solver invariant broke; indicates a bug, not bad input."""

    exit_code = 4


class SolverDeadlockError(SolverInvariantError):
    """The ascending-auction conflict loop reached a fully tied state it
    cannot break: every utility-maximizing bundle set of the active agent
    is held by another agent and every such conflict is an exact tie in
    both directions.  Termination is not possible without a price move,
    so we stop loudly instead of cycling.
    """
