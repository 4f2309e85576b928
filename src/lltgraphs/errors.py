"""Exception types shared across the package.

Two families matter to callers: ParseError (bad textual input, CLI exit
code 2) and PreconditionError (a well-formed request whose mathematical
preconditions fail, CLI exit code 3). Every concrete error below but
the internal fault WitnessReplayFailed picks one of the two as its base
so the CLI can map exceptions to exit codes without a lookup table.
"""

from __future__ import annotations


class LltgraphsError(Exception):
    """Base class for all library errors."""


class ParseError(LltgraphsError, ValueError):
    """A literal (strip, composition, polynomial, JSON) failed to parse."""


class PreconditionError(LltgraphsError):
    """An operation's precondition does not hold for the given input."""


# --- exact arithmetic / basis conversion ---

class NotSymmetric(PreconditionError):
    """chrom_quasisym got a labelling that is not a natural unit interval
    order, so its colouring sum need not be symmetric; raised only there."""


class InsufficientVariables(PreconditionError):
    """Too few variables to certify the requested basis expansion."""


class MismatchedVariableCount(PreconditionError):
    """Arithmetic between symmetric polynomials in different variable counts."""


# --- strips ---

class NonCommutingSwap(PreconditionError):
    """commute_swap was asked to exchange a noncommuting adjacent pair."""


class PreconditionViolated(PreconditionError):
    """Generic named precondition failure (deletion-contraction and friends)."""


class IndexOutOfRange(PreconditionError):
    """A 1-based row or vertex index does not exist."""


# --- tableaux / unicellular ---

class NotUnicellular(PreconditionError):
    """An operation restricted to single-cell rows got a wider strip."""


# --- weighted graphs ---

class NotRealizable(PreconditionError):
    """No horizontal strip has a graph isomorphic to the given one."""


class GraphsNotIsomorphic(PreconditionError):
    """A witness search requires isomorphic interval graphs to start from."""


class WitnessReplayFailed(LltgraphsError):
    """Replaying a found move chain missed the target; signals an internal fault."""


# --- structural predicates ---

class HypothesisViolated(PreconditionError):
    """A local-rotation hypothesis condition fails; records which and where."""

    def __init__(self, condition: int, row: int):
        self.condition = condition
        self.row = row
        super().__init__(f"hypothesis condition {condition} fails at row {row}")


class BlockNotSeparable(PreconditionError):
    """The commuting pre-sort could not make the rotation block contiguous."""
