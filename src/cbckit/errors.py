"""Exception types shared across the toolkit, one class per kind of failure.

Also the one helper, ``count_text``, that writes a count into a message.
"""

from __future__ import annotations

# str() refuses ints past 4,300 digits; 14,000 bits make about 4,214.
MAX_PRINTED_BITS = 14000


def count_text(count: int) -> str:
    """``count`` in decimal, or "at least 2^e" past ``MAX_PRINTED_BITS`` bits: for messages."""
    width = count.bit_length()
    return str(count) if width <= MAX_PRINTED_BITS else f"at least 2^{width - 1}"


class CbcError(Exception):
    """Base class for every toolkit-specific error."""


class ParamError(CbcError, ValueError):
    """A parameter is outside the domain an operation is defined on."""


class RangeError(CbcError, ValueError):
    """Parameters are well-formed but outside a construction's covered range."""


class FormatError(CbcError, ValueError):
    """Serialized input does not follow the text format."""


class NoPlan(CbcError):
    """A batch cannot be served one read per server.

    Carries the deficiency witness: item indices whose combined replica
    sets cover fewer servers than there are items.  The message is the
    witness's own text.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(str(witness))


class Unsupported(CbcError):
    """No implemented construction covers the requested parameters.

    Carries the bounds verdict (a ``bounds.BoundResult``) for them, which
    brackets N with no builder to realise its upper end.
    """

    def __init__(self, message: str, verdict):
        self.verdict = verdict
        super().__init__(message)


class BudgetExceeded(CbcError):
    """Exhaustive search hit its node budget: the nodes spent, the best upper bound."""

    def __init__(self, nodes_explored: int, best_upper: int | None = None):
        self.nodes_explored = nodes_explored
        self.best_upper = best_upper
        msg = f"search budget exhausted after {nodes_explored} nodes"
        if best_upper is not None:
            msg += f" (best constructive upper bound {count_text(best_upper)})"
        super().__init__(msg)
