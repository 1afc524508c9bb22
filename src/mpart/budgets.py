"""Resource budgets for enumeration, the table routes and literal nested
summation.

Both budgets are soft limits protecting callers from accidentally huge
computations.  They are set only through the environment variables
``MPART_ENUM_BUDGET`` (partitions materialized or walked per enumeration
call) and ``MPART_LOOP_BUDGET`` (innermost steps per literal nested
summation), for library calls and the CLI alike, and read at each call.
``MPART_ENUM_BUDGET`` also caps the ``upto`` of the table routes
``recurrence_table`` and ``count_b_gf``, checked before allocating.
"""

import os

DEFAULT_ENUM_BUDGET = 10**6
DEFAULT_LOOP_BUDGET = 10**8

ENUM_BUDGET_ENV = "MPART_ENUM_BUDGET"
LOOP_BUDGET_ENV = "MPART_LOOP_BUDGET"


class BudgetExceeded(RuntimeError):
    """A configured resource budget would be (or was) exceeded."""


class EnumerationBudgetExceeded(BudgetExceeded):
    """The enumeration would produce more partitions than the budget allows."""


class TableBudgetExceeded(BudgetExceeded):
    """A table route would hold more entries than the enumeration budget allows."""


class LoopBudgetExceeded(BudgetExceeded):
    """The literal nested summation would run more innermost steps than allowed."""


def _decimal(text: str) -> int:
    """int(text), and also a run of ASCII digits longer than the
    interpreter's int <-> str digit limit, read in chunks of 600 digits,
    below the smallest limit the interpreter accepts (640)."""
    try:
        return int(text)
    except ValueError:
        if not (text.isascii() and text.isdigit()):
            raise
    value = 0
    for start in range(0, len(text), 600):
        chunk = text[start:start + 600]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _budget(variable: str, default: int) -> int:
    """The variable's value, else the default; a value that is not a
    nonnegative integer raises ValueError naming the variable and showing
    the value, its first 40 characters and length if longer."""
    text = os.environ.get(variable)
    try:
        value = default if text is None else _decimal(text)
    except ValueError:
        value = -1
    if value < 0:
        got = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise ValueError(f"{variable} must be a nonnegative integer, got {got}")
    return value


def enum_budget() -> int:
    return _budget(ENUM_BUDGET_ENV, DEFAULT_ENUM_BUDGET)


def loop_budget() -> int:
    return _budget(LOOP_BUDGET_ENV, DEFAULT_LOOP_BUDGET)


def shown(value: int) -> str:
    """value in decimal for a refusal text, or ``<N-bit integer>`` where the
    interpreter's int -> str digit limit refuses the decimal form, so that
    the refusal of a huge n still raises its budget error."""
    try:
        return str(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"
