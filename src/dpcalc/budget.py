"""The one budget on exhaustive enumerations.

Oracle residue boxes and F_q point counts are both checked against the
same limit: an explicit `budget` argument when given, else the integer in
the environment variable named by ENV, else DEFAULT.  The nominal size
of an enumeration is a power base^exponent; it is compared with the limit
without building a power much larger than the limit.

A ring index, the length of a coefficient list the exact ring would build,
is held to DEFAULT by `check_index` whatever the budget says: the ring's
work is linear in it and enumerates nothing.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded, InvalidArgument

DEFAULT = 10 ** 8
ENV = "DPCALC_BOX_BUDGET"


def resolve(budget):
    """The limit in force: budget, else the ENV variable, else DEFAULT.
    A variable that is set but is not an integer raises InvalidArgument."""
    if budget is not None:
        return int(budget)
    configured = os.environ.get(ENV)
    if not configured:
        return DEFAULT
    try:
        return int(configured)
    except ValueError:
        raise InvalidArgument("%s must be an integer, got %r"
                              % (ENV, configured)) from None


def check(base, exponent, budget, what):
    """Raise BudgetExceeded("<what> exceed the budget of <limit>") when
    base**exponent, for base >= 2 and exponent >= 0, is above the limit
    that `resolve(budget)` gives."""
    limit = resolve(budget)
    if (base.bit_length() - 1) * exponent >= limit.bit_length() \
            or base ** exponent > limit:
        raise BudgetExceeded("%s exceed the budget of %d" % (what, limit))


def check_index(index, what):
    """Raise BudgetExceeded("<what> exceeds the budget of <DEFAULT>") when
    the ring index is past DEFAULT."""
    if index > DEFAULT:
        raise BudgetExceeded("%s exceeds the budget of %d" % (what, DEFAULT))
