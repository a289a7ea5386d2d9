"""Exception hierarchy.

Every validation error carries enough context to locate the offending
cells; checkers never raise on a *negative verdict* (they return it),
only on malformed input or exhausted budgets.
"""


class DblnerveError(Exception):
    pass


class ValidationError(DblnerveError):
    """Input tables violate an axiom or reference unknown cells."""


class DanglingReference(ValidationError):
    pass


class MissingComposite(ValidationError):
    pass


class BadIdentity(ValidationError):
    pass


class NonAssociative(ValidationError):
    pass


class InterchangeFailure(ValidationError):
    pass


class BoundaryMismatch(ValidationError):
    """A pasting expression node received cells with incompatible boundaries."""


class NotAnEquivalence(DblnerveError):
    pass


class NotWhi(DblnerveError):
    pass


class NotAdjoint(DblnerveError):
    pass


class RangeExceeded(DblnerveError):
    """Requested shape lies outside the supported parameter grid."""


class BudgetExceeded(DblnerveError):
    """An enumeration exceeded the configured candidate budget: ``budget``,
    the ``generator`` (search variable) it was trying, at ``depth`` (1 for
    the first) of ``search_depth``, with ``found`` solutions found."""

    def __init__(self, budget, generator, depth, search_depth, found):
        super().__init__(f"search exceeded budget {budget} trying {generator!r} at depth "
                         f"{depth} of {search_depth}, {found} solutions found")
        self.budget, self.generator, self.found = budget, generator, found
        self.depth, self.search_depth = depth, search_depth


class DisagreementBug(DblnerveError):
    """Two internally equivalent checks disagreed; indicates a code fault."""


class SchemaError(DblnerveError):
    """Interchange document is structurally malformed."""


class UsageError(DblnerveError):
    pass


def named(table, name, what):
    """``table[name]``; DanglingReference, naming ``name`` as an unknown
    ``what``, for a name it lacks."""
    try:
        return table[name]
    except KeyError:
        raise DanglingReference(f"unknown {what} {name!r}, not one of {sorted(table)}") from None


def monotone(alpha, size, onto, where=""):
    """``alpha`` as a tuple, if it is a weakly monotone map from [size] to
    [onto] given by its values; RangeExceeded, naming ``where``, otherwise."""
    alpha = tuple(alpha)
    if (len(alpha) != size + 1 or not all(isinstance(a, int) and 0 <= a <= onto for a in alpha)
            or list(alpha) != sorted(alpha)):
        raise RangeExceeded(f"{list(alpha)} is not a weakly monotone map from [{size}] to "
                            f"[{onto}]{where}")
    return alpha
