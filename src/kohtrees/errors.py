"""Exception types, the default tree budget and the value-class base,
shared across the package.

Most of the exceptions subclass ValueError so that callers who do not
care about the distinction can catch one thing; the runtime failures
(budgets, cross-checks) subclass RuntimeError instead.  Every module
imports this one and it imports nothing of the package, so a default or
a base defined here costs no module a query would not run otherwise.
"""

from __future__ import annotations

import operator

# the tree budget of both families' enumerators when a caller names none
DEFAULT_TREE_BUDGET = 10 ** 7


class NonExactDivisionError(ArithmeticError):
    """Polynomial division hit a non-integer step or a nonzero remainder."""


class StructureViolationError(ValueError):
    """A tree or configuration breaks one of its defining constraints."""


class PreconditionViolationError(ValueError):
    """An argument lies outside the range where the computation is valid."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


class CrossCheckFailedError(RuntimeError):
    """Two independent computation routes disagree."""


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in _fields and keeps each field, and
    anything else it stores, in a slot named after it with a leading
    underscore, which its __init__ sets directly.  Every slot reads
    through a read-only property of the plain name, so assigning or
    deleting it raises AttributeError, and no instance has a __dict__.
    Two values are equal when they have the same class and equal fields;
    they hash as the tuple of their fields and repr as Class(field=...).
    Equality and hashing read that tuple off the field slots with one
    attrgetter per class (_key), not through the properties.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        for slot in cls.__slots__:
            setattr(cls, slot[1:], property(operator.attrgetter(slot)))
        if cls._fields:
            get = operator.attrgetter(*(f"_{name}" for name in cls._fields))
            # attrgetter gives one field bare and several as a tuple
            cls._key = staticmethod(get if len(cls._fields) > 1
                                    else lambda value: (get(value),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
