"""Base of the package's immutable value classes."""


class Frozen:
    """Refuses assignment and deletion of attributes.

    Subclasses write a slot once, through its descriptor's ``__set__`` bound
    by name beside the class, and a ``FrozenRecord`` field straight into the
    instance ``__dict__``, in about half the time ``object.__setattr__`` takes.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # the instance dict, or a pair (instance dict or None, slot values)
        for fields in state if type(state) is tuple else (state,):
            for name, value in (fields or {}).items():
                object.__setattr__(self, name, value)


class FrozenRecord(Frozen):
    """Equality, hash and repr over the fields named in ``__match_args__``,
    as a frozen dataclass has them."""

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"
