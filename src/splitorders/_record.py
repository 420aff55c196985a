"""Base of the package's small immutable value classes."""


class FrozenRecord:
    """Equality, hash and repr over the fields named in ``__match_args__``,
    with assignment and deletion refused, as a frozen dataclass has them.

    Subclasses store their fields in ``__init__`` straight into the
    instance ``__dict__``, past ``__setattr__``; that builds a record in
    about half the time ``object.__setattr__`` per field takes.
    ``pickle`` and ``copy`` restore instances the same way.
    """

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
