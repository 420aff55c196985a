"""Base of the package's immutable value classes; their equality and hash are decided here."""


class Frozen:
    """Refuses assignment and deletion of attributes; equal and hashed by ``_key``.

    Two values are equal when they are of the same class and their ``_key()``
    values are equal, and a value hashes as its key; a class that must stay
    unhashable sets ``__hash__ = None``.  Subclasses write a slot once,
    through its descriptor's ``__set__`` bound by name beside the class, in
    about half the time ``object.__setattr__`` takes, and a ``FrozenRecord``
    its fields through ``_set``.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

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
    as a frozen dataclass has them; ``_set`` is the only writer of the fields."""

    __match_args__: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Write the fields, in ``__match_args__`` order, into the instance dict."""
        fields = self.__dict__
        for name, value in zip(self.__match_args__, values):
            fields[name] = value

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"
