"""Base message type for everything sent over the simulated network.

Concrete protocol messages (the paper's Fig 6(a) set, queries, data
transfers) subclass :class:`Message` through :func:`message_class`, adding
their own fields.  Every message carries a size in bytes so that link
transmission delay and byte-level traffic accounting work uniformly.
"""

from __future__ import annotations

import dataclasses
import itertools
from operator import attrgetter
from types import CodeType, FunctionType
from typing import Any, ClassVar, Dict, Tuple

__all__ = ["Message", "message_class", "next_message_id"]

_MESSAGE_IDS = itertools.count(1)


def next_message_id() -> int:
    """Return a process-wide unique message identifier."""
    return next(_MESSAGE_IDS)


@dataclasses.dataclass(frozen=True, slots=True)
class Message:
    """Immutable network message.

    Attributes
    ----------
    sender:
        Node identifier of the originator.
    size_bytes:
        Serialized size used for transmission delay and traffic accounting.
        Subclasses override :attr:`DEFAULT_SIZE` to set their typical size.
    msg_id:
        Unique identifier, assigned automatically.
    """

    DEFAULT_SIZE: ClassVar[int] = 64

    #: Set by invalidation-report subclasses; lets the network layer emit
    #: delivery trace events without importing the consistency package.
    is_invalidation: ClassVar[bool] = False

    sender: int
    size_bytes: int = -1  # placeholder replaced in __post_init__
    msg_id: int = dataclasses.field(default_factory=next_message_id)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            object.__setattr__(self, "size_bytes", self.DEFAULT_SIZE)

    @property
    def type_name(self) -> str:
        """Short name used as the traffic-accounting key."""
        return type(self).__name__


# ----------------------------------------------------------------------
# The message class builder
# ----------------------------------------------------------------------
# What ``dataclasses.dataclass(frozen=True, slots=True)`` makes of a
# ``Message`` subclass, without its per-class cost: it compiles six methods
# and builds every class twice, about 1 ms a class at import.  Here eq,
# hash, repr and the frozen setattr/delattr are shared functions reading
# the class's field getter, and ``__init__`` is compiled once per tuple of
# field names and bound to each class with its own defaults.  The class
# keeps real ``dataclasses.Field`` records, so ``dataclasses.fields`` /
# ``replace`` / ``asdict`` work on it and a subclass may still be declared
# with the dataclass decorator.  Pickling and copying go through the
# ``__getstate__``/``__setstate__`` the decorator gave ``Message``.

#: What a default-factory parameter shows in a signature (``<factory>``):
#: the sentinel ``dataclasses`` itself uses, so signatures compare equal.
_FACTORY = dataclasses._HAS_DEFAULT_FACTORY  # type: ignore[attr-defined]
#: ``__init__`` code objects by field names and default-factory names.
_INIT_CODE: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], CodeType] = {}


def _init_code(names: Tuple[str, ...], factories: Tuple[str, ...]) -> CodeType:
    """The code of ``__init__(self, *names)``, compiled on the first class with these fields."""
    key = (names, factories)
    code = _INIT_CODE.get(key)
    if code is None:
        lines = [f"def __init__(self, {', '.join(names)}):"]
        for name in names:
            value = f"_factory_{name}() if {name} is _FACTORY else {name}" if name in factories else name
            lines.append(f"    _set(self, {name!r}, {value})")
        lines.append("    self.__post_init__()")
        namespace: Dict[str, Any] = {}
        exec("\n".join(lines), namespace)
        code = _INIT_CODE[key] = namespace["__init__"].__code__
    return code


def _eq(self: Any, other: Any) -> Any:
    if other.__class__ is self.__class__:
        values = self.__class__._field_values
        return values(self) == values(other)
    return NotImplemented


def _hash(self: Any) -> int:
    return hash(self.__class__._field_values(self))


def _repr(self: Any) -> str:
    cls = self.__class__
    pairs = zip(cls.__match_args__, cls._field_values(self))
    return f"{cls.__qualname__}({', '.join(f'{name}={value!r}' for name, value in pairs)})"


def _frozen(cls: type, name: str) -> bool:
    """Whether ``dataclasses`` would refuse the write: a field, or any name on the class itself."""
    return name in cls.__dataclass_fields__ or "__dataclass_fields__" in cls.__dict__


def _setattr(self: Any, name: str, value: Any) -> None:
    if _frozen(self.__class__, name):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
    object.__setattr__(self, name, value)


def _delattr(self: Any, name: str) -> None:
    if _frozen(self.__class__, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
    object.__delattr__(self, name)


def _is_classvar(annotation: Any) -> bool:
    if isinstance(annotation, str):
        return annotation.partition("[")[0].strip() in ("ClassVar", "typing.ClassVar")
    return annotation is ClassVar or getattr(annotation, "__origin__", None) is ClassVar


def message_class(cls: type) -> type:
    """Make the :class:`Message` subclass ``cls`` frozen and slotted, with its fields.

    Behaves as ``@dataclasses.dataclass(frozen=True, slots=True)`` does for
    a class whose every new field has a plain, hashable default: the same
    ``__init__`` signature (``__post_init__`` runs last), eq, hash and
    repr, ``FrozenInstanceError`` on assignment and deletion, and the same
    ``__slots__``, ``__match_args__`` and ``__dataclass_fields__``.
    """
    # The bases' fields in order (``__dataclass_fields__`` also lists class variables).
    fields = {field.name: field for field in dataclasses.fields(cls)}
    namespace = dict(cls.__dict__)
    own = []
    for name, annotation in namespace.get("__annotations__", {}).items():
        if _is_classvar(annotation):
            continue
        if name not in namespace:
            raise TypeError(f"{cls.__name__}.{name} needs a default: Message.size_bytes has one")
        default = namespace.pop(name)
        if isinstance(default, dataclasses.Field) or type(default).__hash__ is None:
            raise ValueError(f"{cls.__name__}.{name} needs a plain, hashable default")
        field = dataclasses.field(default=default)
        field.name, field.type, field.kw_only = name, annotation, False
        field._field_type = dataclasses._FIELD  # type: ignore[attr-defined]
        fields[name] = field
        own.append(name)
    names = tuple(fields)
    factories = tuple(n for n, f in fields.items() if f.default_factory is not dataclasses.MISSING)
    init_globals = {"_set": object.__setattr__, "_FACTORY": _FACTORY, "__name__": cls.__module__}
    init_globals.update((f"_factory_{n}", fields[n].default_factory) for n in factories)
    defaults = tuple(
        _FACTORY if n in factories else fields[n].default
        for n in names if n in factories or fields[n].default is not dataclasses.MISSING
    )
    init = FunctionType(_init_code(names, factories), init_globals, "__init__", defaults)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{n: f.type for n, f in fields.items()}, "return": None}
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    namespace.update(
        __slots__=tuple(own),
        __init__=init,
        __eq__=_eq,
        __hash__=_hash,
        __repr__=_repr,
        __setattr__=_setattr,
        __delattr__=_delattr,
        __match_args__=names,
        __dataclass_fields__=fields,
        __dataclass_params__=cls.__dataclass_params__,
        _field_values=attrgetter(*names),
    )
    built = type(cls)(cls.__name__, cls.__bases__, namespace)
    built.__qualname__ = cls.__qualname__
    return built
