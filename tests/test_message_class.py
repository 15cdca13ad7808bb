"""Every message class against its dataclass-built reference.

``repro.net.message.message_class`` builds the protocol messages without
the dataclass decorator; :func:`oracle.dataclass_message` rebuilds each
from the same body with it.  Signatures, field values, eq/hash/repr,
frozen assignment and deletion, ``dataclasses.replace`` and copy/pickle
round trips must all agree, for any field values.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import messages
from repro.consistency.uir_push import UIRReport
from repro.net.message import Message, message_class

from .oracle import dataclass_message

MESSAGE_CLASSES = sorted(
    {
        cls for _, cls in inspect.getmembers(messages, inspect.isclass)
        if issubclass(cls, Message) and cls is not Message
    } | {UIRReport},
    key=lambda cls: cls.__name__,
)

_VALUES = {
    int: st.integers(min_value=-(2**40), max_value=2**40),
    bool: st.booleans(),
    str: st.text(max_size=8),
}


def _draw_fields(data, cls) -> dict:
    """Keyword arguments for ``cls``: every field with a value of its default's type."""
    kwargs = {"sender": data.draw(_VALUES[int])}
    for field in dataclasses.fields(cls)[1:]:
        if field.name == "msg_id" and data.draw(st.booleans()):
            continue  # let the factory number it
        default = -1 if field.name == "msg_id" else field.default
        kwargs[field.name] = data.draw(_VALUES[type(default)])
    return kwargs


def _values(message) -> list:
    return [(field.name, getattr(message, field.name)) for field in dataclasses.fields(message)]


def _raised(action):
    try:
        action()
    except Exception as error:  # noqa: BLE001 - the type and text are compared
        return type(error), str(error)
    return None


def test_every_message_class_is_built_by_the_builder():
    assert len(MESSAGE_CLASSES) == 19
    for cls in MESSAGE_CLASSES:
        assert "__dataclass_fields__" in cls.__dict__
        assert "__dataclass_params__" in cls.__dict__
        reference = dataclass_message(cls)
        assert reference is not cls
        assert inspect.signature(cls) == inspect.signature(reference)
        assert str(inspect.signature(cls)) == str(inspect.signature(reference))
        assert cls.__slots__ == reference.__slots__
        assert cls.__match_args__ == reference.__match_args__
        assert [f.name for f in dataclasses.fields(cls)] == [
            f.name for f in dataclasses.fields(reference)
        ]
        assert (cls.__module__, cls.__qualname__) == (reference.__module__, reference.__qualname__)
        assert dataclasses.is_dataclass(cls)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MESSAGE_CLASSES), st.data())
def test_builder_matches_dataclass(cls, data):
    reference = dataclass_message(cls)
    kwargs = _draw_fields(data, cls)
    message, expected = cls(**kwargs), reference(**kwargs)
    if "msg_id" not in kwargs:
        assert expected.msg_id == message.msg_id + 1
        kwargs["msg_id"] = message.msg_id
        expected = reference(**kwargs)
    assert _values(message) == _values(expected)  # __post_init__ sized both alike
    assert repr(message) == repr(expected)
    assert hash(message) == hash(expected)
    assert not hasattr(message, "__dict__")

    twin = cls(**kwargs)
    assert message == twin and not message != twin
    assert message != expected  # another class: never equal, as dataclasses have it
    assert (message == 0) is False
    other = dataclasses.replace(message, sender=message.sender + 1)
    assert type(other) is cls and other != message
    assert _values(other) == _values(dataclasses.replace(expected, sender=expected.sender + 1))

    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
    for instance in (message, expected):
        assert _raised(lambda: setattr(instance, name, 1))[0] is dataclasses.FrozenInstanceError
        assert _raised(lambda: delattr(instance, name))[0] is dataclasses.FrozenInstanceError
    assert _raised(lambda: setattr(message, name, 1)) == _raised(lambda: setattr(expected, name, 1))
    assert _raised(lambda: delattr(message, name)) == _raised(lambda: delattr(expected, name))
    # A name that is no field: the decorator on Python 3.11 trips over its
    # own slots rebuild (TypeError from super()); the builder refuses cleanly.
    assert _raised(lambda: setattr(message, "extra", 1))[0] is dataclasses.FrozenInstanceError
    assert _raised(lambda: setattr(expected, "extra", 1)) is not None
    assert _values(message) == _values(twin)  # nothing was written

    for clone in (copy.copy(message), copy.deepcopy(message), pickle.loads(pickle.dumps(message))):
        assert type(clone) is cls and clone == message and _values(clone) == _values(message)


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
def test_positional_and_missing_arguments_fail_alike(cls):
    reference = dataclass_message(cls)
    arity = len(dataclasses.fields(cls))
    for call in (lambda c: c(), lambda c: c(*range(arity + 1)), lambda c: c(1, nope=2)):
        raised = _raised(lambda: call(cls))
        assert raised is not None and raised == _raised(lambda: call(reference))


def test_subclass_declared_the_dataclass_way():
    """``@dataclasses.dataclass(frozen=True, slots=True)`` still extends a built class."""

    @dataclasses.dataclass(frozen=True, slots=True)
    class Tagged(messages.PollAckB):
        tag: str = "t"

    reference = dataclass_message(messages.PollAckB)
    assert [f.name for f in dataclasses.fields(Tagged)] == [
        f.name for f in dataclasses.fields(reference)
    ] + ["tag"]
    message = Tagged(sender=3, item_id=4, content_size=10, tag="x")
    assert message.size_bytes == messages.CONTROL_SIZE + 10  # the base's __post_init__
    assert message.type_name == "Tagged"
    assert repr(message).endswith("content_size=10, tag='x')")
    assert message == copy.copy(message) and hash(message) == hash(copy.copy(message))
    with pytest.raises(dataclasses.FrozenInstanceError):
        message.item_id = 5
    assert not hasattr(message, "__dict__")


def test_plain_subclass_inherits_the_built_methods():
    class Plain(messages.Invalidation):
        pass

    message = Plain(sender=1, item_id=2, version=3)
    assert repr(message).startswith(f"{Plain.__qualname__}(sender=1, ")
    assert message == Plain(sender=1, msg_id=message.msg_id, item_id=2, version=3)
    message.note = "kept"  # not a field, and Plain itself is no dataclass
    with pytest.raises(dataclasses.FrozenInstanceError):
        message.version = 4


def test_builder_rejects_what_it_does_not_build():
    with pytest.raises(TypeError, match="needs a default"):
        @message_class
        class NoDefault(Message):
            item_id: int

    with pytest.raises(ValueError, match="hashable default"):
        @message_class
        class ListDefault(Message):
            items: list = []  # noqa: RUF012 - the point of the test
