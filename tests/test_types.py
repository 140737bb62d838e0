"""The settings types' one type rule (``core.check_types``): each field of
``Vocabulary``, ``SearchConfig``, ``PolicyState``, ``RunConfig``,
``ToyTransducerSpec``, ``CorpusRecord`` and ``Block`` takes only values of
its annotated type, and a wrong type raises the class's own error, naming
the field."""

from __future__ import annotations

import dataclasses
import enum
import math
import re
import typing

import pytest

from simulbeam import Block, CorpusRecord, PolicyKind, RunConfig, make_toy_model
from simulbeam.core import SearchConfig, Vocabulary
from simulbeam.harness import ConfigError, CorpusError
from simulbeam.model import InsufficientContextMode, ToyTransducerSpec
from simulbeam.search import Algorithm, PolicyState, decode_session

# Per class: the error it raises and arguments that build a valid instance.
SETTINGS = {
    Vocabulary: (ValueError, dict(size=3, eos_id=2)),
    SearchConfig: (ValueError, {}),
    PolicyState: (ValueError, dict(kind=PolicyKind.LOCAL_AGREEMENT, n=2)),
    RunConfig: (ConfigError, {}),
    ToyTransducerSpec: (ValueError, dict(mapping={0: (1,)})),
    CorpusRecord: (CorpusError, dict(id="a", source=(1,), reference=(1,), block_ms=250.0)),
    Block: (ValueError, dict(payload=(0,), duration_ms=250.0)),
}
# The one field no type rule covers: the spec takes any Mapping (a dict
# subclass too) and checks its entries.
UNCHECKED = {(ToyTransducerSpec, "mapping")}


def _kind(hint):
    """The type a field annotated ``hint`` takes, and whether ``None`` does."""
    args = typing.get_args(hint)
    if type(None) in args:
        (hint,) = [arg for arg in args if arg is not type(None)]
    return typing.get_origin(hint) or hint, type(None) in args


def _wrong(kind):
    """A value of the wrong type for ``kind`` and the kind's name in the
    message, or ``None`` for a kind no rule checks."""
    if kind is bool:
        return 1, "a bool"
    if kind is int:
        return True, "an integer"
    if kind is float:
        return "1", "a number"
    if kind is str:
        return 5, "a string"
    if kind is tuple:
        return [1], "a tuple"
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        return next(iter(kind)).value, f"a member of {kind.__name__}"
    return None


def _cases():
    cases, unchecked = [], set()
    for cls in SETTINGS:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            kind, optional = _kind(hints[field.name])
            wrong = _wrong(kind)
            if wrong is None:
                unchecked.add((cls, field.name))
                continue
            value, what = wrong
            cases.append(pytest.param(cls, field.name, value, what,
                                      id=f"{cls.__name__}-{field.name}"))
            if not optional:
                cases.append(pytest.param(cls, field.name, None, what,
                                          id=f"{cls.__name__}-{field.name}-None"))
    return cases, unchecked


CASES, FOUND_UNCHECKED = _cases()


def _build(cls, **changes):
    _, valid = SETTINGS[cls]
    return cls(**{**valid, **changes})


def test_only_the_mapping_has_no_type_rule():
    # A field of a new kind must get a rule here and in its constructor.
    assert FOUND_UNCHECKED == UNCHECKED


@pytest.mark.parametrize("cls, field, value, what", CASES)
def test_wrong_type_raises_the_class_error_naming_the_field(cls, field, value, what):
    error, _ = SETTINGS[cls]
    message = f"^{field} must be {what}, got {re.escape(repr(value))}$"
    with pytest.raises(error, match=message) as caught:
        _build(cls, **{field: value})
    assert type(caught.value) is error


@pytest.mark.parametrize("cls, field, value", [(CorpusRecord, "block_ms", 250),
                                               (Block, "duration_ms", 250),
                                               (ToyTransducerSpec, "noise_epsilon", 0)])
def test_a_number_field_takes_an_int(cls, field, value):
    assert getattr(_build(cls, **{field: value}), field) == value


class TestNamedHoles:
    """Wrong types that each constructor once accepted."""

    MAPPING = {0: (1,), 1: (2,)}

    def _probe(self, mode):
        vocab = Vocabulary(size=4, eos_id=3)
        factory = make_toy_model(ToyTransducerSpec(self.MAPPING, insufficient_context_mode=mode),
                                 vocab)
        blocks = [Block((0,), 250.0), Block((1,), 250.0, is_final=True)]
        transcript = decode_session(factory, blocks, vocab.eos_id, Algorithm.IBWBS)
        return transcript.forward_passes, [d.committed for d in transcript.decisions]

    def test_mode_string_is_not_run_as_another_fallback(self):
        # The string "repeat" matched neither REPEAT nor EOS, so it ran the
        # HALLUCINATE fallback: another configuration, with other passes and
        # other commits.
        assert self._probe(InsufficientContextMode.REPEAT) == (5, [(), (1, 2)])
        assert self._probe(InsufficientContextMode.HALLUCINATE) == (16, [(1,), (2,)])
        message = ("^insufficient_context_mode must be a member of InsufficientContextMode, "
                   "got 'repeat'$")
        with pytest.raises(ValueError, match=message):
            ToyTransducerSpec(self.MAPPING, insufficient_context_mode="repeat")

    @pytest.mark.parametrize(
        "field, value, message",
        [("block_ms", True, "block_ms must be a number, got True"),
         ("block_ms", "500", "block_ms must be a number, got '500'"),
         ("id", 5, "id must be a string, got 5"),
         ("source", [1], r"source must be a tuple, got \[1\]")],
    )
    def test_corpus_record(self, field, value, message):
        # A true block_ms decoded as a 1 ms symbol.
        with pytest.raises(CorpusError, match=f"^{message}$"):
            _build(CorpusRecord, **{field: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_corpus_record_block_ms_not_finite(self, value):
        with pytest.raises(CorpusError, match="block_ms must be positive and finite$"):
            _build(CorpusRecord, block_ms=value)

    def test_corpus_record_block_ms_past_the_float_range(self):
        # An int is a number, but this one would overflow the clock.
        with pytest.raises(CorpusError, match="block_ms must be positive and finite$"):
            _build(CorpusRecord, block_ms=10**400)

    @pytest.mark.parametrize(
        "field, value, message",
        [("history", [(1, 2)], r"history must be a tuple, got \[\(1, 2\)\]"),
         ("committed", [1], r"committed must be a tuple, got \[1\]")],
    )
    def test_policy_state(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PolicyState(PolicyKind.LOCAL_AGREEMENT, 2, **{field: value})

    @pytest.mark.parametrize("value", [False, "0.1"])
    def test_toy_epsilon(self, value):
        with pytest.raises(ValueError, match=f"^noise_epsilon must be a number, got {value!r}$"):
            ToyTransducerSpec({0: (1,)}, noise_epsilon=value)

    def test_block_is_final(self):
        # The string "no" was read as a final block.
        with pytest.raises(ValueError, match="^is_final must be a bool, got 'no'$"):
            Block((1,), 250.0, is_final="no")

    @pytest.mark.parametrize(
        "mapping, message",
        [({0: 5}, "mapping for symbol 0 must be a tuple, got 5"),
         ({0: [1]}, r"mapping for symbol 0 must be a tuple, got \[1\]"),
         ({"0": (1,)}, "mapping keys must be integer symbol ids, got '0'"),
         ({True: (1,)}, "mapping keys must be integer symbol ids, got True"),
         (5, "mapping must be a mapping, got 5"),
         ([(0, (1,))], r"mapping must be a mapping, got \[\(0, \(1,\)\)\]"),
         (None, "mapping must be a mapping, got None")],
        ids=["target-int", "target-list", "key-string", "key-bool", "int", "pairs", "none"],
    )
    def test_toy_mapping(self, mapping, message):
        # An int target raised Python's TypeError; a string key was accepted
        # and then covered no symbol; a true key served symbol 1. A mapping
        # that is not one raised Python's AttributeError.
        with pytest.raises(ValueError, match=f"^{message}$"):
            ToyTransducerSpec(mapping)
