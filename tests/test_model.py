"""Toy-model session behavior and the session interface contract."""

from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import pytest

from simulbeam import Block, ContextMode, load_model_file, make_toy_model
from simulbeam.model import InsufficientContextMode, ToyTransducerSpec, spec_from_json
from simulbeam.search import decode_session

from conftest import as_blocks, make_vocab, random_toy, spec_to_json


def greedy_rollout(session, steps: int) -> list[int]:
    prefix: list[int] = []
    for _ in range(steps):
        prefix.append(int(np.argmax(session.next_token_logprobs(prefix))))
    return prefix


class TestToyScoring:
    def test_repeat_mode_argmax_repeats_beyond_context(self, repeat_toy):
        _, _, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=False))
        assert greedy_rollout(session, 3) == [0, 1, 1]

    def test_eos_after_reference_exhausted_on_final_block(self, repeat_toy):
        _, vocab, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=True))
        logprobs = session.next_token_logprobs((0, 1))
        assert int(np.argmax(logprobs)) == vocab.eos_id
        assert logprobs[vocab.eos_id] == pytest.approx(0.0)

    def test_deterministic_mapping_gives_logprob_zero(self, repeat_toy):
        _, _, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=False))
        logprobs = session.next_token_logprobs((0,))
        assert logprobs[1] == pytest.approx(0.0)
        others = [lp for tok, lp in enumerate(logprobs) if tok != 1]
        assert all(lp == -np.inf for lp in others)

    def test_epsilon_spreads_uniformly(self):
        vocab = make_vocab(4)
        spec = ToyTransducerSpec(mapping={0: (1,)}, noise_epsilon=0.2)
        session = make_toy_model(spec, vocab)()
        session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        probs = np.exp(session.next_token_logprobs(()))
        assert probs[1] == pytest.approx(0.8)
        for token in (0, 2, 3, 4):
            assert probs[token] == pytest.approx(0.2 / 4)

    def test_lookahead_delays_confidence(self):
        vocab = make_vocab(4)
        spec = ToyTransducerSpec(
            mapping={0: (1,), 1: (2,)},
            insufficient_context_mode=InsufficientContextMode.EOS,
            lookahead=1,
        )
        session = make_toy_model(spec, vocab)()
        session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        # Position 0 is aligned to symbol 1 and needs one more symbol of context.
        assert int(np.argmax(session.next_token_logprobs(()))) == vocab.eos_id
        session.ingest_block(Block(payload=(1,), duration_ms=100.0, is_final=False))
        assert int(np.argmax(session.next_token_logprobs(()))) == 1

    def test_hallucinate_mode_spreads_over_non_eos(self):
        vocab = make_vocab(3)
        spec = ToyTransducerSpec(
            mapping={0: (1,)},
            noise_epsilon=0.1,
            insufficient_context_mode=InsufficientContextMode.HALLUCINATE,
        )
        session = make_toy_model(spec, vocab)()
        session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        probs = np.exp(session.next_token_logprobs((1,)))  # reference exhausted, not final
        assert probs[vocab.eos_id] == pytest.approx(0.1)
        for token in range(3):
            assert probs[token] == pytest.approx(0.9 / 3)

    def test_repeat_mode_with_empty_prefix_falls_back_to_hallucinate(self):
        vocab = make_vocab(3)
        spec = ToyTransducerSpec(
            mapping={0: (1,)},
            insufficient_context_mode=InsufficientContextMode.REPEAT,
            lookahead=2,
        )
        session = make_toy_model(spec, vocab)()
        session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        probs = np.exp(session.next_token_logprobs(()))
        assert probs[vocab.eos_id] == pytest.approx(0.0)
        assert probs[:3].sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("token", [-1, 4, 7])
    def test_repeat_mode_rejects_a_prefix_token_outside_the_vocabulary(self, token):
        # -1 once favored EOS through a negative index; 7 raised a bare IndexError.
        vocab = make_vocab(3)
        spec = ToyTransducerSpec(
            mapping={0: (1,)}, insufficient_context_mode=InsufficientContextMode.REPEAT
        )
        session = make_toy_model(spec, vocab)()
        session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        assert int(np.argmax(session.next_token_logprobs((1, vocab.size - 1)))) == vocab.size - 1
        with pytest.raises(ValueError, match=rf"cannot repeat token {token}: outside"):
            session.next_token_logprobs((1, token))


class TestSessionContract:
    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_block_duration_must_be_positive_and_finite(self, duration):
        with pytest.raises(ValueError, match="positive and finite"):
            Block(payload=(0,), duration_ms=duration)

    def test_ingest_after_final_rejected(self, repeat_toy):
        _, _, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=True))
        with pytest.raises(RuntimeError):
            session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=True))

    def test_query_before_any_block_rejected(self, repeat_toy):
        _, _, factory = repeat_toy
        with pytest.raises(RuntimeError):
            factory().next_token_logprobs(())

    def test_uncovered_symbol_rejected(self, repeat_toy):
        _, _, factory = repeat_toy
        with pytest.raises(ValueError, match="not covered"):
            factory().ingest_block(Block(payload=(123,), duration_ms=100.0, is_final=False))

    def test_forward_passes_count_queries_exactly(self, repeat_toy):
        _, _, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=False))
        for n in range(5):
            assert session.forward_pass_count() == n
            session.next_token_logprobs(())
        assert session.forward_pass_count() == 5

    def test_full_context_conditions_on_all_blocks(self):
        vocab = make_vocab(4)
        spec = ToyTransducerSpec(mapping={0: (1,), 1: (2,)})
        session = make_toy_model(spec, vocab, ContextMode.FULL_CONTEXT)()
        session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        session.ingest_block(Block(payload=(1,), duration_ms=100.0, is_final=False))
        assert int(np.argmax(session.next_token_logprobs((1,)))) == 2

    def test_distributions_normalize(self):
        rng = random.Random(11)
        for _ in range(25):
            spec, vocab, source = random_toy(rng)
            session = make_toy_model(spec, vocab)()
            for block in as_blocks(source, 2):
                session.ingest_block(block)
            prefix = tuple(rng.randrange(vocab.size) for _ in range(rng.randint(0, 6)))
            total = np.exp(session.next_token_logprobs(prefix)).sum()
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_identical_sessions_are_deterministic(self):
        rng = random.Random(12)
        spec, vocab, source = random_toy(rng)
        factory = make_toy_model(spec, vocab)
        first, second = factory(), factory()
        for block in as_blocks(source, 2):
            first.ingest_block(block)
            second.ingest_block(block)
        for length in range(4):
            prefix = tuple(rng.randrange(vocab.size) for _ in range(length))
            np.testing.assert_array_equal(
                first.next_token_logprobs(prefix), second.next_token_logprobs(prefix)
            )

    def test_blockwise_and_full_context_agree(self):
        rng = random.Random(13)
        for _ in range(10):
            spec, vocab, source = random_toy(rng)
            blockwise = make_toy_model(spec, vocab, ContextMode.BLOCKWISE)()
            full = make_toy_model(spec, vocab, ContextMode.FULL_CONTEXT)()
            for block in as_blocks(source, 1):
                blockwise.ingest_block(block)
                full.ingest_block(block)
                prefix = tuple(rng.randrange(vocab.size) for _ in range(rng.randint(0, 4)))
                np.testing.assert_array_equal(
                    blockwise.next_token_logprobs(prefix), full.next_token_logprobs(prefix)
                )

    def test_repeat_mode_argmax_is_previous_token(self):
        rng = random.Random(14)
        spec, vocab, source = random_toy(rng, mode=InsufficientContextMode.REPEAT, epsilon=0.05)
        session = make_toy_model(spec, vocab)()
        session.ingest_block(Block(payload=tuple(source), duration_ms=100.0, is_final=False))
        reference_len = sum(len(spec.mapping[s]) for s in source)
        prefix = tuple(rng.randrange(vocab.size - 1) for _ in range(reference_len + 3))
        assert int(np.argmax(session.next_token_logprobs(prefix))) == prefix[-1]

    @pytest.mark.parametrize("context", list(ContextMode))
    def test_non_integer_payload_entries_are_ignored(self, repeat_toy, context):
        spec, vocab, _ = repeat_toy
        session = make_toy_model(spec, vocab, context)()
        session.ingest_block(
            Block(payload=(np.zeros(3), 7, "frame"), duration_ms=100.0, is_final=False)
        )
        session.ingest_block(Block(payload=(True, 7, "frame"), duration_ms=100.0, is_final=False))
        assert greedy_rollout(session, 4) == [0, 1, 0, 1]

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("context", list(ContextMode))
    def test_numpy_integer_symbols_decode_like_python_ints(self, context, integer):
        spec, vocab = ToyTransducerSpec(mapping={0: (0,), 1: (1,)}), make_vocab(2)

        def decoded(symbol):
            blocks = [Block((symbol(0),), 100.0), Block((symbol(1),), 100.0, True)]
            factory = make_toy_model(spec, vocab, context)
            return decode_session(factory, blocks, eos_id=vocab.eos_id).final_output

        assert decoded(integer) == decoded(int) == (0, 1)

    @pytest.mark.parametrize("context", list(ContextMode))
    def test_queries_read_the_encoding_of_the_last_ingest(self, context, monkeypatch):
        """Only ``ingest_block`` encodes source: a full-context session
        re-encodes every block read so far, a blockwise one only the new
        block, and no query encodes anything."""
        spec, vocab = ToyTransducerSpec(mapping={s: (s,) for s in range(3)}), make_vocab(4)
        session = make_toy_model(spec, vocab, context)()
        encoded = []
        original = type(session)._append_symbols

        def recording(self, symbols):
            encoded.append(list(symbols))
            original(self, symbols)

        monkeypatch.setattr(type(session), "_append_symbols", recording)
        for k, block in enumerate(as_blocks((0, 1, 2), 1)):
            encoded.clear()
            session.ingest_block(block)
            expected = [[s] for s in range(k + 1)] if context is ContextMode.FULL_CONTEXT else [[k]]
            assert encoded == expected
            for length in range(20):
                session.next_token_logprobs((0,) * length)
            assert encoded == expected


def per_pass_logprobs(spec, vocab, symbols, final_seen, prefix):
    """The toy's answer computed from scratch, as every pass once did: the
    oracle for the cached vectors. Returns the answer and its favored ids."""
    reference = [t for s in symbols for t in spec.mapping[s]]
    alignment = [k + 1 for k, s in enumerate(symbols) for _ in spec.mapping[s]]
    eos, j = vocab.eos_id, len(prefix)
    if j < len(reference) and alignment[j] + spec.lookahead <= len(symbols):
        favored = (reference[j],)
    elif j >= len(reference) and final_seen:
        favored = (eos,)
    elif spec.insufficient_context_mode is InsufficientContextMode.REPEAT and j > 0:
        favored = (int(prefix[-1]),)
    elif spec.insufficient_context_mode is InsufficientContextMode.EOS:
        favored = (eos,)
    else:
        favored = tuple(t for t in range(vocab.size) if t != eos)
    rest = vocab.size - len(favored)
    probs = np.full(vocab.size, (spec.noise_epsilon / rest) if rest else 0.0)
    probs[list(favored)] = (1.0 - spec.noise_epsilon) / len(favored)
    with np.errstate(divide="ignore"):
        return np.log(probs), favored


class TestSharedVectors:
    """The factory builds each distribution once and its sessions share it."""

    @pytest.mark.parametrize("lookahead", [0, 1])
    @pytest.mark.parametrize("context", list(ContextMode))
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    @pytest.mark.parametrize("mode", list(InsufficientContextMode))
    def test_answers_match_the_per_pass_formula_byte_for_byte(
        self, mode, epsilon, context, lookahead
    ):
        rng = random.Random(f"{mode.value}-{epsilon}-{context.value}-{lookahead}")
        vocab = make_vocab(5)
        spec = ToyTransducerSpec(
            mapping={0: (1, 2), 1: (3,), 2: (0, 4), 3: (2,)},
            noise_epsilon=epsilon,
            insufficient_context_mode=mode,
            lookahead=lookahead,
        )
        factory = make_toy_model(spec, vocab, context)
        spreads = 0
        for _ in range(4):
            session = factory()
            source = tuple(rng.randrange(4) for _ in range(rng.randint(1, 5)))
            read: list[int] = []
            for block in as_blocks(source, rng.randint(1, 2)):
                session.ingest_block(block)
                read.extend(block.payload)
                for length in range(8):
                    prefix = tuple(rng.randrange(vocab.size) for _ in range(length))
                    expected, favored = per_pass_logprobs(spec, vocab, read, block.is_final, prefix)
                    spreads += len(favored) > 1
                    assert session.next_token_logprobs(prefix).tobytes() == expected.tobytes()
        if epsilon == 0.0:
            assert np.isneginf(expected).any()
        # HALLUCINATE, and REPEAT with an empty prefix, spread over the non-EOS ids.
        assert spreads or mode is InsufficientContextMode.EOS or not lookahead

    def test_answers_are_read_only(self, repeat_toy):
        _, _, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=False))
        logprobs = session.next_token_logprobs((0,))
        with pytest.raises(ValueError, match="read-only"):
            logprobs[0] = 0.0
        assert logprobs[0] == -np.inf

    def test_sessions_share_vectors_but_not_state(self):
        vocab = make_vocab(4)
        spec = ToyTransducerSpec(mapping={0: (1,), 1: (2,)}, noise_epsilon=0.1)
        factory = make_toy_model(spec, vocab)
        first, second = factory(), factory()
        for session in (first, second):
            session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        assert first.next_token_logprobs(()) is second.next_token_logprobs(())
        second.ingest_block(Block(payload=(1,), duration_ms=100.0, is_final=True))
        # After (1,) the first, past its reference, repeats 1; the second reads 2.
        assert int(np.argmax(first.next_token_logprobs((1,)))) == 1
        assert int(np.argmax(second.next_token_logprobs((1,)))) == 2
        assert first.next_token_logprobs((2,)) is second.next_token_logprobs((1,))
        assert int(np.argmax(second.next_token_logprobs((1, 2)))) == vocab.eos_id
        assert (first.forward_pass_count(), second.forward_pass_count()) == (3, 4)
        fresh = make_toy_model(spec, vocab)()
        fresh.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        assert fresh.next_token_logprobs(()) is not first.next_token_logprobs(())


class TestSpecValidationAndJson:
    def test_tokens_outside_vocab_rejected(self):
        vocab = make_vocab(2)
        spec = ToyTransducerSpec(mapping={0: (5,)})
        with pytest.raises(ValueError, match="outside"):
            make_toy_model(spec, vocab)

    def test_empty_target_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ToyTransducerSpec(mapping={0: ()})

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ToyTransducerSpec(mapping={0: (1,)}, noise_epsilon=1.0)

    def test_json_round_trip(self):
        vocab = make_vocab(3)
        spec = ToyTransducerSpec(
            mapping={0: (1, 2), 1: (0,)},
            noise_epsilon=0.25,
            insufficient_context_mode=InsufficientContextMode.EOS,
            lookahead=1,
        )
        doc = spec_to_json(spec, vocab)
        loaded_spec, loaded_vocab = spec_from_json(doc)
        assert loaded_spec == spec
        assert loaded_vocab.size == vocab.size and loaded_vocab.eos_id == vocab.eos_id

    def test_json_requires_single_eos_surface(self):
        with pytest.raises(ValueError, match="<eos>"):
            spec_from_json({"vocab": ["a", "b"], "mapping": {"0": [0]}})

    def test_json_requires_unique_surfaces(self):
        with pytest.raises(ValueError, match="surface strings must be unique"):
            spec_from_json({"vocab": ["x", "x", "<eos>"], "mapping": {"0": [0]}})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mapping", {"0": [0.9]}),
            ("mapping", {"0": ["0"]}),
            ("mapping", {"0": [True]}),
            ("lookahead", 1.8),
            ("lookahead", True),
        ],
        ids=["target-float", "target-string", "target-bool", "lookahead-float", "lookahead-bool"],
    )
    def test_non_integer_ids_are_rejected(self, tmp_path, key, value):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"vocab": ["a", "<eos>"], "mapping": {"0": [0]}, key: value}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=f"model.json: .*{key}.* integer"):
            load_model_file(path)

    @pytest.mark.parametrize(
        "target, shown",
        [(5, "5"), ("01", '"01"'), (None, "null"), ({"0": 1}, '{"0": 1}')],
        ids=["int", "string", "null", "object"],
    )
    def test_mapping_target_must_be_an_array(self, tmp_path, target, shown):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"vocab": ["a", "<eos>"], "mapping": {"0": target}}),
            encoding="utf-8",
        )
        message = ("model.json: malformed model mapping: mapping for symbol 0 must be "
                   f"a JSON array of integer ids, got {shown}")
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_model_file(path)

    @pytest.mark.parametrize("key", ["00", " 1_0 ", "+1", "-0"])
    def test_non_canonical_mapping_keys_are_rejected(self, key):
        doc = {"vocab": ["a", "b", "<eos>"], "mapping": {"0": [0], key: [1]}}
        with pytest.raises(ValueError, match=re.escape(f"mapping key {key!r} is not a canonical")):
            spec_from_json(doc)

    @pytest.mark.parametrize("value", [False, "0.5"], ids=["bool", "string"])
    def test_non_number_epsilon_is_rejected(self, tmp_path, value):
        path = tmp_path / "model.json"
        doc = {"vocab": ["a", "<eos>"], "mapping": {"0": [0]}, "epsilon": value}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="model.json: epsilon must be a JSON number"):
            load_model_file(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("mapping", [], "mapping must be a JSON object"),
            ("mapping", ["0"], "mapping must be a JSON object"),
            ("mapping", "0", "mapping must be a JSON object"),
            ("vocab", ["a", None, "<eos>"], "vocab must be a JSON array of strings"),
            ("vocab", ["a", 1, "<eos>"], "vocab must be a JSON array of strings"),
            ("vocab", {"a": 0, "<eos>": 1}, "vocab must be a JSON array of strings"),
        ],
        ids=["mapping-empty-list", "mapping-list", "mapping-string",
             "vocab-null", "vocab-int", "vocab-object"],
    )
    def test_wrong_json_shape_is_named(self, tmp_path, key, value, message):
        path = tmp_path / "model.json"
        doc = {"vocab": ["a", "b", "<eos>"], "mapping": {"0": [0]}, key: value}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=f"model.json: model {message}$"):
            load_model_file(path)

    @pytest.mark.parametrize("mode", ["REPEAT", "Eos", " repeat", None, 1])
    def test_mode_must_be_an_exact_lowercase_name(self, tmp_path, mode):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"vocab": ["a", "<eos>"], "mapping": {"0": [0]}, "mode": mode}),
            encoding="utf-8",
        )
        message = f"model.json: mode must be one of repeat, eos, hallucinate, got {mode!r}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_model_file(path)

    @pytest.mark.parametrize(
        "doc", [[], [{"vocab": ["a", "<eos>"], "mapping": {"0": [0]}}], "model", 1, None],
        ids=["empty-array", "array", "string", "number", "null"],
    )
    def test_spec_must_be_a_json_object(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="model.json: model spec must be a JSON object$"):
            load_model_file(path)

    def test_load_model_file_reports_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="model.json"):
            load_model_file(path)
        path.write_text(
            json.dumps({"vocab": ["a", "<eos>"], "mapping": {"0": [0]}}),
            encoding="utf-8",
        )
        spec, vocab = load_model_file(path)
        assert spec.mapping == {0: (0,)}
        assert vocab.eos_id == 1
