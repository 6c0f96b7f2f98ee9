import string

import numpy as np
import pytest

from minit5.bpe import (
    EOS_TOKEN,
    PAD_TOKEN,
    TokenizerError,
    WORD_MARKER,
    decode,
    encode,
    load_vocab,
    save_vocab,
    sentinel_token,
    train_bpe,
)


def _tiny_vocab(corpus="kje gori kje gori abab abab beri knjigo beri knjigo", extra_merges=12, sentinels=4):
    alphabet = sorted({WORD_MARKER} | set("".join(corpus.split())))
    return train_bpe(corpus, vocab_size=3 + len(alphabet) + sentinels + extra_merges, sentinel_count=sentinels)


class TestTraining:
    def test_first_merge_by_pair_frequency(self):
        # "abab abab": pairs (marker,a)=2, (a,b)=4, (b,a)=2, so (a,b) merges first
        corpus = "abab abab"
        alphabet_size = 3  # marker, a, b
        vocab = train_bpe(corpus, vocab_size=3 + alphabet_size + 2 + 1, sentinel_count=2)
        assert vocab.merges[0] == ("a", "b")

    def test_zero_merge_budget(self):
        corpus = "abab abab"
        vocab = train_bpe(corpus, vocab_size=3 + 3 + 2, sentinel_count=2)
        assert vocab.merges == []

    def test_sentinels_occupy_top_ids_descending(self):
        vocab = _tiny_vocab(sentinels=4)
        v = len(vocab)
        assert vocab.sentinel_id(0) == v - 1
        assert vocab.sentinel_id(1) == v - 2
        assert vocab.id_to_token[v - 1] == "<extra_id_0>"
        assert vocab.id_to_token[v - 4] == "<extra_id_3>"

    def test_exact_configured_size(self):
        corpus = "kje gori kje gori abab abab beri knjigo beri knjigo"
        alphabet = sorted({WORD_MARKER} | set("".join(corpus.split())))
        requested = 3 + len(alphabet) + 4 + 5
        vocab = train_bpe(corpus, vocab_size=requested, sentinel_count=4)
        assert len(vocab) == requested
        assert vocab.id_to_token[vocab.pad_id] == PAD_TOKEN
        assert vocab.id_to_token[vocab.eos_id] == EOS_TOKEN

    def test_empty_corpus_rejected(self):
        with pytest.raises(TokenizerError):
            train_bpe("   ", vocab_size=200)

    def test_vocab_size_too_small_rejected(self):
        with pytest.raises(TokenizerError, match="too small"):
            train_bpe("abc", vocab_size=5, sentinel_count=100)

    def test_budget_beyond_available_merges_rejected(self):
        with pytest.raises(TokenizerError, match="exhausted"):
            train_bpe("ab", vocab_size=100, sentinel_count=2)

    def test_retraining_is_deterministic(self):
        a = _tiny_vocab()
        b = _tiny_vocab()
        assert a.id_to_token == b.id_to_token
        assert a.merges == b.merges

    def test_special_ids_distinct(self):
        vocab = _tiny_vocab()
        ids = {vocab.pad_id, vocab.eos_id, vocab.unk_id}
        sentinels = {vocab.sentinel_id(k) for k in range(vocab.sentinel_count)}
        assert len(ids) == 3
        assert not ids & sentinels


class TestEncodeDecode:
    def test_empty_string_with_eos(self):
        vocab = _tiny_vocab()
        assert encode("", vocab, append_eos=True) == [vocab.eos_id]

    def test_round_trip(self):
        vocab = _tiny_vocab()
        for s in ["kje gori", "gori gori kje", "abab", "a b a b"]:
            assert decode(encode(s, vocab), vocab) == s

    def test_merged_tokens_apply(self):
        # after the (a,b)->"ab" merge, "abab" is marker + "ab" + "ab"
        corpus = "abab abab"
        vocab = train_bpe(corpus, vocab_size=3 + 3 + 2 + 1, sentinel_count=2)
        toks = [vocab.id_to_token[i] for i in encode("abab", vocab)]
        assert toks == [WORD_MARKER, "ab", "ab"]

    def test_unknown_symbols_map_to_unk(self):
        vocab = _tiny_vocab()
        ids = encode("xyz", vocab)
        # leading word marker is a known symbol; the unseen chars are not
        assert ids[1:] == [vocab.unk_id] * 3

    def test_round_trip_random_strings(self):
        vocab = _tiny_vocab()
        rng = np.random.default_rng(9)
        letters = list("abegijkor")  # inside the training alphabet
        for _ in range(200):
            words = [
                "".join(rng.choice(letters, size=rng.integers(1, 8)))
                for _ in range(rng.integers(1, 6))
            ]
            s = " ".join(words)
            assert decode(encode(s, vocab), vocab) == s

    def test_sentinels_never_emitted_for_natural_text(self):
        vocab = _tiny_vocab()
        first_sentinel = len(vocab) - vocab.sentinel_count
        ids = encode("kje gori abab " + string.ascii_lowercase, vocab)
        assert all(i < first_sentinel for i in ids)

    def test_decode_strips_specials(self):
        vocab = _tiny_vocab()
        body = encode("gori", vocab)
        assert decode([vocab.sentinel_id(0)] + body, vocab, strip_specials=True) == "gori"
        assert decode([vocab.pad_id, vocab.pad_id, vocab.eos_id], vocab, strip_specials=True) == ""

    def test_decode_keeps_sentinels_without_strip(self):
        vocab = _tiny_vocab()
        out = decode([vocab.sentinel_id(0)] + encode("gori", vocab), vocab)
        assert out == "<extra_id_0> gori"

    def test_decode_rejects_out_of_range(self):
        vocab = _tiny_vocab()
        with pytest.raises(TokenizerError):
            decode([len(vocab)], vocab)

    def test_encode_appends_eos(self):
        vocab = _tiny_vocab()
        assert encode("kje", vocab, append_eos=True)[-1] == vocab.eos_id


class TestSentinels:
    def test_sentinel_arithmetic(self):
        vocab = _tiny_vocab(sentinels=4)
        v = len(vocab)
        assert vocab.sentinel_id(0) == v - 1
        assert vocab.sentinel_id(3) == v - 4

    def test_sentinel_out_of_range(self):
        vocab = _tiny_vocab(sentinels=4)
        with pytest.raises(TokenizerError):
            vocab.sentinel_id(4)
        with pytest.raises(TokenizerError):
            vocab.sentinel_id(-1)

    def test_sentinel_token_strings(self):
        assert sentinel_token(0) == "<extra_id_0>"
        assert sentinel_token(17) == "<extra_id_17>"


class TestVocabFiles:
    def test_round_trip(self, tmp_path):
        vocab = _tiny_vocab()
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.merges == vocab.merges
        assert loaded.sentinel_count == vocab.sentinel_count
        s = "kje gori abab"
        assert encode(s, loaded) == encode(s, vocab)

    def test_header_contents(self, tmp_path):
        vocab = _tiny_vocab(sentinels=4)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == f"1,{len(vocab)},4,0,1,2"

    def test_version_mismatch_rejected(self, tmp_path):
        vocab = _tiny_vocab()
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0].replace("1,", "9,", 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TokenizerError, match="version"):
            load_vocab(path)

    def test_non_integer_header_rejected(self, tmp_path):
        vocab = _tiny_vocab()
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0].replace(",4,", ",four,", 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TokenizerError, match="malformed header"):
            load_vocab(path)

    def test_truncated_file_rejected(self, tmp_path):
        vocab = _tiny_vocab()
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
        with pytest.raises(TokenizerError):
            load_vocab(path)
