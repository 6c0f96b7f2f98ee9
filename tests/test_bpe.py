import ast
import os
import random
import string
import time
from collections import Counter

import numpy as np
import pytest

import minit5
from minit5.bpe import (
    EOS_ID,
    EOS_TOKEN,
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    TokenizerError,
    Vocabulary,
    WORD_MARKER,
    _merge_word,
    decode,
    encode,
    load_vocab,
    save_vocab,
    sentinel_token,
    train_bpe,
)


def _recount_bpe(corpus, vocab_size, sentinel_count=100):
    """Reference trainer: every pair in every word is recounted for each
    merge. train_bpe must give the same vocabulary, or the same error."""
    if isinstance(corpus, str):
        corpus = [corpus]
    word_freq = Counter()
    for text in corpus:
        word_freq.update(text.split())
    if not word_freq:
        raise TokenizerError("cannot train on an empty corpus")
    alphabet = sorted({WORD_MARKER} | {ch for w in word_freq for ch in w})
    base = 3 + len(alphabet)
    n_merges = vocab_size - base - sentinel_count
    if n_merges < 0:
        raise TokenizerError(
            f"vocab_size {vocab_size} too small: need at least "
            f"{base + sentinel_count} (specials + alphabet + sentinels)"
        )
    reserved = {PAD_TOKEN, EOS_TOKEN, UNK_TOKEN} | {sentinel_token(k) for k in range(sentinel_count)}
    words = [([WORD_MARKER] + list(w), f) for w, f in word_freq.items()]
    tokens = [PAD_TOKEN, EOS_TOKEN, UNK_TOKEN] + alphabet
    merges = []
    for _ in range(n_merges):
        pairs = Counter()
        for syms, f in words:
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += f
        candidates = [(pair, c) for pair, c in pairs.items() if pair[0] + pair[1] not in reserved]
        if not candidates:
            raise TokenizerError(
                f"corpus exhausted after {len(merges)} merges; "
                f"lower vocab_size to at most {len(tokens) + sentinel_count}"
            )
        best = min(candidates, key=lambda item: (-item[1], item[0]))[0]
        merges.append(best)
        tokens.append(best[0] + best[1])
        words = [(_merge_word(syms, best), f) for syms, f in words]
    tokens.extend(sentinel_token(k) for k in reversed(range(sentinel_count)))
    return Vocabulary(tokens, merges, sentinel_count)


def _train_or_error(trainer, *args):
    try:
        vocab = trainer(*args)
    except TokenizerError as e:
        return str(e)
    return vocab.id_to_token, vocab.merges


def _random_corpus(rng):
    """A few words over a small alphabet, with whole or partial reserved
    strings and runs of one letter, so ties, reserved pairs and
    overlapping pairs all occur."""
    alphabet = rng.sample("<>pad_extri1", rng.randint(2, 6))
    pieces = alphabet + ["<pad>", "</s>", "<unk>", "<extra_id_0>", "<extra_id_1>", "<extra_", "a" * rng.randint(2, 6)]
    words = ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 25))]
    return " ".join(words)


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

    def test_overlapping_runs_count_every_position(self):
        # "aaaa" holds (a,a) three times, so (a,a) beats (b,c) held twice
        vocab = train_bpe("aaaa bcbc", vocab_size=3 + 4 + 1, sentinel_count=0)
        assert vocab.merges == [("a", "a")]

    def test_reserved_strings_are_never_merged(self):
        corpus = "<pad> <pad> <pad> <extra_id_0> <extra_id_0>"
        vocab = train_bpe(corpus, 33, sentinel_count=1)
        assert (WORD_MARKER + "<", "pad>") in vocab.merges and (WORD_MARKER + "<", "extra_id_0>") in vocab.merges
        assert PAD_TOKEN not in vocab.id_to_token[3:] and vocab.id_to_token.count(sentinel_token(0)) == 1
        with pytest.raises(TokenizerError, match="exhausted after 16 merges; lower vocab_size to at most 33"):
            train_bpe(corpus, 34, sentinel_count=1)

    def test_matches_the_recounting_trainer(self):
        rng = random.Random(0)
        outcomes = Counter()
        for case in range(300):
            corpus = _random_corpus(rng)
            sentinels = rng.randint(0, 3)
            base = 4 + len(set(corpus.replace(" ", "")))
            args = (corpus, base + sentinels + rng.randint(-2, len(corpus) // 2), sentinels)
            expected = _train_or_error(_recount_bpe, *args)
            assert _train_or_error(train_bpe, *args) == expected, (case, args)
            outcomes[expected.split()[0] if isinstance(expected, str) else "vocabulary"] += 1
        # a vocabulary, "corpus exhausted" and "vocab_size too small" all occur
        assert len(outcomes) == 3, outcomes

    def test_paper_sized_vocabulary(self):
        """32,000 entries, the size of the paper's models and of the small
        and large presets, from a seeded Zipfian corpus of 300k words."""
        rng = np.random.default_rng(0)
        syllables = [o + v + c for o in ["", "b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
                                         "št", "pr", "kr", "sl", "dr"]
                     for v in "aeiou" for c in ["", "", "n", "l", "r", "j", "m", "k", "s"]]
        lexicon = list(dict.fromkeys(
            "".join(syllables[j] for j in rng.integers(len(syllables), size=n)) for n in rng.integers(1, 5, 40_000)
        ))
        weights = (np.arange(1, len(lexicon) + 1) + 2.7) ** -1.1
        words = [lexicon[i] for i in rng.choice(len(lexicon), size=300_000, p=weights / weights.sum())]
        corpus = [" ".join(words[j : j + 1000]) for j in range(0, len(words), 1000)]
        start = time.perf_counter()
        vocab = train_bpe(corpus, 32_000)
        elapsed = time.perf_counter() - start
        assert len(vocab) == 32_000 and vocab.sentinel_count == 100
        first = len(vocab) - vocab.sentinel_count - len(vocab.merges)
        assert len(vocab.merges) > 31_000
        assert all(a + b == vocab.id_to_token[first + k] for k, (a, b) in enumerate(vocab.merges))
        assert elapsed < 60, f"{elapsed:.1f} s"


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

    @pytest.mark.parametrize("count", [-1, 18])
    def test_sentinel_count_out_of_range_rejected(self, count):
        # 20 tokens: pad, eos and unk leave room for at most 17 sentinels
        tokens = ["<pad>", "</s>", "<unk>"] + [f"t{i}" for i in range(17)]
        assert Vocabulary(tokens, [], 17).sentinel_count == 17
        with pytest.raises(TokenizerError, match=rf"sentinel_count {count} out of range \[0, 17\]"):
            Vocabulary(tokens, [], count)

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
        assert (vocab.pad_id, vocab.eos_id, vocab.unk_id) == (PAD_ID, EOS_ID, UNK_ID) == (0, 1, 2)

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

    def test_merges_must_build_the_merged_tokens(self, tmp_path):
        vocab = _tiny_vocab()
        path = tmp_path / "vocab.txt"
        merges = tmp_path / "vocab.txt.merges"
        save_vocab(vocab, path)
        good = merges.read_text(encoding="utf-8")
        for bad in (good.replace("a b\n", "b a\n"), good + "k j\n", "a b\n" * 40, ""):
            merges.write_text(bad, encoding="utf-8")
            with pytest.raises(TokenizerError, match="does not match"):
                load_vocab(path)
        merges.write_text(good, encoding="utf-8")
        assert load_vocab(path).merges == vocab.merges


def test_special_ids_are_constants_of_bpe():
    """The pad, EOS and unk ids are assigned once, in bpe.py, and no
    function takes them as a pad_id parameter."""
    src = os.path.dirname(os.path.abspath(minit5.__file__))
    offenders = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                offenders += [f"{name}:{node.lineno}: pad_id parameter" for a in args if a.arg == "pad_id"]
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and name != "bpe.py":
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for n in (n for t in targets for n in ast.walk(t)):
                    if isinstance(n, ast.Name) and n.id in ("PAD_ID", "EOS_ID", "UNK_ID"):
                        offenders.append(f"{name}:{node.lineno}: assigns {n.id}")
    assert not offenders
