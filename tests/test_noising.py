import numpy as np
import pytest

from minit5.bpe import train_bpe
from minit5.noising import (
    NoisedPair,
    NoisePlan,
    NoisingError,
    StreamStats,
    iid_denoise,
    mixture_sample,
    noise_counts,
    noise_stream,
    plan_spans,
    reconstruct,
    sentinels_needed,
    span_corrupt,
)


def _vocab(sentinels=100):
    # ids 3..~40 are ordinary pieces; plenty of room below the sentinel block
    corpus = "abcdefghijklmnopqrstuvwxyz " * 3
    alphabet = 27  # marker + 26 letters
    return train_bpe(corpus, vocab_size=3 + alphabet + sentinels, sentinel_count=sentinels)


VOCAB = _vocab()
FIRST_SENTINEL = len(VOCAB) - VOCAB.sentinel_count


def _splice_oracle(pair, vocab):
    # independent reconstruction: walk the target, mapping sentinel -> tokens,
    # then substitute into the input (kept deliberately separate from src)
    sent_ids = {vocab.sentinel_id(k): k for k in range(vocab.sentinel_count)}
    spans = {}
    key = None
    for t in pair.target_ids:
        if t == vocab.eos_id:
            break
        if t in sent_ids:
            key = t
            spans[key] = []
        else:
            spans[key].append(t)
    result = []
    for t in pair.input_ids:
        if t in sent_ids:
            result += spans[t]
        else:
            result.append(t)
    return result


def _token_ids(rng, n):
    return [int(x) for x in rng.integers(3, FIRST_SENTINEL, size=n)]


class TestNoiseCounts:
    def test_n20(self):
        assert noise_counts(20) == (3, 1)

    def test_n512(self):
        assert noise_counts(512) == (77, 26)

    def test_clamp_floor(self):
        assert noise_counts(2) == (1, 1)

    def test_too_short(self):
        with pytest.raises(NoisingError):
            noise_counts(1)


class TestPlanSpans:
    def test_single_span_uniform_start(self):
        rng = np.random.default_rng(0)
        starts = set()
        for _ in range(500):
            plan = plan_spans(10, 3, 1, rng)
            assert plan.spans[0][1] == 3
            starts.add(plan.spans[0][0])
        # a trailing clean token is always required, so starts cover 0..6
        assert starts == set(range(7))

    def test_invariants_hold(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(10, 200))
            num_noise, num_spans = noise_counts(n)
            plan = plan_spans(n, num_noise, num_spans, rng)
            assert plan.num_noise == num_noise
            assert len(plan.spans) == num_spans
            prev_end = None
            for start, length in plan.spans:
                assert length >= 1
                if prev_end is not None:
                    assert start > prev_end  # at least one clean token between spans
                prev_end = start + length
            assert prev_end <= n

    def test_mean_span_length_monte_carlo(self):
        rng = np.random.default_rng(2)
        total_len = 0
        total_spans = 0
        for _ in range(10_000):
            plan = plan_spans(512, 77, 26, rng)
            total_len += plan.num_noise
            total_spans += len(plan.spans)
        mean = total_len / total_spans
        assert abs(mean - 77 / 26) < 0.15

    def test_infeasible_counts(self):
        rng = np.random.default_rng(3)
        with pytest.raises(NoisingError):
            plan_spans(10, 2, 3, rng)  # more spans than noise
        with pytest.raises(NoisingError):
            plan_spans(6, 5, 2, rng)  # only one clean token for two gaps

    def test_plan_validation(self):
        with pytest.raises(NoisingError):
            NoisePlan(10, [(0, 2), (2, 2)])  # adjacent
        with pytest.raises(NoisingError):
            NoisePlan(10, [(8, 5)])  # out of bounds


class TestSpanCorrupt:
    def test_declared_convention(self):
        ids = _token_ids(np.random.default_rng(4), 10)
        plan = NoisePlan(10, [(2, 3)])
        pair = span_corrupt(ids, plan, VOCAB)
        s0, s1 = VOCAB.sentinel_id(0), VOCAB.sentinel_id(1)
        assert pair.input_ids == ids[:2] + [s0] + ids[5:]
        assert pair.target_ids == [s0] + ids[2:5] + [s1, VOCAB.eos_id]

    def test_two_spans_sentinel_order(self):
        ids = _token_ids(np.random.default_rng(5), 12)
        plan = NoisePlan(12, [(1, 2), (6, 2)])
        pair = span_corrupt(ids, plan, VOCAB)
        s = [VOCAB.sentinel_id(k) for k in range(3)]
        assert pair.input_ids == [ids[0], s[0]] + ids[3:6] + [s[1]] + ids[8:]
        assert pair.target_ids == [s[0]] + ids[1:3] + [s[1]] + ids[6:8] + [s[2], VOCAB.eos_id]

    def test_length_mismatch(self):
        plan = NoisePlan(10, [(2, 3)])
        with pytest.raises(NoisingError):
            span_corrupt([5, 6, 7], plan, VOCAB)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(4, 120))
            ids = _token_ids(rng, n)
            num_noise, num_spans = noise_counts(n)
            pair = span_corrupt(ids, plan_spans(n, num_noise, num_spans, rng), VOCAB)
            assert _splice_oracle(pair, VOCAB) == ids
            assert reconstruct(pair, VOCAB) == ids


class TestSentinelBudget:
    @pytest.mark.parametrize("objective", ["span", "iid"])
    def test_one_sentinel_per_span_plus_the_closing_one(self, objective):
        vocab = _vocab(sentinels=4)
        ids = _token_ids(np.random.default_rng(12), 12)

        def noise(spans):
            if objective == "span":
                return span_corrupt(ids, NoisePlan(12, [(2 * k, 1) for k in range(spans)]), vocab)
            return iid_denoise(ids[:spans], np.random.default_rng(0), vocab, corrupt_prob=1.0)

        assert reconstruct(noise(3), vocab) == (ids if objective == "span" else ids[:3])
        with pytest.raises(NoisingError, match="4 spans need 5 sentinels, vocabulary reserves 4"):
            noise(4)

    def test_sentinels_needed_counts_the_sentinels_a_target_holds(self):
        ids = _token_ids(np.random.default_rng(15), 12)
        for spans in range(1, 7):
            pair = span_corrupt(ids, NoisePlan(12, [(2 * k, 1) for k in range(spans)]), VOCAB)
            assert sum(t >= FIRST_SENTINEL for t in pair.target_ids) == sentinels_needed(spans)


class TestIidDenoise:
    def test_p_zero(self):
        ids = _token_ids(np.random.default_rng(7), 8)
        pair = iid_denoise(ids, np.random.default_rng(8), VOCAB, corrupt_prob=0.0)
        assert pair.input_ids == ids
        assert pair.target_ids == [VOCAB.sentinel_id(0), VOCAB.eos_id]

    def test_p_one(self):
        ids = _token_ids(np.random.default_rng(9), 2)
        pair = iid_denoise(ids, np.random.default_rng(10), VOCAB, corrupt_prob=1.0)
        s = [VOCAB.sentinel_id(k) for k in range(3)]
        assert pair.input_ids == [s[0], s[1]]
        assert pair.target_ids == [s[0], ids[0], s[1], ids[1], s[2], VOCAB.eos_id]

    def test_a_draw_beyond_the_sentinels_is_drawn_again(self):
        # 4 sentinels hold 3 spans; 10 tokens at rate 0.25 expect 2 of them
        vocab = _vocab(sentinels=4)
        ids = _token_ids(np.random.default_rng(13), 10)
        redrawn = 0
        for seed in range(40):
            twin = np.random.default_rng(seed)
            draws = 1
            while (twin.random(10) < 0.25).sum() > 3:
                draws += 1
            rng = np.random.default_rng(seed)
            pair = iid_denoise(ids, rng, vocab, corrupt_prob=0.25)
            assert reconstruct(pair, vocab) == ids
            assert rng.random() == twin.random()  # one draw per try, none after the first that fits
            redrawn += draws > 1
        assert redrawn

    def test_refuses_a_rate_whose_expected_spans_do_not_fit(self):
        rng = np.random.default_rng(14)
        with pytest.raises(NoisingError, match="of 10 tokens at rate 0.4 expects 4 spans: 4 spans need 5 sentinels"):
            iid_denoise(_token_ids(rng, 10), rng, _vocab(sentinels=4), corrupt_prob=0.4)

    def test_corruption_rate_monte_carlo(self):
        rng = np.random.default_rng(11)
        corrupted = 0
        total = 0
        while total < 100_000:
            ids = _token_ids(rng, 80)
            pair = iid_denoise(ids, rng, VOCAB)
            corrupted += sum(1 for t in pair.input_ids if t >= FIRST_SENTINEL)
            total += len(ids)
        assert abs(corrupted / total - 0.15) < 0.005

    def test_every_span_length_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            ids = _token_ids(rng, 40)
            pair = iid_denoise(ids, rng, VOCAB)
            # between consecutive sentinels in the target sits exactly one token
            body = pair.target_ids[:-1]  # drop EOS
            for i, t in enumerate(body):
                if t >= FIRST_SENTINEL and i + 1 < len(body):
                    assert body[i + 1] < FIRST_SENTINEL
                    if i + 2 < len(body):
                        assert body[i + 2] >= FIRST_SENTINEL

    def test_reconstruction(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            ids = _token_ids(rng, int(rng.integers(1, 60)))
            pair = iid_denoise(ids, rng, VOCAB)
            assert _splice_oracle(pair, VOCAB) == ids
            assert reconstruct(pair, VOCAB) == ids


class TestMixture:
    def test_mix_extremes(self):
        rng = np.random.default_rng(14)
        ids = _token_ids(rng, 30)
        assert all(
            mixture_sample(ids, VOCAB, rng, mix=1.0).objective == "span" for _ in range(50)
        )
        assert all(
            mixture_sample(ids, VOCAB, rng, mix=0.0).objective == "iid" for _ in range(50)
        )

    def test_mix_half_binomial(self):
        rng = np.random.default_rng(15)
        ids = _token_ids(rng, 30)
        spans = sum(
            1 for _ in range(10_000) if mixture_sample(ids, VOCAB, rng).objective == "span"
        )
        assert abs(spans - 5000) <= 150  # 3 sigma of Binomial(10000, 0.5)

    def test_invalid_mix(self):
        rng = np.random.default_rng(16)
        with pytest.raises(NoisingError):
            mixture_sample([5, 6, 7], VOCAB, rng, mix=1.5)

    def test_sentinel_order_invariant(self):
        # input sentinels appear as k = 0, 1, 2, ... left to right; the
        # target reuses exactly that sequence plus one closing sentinel
        rng = np.random.default_rng(18)
        for _ in range(300):
            ids = _token_ids(rng, int(rng.integers(4, 60)))
            pair = mixture_sample(ids, VOCAB, rng)
            in_sent = [t for t in pair.input_ids if t >= FIRST_SENTINEL]
            tgt_sent = [t for t in pair.target_ids if t >= FIRST_SENTINEL]
            expected = [VOCAB.sentinel_id(k) for k in range(len(in_sent))]
            assert in_sent == expected
            assert tgt_sent == expected + [VOCAB.sentinel_id(len(in_sent))]
            assert pair.target_ids[-1] == VOCAB.eos_id

    def test_stream_skips_short_sequences(self):
        rng = np.random.default_rng(17)
        stats = StreamStats()
        seqs = [[5], _token_ids(rng, 10), [], _token_ids(rng, 12)]
        pairs = list(noise_stream(seqs, VOCAB, rng, stats=stats))
        assert len(pairs) == 2
        assert stats.skipped_short == 2
        assert stats.produced == 2
        assert all(isinstance(p, NoisedPair) for p in pairs)
