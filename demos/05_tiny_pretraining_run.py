"""A complete miniature pretraining loop: corpus -> tokenizer -> noised
batches -> AdamW with warmup/inverse-sqrt schedule -> falling loss.

This is the same loop the `pretrain` command runs, just inlined and small
enough to watch. Expect the denoising loss to drop well below its initial
value within a couple hundred steps.
"""

import itertools

import numpy as np

from minit5.bpe import encode, train_bpe
from minit5.model import ModelConfig, init_params
from minit5.noising import noise_stream
from minit5.training import AdamW, lr_schedule, token_batch_pack, train_step

sentences = [
    "voda teče po strugi mimo mlina",
    "mlin ob vodi melje zrnje počasi",
    "na hribu nad vasjo gori kres",
    "po dolini teče reka do jezera",
    "stari mlin ob reki spet melje",
]
corpus = " ".join(sentences * 4)
vocab = train_bpe(corpus, vocab_size=100, sentinel_count=16)

config = ModelConfig(vocab_size=len(vocab), d_model=48, d_ff=96, n_heads=3, d_kv=16,
                     enc_layers=2, dec_layers=2, rel_buckets=8, rel_max_distance=16,
                     dropout=0.0)
rng = np.random.default_rng(0)
params = init_params(config, rng)
opt = AdamW(params, lr=5e-3)


def sequence_stream():
    while True:
        for s in sentences:
            yield encode(s, vocab, append_eos=True)


pairs = noise_stream(sequence_stream(), vocab, rng)
batches = token_batch_pack(pairs, budget=256)

steps = 300
warmup = 50
first = last = None
for step, batch in enumerate(itertools.islice(batches, steps), start=1):
    lr = lr_schedule(step, 5e-3, warmup=warmup)
    last = train_step(config, params, opt, batch, rng, f"step {step}", lr=lr)
    if first is None:
        first = last
    if step % 50 == 0:
        print(f"step {step:4d}  loss {last:7.4f}  lr {lr:.5f}")

print(f"\nloss {first:.3f} -> {last:.3f} over {steps} steps")
assert last < first
