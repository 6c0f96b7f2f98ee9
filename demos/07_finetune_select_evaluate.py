"""Fine-tune a tiny model on a toy echo task, keep the checkpoint that
scores best on the validation metric of the task's `TASKS` row, and run
the evaluation report.

The flow matches the `finetune` + `evaluate` commands: per-epoch
checkpoints, greedy decoding with the task's output budget, exact-match
label scoring with invalid generations counted against the model.
"""

import numpy as np

from minit5.bpe import encode, train_bpe
from minit5.evaluation import evaluate_examples
from minit5.model import ModelConfig, init_params
from minit5.noising import NoisedPair
from minit5.tasks import TASKS, TaskExample
from minit5.training import AdamW, Checkpoint, select_best_checkpoint, train_step

words = ["voda", "mlin", "reka", "hrib", "vas", "kres", "zrno", "jez"]
corpus = " ".join(words * 3)
vocab = train_bpe(corpus, vocab_size=50, sentinel_count=8)

rng = np.random.default_rng(1)
examples = []
for _ in range(24):
    phrase = " ".join(rng.choice(words, size=2))
    examples.append(TaskExample(phrase, phrase, task="summarization"))
train, validation = examples[:16], examples[16:]

config = ModelConfig(vocab_size=len(vocab), d_model=48, d_ff=96, n_heads=3, d_kv=16,
                     enc_layers=1, dec_layers=1, rel_buckets=8, rel_max_distance=16,
                     dropout=0.0)
params = init_params(config, np.random.default_rng(2))
opt = AdamW(params, lr=5e-3)

encoded = [
    NoisedPair(encode(ex.input_text, vocab, append_eos=True),
               encode(ex.target_text, vocab, append_eos=True), objective="task")
    for ex in train
]


def trained_epochs():
    """Each epoch's checkpoint, scored by the selection as it is yielded."""
    for epoch in range(1, 9):
        order = rng.permutation(len(encoded))
        for lo in range(0, len(encoded), 8):
            batch = [encoded[i] for i in order[lo : lo + 8]]
            loss = train_step(config, params, opt, batch, rng, f"epoch {epoch}")
        print(f"epoch {epoch}: loss {loss:.4f}")
        yield Checkpoint.from_model(config, params, step=epoch)


best, scores = select_best_checkpoint(trained_epochs(), validation, vocab, max_output_tokens=8)
print(f"\nvalidation {TASKS['summarization'].metric} per epoch: {[f'{s:.3f}' for s in scores]}")
print(f"selected epoch {best.step}")

report = evaluate_examples(best.config, best.to_params(), vocab, validation,
                           "summarization", max_output_tokens=8)
print()
print(report.render())
