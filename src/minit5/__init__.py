"""minit5: a desk-scale text-to-text transformer toolkit on numpy.

Pipeline pieces: BPE tokenizer with reserved sentinels (`bpe`), paragraph
dedup (`dedup`), span-corruption / i.i.d. denoising objectives (`noising`),
an encoder-decoder transformer with its own reverse-mode autodiff
(`tensor`, `model`, `gradcheck`), AdamW training with checkpoints
(`training`), Slovene task formatting (`tasks`), and greedy decoding plus
metrics (`evaluation`). `cli` wires them into commands.

`MINIT5_THREADS` caps the BLAS threads. It is read here, before any
submodule imports numpy, because BLAS fixes its thread count when it loads;
a BLAS variable already set explicitly wins.
"""

import os

_threads = os.environ.get("MINIT5_THREADS")
if _threads is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from .model import ModelConfig, count_parameters, forward, init_params, preset, training_budget_ratio  # noqa: E402
from .tensor import Tape, Tensor, backward  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ModelConfig",
    "Tape",
    "Tensor",
    "backward",
    "count_parameters",
    "forward",
    "init_params",
    "preset",
    "training_budget_ratio",
    "__version__",
]
