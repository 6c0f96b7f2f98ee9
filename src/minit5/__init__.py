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

On glibc, importing minit5 also sets two malloc thresholds for the whole
process, so that freed activations stay mapped and the next step reuses
them instead of faulting fresh pages in: blocks up to 32 MiB come from the
heap (M_MMAP_THRESHOLD), and the heap is trimmed only when 1 GiB lies free
at its top (M_TRIM_THRESHOLD). Either call turns off glibc's dynamic mmap
threshold, so the mmap threshold is set first: the trim threshold alone
would leave every allocation above 128 KiB to mmap. Elsewhere nothing is
set.
"""

import os

_threads = os.environ.get("MINIT5_THREADS")
if _threads is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)


def _set_malloc_thresholds():
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only: other allocators read these numbers differently
        mallopt = libc.mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_set_malloc_thresholds()

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
