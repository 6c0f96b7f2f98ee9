"""minit5: a desk-scale text-to-text transformer toolkit on numpy.

Pipeline pieces: BPE tokenizer with reserved sentinels (`bpe`), paragraph
dedup (`dedup`), span-corruption / i.i.d. denoising objectives (`noising`),
an encoder-decoder transformer with its own reverse-mode autodiff
(`tensor`, `model`, `gradcheck`), AdamW training with checkpoints
(`training`), Slovene task formatting (`tasks`), and greedy decoding plus
metrics (`evaluation`). `cli` wires them into commands.

`MINIT5_THREADS` caps the threads minit5 computes on, and is read here,
before any submodule imports numpy, because BLAS fixes its thread count
when it loads. Without it the cap is the number of CPUs this process may
run on. A large training batch runs as two parts on up to min(2, usable
CPUs, cap) threads, and the BLAS default is max(1, cap // those threads)
threads. A BLAS variable already set explicitly wins, and when numpy was
loaded before minit5 without one, BLAS already runs on every CPU, as it
does for a BLAS value that is not a positive integer, such as 0 or abc.
Either way PART_THREADS is cut so that it times the BLAS threads stays
within the cap, since two parts beside more BLAS threads crowd the CPUs (a
d256 step on 2 CPUs took 2.3-2.5 s in two parts at 2 BLAS threads each,
1.4-1.5 s whole at 2, 1.1-1.2 s in two parts at 1). At one part thread the
parts run one after the other, on the calling thread.

On glibc, importing minit5 also sets three malloc parameters for the whole
process, so that freed activations stay mapped and the next step reuses
them instead of faulting fresh pages in: blocks up to 32 MiB come from the
heap (M_MMAP_THRESHOLD), and the heap is trimmed only when 1 GiB lies free
at its top (M_TRIM_THRESHOLD). Either call turns off glibc's dynamic mmap
threshold, so the mmap threshold is set first: the trim threshold alone
would leave every allocation above 128 KiB to mmap. There is one malloc
arena (M_ARENA_MAX), so a part thread reuses the memory the main thread
frees instead of growing an arena of its own. Elsewhere nothing is set.
"""

import os
import sys

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _thread_counts():
    """(part threads, BLAS default) by the rule above."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        cpus = os.cpu_count() or 1
    try:
        cap = max(1, int(os.environ["MINIT5_THREADS"]))
    except (KeyError, ValueError):
        cap = cpus
    parts = min(2, cpus, cap)
    default = max(1, cap // parts)
    def threads(value):
        try:
            return int(value) if int(value) > 0 else cpus
        except ValueError:
            return cpus

    given = [threads(os.environ[var]) for var in _BLAS_VARS if var in os.environ]
    blas = max(given) if given else cpus if "numpy" in sys.modules else default
    return max(1, min(parts, cap // blas)), default


PART_THREADS, _blas_default = _thread_counts()
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, str(_blas_default))


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
    mallopt(-8, 1)  # M_ARENA_MAX


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
