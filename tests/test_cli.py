import ast
import itertools
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc
import weakref
import zlib
from collections import Counter

import numpy as np
import pytest

import minit5
from minit5.bpe import load_vocab, save_vocab, train_bpe
from minit5.cli import main
from minit5.model import ModelConfig, init_params
from minit5.tasks import TASKS
from minit5.training import AdamW, Checkpoint, load_checkpoint, save_checkpoint

CORPUS = """kje gori na hribu danes zjutraj

voda teče po strugi mimo mlina

kje gori na hribu danes zjutraj

mlin melje zrnje počasi ampak zanesljivo

voda teče po strugi mimo mlina
"""


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS, encoding="utf-8")
    return path


@pytest.fixture()
def vocab_file(tmp_path, corpus_file):
    path = tmp_path / "vocab.txt"
    rc = main([
        "tokenizer-train", "--corpus", str(corpus_file), "--vocab-out", str(path),
        "--vocab-size", "60", "--sentinel-count", "8",
    ])
    assert rc == 0
    return path


# runs on the first argv[1] CPUs it may use, imports numpy first when
# argv[2] says so, then prints OPENBLAS_NUM_THREADS at the moment numpy is
# first imported and minit5's part threads
_BLAS_PROBE = """
import os, sys

os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[1])])
seen = {}


class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and name not in seen:
            seen[name] = os.environ.get("OPENBLAS_NUM_THREADS")
        return None


sys.meta_path.insert(0, Probe())
if sys.argv[2] == "numpy":
    import numpy
import minit5.cli
print(seen["numpy"], minit5.training.PART_THREADS)
"""


class TestThreads:
    def _threads_at_numpy_import(self, cpus, first="minit5", **env_vars):
        """(BLAS threads, part threads) in a process on cpus CPUs that
        imports `first` first."""
        if len(os.sched_getaffinity(0)) < cpus:
            pytest.skip(f"needs {cpus} usable CPUs")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MINIT5_THREADS")}
        src = os.path.dirname(os.path.dirname(os.path.abspath(minit5.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(env_vars)
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(cpus), first], env=env, capture_output=True,
                              text=True, check=True)
        blas, parts = done.stdout.split()
        return blas, int(parts)

    def test_minit5_threads_is_set_before_numpy_loads(self):
        # on one CPU there is one part thread, so BLAS gets the whole cap
        assert self._threads_at_numpy_import(1, MINIT5_THREADS="3") == ("3", 1)

    def test_explicit_blas_setting_wins(self):
        assert self._threads_at_numpy_import(1, MINIT5_THREADS="3", OPENBLAS_NUM_THREADS="2") == ("2", 1)

    def test_two_cpus_run_two_parts_on_one_blas_thread_each(self):
        assert self._threads_at_numpy_import(2) == ("1", 2)

    def test_the_cap_is_shared_between_the_part_threads(self):
        assert self._threads_at_numpy_import(2, MINIT5_THREADS="5") == ("2", 2)

    def test_one_thread_runs_the_parts_in_turn(self):
        assert self._threads_at_numpy_import(2, MINIT5_THREADS="1") == ("1", 1)

    def test_explicit_blas_threads_cut_the_part_threads(self):
        # two parts at 2 BLAS threads each would crowd 2 CPUs
        assert self._threads_at_numpy_import(2, OPENBLAS_NUM_THREADS="2") == ("2", 1)
        assert self._threads_at_numpy_import(2, OPENBLAS_NUM_THREADS="1") == ("1", 2)

    def test_numpy_loaded_first_runs_blas_on_every_cpu_and_the_parts_in_turn(self):
        assert self._threads_at_numpy_import(2, first="numpy") == ("None", 1)


# allocates, touches and frees three 16 MiB float32 arrays per cycle, as a
# training step frees its activations, and prints the minor page faults of
# 8 cycles. Hugepage advice would count faults in 2 MiB units.
_FAULT_PROBE = """
import resource

import minit5
import numpy as np

np._core.multiarray._set_madvise_hugepage(False)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(8):
    arrays = [np.empty((16 << 20) // 4, dtype=np.float32) for _ in range(3)]
    for a in arrays:
        a.fill(1.0)
    del a, arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# import minit5 with the C library lookup failing as the argument says
_NO_MALLOPT = """
import ctypes, sys


class NoMallopt:
    def __init__(self, name):
        if sys.argv[1] == "OSError":
            raise OSError("no C library")

    def __getattr__(self, name):
        raise AttributeError(name)


ctypes.CDLL = NoMallopt
import minit5

print(minit5.preset("tiny").d_model)
"""


def _run_python(code, *argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    src = os.path.dirname(os.path.dirname(os.path.abspath(minit5.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


class TestMallocThresholds:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc thresholds are set on glibc only")
    def test_freed_arrays_are_reused_not_faulted_in_again(self):
        # glibc's defaults trim the heap (or unmap the arrays) on every free,
        # so each cycle faults all its 3 * 4096 pages in again
        pages = 3 * (16 << 20) // resource.getpagesize()
        assert int(_run_python(_FAULT_PROBE)) < 2 * pages

    @pytest.mark.parametrize("failure", ["OSError", "AttributeError"])
    def test_import_works_without_mallopt(self, failure):
        assert _run_python(_NO_MALLOPT, failure) == "64"


# runs the minit5 command line with every scipy import failing
_NO_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"blocked import of {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from minit5.cli import main

sys.exit(main(sys.argv[1:]))
"""


class TestNumpyOnly:
    def test_pipeline_runs_with_scipy_blocked(self, tmp_path, corpus_file):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(minit5.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        vocab = tmp_path / "vocab.txt"
        dataset = tmp_path / "data.csv"
        _write_dataset(dataset, [["kje gori", "gori"], ["voda teče", "teče"]])
        for argv in (
            ["tokenizer-train", "--corpus", corpus_file, "--vocab-out", vocab, "--vocab-size", "60",
             "--sentinel-count", "8"],
            ["pretrain", "--corpus", corpus_file, "--vocab", vocab, "--output-dir", tmp_path / "pre",
             "--steps", "2", "--seq-len", "16", "--batch-tokens", "96"],
            ["finetune", "--train", dataset, "--validation", dataset, "--vocab", vocab, "--task", "summarization",
             "--init", tmp_path / "pre" / "ckpt-00000002.bin", "--output-dir", tmp_path / "ft", "--epochs", "1",
             "--max-output-tokens", "3"],
            ["evaluate", "--dataset", dataset, "--vocab", vocab, "--checkpoint", tmp_path / "ft" / "best.bin",
             "--task", "summarization", "--output-dir", tmp_path / "eval", "--max-output-tokens", "3"],
        ):
            done = subprocess.run([sys.executable, "-c", _NO_SCIPY, *map(str, argv)], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, f"{argv[0]}: {done.stderr}"

    def test_scipy_is_no_dependency(self):
        # numpy is the only dependency: every import in the package, those
        # inside functions too, is of the standard library, numpy or minit5
        tomllib = pytest.importorskip("tomllib")
        package = os.path.dirname(os.path.abspath(minit5.__file__))
        allowed = set(sys.stdlib_module_names) | {"numpy", "minit5"}
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                assert {m.split(".")[0] for m in modules} <= allowed, f"{name}:{node.lineno} imports {modules}"
        with open(os.path.join(os.path.dirname(os.path.dirname(package)), "pyproject.toml"), "rb") as f:
            dependencies = tomllib.load(f)["project"]["dependencies"]
        assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in dependencies] == ["numpy"]

    def test_every_import_is_used(self):
        # a name a module imports is used there or listed in its __all__; in
        # model.py it may also be a tensor op that the benchmark's traced run
        # finds in that namespace to time (perfbench/metrics.py TENSOR_OPS)
        package = os.path.dirname(os.path.abspath(minit5.__file__))
        with open(os.path.join(os.path.dirname(os.path.dirname(package)), "perfbench", "metrics.py"),
                  encoding="utf-8") as f:
            tensor_ops = next(ast.literal_eval(node.value) for node in ast.parse(f.read()).body
                              if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TENSOR_OPS")
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            imported, allowed = {}, set(tensor_ops) if name == "model.py" else set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                    for alias in node.names:
                        imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
                elif isinstance(node, ast.Name):
                    allowed.add(node.id)
                elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                    allowed.update(ast.literal_eval(node.value))
            unused = {n: line for n, line in imported.items() if n not in allowed}
            assert not unused, f"{name} imports names it does not use (name: line): {unused}"

    def test_every_top_level_function_and_class_is_referenced(self):
        # code that nothing calls is deleted: each function or class defined
        # at the top of a module of the package appears as a whole word in a
        # Python file under src/, tests/, demos/ or perfbench/, on some line
        # other than its own def or class line
        package = os.path.dirname(os.path.abspath(minit5.__file__))
        root = os.path.dirname(os.path.dirname(package))
        words, sources = Counter(), {}
        for top in ("src", "tests", "demos", "perfbench"):
            for directory, _, files in os.walk(os.path.join(root, top)):
                for name in files:
                    if name.endswith(".py"):
                        path = os.path.join(directory, name)
                        with open(path, encoding="utf-8") as f:
                            sources[path] = f.read()
                        words.update(re.findall(r"\w+", sources[path]))
        unreferenced = []
        for name in sorted(os.listdir(package)):
            path = os.path.join(package, name)
            if not name.endswith(".py"):
                continue
            lines = sources[path].splitlines()
            for node in ast.parse(sources[path], name).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    own = re.findall(r"\w+", lines[node.lineno - 1]).count(node.name)
                    if words[node.name] == own:
                        unreferenced.append(f"{name}:{node.lineno} {node.name}")
        assert not unreferenced, f"defined but never referenced: {unreferenced}"


class TestBudget:
    def test_table_within_five_percent_of_reference(self, capsys):
        assert main(["budget"]) == 0
        out = capsys.readouterr().out
        ratios = []
        for line in out.splitlines()[1:]:
            parts = line.split()
            ratios.append(float(parts[-1]))
        for got, want in zip(sorted(ratios), sorted([5.5, 20.0, 33.0, 68.0, 414.0])):
            assert abs(got - want) / want < 0.05

    def test_expected_renderings_present(self, capsys):
        main(["budget"])
        out = capsys.readouterr().out
        for shown in ("5.46", "19.99", "33.31", "68.27", "416.70"):
            assert shown in out

    def test_custom_ratio(self, capsys):
        rc = main(["budget", "--steps", "1000", "--batch-tokens", "100", "--params", "50000"])
        assert rc == 0
        assert "2.00" in capsys.readouterr().out

    def test_custom_ratio_needs_all_three(self):
        assert main(["budget", "--steps", "1000"]) == 1


class TestTokenizerTrain:
    def test_writes_vocab_and_merges(self, vocab_file):
        vocab = load_vocab(vocab_file)
        assert len(vocab) == 60
        assert vocab.sentinel_count == 8
        assert (vocab_file.parent / (vocab_file.name + ".merges")).exists()

    def test_reproducible_bitwise(self, tmp_path, corpus_file):
        out1 = tmp_path / "v1.txt"
        out2 = tmp_path / "v2.txt"
        for out in (out1, out2):
            main(["tokenizer-train", "--corpus", str(corpus_file), "--vocab-out", str(out),
                  "--vocab-size", "60", "--sentinel-count", "8"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_corpus_is_data_error(self, tmp_path):
        rc = main(["tokenizer-train", "--corpus", str(tmp_path / "nope.txt"),
                   "--vocab-out", str(tmp_path / "v.txt")])
        assert rc == 2

    @pytest.mark.parametrize("size, message", [(4, "too small"), (500, "exhausted")])
    def test_size_the_corpus_cannot_fill_is_data_error(self, tmp_path, corpus_file, capsys, size, message):
        rc = main(["tokenizer-train", "--corpus", str(corpus_file), "--vocab-out", str(tmp_path / "v.txt"),
                   "--vocab-size", str(size), "--sentinel-count", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert not (tmp_path / "v.txt").exists()

    def test_streamed_corpus_matches_the_text(self, tmp_path):
        # the file is read line by line; CRLF endings and a U+2028 inside a
        # line are whitespace to str.split, so the words are those of the text
        text = "kje gori\r\nna hribu\u2028kje gori\r\n\r\nvoda teče po strugi\r\n"
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(text.encode("utf-8"))
        assert main(["tokenizer-train", "--corpus", str(corpus), "--vocab-out", str(tmp_path / "cli.txt"),
                     "--vocab-size", "40", "--sentinel-count", "4"]) == 0
        save_vocab(train_bpe(text, 40, sentinel_count=4), tmp_path / "lib.txt")
        for suffix in ("", ".merges"):
            cli, lib = tmp_path / f"cli.txt{suffix}", tmp_path / f"lib.txt{suffix}"
            assert cli.read_bytes() == lib.read_bytes()


    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_merges_out_is_gone(self, tmp_path, corpus_file, capsys, source):
        argv = ["tokenizer-train", "--corpus", str(corpus_file), "--vocab-out", str(tmp_path / "v.txt")]
        if source == "config":
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"merges_out": str(tmp_path / "m.txt")}), encoding="utf-8")
            argv += ["--config", str(config)]
        else:
            argv += ["--merges-out", str(tmp_path / "m.txt")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "v.txt").exists()


class TestVocabLoading:
    """A vocabulary whose special ids, special strings or merges are not
    the ones the tokenizer fixes is a data error naming the file."""

    def _dedup(self, tmp_path, corpus_file, vocab_file, capsys):
        rc = main(["dedup", "--input", str(corpus_file), "--output", str(tmp_path / "clean.txt"),
                   "--vocab", str(vocab_file)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1 and "Traceback" not in err
        assert str(vocab_file) in err
        assert not (tmp_path / "clean.txt").exists()
        return err

    def _edit(self, vocab_file, edit):
        lines = vocab_file.read_text(encoding="utf-8").splitlines()
        edit(lines)
        vocab_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("ids", ["1,0,2", "0,1,3", "1,28,4"])
    def test_other_special_ids_in_header_exit_2(self, tmp_path, corpus_file, vocab_file, capsys, ids):
        def edit(lines):
            lines[0] = lines[0].rsplit(",", 3)[0] + "," + ids
        self._edit(vocab_file, edit)
        assert f"special ids {ids} in the header" in self._dedup(tmp_path, corpus_file, vocab_file, capsys)

    def test_swapped_special_strings_exit_2(self, tmp_path, corpus_file, vocab_file, capsys):
        def edit(lines):
            lines[1], lines[2] = lines[2], lines[1]
        self._edit(vocab_file, edit)
        assert "ids 0-2 must be <pad>, </s>, <unk>" in self._dedup(tmp_path, corpus_file, vocab_file, capsys)

    def test_merges_from_another_corpus_exit_2(self, tmp_path, corpus_file, vocab_file, capsys):
        other_corpus = tmp_path / "other.txt"
        other_corpus.write_text("mlin melje zrnje počasi\n\nmlin melje zrnje hitro\n" * 3, encoding="utf-8")
        other = tmp_path / "other-vocab.txt"
        assert main(["tokenizer-train", "--corpus", str(other_corpus), "--vocab-out", str(other),
                     "--vocab-size", "40", "--sentinel-count", "8"]) == 0
        capsys.readouterr()
        merges = tmp_path / "vocab.txt.merges"
        merges.write_bytes((tmp_path / "other-vocab.txt.merges").read_bytes())
        err = self._dedup(tmp_path, corpus_file, vocab_file, capsys)
        assert err == f"data error: {merges} does not match {vocab_file}\n"


class TestDedup:
    def test_removes_duplicates_and_writes_stats(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "clean.txt"
        rc = main(["dedup", "--input", str(corpus_file), "--output", str(out),
                   "--ngram", "3"])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("kje gori na hribu") == 1
        assert text.count("voda teče po strugi") == 1
        stats = (tmp_path / "clean.txt.stats").read_text(encoding="utf-8")
        assert "paragraphs_dropped=2" in stats
        assert "Total after deduplication" in capsys.readouterr().out

    def test_second_pass_drops_nothing(self, tmp_path, corpus_file):
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        main(["dedup", "--input", str(corpus_file), "--output", str(first), "--ngram", "3"])
        main(["dedup", "--input", str(first), "--output", str(second), "--ngram", "3"])
        stats = (tmp_path / "second.txt.stats").read_text(encoding="utf-8")
        assert "paragraphs_dropped=0" in stats

    def test_vocab_adds_token_counts(self, tmp_path, corpus_file, vocab_file):
        out = tmp_path / "clean.txt"
        rc = main(["dedup", "--input", str(corpus_file), "--output", str(out),
                   "--ngram", "3", "--vocab", str(vocab_file)])
        assert rc == 0
        stats = dict(
            line.split("=", 1) for line in
            (tmp_path / "clean.txt.stats").read_text(encoding="utf-8").splitlines()
        )
        assert int(stats["tokens_in"]) > int(stats["tokens_kept"]) > 0

    @pytest.mark.parametrize("target", ["output", "input"])
    def test_stats_file_that_is_the_output_or_input_exits_1_before_writing(self, tmp_path, corpus_file, capsys,
                                                                         target):
        out = tmp_path / "clean.txt"
        path = {"output": out, "input": corpus_file}[target]
        stats = os.path.join(path.parent, ".", path.name)  # another spelling of the same file
        rc = main(["dedup", "--input", str(corpus_file), "--output", str(out), "--stats-out", stats])
        assert rc == 1
        assert capsys.readouterr().err == f"error: dedup: the stats file {stats} would overwrite the --{target} file\n"
        assert corpus_file.read_text(encoding="utf-8") == CORPUS
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt"]


class TestConfigHandling:
    def test_config_file_supplies_values_flags_win(self, tmp_path, corpus_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus": str(corpus_file),
            "vocab_out": str(tmp_path / "from_config.txt"),
            "vocab_size": 60,
            "sentinel_count": 8,
        }), encoding="utf-8")
        flag_out = tmp_path / "from_flag.txt"
        rc = main(["tokenizer-train", "--config", str(cfg), "--vocab-out", str(flag_out)])
        assert rc == 0
        assert flag_out.exists()
        assert not (tmp_path / "from_config.txt").exists()

    def test_unknown_config_key_rejected(self, tmp_path, corpus_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": str(corpus_file), "vocabulary_size": 60}),
                       encoding="utf-8")
        assert main(["tokenizer-train", "--config", str(cfg)]) == 1

    def test_config_file_that_is_not_utf8_exits_1_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"ngram": 3, "stats_out": "\xff"}')
        assert main(["dedup", "--config", str(cfg), "--input", "in.txt", "--output", "out.txt"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff") and err.endswith(f", in {cfg}\n")

    @pytest.mark.parametrize("path, reason", [("missing.json", "No such file or directory"),
                                              (".", "Is a directory")])
    def test_missing_config_exits_1_naming_the_file(self, tmp_path, capsys, path, reason):
        cfg = tmp_path / path
        assert main(["dedup", "--config", str(cfg), "--input", "in.txt", "--output", "out.txt"]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: cannot read config ({reason})\n"

    def test_config_key_inside_a_config_file_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": "other.json", "ngram": 3}), encoding="utf-8")
        assert main(["dedup", "--config", str(cfg), "--input", "in.txt", "--output", "out.txt"]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config keys ['config']\n"

    @pytest.mark.parametrize("command, key, value, flags", [
        ("dedup", "ngram", "3", ["--input", "corpus", "--output", "clean.txt"]),
        ("budget", "steps", "5", []),
        ("evaluate", "task", ["ner"], ["--dataset", "corpus", "--vocab", "vocab", "--checkpoint", "c.bin",
                                       "--output-dir", "out"]),
        ("pretrain", "steps", None, ["--corpus", "corpus", "--vocab", "vocab", "--output-dir", "out"]),
    ])
    def test_config_value_of_wrong_type_exits_1(self, tmp_path, corpus_file, vocab_file, monkeypatch, capsys,
                                                command, key, value, flags):
        # null is allowed only where the default is None; without the check,
        # null steps would pretrain without end, so an empty batch stream
        # turns that into a quick traceback instead
        monkeypatch.setattr("minit5.training.token_batch_pack", lambda pairs, budget: iter(()))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        files = {"corpus": str(corpus_file), "vocab": str(vocab_file)}
        argv = [f if f.startswith("--") else files.get(f, str(tmp_path / f)) for f in flags]
        assert main([command, "--config", str(cfg), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {key} must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["tokenizer-train", "dedup", "evaluate", "budget"])
    def test_seed_is_no_option_of_a_command_that_never_reads_it(self, tmp_path, capsys, command):
        assert main([command, "--seed", "3"]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}), encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config keys ['seed']\n"

    def test_missing_required_option(self):
        assert main(["dedup"]) == 1

    def test_unknown_flag(self):
        assert main(["budget", "--frobnicate"]) == 1

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["pretrain", "--help"])
        out = capsys.readouterr().out
        assert "--batch-tokens" in out
        assert "default: 4096" in out
        assert "--noise-density" in out
        assert "default: 0.15" in out

    def test_help_lists_every_option_for_every_command(self, capsys):
        from minit5.cli import _SPECS

        for command, spec in _SPECS.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = capsys.readouterr().out
            for name in ["config", *spec]:
                assert f"--{name.replace('_', '-')}" in out, (command, name)
            assert "default:" in out or "required" in out


class TestPretrain:
    def test_zero_steps_writes_valid_checkpoint(self, tmp_path, corpus_file, vocab_file):
        out_dir = tmp_path / "run"
        rc = main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                   "--output-dir", str(out_dir), "--steps", "0", "--seq-len", "16",
                   "--batch-tokens", "128"])
        assert rc == 0
        ck = load_checkpoint(out_dir / "ckpt-00000000.bin")
        assert ck.step == 0
        assert ck.config.vocab_size == 60

    def test_short_run_logs_and_checkpoints(self, tmp_path, corpus_file, vocab_file):
        out_dir = tmp_path / "run"
        rc = main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                   "--output-dir", str(out_dir), "--steps", "3", "--seq-len", "16",
                   "--batch-tokens", "96", "--checkpoint-every", "2", "--seed", "5"])
        assert rc == 0
        log = (out_dir / "training.log").read_text(encoding="utf-8").splitlines()
        assert len(log) == 3
        # one line per step: step, loss, lr, tokens_seen
        for i, line in enumerate(log, start=1):
            step, loss, lr, tokens = [part.strip() for part in line.split(",")]
            assert int(step) == i
            float(loss), float(lr), int(tokens)
        assert (out_dir / "ckpt-00000002.bin").exists()
        assert (out_dir / "ckpt-00000003.bin").exists()

    def test_reproducible_loss_trajectory(self, tmp_path, corpus_file, vocab_file):
        logs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                  "--output-dir", str(out_dir), "--steps", "2", "--seq-len", "16",
                  "--batch-tokens", "96", "--seed", "9"])
            logs.append((out_dir / "training.log").read_text(encoding="utf-8"))
        assert logs[0] == logs[1]

    def test_two_part_runs_are_byte_identical_on_any_thread_count(self, tmp_path, corpus_file, vocab_file,
                                                                   monkeypatch):
        # every batch split in two: the same seed gives the same log and
        # checkpoint, whether the parts run on two threads or in turn
        from minit5 import training

        real_split, splits = training._two_part_loss, []
        monkeypatch.setattr(training, "SPLIT_WORK", 0)
        monkeypatch.setattr(training, "_two_part_loss", lambda *args: splits.append(1) or real_split(*args))
        runs = []
        for name, threads in (("a", 2), ("b", 2), ("c", 1)):
            monkeypatch.setattr(training, "PART_THREADS", threads)
            out_dir = tmp_path / name
            assert main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                         "--output-dir", str(out_dir), "--steps", "3", "--seq-len", "16",
                         "--batch-tokens", "96", "--seed", "9"]) == 0
            runs.append([(out_dir / f).read_bytes() for f in ("training.log", "ckpt-00000003.bin")])
        assert len(splits) == 9
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("content, message", [
        (CORPUS.encode("utf-8") + b"\nvoda \xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"\n \n\n", "{corpus}: corpus too small to pretrain on"),
    ], ids=["not-utf8", "blank"])
    def test_unusable_corpus_exits_2_before_writing(self, tmp_path, vocab_file, capsys, content, message):
        corpus = tmp_path / "bad.txt"
        corpus.write_bytes(content)
        rc = main(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab_file),
                   "--output-dir", str(tmp_path / "run"), "--steps", "1", "--seq-len", "16"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: " + message.format(corpus=corpus))
        assert not (tmp_path / "run").exists()

    @pytest.fixture()
    def sentinel_vocab(self, tmp_path):
        """A 120-token vocabulary with 10 sentinels and a corpus for it."""
        rng = np.random.default_rng(3)
        words = ["".join(rng.choice(list("abcdefghij"), size=rng.integers(2, 7))) for _ in range(400)]
        corpus = tmp_path / "words.txt"
        corpus.write_text("\n\n".join(" ".join(words[i:i + 20]) for i in range(0, 400, 20)) + "\n",
                          encoding="utf-8")
        vocab = tmp_path / "v120.txt"
        save_vocab(train_bpe(corpus.read_text(encoding="utf-8"), 120, sentinel_count=10), vocab)
        return corpus, vocab

    def _pretrain_32(self, tmp_path, sentinel_vocab, options):
        corpus, vocab = sentinel_vocab
        return main(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab), "--output-dir",
                     str(tmp_path / "run"), "--steps", "1", "--seq-len", "32", "--batch-tokens", "200", *options])

    @pytest.mark.parametrize("options, message", [
        (["--iid-rate", "1"], "i.i.d. denoising of 32-token sequences: a draw of 32 tokens at rate 1.0 expects "
                              "32 spans: 32 spans need 33 sentinels, vocabulary reserves 10"),
        (["--iid-rate", "0.3", "--mix", "0"], "i.i.d. denoising of 32-token sequences: a draw of 32 tokens at "
                                              "rate 0.3 expects 10 spans: 10 spans need 11 sentinels, "
                                              "vocabulary reserves 10"),
        # 29 spans would need 30 sentinels, but 3 clean tokens cannot separate them first
        (["--noise-density", "0.9", "--mean-span", "1"],
         "span corruption of 32-token sequences: no room for separating gaps: 3 clean tokens < 29 spans"),
        (["--noise-density", "0.6", "--mean-span", "2", "--mix", "1"],
         "span corruption of 32-token sequences: 10 spans need 11 sentinels, vocabulary reserves 10"),
    ])
    def test_too_few_sentinels_exit_2_before_writing(self, tmp_path, sentinel_vocab, capsys, options, message):
        files = sorted(tmp_path.rglob("*"))
        assert self._pretrain_32(tmp_path, sentinel_vocab, options) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == files

    @pytest.mark.parametrize("options", [
        ["--iid-rate", "0.25", "--mix", "0"],  # 8 corruptions: 9 sentinels
        ["--iid-rate", "1", "--mix", "1"],  # no i.i.d. denoising at all
        ["--noise-density", "0.9", "--mean-span", "1", "--mix", "0"],  # no span corruption at all
        ["--noise-density", "0.5", "--mean-span", "2", "--mix", "1"],  # 8 spans: 9 sentinels
    ])
    def test_sentinels_that_suffice_train(self, tmp_path, sentinel_vocab, options):
        assert self._pretrain_32(tmp_path, sentinel_vocab, options) == 0
        assert (tmp_path / "run" / "ckpt-00000001.bin").exists()

    def test_iid_draws_beyond_the_sentinels_do_not_stop_a_run(self, tmp_path, sentinel_vocab):
        # 8 corruptions expected, 9 sentinels fit: about one 32-token draw in
        # four corrupts 10 or more tokens, and step 2's batch holds one; such
        # a draw is drawn again rather than ending the run with exit 2
        assert self._pretrain_32(tmp_path, sentinel_vocab, ["--iid-rate", "0.25", "--mix", "0", "--steps", "4"]) == 0
        assert (tmp_path / "run" / "ckpt-00000004.bin").exists()

    @pytest.fixture()
    def word_vocab(self, tmp_path):
        """A vocabulary with 40 sentinels in which each of four words is one
        id, and a function writing a one-paragraph corpus of a given number
        of ids (its words plus EOS)."""
        words = ["voda", "teče", "mlin", "gori"]
        vocab = tmp_path / "v73.txt"
        save_vocab(train_bpe(" ".join(words * 40), 73, sentinel_count=40), vocab)

        def corpus(n_ids):
            path = tmp_path / f"corpus-{n_ids}.txt"
            path.write_text(" ".join(words[i % 4] for i in range(n_ids - 1)) + "\n", encoding="utf-8")
            return path

        return vocab, corpus

    def _pretrain_words(self, tmp_path, vocab, corpus, options):
        return main(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab), "--output-dir",
                     str(tmp_path / "run"), "--steps", "2", *options])

    def test_span_corruption_that_cannot_noise_the_last_piece_exits_2_before_writing(self, tmp_path, word_vocab,
                                                                                     capsys):
        # 101-token pieces make 38 spans, which 40 sentinels hold; a 3-token
        # last piece would make 2 spans of its 2 noise tokens, with 1 clean
        # token left to separate them
        vocab, corpus = word_vocab
        options = ["--seq-len", "101", "--mix", "1", "--noise-density", "0.5", "--mean-span", "1.33",
                   "--batch-tokens", "400"]
        assert self._pretrain_words(tmp_path, vocab, corpus(205), options) == 2
        assert capsys.readouterr().err == ("data error: span corruption of the corpus's 3-token last piece: "
                                           "no room for separating gaps: 1 clean tokens < 2 spans\n")
        assert not (tmp_path / "run").exists()
        assert self._pretrain_words(tmp_path, vocab, corpus(206), options) == 0  # a 4-token last piece
        assert (tmp_path / "run" / "ckpt-00000002.bin").exists()

    def test_batch_budget_below_the_longest_pair_exits_2_before_writing(self, tmp_path, word_vocab, capsys):
        # i.i.d. denoising can corrupt up to 39 of 64 tokens (40 sentinels):
        # 64 + 2 * 39 + 2 ids
        vocab, corpus = word_vocab
        assert self._pretrain_words(tmp_path, vocab, corpus(300), ["--seq-len", "64", "--batch-tokens", "50"]) == 2
        assert capsys.readouterr().err == ("data error: a pair noised from a 64-token sequence can hold 144 tokens, "
                                           "more than the 50-token --batch-tokens budget\n")
        assert not (tmp_path / "run").exists()
        assert self._pretrain_words(tmp_path, vocab, corpus(300), ["--seq-len", "64", "--batch-tokens", "144"]) == 0

    def test_finetune_resumes_from_pretrained_checkpoint(self, tmp_path, corpus_file, vocab_file):
        import csv

        pre_dir = tmp_path / "pre"
        main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
              "--output-dir", str(pre_dir), "--steps", "0", "--seq-len", "16",
              "--batch-tokens", "96"])
        train = tmp_path / "train.csv"
        with open(train, "w", encoding="utf-8", newline="") as f:
            csv.writer(f, quoting=csv.QUOTE_ALL).writerows(
                [["kje gori", "gori"], ["voda teče", "teče"]]
            )
        ft_dir = tmp_path / "ft"
        rc = main(["finetune", "--train", str(train), "--validation", str(train),
                   "--vocab", str(vocab_file), "--task", "summarization",
                   "--init", str(pre_dir / "ckpt-00000000.bin"),
                   "--output-dir", str(ft_dir), "--epochs", "1",
                   "--batch-examples", "2", "--max-output-tokens", "3"])
        assert rc == 0
        assert (ft_dir / "best.bin").exists()

    def test_finetune_vocab_mismatch_rejected(self, tmp_path, corpus_file, vocab_file):
        import csv

        pre_dir = tmp_path / "pre"
        main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
              "--output-dir", str(pre_dir), "--steps", "0", "--seq-len", "16",
              "--batch-tokens", "96"])
        other_vocab = tmp_path / "other.txt"
        main(["tokenizer-train", "--corpus", str(corpus_file), "--vocab-out", str(other_vocab),
              "--vocab-size", "55", "--sentinel-count", "8"])
        train = tmp_path / "t.csv"
        with open(train, "w", encoding="utf-8", newline="") as f:
            csv.writer(f, quoting=csv.QUOTE_ALL).writerow(["kje gori", "gori"])
        rc = main(["finetune", "--train", str(train), "--validation", str(train),
                   "--vocab", str(other_vocab), "--task", "summarization",
                   "--init", str(pre_dir / "ckpt-00000000.bin"),
                   "--output-dir", str(tmp_path / "ft")])
        assert rc == 1


def _write_dataset(path, rows):
    import csv

    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, quoting=csv.QUOTE_ALL)
        writer.writerows(rows)


class TestFinetuneAndEvaluate:
    def test_finetune_selects_best_and_evaluate_writes_report(self, tmp_path, vocab_file):
        train = tmp_path / "train.csv"
        val = tmp_path / "val.csv"
        rows = [["kje gori", "gori"], ["voda teče", "teče"], ["mlin melje", "melje"]]
        _write_dataset(train, rows)
        _write_dataset(val, rows[:2])
        out_dir = tmp_path / "ft"
        rc = main(["finetune", "--train", str(train), "--validation", str(val),
                   "--vocab", str(vocab_file), "--task", "summarization",
                   "--output-dir", str(out_dir), "--epochs", "2",
                   "--batch-examples", "2", "--max-output-tokens", "4", "--seed", "3"])
        assert rc == 0
        assert (out_dir / "epoch-001.bin").exists()
        assert (out_dir / "epoch-002.bin").exists()
        assert (out_dir / "best.bin").exists()
        selection = (out_dir / "selection.txt").read_text(encoding="utf-8")
        assert "selected=epoch-" in selection

        eval_dir = tmp_path / "eval"
        rc = main(["evaluate", "--dataset", str(val), "--vocab", str(vocab_file),
                   "--checkpoint", str(out_dir / "best.bin"), "--task", "summarization",
                   "--output-dir", str(eval_dir), "--max-output-tokens", "4"])
        assert rc == 0
        kv = (eval_dir / "report.kv").read_text(encoding="utf-8")
        assert "task=summarization" in kv
        assert re.search(r"rouge_l=\d\.\d{6}", kv)
        assert (eval_dir / "predictions.csv").exists()
        assert (eval_dir / "report.txt").exists()

    @pytest.mark.parametrize("task, rows", [
        ("boolq", [["Sestavek: kje gori Vprašanje: gori", "Pravilno."],
                   ["Sestavek: voda teče Vprašanje: melje", "Napačno."]]),
        ("ner", [["osebe: voda teče mimo mlina", "brez"], ["lokacije: kje gori na hribu", "hribu"]]),
    ])
    def test_finetune_selects_by_the_metric_evaluate_reports(self, tmp_path, vocab_file, capsys, task, rows):
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, rows)
        out_dir = tmp_path / "ft"
        rc = main(["finetune", "--train", str(dataset), "--validation", str(dataset),
                   "--vocab", str(vocab_file), "--task", task, "--output-dir", str(out_dir),
                   "--epochs", "2", "--seed", "3"])
        assert rc == 0
        metric = TASKS[task].metric
        *scored, selected = (out_dir / "selection.txt").read_text(encoding="utf-8").splitlines()
        for epoch, line in enumerate(scored, start=1):
            eval_dir = tmp_path / f"eval-{epoch}"
            assert main(["evaluate", "--dataset", str(dataset), "--vocab", str(vocab_file),
                         "--checkpoint", str(out_dir / f"epoch-{epoch:03d}.bin"), "--task", task,
                         "--output-dir", str(eval_dir)]) == 0
            headline = next(kv for kv in (eval_dir / "report.kv").read_text(encoding="utf-8").splitlines()
                            if kv.startswith(f"{metric}="))
            assert line == f"epoch-{epoch:03d} {headline}"
        best = int(selected.removeprefix("selected=epoch-"))
        value = float(scored[best - 1].split("=")[1])
        assert f"selected epoch {best} (validation {metric} {value:.4f})\n" in capsys.readouterr().out

    def test_evaluate_with_rigged_zero_model_formats_report_exactly(self, tmp_path, vocab_file):
        # a zero checkpoint decodes pads everywhere -> every generation is
        # invalid and runs to the 4-token boolq budget -> pinned report contents
        vocab = load_vocab(vocab_file)
        cfg = ModelConfig(vocab_size=len(vocab), d_model=8, d_ff=16, n_heads=2, d_kv=4,
                          enc_layers=1, dec_layers=1, rel_buckets=4, rel_max_distance=8)
        params = init_params(cfg, np.random.default_rng(0))
        for p in params.values():
            p.data[...] = 0.0
        ck_path = tmp_path / "zero.bin"
        save_checkpoint(ck_path, Checkpoint.from_model(cfg, params))
        dataset = tmp_path / "boolq.csv"
        _write_dataset(dataset, [
            ["Sestavek: a Vprašanje: b", "Pravilno."],
            ["Sestavek: c Vprašanje: d", "Napačno."],
        ])
        out_dir = tmp_path / "report"
        rc = main(["evaluate", "--dataset", str(dataset), "--vocab", str(vocab_file),
                   "--checkpoint", str(ck_path), "--task", "boolq",
                   "--output-dir", str(out_dir)])
        assert rc == 0
        kv = (out_dir / "report.kv").read_text(encoding="utf-8")
        assert kv == (
            "task=boolq\n"
            "examples=2\n"
            "accuracy=0.000000\n"
            "invalid_rate=1.000000\n"
            "generated_tokens_mean=4.000000\n"
            "budget_stop_rate=1.000000\n"
        )

    @staticmethod
    def _small_checkpoint(path, vocab_size, dropout=0.1):
        cfg = ModelConfig(vocab_size=vocab_size, d_model=8, d_ff=16, n_heads=2, d_kv=4,
                          enc_layers=1, dec_layers=1, rel_buckets=4, rel_max_distance=8, dropout=dropout)
        save_checkpoint(path, Checkpoint.from_model(cfg, init_params(cfg, np.random.default_rng(0))))

    @pytest.mark.parametrize("extra", [27, -10], ids=["larger", "smaller"])
    def test_evaluate_refuses_a_checkpoint_of_another_vocabulary_size(self, tmp_path, vocab_file, capsys, extra):
        n = len(load_vocab(vocab_file))
        self._small_checkpoint(tmp_path / "ck.bin", n + extra)
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"]])
        rc = main(["evaluate", "--dataset", str(dataset), "--vocab", str(vocab_file),
                   "--checkpoint", str(tmp_path / "ck.bin"), "--task", "summarization",
                   "--output-dir", str(tmp_path / "eval")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint vocabulary size {n + extra} does not match {vocab_file} ({n} tokens)\n")
        assert not (tmp_path / "eval").exists()

    def test_finetune_from_a_checkpoint_trains_with_the_dropout_option(self, tmp_path, vocab_file):
        self._small_checkpoint(tmp_path / "ck.bin", len(load_vocab(vocab_file)), dropout=0.1)
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"], ["voda teče", "teče"]])
        rc = main(["finetune", "--train", str(dataset), "--validation", str(dataset),
                   "--vocab", str(vocab_file), "--task", "summarization", "--init", str(tmp_path / "ck.bin"),
                   "--output-dir", str(tmp_path / "ft"), "--epochs", "1", "--max-output-tokens", "2",
                   "--dropout", "0"])
        assert rc == 0
        assert load_checkpoint(tmp_path / "ft" / "epoch-001.bin").config.dropout == 0.0

    def test_unknown_task_is_usage_error(self, tmp_path, vocab_file):
        assert main(["evaluate", "--dataset", "x.csv", "--vocab", str(vocab_file),
                     "--checkpoint", "c.bin", "--task", "nope",
                     "--output-dir", str(tmp_path)]) == 1

    def test_unknown_finetune_task_exits_1_listing_the_tasks(self, tmp_path, vocab_file, capsys):
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"]])
        rc = main(["finetune", "--train", str(dataset), "--validation", str(dataset),
                   "--vocab", str(vocab_file), "--task", "nope", "--output-dir", str(tmp_path / "ft")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unknown task 'nope'; choose from {sorted(TASKS)}\n"
        assert not (tmp_path / "ft").exists()

    def test_finetune_runs_the_epochs_of_the_task_row_by_default(self, tmp_path, vocab_file):
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"], ["voda teče", "teče"]])
        out_dir = tmp_path / "ft"
        rc = main(["finetune", "--train", str(dataset), "--validation", str(dataset),
                   "--vocab", str(vocab_file), "--task", "summarization",
                   "--output-dir", str(out_dir), "--max-output-tokens", "2"])
        assert rc == 0
        epochs = TASKS["summarization"].epochs
        assert sorted(p.name for p in out_dir.glob("epoch-*.bin")) == [
            f"epoch-{e:03d}.bin" for e in range(1, epochs + 1)]
        lines = (out_dir / "selection.txt").read_text(encoding="utf-8").splitlines()
        assert [line.split()[0] for line in lines[:-1]] == [f"epoch-{e:03d}" for e in range(1, epochs + 1)]
        assert lines[-1].startswith("selected=epoch-")

    def test_best_bin_holds_the_selected_epochs_arrays(self, tmp_path, vocab_file, monkeypatch):
        # each epoch scores lower than the one before, so the first is
        # selected while two more epochs train the parameters it shares
        scores = itertools.count(2)
        monkeypatch.setattr("minit5.evaluation.rouge_l", lambda c, r: 1.0 / next(scores))
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"], ["voda teče", "teče"]])
        out_dir = tmp_path / "ft"
        assert main(["finetune", "--train", str(dataset), "--validation", str(dataset), "--vocab", str(vocab_file),
                     "--task", "summarization", "--output-dir", str(out_dir), "--epochs", "3",
                     "--max-output-tokens", "2"]) == 0
        assert (out_dir / "selection.txt").read_text(encoding="utf-8").endswith("selected=epoch-001\n")
        best, first, last = (load_checkpoint(out_dir / name) for name in ("best.bin", "epoch-001.bin", "epoch-003.bin"))
        assert best.step == first.step == 1
        assert best.params.keys() == first.params.keys()
        for name, a in best.params.items():
            assert a.tobytes() == first.params[name].tobytes(), name
        assert any(a.tobytes() != last.params[name].tobytes() for name, a in best.params.items())

    def test_finetune_init_keeps_no_loaded_array_after_the_first_update(self, tmp_path, vocab_file, monkeypatch):
        # training replaces every parameter array, so the checkpoint it
        # started from, parameters and moments, must not be held on to
        import minit5.training as training

        cfg = ModelConfig(vocab_size=len(load_vocab(vocab_file)), d_model=8, d_ff=16, n_heads=2, d_kv=4,
                          enc_layers=1, dec_layers=1, rel_buckets=4, rel_max_distance=8)
        params = init_params(cfg, np.random.default_rng(0))
        save_checkpoint(tmp_path / "ck.bin", Checkpoint.from_model(cfg, params, optimizer=AdamW(params)))
        loaded, alive = [], []

        def load_checkpoint(path):
            ck = real_load(path)
            loaded.extend(weakref.ref(a) for group in (ck.params, ck.optimizer["m"], ck.optimizer["v"])
                          for a in group.values())
            return ck

        def train_step(*args, **kwargs):
            loss = real_step(*args, **kwargs)
            alive.append(sum(ref() is not None for ref in loaded))
            return loss

        real_load, real_step = training.load_checkpoint, training.train_step
        monkeypatch.setattr(training, "load_checkpoint", load_checkpoint)
        monkeypatch.setattr(training, "train_step", train_step)
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"], ["voda teče", "teče"]])
        assert main(["finetune", "--train", str(dataset), "--validation", str(dataset), "--vocab", str(vocab_file),
                     "--task", "summarization", "--init", str(tmp_path / "ck.bin"), "--output-dir",
                     str(tmp_path / "ft"), "--epochs", "1", "--batch-examples", "1", "--max-output-tokens", "2"]) == 0
        assert len(loaded) == 3 * len(params) and alive == [0, 0]


class TestExitCodes:
    def test_numerical_failure_exits_3(self, tmp_path, corpus_file, vocab_file, monkeypatch):
        from minit5.training import NumericalError

        def explode(*args, **kwargs):
            raise NumericalError("non-finite gradient in parameter 'embedding'")

        monkeypatch.setattr("minit5.training.teacher_forced_loss", explode)
        rc = main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                   "--output-dir", str(tmp_path / "run"), "--steps", "1",
                   "--seq-len", "16", "--batch-tokens", "96"])
        assert rc == 3

    @pytest.mark.parametrize("command, option, value", [
        pytest.param("pretrain", "steps", -1, id="steps--1"),
        pytest.param("pretrain", "batch_tokens", 0, id="batch_tokens-0"),
        pytest.param("pretrain", "checkpoint_every", -1, id="checkpoint_every--1"),
        ("pretrain", "seq_len", 1),
        ("pretrain", "warmup", 0),
        ("pretrain", "dropout", 1.0),
        ("pretrain", "dropout", 1.5),
        ("pretrain", "dropout", -0.5),
        ("finetune", "batch_examples", 0),
        ("finetune", "batch_examples", -2),
        ("finetune", "epochs", 0),
        ("finetune", "max_output_tokens", 0),
        ("finetune", "dropout", 1.0),
        ("evaluate", "max_output_tokens", 0),
        ("tokenizer-train", "sentinel_count", -1),
        ("tokenizer-train", "vocab_size", 0),
        ("tokenizer-train", "vocab_size", -5),
        ("dedup", "threshold", -1.0),
        ("dedup", "threshold", 1.5),
        ("budget", "steps", 0),
        ("pretrain", "mean_span", 0),
        ("pretrain", "mix", 2),
        ("pretrain", "mix", -0.1),
        ("pretrain", "noise_density", 5),
        ("pretrain", "iid_rate", 1.5),
        ("pretrain", "lr", 0),
        ("pretrain", "lr", -1),
        ("finetune", "lr", 0),
        ("finetune", "lr", -1),
        ("pretrain", "seed", -1),
        ("finetune", "seed", -1),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_pretrain_option_exits_1_before_writing(self, tmp_path, corpus_file, vocab_file,
                                                                 capsys, command, option, value, source):
        # every other option is valid, so each run would otherwise write files
        dataset = tmp_path / "data.csv"
        _write_dataset(dataset, [["kje gori", "gori"], ["voda teče", "teče"]])
        cfg = ModelConfig(vocab_size=60, d_model=8, d_ff=16, n_heads=2, d_kv=4, enc_layers=1, dec_layers=1)
        checkpoint = tmp_path / "model.bin"
        save_checkpoint(checkpoint, Checkpoint.from_model(cfg, init_params(cfg, np.random.default_rng(0))))
        out_dir = tmp_path / "out"
        options = {
            "tokenizer-train": {"corpus": corpus_file, "vocab_out": tmp_path / "new.txt", "vocab_size": 60},
            "dedup": {"input": corpus_file, "output": tmp_path / "clean.txt"},
            "pretrain": {"corpus": corpus_file, "vocab": vocab_file, "output_dir": out_dir, "seq_len": 16},
            "finetune": {"train": dataset, "validation": dataset, "vocab": vocab_file, "task": "summarization",
                         "output_dir": out_dir, "epochs": 1, "max_output_tokens": 2},
            "evaluate": {"dataset": dataset, "vocab": vocab_file, "checkpoint": checkpoint,
                         "task": "summarization", "output_dir": out_dir},
            "budget": {"steps": 10, "batch_tokens": 10, "params": 10},
        }[command]
        options.pop(option, None)
        if source == "config":
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({option: value}), encoding="utf-8")
            options["config"] = config
        else:
            options[option] = value
        argv = [command]
        for name, v in options.items():
            argv += [f"--{name.replace('_', '-')}", str(v)]
        files = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        share = r"in \[0, 1\]"
        allowed = {"dropout": r"in \[0, 1\)", "threshold": share, "mix": share, "noise_density": share,
                   "iid_rate": share, "lr": "greater than 0"}.get(option, r"at least \d+")
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {command}: --{option.replace('_', '-')} must be {allowed}\n", err), err
        assert sorted(tmp_path.rglob("*")) == files

    @staticmethod
    def _nan_loss_on_call(monkeypatch, n):
        """Make training.teacher_forced_loss return NaN on its n-th call;
        returns the list of backward calls made meanwhile."""
        from minit5 import training
        from minit5.tensor import Tensor

        real_loss, real_backward = training.teacher_forced_loss, training.backward
        calls, backwards = [], []

        def loss(*args, **kwargs):
            calls.append(1)
            return Tensor(np.nan) if len(calls) == n else real_loss(*args, **kwargs)

        def counted_backward(*args):
            backwards.append(len(calls))
            return real_backward(*args)

        monkeypatch.setattr(training, "teacher_forced_loss", loss)
        monkeypatch.setattr(training, "backward", counted_backward)
        return backwards

    def test_non_finite_loss_exits_3_naming_the_step(self, tmp_path, corpus_file, vocab_file, capsys,
                                                      monkeypatch):
        backwards = self._nan_loss_on_call(monkeypatch, 2)
        rc = main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                   "--output-dir", str(tmp_path / "run"), "--steps", "3",
                   "--seq-len", "16", "--batch-tokens", "96"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: non-finite loss nan at step 2\n"
        assert backwards == [1]  # step 2 stopped before its backward pass

    def test_non_finite_gradient_exits_3_naming_parameter_and_step(self, tmp_path, corpus_file, vocab_file,
                                                                   capsys, monkeypatch):
        from minit5 import cli, training

        real_init, real_backward, params, calls = cli.init_params, training.backward, {}, []

        def init(*args):
            params.update(real_init(*args))
            return params

        def nan_on_second_call(loss, tape):
            real_backward(loss, tape)
            calls.append(1)
            if len(calls) == 2:
                params["encoder.final_norm"].grad[0] = np.nan

        monkeypatch.setattr(cli, "init_params", init)
        monkeypatch.setattr(training, "backward", nan_on_second_call)
        rc = main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                   "--output-dir", str(tmp_path / "run"), "--steps", "3",
                   "--seq-len", "16", "--batch-tokens", "96"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: non-finite gradient in parameter 'encoder.final_norm' "
                       "in update 2 at step 2\n")
        assert (tmp_path / "run" / "training.log").read_text(encoding="utf-8").count("\n") == 1

    @staticmethod
    def _fail_in_part(monkeypatch, part, step, fail):
        """Split every batch in two and make part `part` of step `step`
        return fail() when it is a Tensor, else raise it."""
        from minit5 import training

        real_split, real_loss, batches = training._two_part_loss, training._loss, []

        def split(config, params, pairs, train, rng):
            batches.append(pairs)
            return real_split(config, params, pairs, train, rng)

        def loss(config, params, pairs, train, rng):
            if len(batches) == step and (pairs[0] is batches[-1][0]) == (part == 0):
                return fail()
            return real_loss(config, params, pairs, train, rng)

        monkeypatch.setattr(training, "SPLIT_WORK", 0)
        monkeypatch.setattr(training, "_two_part_loss", split)
        monkeypatch.setattr(training, "_loss", loss)

    @pytest.mark.parametrize("part", [0, 1])
    def test_non_finite_loss_in_either_part_exits_3_naming_the_step(self, tmp_path, corpus_file, vocab_file,
                                                                     capsys, monkeypatch, part):
        from minit5.tensor import Tensor

        self._fail_in_part(monkeypatch, part, 2, lambda: Tensor(np.nan))
        rc = main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                   "--output-dir", str(tmp_path / "run"), "--steps", "3",
                   "--seq-len", "16", "--batch-tokens", "96"])
        assert rc == 3
        assert capsys.readouterr().err == "numerical failure: non-finite loss nan at step 2\n"

    def test_memory_error_in_part_1_exits_2_with_one_line(self, tmp_path, corpus_file, vocab_file, capsys,
                                                           monkeypatch):
        def fail():
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        self._fail_in_part(monkeypatch, 1, 1, fail)
        rc = main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                   "--output-dir", str(tmp_path / "run"), "--steps", "3",
                   "--seq-len", "16", "--batch-tokens", "96"])
        assert rc == 2
        assert capsys.readouterr().err == "data error: Unable to allocate 1.00 TiB for an array\n"

    def test_non_finite_finetune_loss_exits_3_naming_epoch_and_batch(self, tmp_path, vocab_file, capsys,
                                                                      monkeypatch):
        train = tmp_path / "train.csv"
        _write_dataset(train, [["kje gori", "gori"], ["voda teče", "teče"], ["mlin melje", "melje"]])
        backwards = self._nan_loss_on_call(monkeypatch, 4)
        rc = main(["finetune", "--train", str(train), "--validation", str(train),
                   "--vocab", str(vocab_file), "--task", "summarization", "--output-dir", str(tmp_path / "ft"),
                   "--epochs", "2", "--batch-examples", "2", "--max-output-tokens", "2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: non-finite loss nan at epoch 2, batch 2\n"
        assert backwards == [1, 2, 3]

    def test_corrupt_checkpoint_exits_2(self, tmp_path, vocab_file):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        dataset = tmp_path / "d.csv"
        dataset.write_text('"a","b"\n', encoding="utf-8")
        rc = main(["evaluate", "--dataset", str(dataset), "--vocab", str(vocab_file),
                   "--checkpoint", str(bad), "--task", "boolq",
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_version_1_checkpoint_exits_2(self, tmp_path, vocab_file, capsys):
        path = tmp_path / "old.bin"
        path.write_bytes(b"MNT5CKPT" + (1).to_bytes(4, "little") + b"\x00" * 64)  # a v1 file's first fields
        dataset = tmp_path / "d.csv"
        dataset.write_text('"a","b"\n', encoding="utf-8")
        rc = main(["evaluate", "--dataset", str(dataset), "--vocab", str(vocab_file),
                   "--checkpoint", str(path), "--task", "boolq", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "data error: unsupported checkpoint version 1 (expected 2)\n"

    def test_unknown_preset_exits_1(self, tmp_path, corpus_file, vocab_file, capsys):
        rc = main(["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                   "--output-dir", str(tmp_path / "run"), "--preset", "bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown preset 'bogus'")
        assert "Traceback" not in err

    def test_zero_ngram_exits_1(self, tmp_path, corpus_file, capsys):
        rc = main(["dedup", "--input", str(corpus_file), "--output", str(tmp_path / "clean.txt"),
                   "--ngram", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_out_of_range_sentinel_count_in_vocab_exits_2(self, tmp_path, corpus_file, vocab_file, capsys):
        lines = vocab_file.read_text(encoding="utf-8").splitlines()
        lines[0] = "1,60,-1," + lines[0].split(",", 3)[3]
        vocab_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["dedup", "--input", str(corpus_file), "--output", str(tmp_path / "clean.txt"),
                   "--vocab", str(vocab_file)])
        assert rc == 2
        assert capsys.readouterr().err == "data error: sentinel_count -1 out of range [0, 57]\n"

    def test_non_integer_vocab_header_exits_2(self, tmp_path, corpus_file, vocab_file, capsys):
        lines = vocab_file.read_text(encoding="utf-8").splitlines()
        lines[0] = "1,sixty," + lines[0].split(",", 2)[2]
        vocab_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["dedup", "--input", str(corpus_file), "--output", str(tmp_path / "clean.txt"),
                   "--vocab", str(vocab_file)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "malformed header" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("defect, message", [
        ("missing", "arrays[22] is ('decoder.layers.1.ffn_norm', '<f4', [8]), "
                    "its config needs ('decoder.layers.1.ffn.wo', '<f4', [16, 8])"),
        ("shape", "arrays[41] is ('encoder.rel_bias', '<f4', [64, 2]), "
                  "its config needs ('encoder.rel_bias', '<f4', [32, 2])"),
        ("extra", "arrays[29] is ('decoder.layers.2.ffn.wo', '<f4', [16, 8]), "
                  "its config needs ('decoder.rel_bias', '<f4', [32, 2])"),
        ("int32", "arrays[30] is ('embedding', '<i4', [60, 8]), its config needs ('embedding', '<f4', [60, 8])"),
        ("bool", "arrays[31] is ('encoder.final_norm', '|b1', [8]), "
                 "its config needs ('encoder.final_norm', '<f4', [8])"),
        ("float16", "arrays[23] is ('decoder.layers.1.ffn_norm', '<f2', [8]), "
                    "its config needs ('decoder.layers.1.ffn_norm', '<f4', [8])"),
        ("float64", "arrays[38] is ('encoder.layers.0.ffn.wi_1', '<f8', [8, 16]), "
                    "its config needs ('encoder.layers.0.ffn.wi_1', '<f4', [8, 16])"),
    ])
    @pytest.mark.parametrize("command", ["evaluate", "finetune"])
    def test_checkpoint_that_does_not_fit_its_config_exits_2_naming_the_array(self, tmp_path, vocab_file, capsys,
                                                                             command, defect, message):
        # well-formed files, each with one array that its config does not describe
        cfg = ModelConfig(vocab_size=len(load_vocab(vocab_file)), d_model=8, d_ff=16, n_heads=2, d_kv=4,
                          enc_layers=1, dec_layers=2)
        ck = Checkpoint.from_model(cfg, init_params(cfg, np.random.default_rng(0)))
        recast = {"int32": "embedding", "bool": "encoder.final_norm", "float16": "decoder.layers.1.ffn_norm",
                  "float64": "encoder.layers.0.ffn.wi_1"}  # of the float32 arrays, the one cast to defect
        if defect == "missing":
            del ck.params["decoder.layers.1.ffn.wo"]
        elif defect == "shape":
            ck.params["encoder.rel_bias"] = np.zeros((64, cfg.n_heads), np.float32)
        elif defect == "extra":
            ck.params["decoder.layers.2.ffn.wo"] = np.zeros((cfg.d_ff, cfg.d_model), np.float32)
        else:
            ck.params[recast[defect]] = ck.params[recast[defect]].astype(defect)
        checkpoint = tmp_path / "model.bin"
        save_checkpoint(checkpoint, ck)
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"], ["voda teče", "teče"]])
        argv = [command, "--vocab", str(vocab_file), "--task", "summarization", "--output-dir", str(tmp_path / "out"),
                "--max-output-tokens", "2"]
        if command == "evaluate":
            argv += ["--dataset", str(dataset), "--checkpoint", str(checkpoint)]
        else:
            argv += ["--train", str(dataset), "--validation", str(dataset), "--init", str(checkpoint), "--epochs", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: corrupt checkpoint at byte offset 16: invalid header " \
                                          f"(ValueError: {message})\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize("field", ["vocab_size", "d_model", "d_ff", "n_heads", "d_kv", "enc_layers", "dec_layers",
                                       "rel_buckets", "rel_max_distance"])
    def test_checkpoint_with_a_non_integer_size_exits_2_naming_the_field(self, tmp_path, vocab_file, capsys,
                                                                        field, value):
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"]])
        argv = self._evaluate_argv(tmp_path, vocab_file, dataset)
        path = tmp_path / "model.bin"
        blob = path.read_bytes()
        size = int.from_bytes(blob[12:16], "little")
        header = json.loads(blob[16 : 16 + size])
        header["config"][field] = value
        data = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:12] + len(data).to_bytes(4, "little") + data
                         + zlib.crc32(data).to_bytes(4, "little") + blob[16 + size + 4 :])
        assert main(argv) == 2
        assert capsys.readouterr().err == ("data error: corrupt checkpoint at byte offset 16: invalid header "
                                           f"(TypeError: ModelConfig.{field} must be an integer, got {value!r})\n")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _evaluate_argv(tmp_path, vocab_file, dataset):
        cfg = ModelConfig(vocab_size=len(load_vocab(vocab_file)), d_model=8, d_ff=16, n_heads=2, d_kv=4,
                          enc_layers=1, dec_layers=1)
        checkpoint = tmp_path / "model.bin"
        save_checkpoint(checkpoint, Checkpoint.from_model(cfg, init_params(cfg, np.random.default_rng(0))))
        return ["evaluate", "--dataset", str(dataset), "--vocab", str(vocab_file), "--checkpoint", str(checkpoint),
                "--task", "summarization", "--output-dir", str(tmp_path / "out")]

    @pytest.mark.parametrize("command", ["evaluate", "finetune"])
    def test_decode_budget_beyond_physical_memory_exits_2_before_allocating(self, tmp_path, vocab_file, capsys,
                                                                             command):
        # finetune refuses the budget of its validation decodes before it trains an epoch
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"]])
        if command == "evaluate":
            argv = self._evaluate_argv(tmp_path, vocab_file, dataset)
        else:
            argv = ["finetune", "--train", str(dataset), "--validation", str(dataset), "--vocab", str(vocab_file),
                    "--task", "summarization", "--output-dir", str(tmp_path / "out"), "--epochs", "1"]
        argv += ["--max-output-tokens", str(10**12)]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"data error: a decode budget of 1000000000000 tokens needs a (\d+)-byte K/V buffer, "
                            r"more than the (\d+) bytes of physical memory\n", err), err
        assert peak < 10_000_000, peak  # nothing budget-sized was allocated
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    def test_empty_csv_input_cell_exits_2_naming_the_line(self, tmp_path, vocab_file, capsys, command):
        dataset = tmp_path / "d.csv"
        _write_dataset(dataset, [["kje gori", "gori"], ["", "teče"]])
        if command == "evaluate":
            argv = self._evaluate_argv(tmp_path, vocab_file, dataset)
        else:
            argv = ["finetune", "--train", str(dataset), "--validation", str(dataset), "--vocab", str(vocab_file),
                    "--task", "summarization", "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: {dataset}:2: TaskExample.input_text is empty\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    @pytest.mark.parametrize("row, reason", [
        ("mlin melje zrnje,počasi\n", "unreadable CSV row (field larger than field limit (131072))"),
        ("mlin,melje\n", "expected 2 columns, found 1"),  # the file ends first
    ])
    def test_a_quote_that_never_closes_exits_2_naming_its_line(self, tmp_path, vocab_file, capsys, command, row,
                                                               reason):
        # the quote opened on line 2 never closes, so its field runs on
        # through the 10,000 rows below, past the csv module's field size
        # limit or to the end of the file
        dataset = tmp_path / "d.csv"
        dataset.write_text('"kje gori","gori"\n"voda teče,teče\n' + row * 10_000, encoding="utf-8")
        if command == "evaluate":
            argv = self._evaluate_argv(tmp_path, vocab_file, dataset)
        else:
            argv = ["finetune", "--train", str(dataset), "--validation", str(dataset), "--vocab", str(vocab_file),
                    "--task", "summarization", "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: {dataset}:2: {reason}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["dedup", "tokenizer-train", "pretrain", "finetune", "evaluate", "vocab",
                                         "merges"])
    def test_input_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path, corpus_file, vocab_file, capsys,
                                                            command):
        bad = tmp_path / "bad.txt"
        if command in ("finetune", "evaluate"):
            bad.write_bytes(b'"kje gori","gori"\n"voda \xff",".."\n')
        elif command == "vocab":  # read by dedup --vocab, as by every command that takes one
            bad.write_bytes(vocab_file.read_bytes() + b"\xff\n")
            shutil.copy(f"{vocab_file}.merges", f"{bad}.merges")
        elif command == "merges":
            bad = tmp_path / f"{vocab_file.name}.merges"
            bad.write_bytes(bad.read_bytes() + b"\xff \xff\n")
        else:
            bad.write_bytes(CORPUS.encode("utf-8") + b"\nvoda \xff\n")
        argv = self._evaluate_argv(tmp_path, vocab_file, bad) if command == "evaluate" else {
            "dedup": ["dedup", "--input", str(bad), "--output", str(tmp_path / "clean.txt")],
            "tokenizer-train": ["tokenizer-train", "--corpus", str(bad), "--vocab-out", str(tmp_path / "v.txt"),
                                "--vocab-size", "60", "--sentinel-count", "8"],
            "pretrain": ["pretrain", "--corpus", str(bad), "--vocab", str(vocab_file),
                         "--output-dir", str(tmp_path / "run"), "--steps", "1", "--seq-len", "16"],
            "finetune": ["finetune", "--train", str(bad), "--validation", str(bad), "--vocab", str(vocab_file),
                         "--task", "summarization", "--output-dir", str(tmp_path / "ft")],
            "vocab": ["dedup", "--input", str(corpus_file), "--output", str(tmp_path / "clean.txt"),
                      "--vocab", str(bad)],
            "merges": ["dedup", "--input", str(corpus_file), "--output", str(tmp_path / "clean.txt"),
                       "--vocab", str(vocab_file)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: 'utf-8' codec can't decode byte 0xff") and err.endswith(f", in {bad}\n")
