import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import minit5
from minit5.bpe import load_vocab, save_vocab, train_bpe
from minit5.cli import main
from minit5.model import ModelConfig, init_params
from minit5.training import Checkpoint, load_checkpoint, save_checkpoint

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


# records OPENBLAS_NUM_THREADS at the moment numpy is first imported
_BLAS_PROBE = """
import os, sys

seen = {}


class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and name not in seen:
            seen[name] = os.environ.get("OPENBLAS_NUM_THREADS")
        return None


sys.meta_path.insert(0, Probe())
import minit5.cli
print(seen["numpy"])
"""


class TestThreads:
    def _blas_threads_at_numpy_import(self, **env_vars):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        src = os.path.dirname(os.path.dirname(os.path.abspath(minit5.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(env_vars)
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True,
                              text=True, check=True)
        return done.stdout.strip()

    def test_minit5_threads_is_set_before_numpy_loads(self):
        assert self._blas_threads_at_numpy_import(MINIT5_THREADS="3") == "3"

    def test_explicit_blas_setting_wins(self):
        assert self._blas_threads_at_numpy_import(MINIT5_THREADS="3", OPENBLAS_NUM_THREADS="2") == "2"


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
        from minit5.cli import _COMMON, _SPECS

        for command, spec in _SPECS.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = capsys.readouterr().out
            for name in {**_COMMON, **spec}:
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

    def test_evaluate_with_rigged_zero_model_formats_report_exactly(self, tmp_path, vocab_file):
        # a zero checkpoint decodes pads everywhere -> every generation is
        # invalid -> pinned report contents
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
        )

    def test_unknown_task_is_usage_error(self, tmp_path, vocab_file):
        assert main(["evaluate", "--dataset", "x.csv", "--vocab", str(vocab_file),
                     "--checkpoint", "c.bin", "--task", "nope",
                     "--output-dir", str(tmp_path)]) == 1


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

    @pytest.mark.parametrize("option, value", [("steps", -1), ("batch_tokens", 0), ("checkpoint_every", -1)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_pretrain_option_exits_1_before_writing(self, tmp_path, corpus_file, vocab_file,
                                                                 capsys, option, value, source):
        out_dir = tmp_path / "run"
        argv = ["pretrain", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
                "--output-dir", str(out_dir), "--seq-len", "16"]
        if source == "flag":
            argv += [f"--{option.replace('_', '-')}", str(value)]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({option: value}), encoding="utf-8")
            argv += ["--config", str(config)]
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: pretrain: --{option.replace('_', '-')} must be at least")
        assert "Traceback" not in err
        assert not out_dir.exists()

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
