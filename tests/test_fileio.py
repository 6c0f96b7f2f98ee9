"""Every artifact reaches disk through minit5.fileio.atomic_write: a failed
write leaves the old file byte-identical and no `.tmp-*` file behind."""

import os
import re

import numpy as np
import pytest

import minit5
from minit5 import fileio
from minit5.bpe import load_vocab, save_vocab, train_bpe
from minit5.cli import main
from minit5.dedup import read_paragraphs
from minit5.model import ModelConfig, init_params
from minit5.tasks import load_csv_dataset, read_ner_file
from minit5.training import AdamW, Checkpoint, save_checkpoint

CORPUS = "kje gori na hribu\n\nvoda teče po strugi\n\nkje gori na hribu\n"


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _no_temp_files(directory):
    return not [p.name for p in directory.rglob(".tmp-*")]


def _disk_full(src, dst):
    raise OSError("no space left on device")


@pytest.fixture()
def full_disk(monkeypatch):
    """Make every rename fail, as a full or read-only disk would."""
    monkeypatch.setattr(os, "replace", _disk_full)


class TestAtomicWrite:
    def test_text_is_utf8_with_line_endings_as_given(self, tmp_path):
        path = tmp_path / "a.txt"
        with fileio.atomic_write(path) as f:
            f.write("č\r\nž\n")
        assert path.read_bytes() == "č\r\nž\n".encode("utf-8")

    def test_binary(self, tmp_path):
        path = tmp_path / "a.bin"
        with fileio.atomic_write(path, binary=True) as f:
            f.write(b"\x00\xff\n")
        assert path.read_bytes() == b"\x00\xff\n"

    def test_creates_missing_directories(self, tmp_path):
        path = tmp_path / "x" / "y" / "a.txt"
        fileio.atomic_write_text(path, "ok\n")
        assert path.read_text(encoding="utf-8") == "ok\n"

    def test_exception_in_body_leaves_old_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with fileio.atomic_write(path) as f:
                f.write("new, half written")
                raise RuntimeError("interrupted")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert _no_temp_files(tmp_path)

    def test_mode_follows_umask(self, tmp_path):
        path = tmp_path / "a.txt"
        fileio.atomic_write_text(path, "x")
        umask = os.umask(0)
        os.umask(umask)
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


class TestByteOrderMark:
    """A leading UTF-8 byte order mark is not data: a file read with one
    reads as its copy without one."""

    def _twins(self, tmp_path, name, text):
        """The same name in two directories, holding text without and with a BOM."""
        paths = []
        for directory, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / directory).mkdir(exist_ok=True)
            paths.append(tmp_path / directory / name)
            paths[-1].write_bytes(prefix + text.encode("utf-8"))
        return paths

    def test_csv(self, tmp_path):
        plain, bom = self._twins(tmp_path, "d.csv", '"voda teče","teče"\n"kje gori","gori"\n')
        assert load_csv_dataset(bom) == load_csv_dataset(plain)
        assert load_csv_dataset(bom)[0].input_text == "voda teče"

    def test_corpus(self, tmp_path):
        plain, bom = self._twins(tmp_path, "corpus.txt", CORPUS)
        assert list(read_paragraphs(bom)) == list(read_paragraphs(plain))
        for corpus in (plain, bom):
            assert main(["tokenizer-train", "--corpus", str(corpus), "--vocab-out", str(corpus.parent / "v.txt"),
                         "--vocab-size", "30", "--sentinel-count", "2"]) == 0
        assert _snapshot(tmp_path / "bom") == {**_snapshot(tmp_path / "plain"), "corpus.txt": bom.read_bytes()}

    def test_ner_file(self, tmp_path):
        plain, bom = self._twins(tmp_path, "ner.tsv", "d1\t1\tJanez\tB-PER\nd1\t1\tteče\tO\n")
        assert read_ner_file(bom) == read_ner_file(plain)

    def test_vocabulary(self, tmp_path):
        (tmp_path / "src").mkdir()
        save_vocab(train_bpe(CORPUS, vocab_size=30, sentinel_count=2), tmp_path / "src" / "v.txt")
        plain, bom = self._twins(tmp_path, "v.txt", (tmp_path / "src" / "v.txt").read_text(encoding="utf-8"))
        self._twins(tmp_path, "v.txt.merges", (tmp_path / "src" / "v.txt.merges").read_text(encoding="utf-8"))
        assert load_vocab(bom) == load_vocab(plain)

    def test_config_file(self, tmp_path, capsys):
        outputs = []
        for config in self._twins(tmp_path, "c.json", '{"steps": 10, "batch_tokens": 64, "params": 1000}'):
            assert main(["budget", "--config", str(config)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "custom" in outputs[0].out

class TestFailedRenameLeavesOldArtifact:
    def test_save_checkpoint(self, tmp_path, monkeypatch):
        cfg = ModelConfig(vocab_size=16, d_model=8, d_ff=16, n_heads=2, d_kv=4, enc_layers=1, dec_layers=1,
                          rel_buckets=4, rel_max_distance=8)
        params = init_params(cfg, np.random.default_rng(0))
        save_checkpoint(tmp_path / "model.ckpt", Checkpoint.from_model(cfg, params))
        before = _snapshot(tmp_path)
        monkeypatch.setattr(os, "replace", _disk_full)
        new = Checkpoint.from_model(cfg, params, step=7, optimizer=AdamW(params),
                                    rng=np.random.default_rng(1))
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "model.ckpt", new)
        assert _snapshot(tmp_path) == before
        assert _no_temp_files(tmp_path)

    def test_save_vocab(self, tmp_path, full_disk):
        (tmp_path / "vocab.txt").write_text("old vocabulary\n", encoding="utf-8")
        (tmp_path / "vocab.txt.merges").write_text("o ld\n", encoding="utf-8")
        before = _snapshot(tmp_path)
        with pytest.raises(OSError):
            save_vocab(train_bpe(CORPUS, vocab_size=30, sentinel_count=2), tmp_path / "vocab.txt")
        assert _snapshot(tmp_path) == before
        assert _no_temp_files(tmp_path)

    def test_tokenizer_train_keeps_old_files_and_a_users_tmp_file(self, tmp_path, full_disk):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(CORPUS, encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        (out / "vocab.txt").write_text("old vocabulary\n", encoding="utf-8")
        (out / "vocab.txt.merges").write_text("o ld\n", encoding="utf-8")
        (out / "vocab.txt.tmp").write_text("the user's own file\n", encoding="utf-8")
        before = _snapshot(out)
        rc = main(["tokenizer-train", "--corpus", str(corpus), "--vocab-out", str(out / "vocab.txt"),
                   "--vocab-size", "30", "--sentinel-count", "2"])
        assert rc == 2
        assert _snapshot(out) == before
        assert _no_temp_files(out)

    def test_dedup(self, tmp_path, full_disk):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(CORPUS, encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        (out / "clean.txt").write_text("old output\n", encoding="utf-8")
        (out / "clean.txt.stats").write_text("old=stats\n", encoding="utf-8")
        before = _snapshot(out)
        rc = main(["dedup", "--input", str(corpus), "--output", str(out / "clean.txt"), "--ngram", "2"])
        assert rc == 2
        assert _snapshot(out) == before
        assert _no_temp_files(out)


def test_dedup_input_error_midway_leaves_old_output(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(CORPUS.encode("utf-8") + b"\n\nbad \xff byte\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "clean.txt").write_text("old output\n", encoding="utf-8")
    before = _snapshot(out)
    rc = main(["dedup", "--input", str(corpus), "--output", str(out / "clean.txt"), "--ngram", "2"])
    assert rc == 2
    assert _snapshot(out) == before
    assert _no_temp_files(out)


def test_only_fileio_creates_temp_files_or_renames():
    src = os.path.dirname(os.path.abspath(minit5.__file__))
    offenders = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "fileio.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if re.search(r"\b(tempfile|mkstemp|os\.replace|os\.rename)\b", line):
                    offenders.append(f"{name}:{lineno}: {line.strip()}")
    assert not offenders
