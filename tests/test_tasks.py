import re

import numpy as np
import pytest

from minit5.evaluation import score_predictions
from minit5.tasks import (
    TASK_LABELS,
    TASKS,
    DatasetError,
    NerSentence,
    TaskExample,
    TaskFormatError,
    balance_ner,
    format_copa,
    format_ner,
    format_ner_all,
    format_sentiment,
    format_superglue,
    load_csv_dataset,
    mark_wsc,
    merge_simplification,
    read_ner_file,
    write_csv_dataset,
)

NER_SENT = NerSentence(
    tokens="Bolj teoretično pa se je problema lotil Radical Science Journal v Londonu .".split(),
    labels=["O", "O", "O", "O", "O", "O", "O", "B-ORG", "I-ORG", "I-ORG", "O", "B-LOC", "O"],
)

BOOLQ_RECORD = {
    "label": True,
    "passage": (
        "Kalcijev karbid - Kalcijev karbid je kemična spojina s kemično formulo CaC. "
        "Njegova glavna uporaba v industriji je pri proizvodnji acetilena in kalcijevega cianamida."
    ),
    "question": "kalcijev karbid cac2 je surovina za proizvodnjo acetilena",
}

CB_RECORD = {
    "premise": "Bil je kompleksen jezik. Ne zapisano, ampak predano. Lahko bi rekli, da je bil olupljen.",
    "hypothesis": "jezik je bil olupljen",
    "label": "entailment",
}

COPA_RECORD = {
    "premise": "Moje telo je metalo senco na travo.",
    "choice1": "Sonce je vzhajalo.",
    "choice2": "Trava je bila pokošena.",
    "question": "cause",
    "label": 0,
}

RTE_RECORD = {
    "premise": "V Iraku še ni bilo najdenega orožja za množično uničevanje.",
    "hypothesis": "V Iraku najdeno orožje za množično uničevanje.",
    "label": "not_entailment",
}

WSC_RECORD = {
    "target": {"span1_text": "skodelico", "span2_text": "bila", "span1_index": 4, "span2_index": 9},
    "text": "Iz steklenice sem v skodelico nalival vodo, dokler ni bila polna.",
    "label": True,
}


SUPERGLUE_RECORDS = {"boolq": BOOLQ_RECORD, "cb": CB_RECORD, "copa": COPA_RECORD, "rte": RTE_RECORD,
                     "wsc": WSC_RECORD}


def _format_label(task, label):
    """The example a task's formatter makes from a record with this source label."""
    if task == "sa":
        return format_sentiment("danes je lep dan", label)
    return format_superglue(dict(SUPERGLUE_RECORDS[task], label=label), task)


class TestTaskTable:
    def test_classification_tasks_are_the_rows_with_a_verbalizer(self):
        assert {tag for tag, task in TASKS.items() if task.verbalizer} == set(SUPERGLUE_RECORDS) | {"sa"}
        assert {task.metric for task in TASKS.values() if not task.verbalizer} == {
            "entity_f1", "word_accuracy", "rouge_l"}

    @pytest.mark.parametrize("task,label", [(tag, label) for tag, task in TASKS.items() for label in task.verbalizer])
    def test_formatter_target_is_a_label_the_scorer_accepts(self, task, label):
        target = _format_label(task, label).target_text
        assert target in TASK_LABELS[task]
        report = score_predictions(task, [target], [target])
        assert report.metrics == {TASKS[task].metric: 1.0}
        assert report.invalid_rate == 0.0

    def test_label_views_keep_their_order(self):
        assert TASK_LABELS == {
            "boolq": ("Pravilno.", "Napačno."),
            "cb": ("implikacija", "protislovje", "nevtralno"),
            "rte": ("implikacija", "ni implikacija"),
            "copa": ("prva", "druga"),
            "wsc": ("Pravilno.", "Napačno."),
            "sa": ("pozitivno", "negativno", "nevtralno"),
        }

    @pytest.mark.parametrize("task", ["boolq", "wsc"])
    @pytest.mark.parametrize("label,target", [
        (" TRUE ", "Pravilno."), ("False", "Napačno."), (True, "Pravilno."), (0, "Napačno."),
        (2, "Pravilno."), (None, "Napačno."), ([], "Napačno."), ("x", None), ("1", None),
    ])
    def test_boolean_labels(self, task, label, target):
        if target is None:
            with pytest.raises(TaskFormatError, match=re.escape(f"{task} label {label!r}")):
                _format_label(task, label)
        else:
            assert _format_label(task, label).target_text == target

    @pytest.mark.parametrize("label,target", [
        (0, "prva"), (1, "druga"), (False, "prva"), (True, "druga"), (0.0, "prva"),
        (2, None), ("0", None), (0.5, None), ([0], None),
    ])
    def test_copa_labels(self, label, target):
        if target is None:
            with pytest.raises(TaskFormatError, match=re.escape(f"copa label {label!r}")):
                _format_label("copa", label)
        else:
            assert _format_label("copa", label).target_text == target

    @pytest.mark.parametrize("task,label", [("cb", "not_entailment"), ("rte", "neutral"), ("cb", {}),
                                            ("sa", "Positive"), ("sa", "prva")])
    def test_a_label_outside_the_verbalizer_is_named(self, task, label):
        with pytest.raises(TaskFormatError, match=re.escape(f"{task} label {label!r}")):
            _format_label(task, label)

    @pytest.mark.parametrize("label", TASK_LABELS["sa"])
    def test_sentiment_takes_the_slovene_labels_as_they_are(self, label):
        assert _format_label("sa", label).target_text == label


class TestNerFormatting:
    def test_organizations_golden(self):
        ex = format_ner(NER_SENT, "organizations")
        assert ex.input_text == (
            "organizacije: Bolj teoretično pa se je problema lotil Radical Science Journal v Londonu ."
        )
        assert ex.target_text == "Radical Science Journal"

    def test_locations_golden(self):
        ex = format_ner(NER_SENT, "locations")
        assert ex.input_text.startswith("lokacije: Bolj")
        assert ex.target_text == "Londonu"

    def test_persons_empty_marker(self):
        ex = format_ner(NER_SENT, "persons")
        assert ex.input_text.startswith("osebe: ")
        assert ex.target_text == "brez"

    def test_three_examples_per_sentence(self):
        out = format_ner_all(NER_SENT)
        assert len(out) == 3
        assert [e.meta["category"] for e in out] == ["persons", "locations", "organizations"]

    def test_multiple_entities_in_order(self):
        sent = NerSentence(
            tokens="Ana in Bojan gresta v Celje".split(),
            labels=["B-PER", "O", "B-PER", "O", "O", "B-LOC"],
        )
        assert format_ner(sent, "persons").target_text == "Ana, Bojan"

    def test_entity_ending_the_sentence(self):
        sent = NerSentence(tokens="Janez živi v Novem mestu".split(),
                           labels=["B-PER", "O", "O", "B-LOC", "I-LOC"])
        ex = format_ner(sent, "locations")
        assert ex.input_text == "lokacije: Janez živi v Novem mestu"
        assert ex.target_text == "Novem mestu"

    def test_malformed_bio_rejected(self):
        sent = NerSentence(tokens=["a", "b"], labels=["O", "I-PER"])
        with pytest.raises(TaskFormatError):
            format_ner(sent, "persons")
        sent2 = NerSentence(tokens=["a", "b"], labels=["B-LOC", "I-PER"])
        with pytest.raises(TaskFormatError):
            format_ner(sent2, "persons")

    def test_unknown_category(self):
        with pytest.raises(TaskFormatError):
            format_ner(NER_SENT, "products")

    def test_length_mismatch_rejected(self):
        with pytest.raises(TaskFormatError):
            NerSentence(tokens=["a"], labels=["O", "O"])


class TestNerBalancing:
    def _examples(self, n_empty, n_full=0):
        empty = [TaskExample("osebe: x", "brez", "ner") for _ in range(n_empty)]
        full = [TaskExample("osebe: y", "Ana", "ner") for _ in range(n_full)]
        return empty + full

    def test_train_keep_rate(self):
        rng = np.random.default_rng(0)
        kept = balance_ner(self._examples(1000), "train", rng)
        assert 30 <= len(kept) <= 70  # 3 sigma around 50

    def test_validation_keep_rate(self):
        rng = np.random.default_rng(1)
        kept = balance_ner(self._examples(1000), "validation", rng)
        assert 453 <= len(kept) <= 547  # 3 sigma around 500

    def test_test_split_untouched(self):
        rng = np.random.default_rng(2)
        examples = self._examples(50, 5)
        kept = balance_ner(examples, "test", rng)
        assert kept == examples

    def test_non_empty_always_kept(self):
        rng = np.random.default_rng(3)
        kept = balance_ner(self._examples(0, 40), "train", rng)
        assert len(kept) == 40

    def test_unknown_split(self):
        with pytest.raises(TaskFormatError):
            balance_ner([], "dev", np.random.default_rng(0))


class TestSuperglueFormatting:
    def test_boolq_golden(self):
        ex = format_superglue(BOOLQ_RECORD, "boolq")
        assert ex.input_text == (
            "Sestavek: Kalcijev karbid - Kalcijev karbid je kemična spojina s kemično formulo CaC. "
            "Njegova glavna uporaba v industriji je pri proizvodnji acetilena in kalcijevega cianamida. "
            "Vprašanje: kalcijev karbid cac2 je surovina za proizvodnjo acetilena"
        )
        assert ex.target_text == "Pravilno."

    def test_cb_golden(self):
        ex = format_superglue(CB_RECORD, "cb")
        assert ex.input_text == (
            "premisa: Bil je kompleksen jezik. Ne zapisano, ampak predano. "
            "Lahko bi rekli, da je bil olupljen. hipoteza: jezik je bil olupljen"
        )
        assert ex.target_text == "implikacija"

    def test_copa_golden(self):
        ex = format_superglue(COPA_RECORD, "copa")
        assert ex.input_text == (
            "Premisa: Moje telo je metalo senco na travo. Prva možnost: Sonce je vzhajalo. "
            "Druga možnost: Trava je bila pokošena. Kaj je vzrok?"
        )
        assert ex.target_text == "prva"

    def test_copa_effect_and_second_choice(self):
        record = dict(COPA_RECORD, question="effect", label=1)
        ex = format_copa(record)
        assert ex.input_text.endswith("Kaj je posledica?")
        assert ex.target_text == "druga"

    def test_rte_golden(self):
        ex = format_superglue(RTE_RECORD, "rte")
        assert ex.input_text == (
            "premisa: V Iraku še ni bilo najdenega orožja za množično uničevanje. "
            "hipoteza: V Iraku najdeno orožje za množično uničevanje."
        )
        assert ex.target_text == "ni implikacija"

    def test_wsc_golden(self):
        ex = format_superglue(WSC_RECORD, "wsc")
        assert ex.input_text == (
            "WSC: Iz steklenice sem v * skodelico * nalival vodo, dokler ni # bila # polna."
        )
        assert ex.target_text == "Pravilno."

    def test_missing_attribute_named(self):
        record = dict(BOOLQ_RECORD)
        del record["passage"]
        with pytest.raises(TaskFormatError, match="passage"):
            format_superglue(record, "boolq")

    def test_formatters_injective(self):
        a = format_superglue(dict(CB_RECORD, hypothesis="drugačna hipoteza"), "cb")
        b = format_superglue(CB_RECORD, "cb")
        assert a.input_text != b.input_text

    def test_string_boolean_labels(self):
        ex = format_superglue(dict(BOOLQ_RECORD, label="false"), "boolq")
        assert ex.target_text == "Napačno."


class TestWscMarking:
    def test_golden_fixture(self):
        marked = mark_wsc(
            "Iz steklenice sem v skodelico nalival vodo, dokler ni bila polna.",
            (4, "skodelico"),
            (9, "bila"),
        )
        assert marked == "Iz steklenice sem v * skodelico * nalival vodo, dokler ni # bila # polna."

    def test_span_at_sentence_start(self):
        assert mark_wsc("Miha je tekel", (0, "Miha"), (2, "tekel")) == "* Miha * je # tekel #"

    def test_multiword_span(self):
        out = mark_wsc("stari mlin ob reki je mlel", (0, "stari mlin"), (5, "mlel"))
        assert out == "* stari mlin * ob reki je # mlel #"

    def test_mismatch_rejected(self):
        with pytest.raises(TaskFormatError):
            mark_wsc("a b c", (1, "x"), (2, "c"))

    def test_overlap_rejected(self):
        with pytest.raises(TaskFormatError):
            mark_wsc("a b c d", (1, "b c"), (2, "c d"))


class TestSimplificationMerge:
    def test_merges_repeated_complex(self):
        merged = merge_simplification([("c1", "s1"), ("c1", "s2"), ("c1", "s3")])
        assert merged == [("c1", "s1 s2 s3")]

    def test_unique_entries_unchanged(self):
        entries = [("c1", "s1"), ("c2", "s2")]
        assert merge_simplification(entries) == entries

    def test_interleaved_groups(self):
        # brute-force grouping oracle: first-occurrence order, in-order concat
        entries = [("c1", "s1"), ("c2", "t1"), ("c1", "s2")]
        groups = {}
        for c, s in entries:
            groups.setdefault(c, []).append(s)
        expected = [(c, " ".join(v)) for c, v in groups.items()]
        assert merge_simplification(entries) == expected == [("c1", "s1 s2"), ("c2", "t1")]


class TestSentiment:
    def test_label_words(self):
        assert format_sentiment("super dan", "positive").target_text == "pozitivno"
        assert format_sentiment("slab dan", "negativno").target_text == "negativno"

    def test_unknown_label(self):
        with pytest.raises(TaskFormatError):
            format_sentiment("x", "meh")


class TestCsv:
    def test_simple_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('"a","b"\n', encoding="utf-8")
        (ex,) = load_csv_dataset(p)
        assert (ex.input_text, ex.target_text) == ("a", "b")

    def test_comma_inside_quotes(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('"premisa: a, b, c","oznaka"\n', encoding="utf-8")
        (ex,) = load_csv_dataset(p)
        assert ex.input_text == "premisa: a, b, c"

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('"a","b"\n"c"\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=":2:"):
            load_csv_dataset(p)

    def test_round_trip_random_examples(self, tmp_path):
        rng = np.random.default_rng(4)
        alphabet = list('abc ,"\n—žšč')
        examples = []
        for _ in range(1000):
            text = "".join(rng.choice(alphabet, size=rng.integers(1, 20)))
            target = "".join(rng.choice(alphabet, size=rng.integers(1, 10)))
            if not text.strip('" \n,'):
                text = "x" + text
            examples.append(TaskExample(text, target))
        p = tmp_path / "round.csv"
        write_csv_dataset(examples, p)
        loaded = load_csv_dataset(p)
        assert [(e.input_text, e.target_text) for e in loaded] == [
            (e.input_text, e.target_text) for e in examples
        ]


class TestNerFile:
    def test_groups_by_doc_and_sentence(self, tmp_path):
        p = tmp_path / "ner.tsv"
        rows = [
            "1130\t4167\tRadical\tB-ORG",
            "1130\t4167\tScience\tI-ORG",
            "1130\t4168\tLondonu\tB-LOC",
            "1131\t1\tAna\tB-PER",
        ]
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        sents = read_ner_file(p)
        assert [s.tokens for s in sents] == [["Radical", "Science"], ["Londonu"], ["Ana"]]

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "ner.tsv"
        p.write_text("1130\t4167\tRadical\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=":1:"):
            read_ner_file(p)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        p = tmp_path / "ner.tsv"
        p.write_bytes(b"1130\t4167\tLondon\xff\tB-LOC\n")
        with pytest.raises(UnicodeDecodeError) as e:
            read_ner_file(p)
        assert str(e.value).endswith(f", in {p}")
