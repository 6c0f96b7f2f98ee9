"""Task datasets as text-to-text string pairs, and the one table of task facts.

`TASKS` holds one row per task tag: the metric it is scored by, its
greedy-decode output budget, its default fine-tuning epochs and, for a
classification task, the verbalizer from each source label to the exact
string the model must generate. No other table repeats these facts.

Formatters turn structured records into the pinned Slovene templates:
attribute values prefixed with their keys for the sentence-pair tasks, NE
retrieval prompts for NER (one example per entity category, "brez" when the
sentence has none), asterisk/hash span marking for WSC. Classification
targets come from the task's verbalizer. Generative tasks (lemmatization,
summarization) pass through untemplated.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

from .fileio import atomic_write, open_text


class TaskFormatError(ValueError):
    pass


class DatasetError(ValueError):
    pass


@dataclass
class TaskExample:
    input_text: str
    target_text: str
    task: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.input_text:
            raise TaskFormatError("TaskExample.input_text is empty")


class Task(NamedTuple):
    """A task's facts. The verbalizer maps each source label to the exact
    string the model must generate; it is empty for a generative task."""

    metric: str
    decode_limit: int  # greedy-decode output budget, in tokens
    epochs: int  # default fine-tuning epochs
    verbalizer: dict = {}


_BOOLEAN = {True: "Pravilno.", False: "Napačno."}

TASKS = {
    "boolq": Task("accuracy", 4, 10, _BOOLEAN),
    "cb": Task("macro_f1", 6, 15, {"entailment": "implikacija", "contradiction": "protislovje",
                                   "neutral": "nevtralno"}),
    "rte": Task("accuracy", 6, 15, {"entailment": "implikacija", "not_entailment": "ni implikacija"}),
    "copa": Task("accuracy", 6, 15, {0: "prva", 1: "druga"}),
    "wsc": Task("accuracy", 6, 20, _BOOLEAN),
    "sa": Task("macro_f1", 5, 10, {"positive": "pozitivno", "negative": "negativno", "neutral": "nevtralno"}),
    "ner": Task("entity_f1", 64, 20),
    "lemmatization": Task("word_accuracy", 512, 15),
    "summarization": Task("rouge_l", 512, 5),
    "simplification": Task("rouge_l", 256, 64),
}

# a view of TASKS kept because perfbench/workloads.py reads it by name
TASK_LABELS = {tag: tuple(task.verbalizer.values()) for tag, task in TASKS.items() if task.verbalizer}

NER_CATEGORIES = ("persons", "locations", "organizations")
NER_PREFIX = {"persons": "osebe", "locations": "lokacije", "organizations": "organizacije"}
NER_EMPTY = "brez"
_NER_TAG_TO_CATEGORY = {"PER": "persons", "LOC": "locations", "ORG": "organizations"}


@dataclass
class NerSentence:
    tokens: list[str]
    labels: list[str]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise TaskFormatError(
                f"NER sentence has {len(self.tokens)} tokens but {len(self.labels)} labels"
            )


def _ner_entities(sent, category):
    """Surface forms of the category's entities, in sentence order.
    Validates the whole BIO sequence while walking it."""
    wanted = {tag for tag, cat in _NER_TAG_TO_CATEGORY.items() if cat == category}
    entities = []
    current_words = None
    current_tag = None
    for i, (token, label) in enumerate(zip(sent.tokens, sent.labels)):
        if label == "O":
            kind, tag = "O", None
        elif label[:2] in ("B-", "I-") and len(label) > 2:
            kind, tag = label[:1], label[2:].upper()
        else:
            raise TaskFormatError(f"malformed BIO tag {label!r} at token {i}")
        if kind == "I":
            if current_tag != tag:
                raise TaskFormatError(f"I-{tag} at token {i} does not continue a B-{tag} span")
            current_words.append(token)
            continue
        if current_tag in wanted:
            entities.append(" ".join(current_words))
        if kind == "B":
            current_words, current_tag = [token], tag
        else:
            current_words, current_tag = None, None
    if current_tag in wanted:
        entities.append(" ".join(current_words))
    return entities


def format_ner(sent, category):
    """One NE-retrieval example: category prefix plus the sentence as input,
    comma-separated entity surface forms (or "brez") as target."""
    if category not in NER_CATEGORIES:
        raise TaskFormatError(f"unknown NER category {category!r}")
    entities = _ner_entities(sent, category)
    return TaskExample(
        input_text=f"{NER_PREFIX[category]}: {' '.join(sent.tokens)}",
        target_text=", ".join(entities) if entities else NER_EMPTY,
        task="ner",
        meta={"category": category},
    )


def format_ner_all(sent):
    """The three per-category examples for one sentence."""
    return [format_ner(sent, category) for category in NER_CATEGORIES]


def balance_ner(examples, split, rng):
    """Drop empty-target examples with probability 0.95 (train) or 0.5
    (validation); the test split passes through untouched."""
    drop_prob = {"train": 0.95, "validation": 0.5, "test": 0.0}
    if split not in drop_prob:
        raise TaskFormatError(f"unknown split {split!r}")
    p = drop_prob[split]
    kept = []
    for ex in examples:
        if ex.target_text == NER_EMPTY and rng.random() < p:
            continue
        kept.append(ex)
    return kept


def _require(record, task, *names):
    for name in names:
        if name not in record:
            raise TaskFormatError(f"{task} record missing attribute {name!r}")
    return [record[name] for name in names]


def _verbalize(task, label):
    """The string the model must generate for a source label of the task."""
    verbalizer = TASKS[task].verbalizer
    try:
        return verbalizer[label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise TaskFormatError(f"{task} label {label!r} not in {sorted(verbalizer)}") from None


def _bool_label(value, task):
    """The strings "true" and "false" in any case, after stripping; any
    other string is refused, and any other value judged by its truthiness."""
    if isinstance(value, str):
        value = {"true": True, "false": False}.get(value.strip().lower(), value)
    else:
        value = bool(value)
    return _verbalize(task, value)


def format_boolq(record):
    passage, question, label = _require(record, "BoolQ", "passage", "question", "label")
    return TaskExample(
        input_text=f"Sestavek: {passage} Vprašanje: {question}",
        target_text=_bool_label(label, "boolq"),
        task="boolq",
    )


def format_cb(record):
    premise, hypothesis, label = _require(record, "CB", "premise", "hypothesis", "label")
    return TaskExample(
        input_text=f"premisa: {premise} hipoteza: {hypothesis}",
        target_text=_verbalize("cb", label),
        task="cb",
    )


def format_rte(record):
    premise, hypothesis, label = _require(record, "RTE", "premise", "hypothesis", "label")
    return TaskExample(
        input_text=f"premisa: {premise} hipoteza: {hypothesis}",
        target_text=_verbalize("rte", label),
        task="rte",
    )


def format_copa(record):
    premise, choice1, choice2, question, label = _require(
        record, "COPA", "premise", "choice1", "choice2", "question", "label"
    )
    if question not in ("cause", "effect"):
        raise TaskFormatError(f"COPA question {question!r} must be 'cause' or 'effect'")
    relation = "vzrok" if question == "cause" else "posledica"
    return TaskExample(
        input_text=(
            f"Premisa: {premise} Prva možnost: {choice1} "
            f"Druga možnost: {choice2} Kaj je {relation}?"
        ),
        target_text=_verbalize("copa", label),
        task="copa",
    )


def mark_wsc(text, span1, span2):
    """Wrap the first word span in asterisks and the second in hashes, with
    single spaces around the markers. Spans are (word index, span text)."""
    words = text.split()

    def locate(span, what):
        index, span_text = span
        span_words = span_text.split()
        if index < 0 or index + len(span_words) > len(words) or words[index : index + len(span_words)] != span_words:
            raise TaskFormatError(f"WSC {what} {span_text!r} not found at word index {index}")
        return index, index + len(span_words)

    first = locate(span1, "span1")
    second = locate(span2, "span2")
    if first[0] < second[1] and second[0] < first[1]:
        raise TaskFormatError("WSC spans overlap")
    pieces = []
    for i, word in enumerate(words):
        if i == first[0]:
            pieces.append("*")
        if i == second[0]:
            pieces.append("#")
        pieces.append(word)
        if i == first[1] - 1:
            pieces.append("*")
        if i == second[1] - 1:
            pieces.append("#")
    return " ".join(pieces)


def format_wsc(record):
    text, target, label = _require(record, "WSC", "text", "target", "label")
    for key in ("span1_index", "span1_text", "span2_index", "span2_text"):
        if key not in target:
            raise TaskFormatError(f"WSC record missing attribute {key!r}")
    marked = mark_wsc(
        text,
        (target["span1_index"], target["span1_text"]),
        (target["span2_index"], target["span2_text"]),
    )
    return TaskExample(
        input_text=f"WSC: {marked}",
        target_text=_bool_label(label, "wsc"),
        task="wsc",
    )


_SUPERGLUE_FORMATTERS = {
    "boolq": format_boolq,
    "cb": format_cb,
    "copa": format_copa,
    "rte": format_rte,
    "wsc": format_wsc,
}


def format_superglue(record, task):
    formatter = _SUPERGLUE_FORMATTERS.get(task.lower())
    if formatter is None:
        raise TaskFormatError(f"unknown task {task!r}; choose from {sorted(_SUPERGLUE_FORMATTERS)}")
    return formatter(record)


def format_sentiment(text, label):
    """Tweet text in, single-word Slovene class label out; the label may be
    given in English or already in Slovene."""
    if label not in TASKS["sa"].verbalizer.values():
        label = _verbalize("sa", label)
    return TaskExample(input_text=text, target_text=label, task="sa")


def merge_simplification(entries):
    """Collapse repeated complex sentences: one pair per distinct complex
    sentence, simple sides concatenated with single spaces in input order."""
    merged = {}
    for complex_sentence, simple_sentence in entries:
        merged.setdefault(complex_sentence, []).append(simple_sentence)
    return [(c, " ".join(parts)) for c, parts in merged.items()]


def load_csv_dataset(path, task=""):
    """Two-column CSV (input, target), RFC-style quoting. A malformed row
    raises DatasetError naming path:line."""
    examples = []
    with open_text(path, newline="") as f:
        reader = csv.reader(f)
        for row in reader:
            if len(row) != 2:
                raise DatasetError(f"{path}:{reader.line_num}: expected 2 columns, found {len(row)}")
            try:
                examples.append(TaskExample(row[0], row[1], task))
            except TaskFormatError as e:
                raise DatasetError(f"{path}:{reader.line_num}: {e}") from None
    return examples


def write_csv_dataset(examples, path):
    with atomic_write(path) as f:
        writer = csv.writer(f, quoting=csv.QUOTE_ALL)
        for ex in examples:
            writer.writerow([ex.input_text, ex.target_text])


def read_ner_file(path):
    """CoNLL-style rows: doc id, sentence id, token, BIO tag (tab separated).
    Consecutive rows with the same (doc, sentence) key form one sentence."""
    sentences = []
    key = None
    tokens = []
    labels = []
    with open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise DatasetError(f"{path}:{lineno}: expected 4 tab-separated columns, found {len(cols)}")
            doc_id, sent_id, token, tag = cols
            row_key = (doc_id, sent_id)
            if row_key != key and tokens:
                sentences.append(NerSentence(tokens, labels))
                tokens, labels = [], []
            key = row_key
            tokens.append(token)
            labels.append(tag)
    if tokens:
        sentences.append(NerSentence(tokens, labels))
    return sentences
