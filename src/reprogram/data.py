"""Dataset ingestion, splits, subsampling, and synthetic task generation.

Target-task files are tokenized at the character level. A dataset is checked
and padded once, when built; every consumer reads its read-only `ids` and `lengths`,
and a subset made by `take` slices them.
"""

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, DataFormatError


@dataclass(frozen=True)
class Vocab:
    """Bijection between token strings and dense indices from 0."""

    index_to_token: tuple
    token_to_index: dict = field(compare=False)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        ordered = tuple(tokens)
        mapping = {tok: i for i, tok in enumerate(ordered)}
        if len(mapping) != len(ordered):
            raise DataFormatError("duplicate token in vocabulary")
        return cls(index_to_token=ordered, token_to_index=mapping)

    def __len__(self) -> int:
        return len(self.index_to_token)


def pad(sequences):
    """Right-pad token sequences with 0s: ids (N x L_max) and lengths (N)."""
    lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
    # every dataset keeps its ids, and int32 halves the memory they hold
    ids = np.zeros((lengths.size, lengths.max(initial=0)), dtype=np.int32)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(sequences), dtype=np.int32, count=lengths.sum())
    return ids, lengths


@dataclass(frozen=True)
class SequenceDataset:
    sequences: tuple
    labels: tuple
    vocab: Vocab
    class_names: tuple
    ids: np.ndarray = field(init=False, compare=False, repr=False)
    lengths: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.sequences) != len(self.labels):
            raise DataFormatError("sequences and labels differ in length")
        ids, lengths = pad(self.sequences)
        for name, values, lo, hi in (("sequence length", lengths, 1, np.inf),
                                     ("token index", ids, 0, len(self.vocab)),
                                     ("label", np.asarray(self.labels), 0, len(self.class_names))):
            bad = values[(values < lo) | (values >= hi)]
            if bad.size:
                raise DataFormatError(f"{name} {bad[0]} out of range")
        ids.flags.writeable = lengths.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "lengths", lengths)

    def __len__(self) -> int:
        return len(self.sequences)

    def majority_class_accuracy(self) -> float:
        if not self.labels:
            return 0.0
        counts = np.bincount(self.labels, minlength=len(self.class_names))
        return float(np.max(counts)) / len(self.labels)

    def take(self, indices) -> "SequenceDataset":
        """The rows at `indices`, their ids and lengths sliced from this dataset's.

        Those are checked already, so the subset is neither padded nor
        checked again; its ids are trimmed to its own longest row.
        """
        sequences = tuple(self.sequences[i] for i in indices)
        rows = np.asarray(indices, dtype=np.intp)
        lengths = self.lengths[rows]
        ids = self.ids[rows, : lengths.max(initial=0)]
        ids.flags.writeable = lengths.flags.writeable = False
        subset = object.__new__(type(self))
        vars(subset).update(sequences=sequences,
                            labels=tuple(self.labels[i] for i in indices),
                            vocab=self.vocab, class_names=self.class_names,
                            ids=ids, lengths=lengths)
        return subset


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions (floats summing to 1) or absolute counts."""

    train: float
    valid: float
    test: float
    seed: int = 0

    def counts(self, size: int):
        parts = (self.train, self.valid, self.test)
        if all(isinstance(p, int) for p in parts):
            if sum(parts) > size:
                raise ConfigError(f"split counts {parts} exceed dataset size {size}")
            return parts
        if abs(sum(parts) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
        n_train = int(round(self.train * size))
        n_valid = int(round(self.valid * size))
        n_train = min(n_train, size)
        n_valid = min(n_valid, size - n_train)
        return n_train, n_valid, size - n_train - n_valid


def _build_dataset(rows):
    """rows: list of (sequence_string, label_string) in file order."""
    chars = sorted({c for seq, _ in rows for c in seq})
    vocab = Vocab.from_tokens(chars)
    class_names = []
    labels = []
    for _, label in rows:
        if label not in class_names:
            class_names.append(label)
        labels.append(class_names.index(label))
    index = vocab.token_to_index.__getitem__  # every character is in the vocabulary
    sequences = tuple(tuple(map(index, seq)) for seq, _ in rows)
    return SequenceDataset(
        sequences=sequences,
        labels=tuple(labels),
        vocab=vocab,
        class_names=tuple(class_names),
    )


def read_json(path):
    """Parse a JSON file; a file that is not valid JSON is a DataFormatError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DataFormatError(f"invalid JSON in {path}: {exc}") from exc


@contextmanager
def read_document(path, kind: str, version: int):
    """Yield the JSON object of a `kind` file (checkpoint, program) of format `version`.

    Invalid JSON, a document that is not an object, and a structure error
    raised while the with-block reads it (a missing key, a value of the wrong
    type or shape) are a DataFormatError naming the file; another format
    version is a ConfigError.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: a {kind} must be a JSON object")
    if doc.get("format_version") != version:
        raise ConfigError(f"unsupported {kind} version {doc.get('format_version')}")
    try:
        yield doc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(
            f"{path}: malformed {kind} ({type(exc).__name__}: {exc})"
        ) from exc


def load_csv(path, sequence_column="sequence", label_column="label") -> SequenceDataset:
    """Character-tokenized dataset from a headered CSV file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: empty file")
        for col in (sequence_column, label_column):
            if col not in reader.fieldnames:
                raise DataFormatError(f"{path}: missing column {col!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            seq = row[sequence_column]
            label = row[label_column]
            if not seq:
                raise DataFormatError(f"{path}: empty sequence at line {lineno}")
            rows.append((seq, label))
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return _build_dataset(rows)


def save_csv(dataset: SequenceDataset, path, sequence_column="sequence", label_column="label"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([sequence_column, label_column])
        for seq, label in zip(dataset.sequences, dataset.labels):
            text = "".join(dataset.vocab.index_to_token[t] for t in seq)
            writer.writerow([text, dataset.class_names[label]])


def split(dataset: SequenceDataset, spec: SplitSpec):
    """Disjoint, covering, seed-deterministic train/valid/test split."""
    n_train, n_valid, n_test = spec.counts(len(dataset))
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(dataset))
    train = dataset.take(order[:n_train])
    valid = dataset.take(order[n_train : n_train + n_valid])
    test = dataset.take(order[n_train + n_valid : n_train + n_valid + n_test])
    return train, valid, test


def subsample(dataset: SequenceDataset, n: int, seed: int) -> SequenceDataset:
    """Uniform subsample without replacement; nested across n for a fixed seed."""
    if n > len(dataset):
        raise ConfigError(f"cannot subsample {n} from {len(dataset)} rows")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    return dataset.take(order[:n])


SOURCE_VOCAB_SIZE = 200
TARGET_ALPHABET = "ABCDEFG"
TARGET_MOTIF = (0, 0, 0)  # "AAA"


def _contains_motif(seq, motif=TARGET_MOTIF):
    m = len(motif)
    return any(tuple(seq[i : i + m]) == motif for i in range(len(seq) - m + 1))


def _synth_source(rng, size):
    """Balanced task over a 200-token vocab: do first-half tokens outnumber the rest?"""
    half = SOURCE_VOCAB_SIZE // 2
    vocab = Vocab.from_tokens([f"t{i:03d}" for i in range(SOURCE_VOCAB_SIZE)])
    sequences, labels = [], []
    for i in range(size):
        label = i % 2
        length = int(rng.integers(10, 21))
        majority = int(rng.integers(length // 2 + 1, length + 1))
        k_positive = majority if label == 1 else length - majority
        tokens = np.concatenate(
            [
                rng.integers(0, half, size=k_positive),
                rng.integers(half, SOURCE_VOCAB_SIZE, size=length - k_positive),
            ]
        )
        rng.shuffle(tokens)
        sequences.append(tuple(int(t) for t in tokens))
        labels.append(label)
    return SequenceDataset(
        sequences=tuple(sequences),
        labels=tuple(labels),
        vocab=vocab,
        class_names=("minority_first_half", "majority_first_half"),
    )


def _synth_target(rng, size):
    """Balanced 7-token task: does the sequence contain the AAA motif?"""
    vocab = Vocab.from_tokens(list(TARGET_ALPHABET))
    k = len(vocab)
    sequences, labels = [], []
    for i in range(size):
        label = i % 2
        length = int(rng.integers(8, 15))
        while True:
            seq = [int(t) for t in rng.integers(0, k, size=length)]
            if label == 1:
                pos = int(rng.integers(0, length - len(TARGET_MOTIF) + 1))
                seq[pos : pos + len(TARGET_MOTIF)] = list(TARGET_MOTIF)
                break
            if not _contains_motif(seq):
                break
        sequences.append(tuple(seq))
        labels.append(label)
    return SequenceDataset(
        sequences=tuple(sequences),
        labels=tuple(labels),
        vocab=vocab,
        class_names=("no_motif", "has_motif"),
    )


def synth_tasks(seed: int, source_size: int, target_size: int):
    """Deterministic synthetic (source, target) task pair for desk-scale runs."""
    if source_size < 1 or target_size < 1:
        raise ConfigError("sizes must be positive")
    rng = np.random.default_rng(seed)
    source = _synth_source(rng, source_size)
    target = _synth_target(rng, target_size)
    return source, target
