"""Dataset ingestion, splits, subsampling, and synthetic task generation.

Target-task files are tokenized at the character level. A dataset is its
three read-only arrays, padded token `ids`, `lengths` and `labels`, with the
vocabulary and class names they index. `SequenceDataset.from_sequences`
checks and pads token sequences once, when a dataset is built; every consumer
reads the arrays, and a subset made by `take` slices them.
"""

import csv
import json
import math
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


@dataclass(frozen=True, eq=False)
class SequenceDataset:
    """Read-only padded `ids` (N x L_max, int32), `lengths` (N) and `labels`
    (N, int32); `from_sequences` checks and pads, and `take` slices."""

    ids: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    vocab: Vocab
    class_names: tuple

    def __post_init__(self):
        for array in (self.ids, self.lengths, self.labels):
            array.flags.writeable = False

    @classmethod
    def from_sequences(cls, sequences, labels, vocab, class_names) -> "SequenceDataset":
        """Right-pad the token sequences with 0s after checking every token,
        length and label against the vocabulary and class names."""
        if len(sequences) != len(labels):
            raise DataFormatError("sequences and labels differ in length")
        lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
        # every dataset keeps its ids, and int32 halves the memory they hold
        ids = np.zeros((lengths.size, lengths.max(initial=0)), dtype=np.int32)
        ids[np.arange(ids.shape[1]) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(sequences), dtype=np.int32, count=lengths.sum())
        labels = np.asarray(labels, dtype=np.int32)
        for name, values, lo, hi in (("sequence length", lengths, 1, np.inf),
                                     ("token index", ids, 0, len(vocab)),
                                     ("label", labels, 0, len(class_names))):
            bad = values[(values < lo) | (values >= hi)]
            if bad.size:
                raise DataFormatError(f"{name} {bad[0]} out of range")
        return cls(ids, lengths, labels, vocab, class_names)

    def __len__(self) -> int:
        return len(self.labels)

    def majority_class_accuracy(self) -> float:
        if not len(self):
            return 0.0
        counts = np.bincount(self.labels, minlength=len(self.class_names))
        return float(np.max(counts)) / len(self)

    def take(self, indices) -> "SequenceDataset":
        """The rows at `indices`, sliced from this dataset's checked arrays;
        their ids are trimmed to the subset's own longest row."""
        rows = np.asarray(indices, dtype=np.intp)
        lengths = self.lengths[rows]
        return type(self)(self.ids[rows, : lengths.max(initial=0)], lengths,
                          self.labels[rows], self.vocab, self.class_names)


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions (floats summing to 1) or absolute counts."""

    train: float
    valid: float
    test: float
    seed: int = 0

    def counts(self, size: int):
        parts = (self.train, self.valid, self.test)
        if min(parts) < 0:
            raise ConfigError(f"split parts must be non-negative, got {parts}")
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
    sequences = [list(map(index, seq)) for seq, _ in rows]
    return SequenceDataset.from_sequences(sequences, labels, vocab, tuple(class_names))


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


def read_array(values, shape) -> np.ndarray:
    """A read-only float64 array of `shape` from a saved file's flat list of finite
    values. The sizes' product must be the list's length, so none is inferred."""
    array = np.array(values, dtype=np.float64)
    if array.shape != (math.prod(shape),):
        raise ValueError(f"{array.size} values for shape {list(shape)}")
    if not np.isfinite(array).all():
        raise ValueError(f"non-finite value for shape {list(shape)}")
    array = array.reshape(shape)  # numpy rejects a size that is negative or not an integer
    array.flags.writeable = False
    return array


def load_csv(path, sequence_column="sequence", label_column="label") -> SequenceDataset:
    """Character-tokenized dataset from a headered UTF-8 CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
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
                if seq is None or label is None:
                    raise DataFormatError(
                        f"{path}: line {lineno} has fewer fields than the header")
                if not seq:
                    raise DataFormatError(f"{path}: empty sequence at line {lineno}")
                rows.append((seq, label))
        except UnicodeDecodeError as exc:
            raise DataFormatError(
                f"{path}: not valid UTF-8 (byte {exc.object[exc.start]:#04x})") from exc
        except csv.Error as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return _build_dataset(rows)


def save_csv(dataset: SequenceDataset, path, sequence_column="sequence", label_column="label"):
    tokens = np.array(dataset.vocab.index_to_token, dtype=object)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([sequence_column, label_column])
        # 1024 rows at a time: gathering every row's strings at once raises peak memory
        for start in range(0, len(dataset), 1024):
            rows = slice(start, start + 1024)
            writer.writerows(["".join(text[:length]), dataset.class_names[label]]
                             for text, length, label in zip(tokens[dataset.ids[rows]].tolist(),
                                                            dataset.lengths[rows].tolist(),
                                                            dataset.labels[rows].tolist()))


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
    if n < 1:
        raise ConfigError(f"cannot subsample {n} rows; n must be at least 1")
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
        sequences.append(tokens)
        labels.append(label)
    return SequenceDataset.from_sequences(sequences, labels, vocab,
                                          ("minority_first_half", "majority_first_half"))


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
        sequences.append(seq)
        labels.append(label)
    return SequenceDataset.from_sequences(sequences, labels, vocab, ("no_motif", "has_motif"))


def synth_tasks(seed: int, source_size: int, target_size: int):
    """Deterministic synthetic (source, target) task pair for desk-scale runs."""
    if source_size < 1 or target_size < 1:
        raise ConfigError("sizes must be positive")
    rng = np.random.default_rng(seed)
    source = _synth_source(rng, source_size)
    target = _synth_target(rng, target_size)
    return source, target
