"""Dataset ingestion, splits, subsampling, and synthetic task generation.

Target-task files are tokenized at the character level, in one pass over
the file. A dataset is its four read-only arrays, padded token `ids`,
`lengths`, `labels` and per-row token `counts`, with the vocabulary and class
names they index. `SequenceDataset.from_tokens` checks, pads and counts flat
token ids once, when a dataset is built; every consumer reads the arrays, and
`take` slices them.
"""

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, DataFormatError

_COUNT_BLOCK = 2**14  # entries in each temporary of one block of `from_tokens`'s counting


@dataclass(frozen=True)
class Vocab:
    """Distinct token strings, indexed densely from 0."""

    index_to_token: tuple

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        ordered = tuple(tokens)
        if len(set(ordered)) != len(ordered):
            raise DataFormatError("duplicate token in vocabulary")
        return cls(index_to_token=ordered)

    def __len__(self) -> int:
        return len(self.index_to_token)


@dataclass(frozen=True, eq=False)
class SequenceDataset:
    """Read-only padded `ids` (N x L_max, int32), `lengths` (N), `labels`
    (N, int32) and `counts` (N x |V|): counts[i, v] is how often token v occurs
    in row i, in the smallest unsigned type that holds the longest row.
    `from_tokens` checks, pads and counts, and `take` slices."""

    ids: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    vocab: Vocab
    class_names: tuple

    def __post_init__(self):
        for array in (self.ids, self.lengths, self.labels, self.counts):
            array.flags.writeable = False

    @classmethod
    def from_tokens(cls, tokens, lengths, labels, vocab, class_names) -> "SequenceDataset":
        """Check the flat token ids, lengths and labels; right-pad rows of `lengths`
        with 0s and count each row's tokens."""
        tokens = np.asarray(tokens)
        lengths, labels = np.asarray(lengths, dtype=np.intp), np.asarray(labels, dtype=np.int32)
        if lengths.size != labels.size:
            raise DataFormatError("sequences and labels differ in length")
        for name, values, lo, hi in (("sequence length", lengths, 1, np.inf),
                                     ("token index", tokens, 0, len(vocab)),
                                     ("label", labels, 0, len(class_names))):
            bad = values[(values < lo) | (values >= hi)]
            if bad.size:
                raise DataFormatError(f"{name} {bad[0]} out of range")
        if tokens.shape != (lengths.sum(),):
            raise DataFormatError(f"{tokens.size} token ids, but the sequence lengths "
                                  f"sum to {lengths.sum()}")
        n, width, vocab_size = lengths.size, lengths.max(initial=0), len(vocab)
        # every dataset keeps its ids, and int32 halves the memory they hold
        ids = np.zeros((n, width), dtype=np.int32)
        ids[np.arange(width) < lengths[:, None]] = tokens
        counts = np.zeros((n, vocab_size), dtype=np.min_scalar_type(width))
        # one bin per (row, token) pair over the padded ids, a block of rows at
        # a time so that a block's slots and bins stay within _COUNT_BLOCK
        # entries; the padding, all token 0, is then taken off column 0
        rows = max(1, _COUNT_BLOCK // max(vocab_size, width, 1))
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            size = len(ids[block])
            slots = ids[block] + np.arange(0, size * vocab_size, vocab_size)[:, None]
            bins = np.bincount(slots.ravel(), minlength=size * vocab_size)
            bins = bins.reshape(size, vocab_size)
            bins[:, 0] -= width - lengths[block]
            counts[block] = bins
        return cls(ids, lengths, labels, counts, vocab, class_names)

    @classmethod
    def from_sequences(cls, sequences, labels, vocab, class_names) -> "SequenceDataset":
        """`from_tokens` over a list of token sequences."""
        lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
        tokens = np.fromiter(chain.from_iterable(sequences), np.int32, lengths.sum())
        return cls.from_tokens(tokens, lengths, labels, vocab, class_names)

    def __len__(self) -> int:
        return len(self.labels)

    def majority_class_accuracy(self) -> float:
        if not len(self):
            return 0.0
        counts = np.bincount(self.labels, minlength=len(self.class_names))
        return float(np.max(counts)) / len(self)

    def take(self, indices) -> "SequenceDataset":
        """The rows at `indices`, an index array or a slice, from this dataset's
        checked arrays; their ids are trimmed to the subset's own longest row.
        A slice is a view of these arrays, an index array a copy."""
        arrays = (self.ids, self.lengths, self.labels, self.counts)
        if isinstance(indices, slice):
            ids, lengths, labels, counts = (array[indices] for array in arrays)
        else:
            rows = np.asarray(indices, dtype=np.intp)
            ids, lengths, labels, counts = (array.take(rows, axis=0) for array in arrays)
        return type(self)(ids[:, : lengths.max(initial=0)], lengths, labels, counts, self.vocab,
                          self.class_names)


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions: non-negative numbers summing to 1."""

    train: float
    valid: float
    test: float
    seed: int = 0

    def __post_init__(self):
        parts = (self.train, self.valid, self.test)
        if min(parts) < 0:
            raise ConfigError(f"split parts must be non-negative, got {parts}")
        if abs(sum(parts) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")

    def counts(self, size: int):
        """Row counts of the three parts of a dataset of `size` rows."""
        n_train = min(int(round(self.train * size)), size)
        n_valid = min(int(round(self.valid * size)), size - n_train)
        return n_train, n_valid, size - n_train - n_valid


@dataclass(frozen=True)
class DataSpec:
    """Where a run's source and target datasets come from: the synthetic pair, or CSV
    files with the named columns. `mode` is "synthetic" or "csv", given paths exist,
    and both sizes are at least 1."""

    mode: str = "synthetic"
    source_size: int = 2000
    target_size: int = 2500
    source_path: str | None = None
    target_path: str | None = None
    sequence_column: str = "sequence"
    label_column: str = "label"

    def __post_init__(self):
        for path in (self.source_path, self.target_path):
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"dataset path does not exist: {path}")
        if self.mode not in ("synthetic", "csv"):
            raise ConfigError(f"unknown data mode {self.mode!r}")
        if self.source_size < 1 or self.target_size < 1:
            raise ConfigError("sizes must be positive")

    def load(self, seed: int, part: str) -> SequenceDataset:
        """The full "source" or "target" dataset: one of the synthetic pair, or the
        CSV file at `data.<part>_path`, the only file read."""
        if self.mode == "synthetic":
            return synth_tasks(seed, self.source_size, self.target_size)[
                ("source", "target").index(part)]
        path = getattr(self, f"{part}_path")
        if path is None:
            raise ConfigError(f"csv mode requires data.{part}_path")
        return load_csv(path, self.sequence_column, self.label_column)


def read_json(path):
    """Parse a JSON file; a file that is not valid JSON, or nests too deeply for
    the parser, is a DataFormatError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DataFormatError(f"invalid JSON in {path}: {exc}") from exc


@contextmanager
def read_document(path, kind: str, version: int):
    """Yield the JSON object of a `kind` file (checkpoint, program) of format `version`.

    Invalid JSON, a document that is not an object, and a structure error
    raised while the with-block reads it (a missing key, a value of the wrong
    type, shape or range) are a DataFormatError naming the file; another format
    version is a ConfigError.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: a {kind} must be a JSON object")
    if doc.get("format_version") != version:
        raise ConfigError(f"unsupported {kind} version {doc.get('format_version')}")
    try:
        yield doc
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(
            f"{path}: malformed {kind} ({type(exc).__name__}: {exc})"
        ) from exc


def read_array(values, shape) -> np.ndarray:
    """A read-only float64 array of `shape` from a saved file's flat list of finite
    JSON numbers (never a string or a boolean, which numpy would convert). The
    sizes' product must be the list's length, so none is inferred."""
    array = np.array(values, dtype=np.float64)
    if array.shape != (math.prod(shape),):
        raise ValueError(f"{array.size} values for shape {list(shape)}")
    if not np.isfinite(array).all():
        raise ValueError(f"non-finite value for shape {list(shape)}")
    if not set(map(type, values)) <= {int, float}:
        raise ValueError(f"a value that is not a number for shape {list(shape)}")
    array = array.reshape(shape)  # numpy rejects a size that is negative or not an integer
    array.flags.writeable = False
    return array


def load_csv(path, sequence_column="sequence", label_column="label") -> SequenceDataset:
    """Character-tokenized dataset from a headered UTF-8 CSV file, read in one pass;
    a repeated column name means its last column, and an error names its physical line."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file")
            columns = {name: i for i, name in enumerate(header)}
            for col in (sequence_column, label_column):
                if col not in columns:
                    raise DataFormatError(f"{path}: missing column {col!r}")
            seq_at, label_at = columns[sequence_column], columns[label_column]
            width = max(seq_at, label_at) + 1
            sequences, labels, classes = [], [], {}
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    raise DataFormatError(
                        f"{path}: line {reader.line_num} has fewer fields than the header")
                if not row[seq_at]:
                    raise DataFormatError(f"{path}: empty sequence at line {reader.line_num}")
                sequences.append(row[seq_at])
                labels.append(classes.setdefault(row[label_at], len(classes)))
        except UnicodeDecodeError as exc:
            raise DataFormatError(
                f"{path}: not valid UTF-8 (byte {exc.object[exc.start]:#04x})") from exc
        except csv.Error as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    if not sequences:
        raise DataFormatError(f"{path}: no data rows")
    # the vocabulary in code-point order, from a table of the code points present
    # (at most 0x110000 bytes), and each token's id by one gather from it
    points = np.frombuffer("".join(sequences).encode("utf-32-le"), dtype=np.uint32)
    present = np.zeros(int(points.max()) + 1, dtype=bool)
    present[points] = True
    alphabet = np.flatnonzero(present)
    lut = np.zeros(present.size, dtype=np.min_scalar_type(alphabet.size - 1))
    lut[alphabet] = np.arange(alphabet.size)
    tokens = lut[points]
    lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
    vocab = Vocab.from_tokens(map(chr, alphabet.tolist()))
    return SequenceDataset.from_tokens(tokens, lengths, labels, vocab, tuple(classes))


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
    n_train, n_valid, _ = spec.counts(len(dataset))
    order = np.random.default_rng(spec.seed).permutation(len(dataset))
    return tuple(dataset.take(rows) for rows in np.split(order, [n_train, n_train + n_valid]))


def subsample(dataset: SequenceDataset, n: int, seed: int) -> SequenceDataset:
    """Uniform subsample without replacement; nested across n for a fixed seed."""
    if n < 1:
        raise ConfigError(f"cannot subsample {n} rows; n must be at least 1")
    if n > len(dataset):
        raise ConfigError(f"cannot subsample {n} from {len(dataset)} rows")
    return dataset.take(np.random.default_rng(seed).permutation(len(dataset))[:n])


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
        tokens = np.concatenate([rng.integers(0, half, size=k_positive),
                                 rng.integers(half, SOURCE_VOCAB_SIZE, size=length - k_positive)])
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
