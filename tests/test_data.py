import csv
import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reprogram.data import (
    SequenceDataset,
    SplitSpec,
    Vocab,
    load_csv,
    read_array,
    save_csv,
    split,
    subsample,
    synth_tasks,
)
from reprogram.errors import ConfigError, DataFormatError


def write(path, text):
    path.write_text(text)
    return str(path)


def sequences(ds):
    """The token rows of a dataset, unpadded, as tuples."""
    return [tuple(row[:n]) for row, n in zip(ds.ids.tolist(), ds.lengths.tolist())]


def assert_same(a, b):
    """Two datasets hold equal arrays of equal dtypes, vocabulary and class names."""
    for name in ("ids", "lengths", "labels", "counts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a.vocab == b.vocab and a.class_names == b.class_names


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\nACDK,toxic\nGG,nontoxic\n")
        ds = load_csv(path)
        assert ds.vocab.index_to_token == ("A", "C", "D", "G", "K")
        assert ds.class_names == ("toxic", "nontoxic")
        assert ds.labels.tolist() == [0, 1]
        assert sequences(ds)[0] == (0, 1, 2, 4)

    def test_duplicates_preserved(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\nAA,x\nAA,x\n")
        assert len(load_csv(path)) == 2

    def test_round_trip(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "sequence,label\nACDK,toxic\nGG,nontoxic\nKKA,toxic\n")
        ds = load_csv(path)
        out = tmp_path / "out.csv"
        save_csv(ds, out)
        assert_same(load_csv(str(out)), ds)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "seq,label\nAA,x\n")
        with pytest.raises(DataFormatError, match="sequence"):
            load_csv(path)

    def test_empty_sequence_row_reports_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\nAA,x\n,y\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["sequence,label\nAA,x\nGG\n", "label,sequence\nx,AA\ny\n"],
                             ids=["no_label", "no_sequence"])
    def test_short_row_reports_line(self, tmp_path, text):
        path = write(tmp_path / "short.csv", text)
        with pytest.raises(DataFormatError,
                           match=r"short\.csv: line 3 has fewer fields than the header"):
            load_csv(path)

    @pytest.mark.parametrize("raw", [b"seq\xffuence,label\nAA,x\n", b"sequence,label\nA\xffA,x\n"],
                             ids=["header", "row"])
    def test_undecodable_file_is_named(self, tmp_path, raw):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match=r"latin1\.csv: not valid UTF-8 \(byte 0xff\)"):
            load_csv(str(path))

    def test_field_beyond_the_csv_limit_is_named(self, tmp_path):
        path = write(tmp_path / "long.csv", "sequence,label\n" + "A" * 200_000 + ",x\n")
        with pytest.raises(DataFormatError, match=r"long\.csv: field larger than field limit"):
            load_csv(path)

    def test_loader_deterministic(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\nABBA,x\nBAB,y\n")
        assert_same(load_csv(path), load_csv(path))

    def test_error_after_blank_lines_names_the_physical_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\n\nAA,x\n\n,y\n")
        with pytest.raises(DataFormatError, match="empty sequence at line 5"):
            load_csv(path)

    def test_error_after_a_two_line_field_names_the_physical_line(self, tmp_path):
        path = write(tmp_path / "short.csv", 'sequence,label\n"A\nA",x\nGG\n')
        with pytest.raises(DataFormatError,
                           match=r"short\.csv: line 4 has fewer fields than the header"):
            load_csv(path)

    def test_repeated_column_name_reads_its_last_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label,sequence\nAA,x,CG\nAT,y,G\n")
        ds = load_csv(path)
        assert ds.vocab.index_to_token == ("C", "G")
        assert sequences(ds) == [(0, 1), (1,)]

    def test_labels_differing_by_a_trailing_nul_are_two_classes(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\nAA,x\nAA,x\x00\nA\x00,x\n")
        ds = load_csv(path)
        assert ds.class_names == ("x", "x\x00") and ds.labels.tolist() == [0, 1, 0]
        assert ds.vocab.index_to_token == ("\x00", "A")

    def test_characters_beyond_the_bmp_are_in_code_point_order(self, tmp_path):
        # UTF-16 would put the emoji's surrogates before the fullwidth A
        path = write(tmp_path / "d.csv", "sequence,label\n\U0001F600\uFF21A,x\n\u00e9,y\n")
        ds = load_csv(path)
        assert ds.vocab.index_to_token == ("A", "\u00e9", "\uFF21", "\U0001F600")
        assert sequences(ds) == [(3, 2, 0), (1,)]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\n\nAC,x\n\n\nCA,y\n\n")
        ds = load_csv(path)
        assert sequences(ds) == [(0, 1), (1, 0)] and ds.labels.tolist() == [0, 1]


def dictreader_load(path):
    """The loader as a `csv.DictReader` pass, errors naming the physical line:
    (ids, lengths, labels, vocabulary, class names) of a headered CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataFormatError(f"{path}: empty file")
            for col in ("sequence", "label"):
                if col not in reader.fieldnames:
                    raise DataFormatError(f"{path}: missing column {col!r}")
            rows = []
            for row in reader:
                line = reader.reader.line_num  # reader.line_num misses skipped blank lines
                if row["sequence"] is None or row["label"] is None:
                    raise DataFormatError(f"{path}: line {line} has fewer fields than the header")
                if not row["sequence"]:
                    raise DataFormatError(f"{path}: empty sequence at line {line}")
                rows.append((row["sequence"], row["label"]))
        except csv.Error as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    vocab = sorted({c for seq, _ in rows for c in seq})
    class_names = []
    for _, label in rows:
        if label not in class_names:
            class_names.append(label)
    index = {c: i for i, c in enumerate(vocab)}
    width = max(len(seq) for seq, _ in rows)
    ids = np.array([[index[c] for c in seq] + [0] * (width - len(seq)) for seq, _ in rows],
                   dtype=np.int32)
    lengths = np.array([len(seq) for seq, _ in rows], dtype=np.intp)
    labels = np.array([class_names.index(label) for _, label in rows], dtype=np.int32)
    return ids, lengths, labels, tuple(vocab), tuple(class_names)


# ASCII, Latin-1, a fullwidth letter, an astral emoji, the largest code point,
# NUL, and what CSV quotes
_CHARS = 'AB,"\n\r \u00e9\uFF21\U0001F600\U0010FFFF\x00'


@st.composite
def csv_texts(draw):
    """A CSV file's text: a header that may lack or repeat a column, rows of
    any width (width 0 is a blank line) and a tail of raw characters."""
    names = ["sequence", "label"]
    columns = draw(st.sampled_from([names] * 4 + [names[:1], names[1:], [], None]))
    if columns is None:
        return draw(st.sampled_from(["", "\n"]))
    extra = st.lists(st.sampled_from(names + ["x"]), max_size=2)
    header = draw(st.permutations(columns + draw(extra)))
    n = len(header)
    field = st.text(_CHARS, min_size=1, max_size=4) | st.text(_CHARS, max_size=4)
    widths = st.sampled_from([n] * 4 + [0, max(n - 1, 0), n + 1])
    rows = draw(st.lists(widths.flatmap(lambda w: st.lists(field, min_size=w, max_size=w)),
                         min_size=1, max_size=6))
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [header] + rows)
    return out.getvalue() + draw(st.just("") | st.text(_CHARS, max_size=6))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.csv"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=csv_texts())
def test_load_csv_matches_the_dictreader_loader(fuzz_path, text):
    with open(fuzz_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        expected = dictreader_load(str(fuzz_path))
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            load_csv(str(fuzz_path))
        assert str(got.value) == str(exc) and "\n" not in str(exc)
        return
    ds = load_csv(str(fuzz_path))
    for array, want in zip((ds.ids, ds.lengths, ds.labels), expected):
        assert array.dtype == want.dtype and np.array_equal(array, want)
    assert (ds.vocab.index_to_token, ds.class_names) == expected[3:]


@pytest.fixture
def dataset():
    seqs = tuple(tuple(int(x) for x in np.random.default_rng(i).integers(0, 4, 5))
                 for i in range(40))
    labels = tuple(i % 2 for i in range(40))
    vocab = Vocab.from_tokens(["A", "B", "C", "D"])
    return SequenceDataset.from_sequences(seqs, labels, vocab, ("neg", "pos"))


class TestSplit:
    def test_all_train(self, dataset):
        train, valid, test = split(dataset, SplitSpec(1.0, 0.0, 0.0, seed=0))
        assert len(train) == 40 and len(valid) == 0 and len(test) == 0

    @pytest.mark.parametrize("parts, sizes", [((0, 0, 1), (0, 0, 40)), ((1, 0, 0), (40, 0, 0))])
    def test_integer_parts_are_fractions(self, dataset, parts, sizes):
        train, valid, test = split(dataset, SplitSpec(*parts, seed=0))
        assert (len(train), len(valid), len(test)) == sizes

    def test_same_seed_same_partition(self, dataset):
        a = split(dataset, SplitSpec(0.6, 0.2, 0.2, seed=5))
        b = split(dataset, SplitSpec(0.6, 0.2, 0.2, seed=5))
        for x, y in zip(a, b):
            assert_same(x, y)

    def test_disjoint_and_covering_random_specs(self, dataset):
        rng = np.random.default_rng(0)
        for _ in range(100):
            seed = int(rng.integers(1 << 31))
            train, valid, test = split(dataset, SplitSpec(0.5, 0.25, 0.25, seed=seed))
            combined = sorted(sequences(train) + sequences(valid) + sequences(test))
            assert combined == sorted(sequences(dataset))
            assert len(train) + len(valid) + len(test) == len(dataset)

    def test_fraction_sum_validated(self, dataset):
        with pytest.raises(ConfigError):
            split(dataset, SplitSpec(0.5, 0.2, 0.2, seed=0))

    @pytest.mark.parametrize("parts", [(0.9, 0.2, -0.1), (1.1, -0.1, 0.0), (20, -5, 10),
                                       (-1, 0, 0)])
    def test_negative_parts_rejected(self, dataset, parts):
        # fractions summing to 1, or integer parts, are no excuse
        with pytest.raises(ConfigError, match="must be non-negative"):
            SplitSpec(*parts).counts(len(dataset))


class TestSubsample:
    def test_full_size_is_same_multiset(self, dataset):
        sub = subsample(dataset, 40, seed=1)
        assert sorted(sequences(sub)) == sorted(sequences(dataset))

    def test_too_large_rejected(self, dataset):
        with pytest.raises(ConfigError):
            subsample(dataset, 41, seed=1)

    @pytest.mark.parametrize("n", [0, -5])
    def test_below_one_rejected(self, dataset, n):
        # a negative n would otherwise slice off the last rows and keep the rest
        with pytest.raises(ConfigError, match="at least 1"):
            subsample(dataset, n, seed=1)

    def test_nested_for_fixed_seed(self, dataset):
        for n1, n2 in [(5, 10), (10, 20), (20, 40)]:
            small = subsample(dataset, n1, seed=3)
            large = subsample(dataset, n2, seed=3)
            pairs_small = list(zip(sequences(small), small.labels.tolist()))
            pairs_large = list(zip(sequences(large), large.labels.tolist()))
            assert pairs_large[:n1] == pairs_small


class TestSynthTasks:
    def test_shapes_and_balance(self):
        source, target = synth_tasks(0, 101, 101)
        assert len(source.vocab) == 200
        assert len(target.vocab) == 7
        for ds in (source, target):
            counts = np.bincount(ds.labels, minlength=2)
            assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_deterministic(self):
        a = synth_tasks(7, 50, 50)
        b = synth_tasks(7, 50, 50)
        assert_same(a[0], b[0])
        assert_same(a[1], b[1])

    def test_target_labels_match_motif_presence(self):
        from reprogram.data import TARGET_MOTIF, _contains_motif

        _, target = synth_tasks(1, 200, 200)
        for seq, label in zip(sequences(target), target.labels.tolist()):
            assert _contains_motif(seq) == bool(label)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            synth_tasks(0, 0, 10)


class TestVocab:
    def test_bijection(self):
        v = Vocab.from_tokens(["a", "b", "c"])
        assert len(v) == 3
        assert v.index_to_token == ("a", "b", "c")

    def test_duplicate_token_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate token"):
            Vocab.from_tokens(["a", "b", "a"])

    def test_dataset_rejects_out_of_range_tokens(self):
        v = Vocab.from_tokens(["a", "b"])
        with pytest.raises(DataFormatError):
            SequenceDataset.from_sequences(((0, 5),), (0,), v, ("x",))

    @pytest.mark.parametrize("sequence", [(0, 2), (0, -1), ()],
                             ids=["token_equals_vocab_size", "negative_token", "empty_sequence"])
    def test_dataset_rejects_boundary_tokens_and_empty_sequences(self, sequence):
        v = Vocab.from_tokens(["a", "b"])
        with pytest.raises(DataFormatError):
            SequenceDataset.from_sequences(((1,), sequence), (0, 0), v, ("x",))

    def test_dataset_rejects_out_of_range_labels(self):
        v = Vocab.from_tokens(["a", "b"])
        with pytest.raises(DataFormatError, match="label 1"):
            SequenceDataset.from_sequences(((0,), (1,)), (0, 1), v, ("x",))

    def test_padded_ids_are_built_once_and_read_only(self):
        v = Vocab.from_tokens(["a", "b", "c"])
        ds = SequenceDataset.from_sequences(((2, 1, 0), (1,)), (0, 1), v, ("x", "y"))
        assert ds.ids.dtype == np.int32
        assert ds.ids.tolist() == [[2, 1, 0], [1, 0, 0]]
        assert ds.lengths.tolist() == [3, 1]
        with pytest.raises(ValueError):
            ds.ids[0, 0] = 1
        assert_same(ds, SequenceDataset.from_sequences(((2, 1, 0), (1,)), (0, 1), v, ("x", "y")))

    def test_labels_are_built_once_and_read_only(self):
        v = Vocab.from_tokens(["a"])
        ds = SequenceDataset.from_sequences(((0,), (0,), (0,)), (1, 0, 1), v, ("x", "y"))
        assert ds.labels.dtype == np.int32 and ds.labels.tolist() == [1, 0, 1]
        with pytest.raises(ValueError):
            ds.labels[0] = 0


    @pytest.mark.parametrize("tokens", [[0, 1, 0], [0, 1, 0, 1, 1]], ids=["fewer", "more"])
    def test_token_count_must_match_the_lengths(self, tokens):
        v = Vocab.from_tokens(["a", "b"])
        with pytest.raises(DataFormatError,
                           match=rf"^{len(tokens)} token ids, but the sequence lengths sum to 4$"):
            SequenceDataset.from_tokens(np.array(tokens), [2, 2], [0, 0], v, ("x",))


def counter_counts(sequences, vocab_size):
    """Each sequence's token counts over the vocabulary, by `collections.Counter`."""
    return [[row[v] for v in range(vocab_size)] for row in map(Counter, sequences)]


class TestCounts:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(vocab_size=st.sampled_from([1, 2, 5, 9, 200]), data=st.data())
    def test_match_a_counter_per_row_and_take_slices_them(self, vocab_size, data):
        # short rows over a large vocabulary are counted in many blocks of rows
        rows = st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=12)
        seqs = data.draw(st.lists(rows, max_size=40))
        ds = SequenceDataset.from_sequences(seqs, [0] * len(seqs),
                                            Vocab.from_tokens(range(vocab_size)), ("x",))
        assert ds.counts.dtype == np.uint8
        assert ds.counts.shape == (len(seqs), vocab_size)
        assert ds.counts.tolist() == counter_counts(seqs, vocab_size)
        picked = data.draw(st.lists(st.integers(0, len(seqs) - 1))) if seqs else []
        taken = ds.take(picked)
        assert taken.counts.dtype == ds.counts.dtype
        assert np.array_equal(taken.counts, ds.counts[picked])

    def test_padding_is_never_counted(self):
        v = Vocab.from_tokens(["a", "b", "c"])
        ds = SequenceDataset.from_sequences(((2, 1, 2, 2), (1,), (2, 2)), (0, 1, 0), v, ("x", "y"))
        assert ds.ids.tolist() == [[2, 1, 2, 2], [1, 0, 0, 0], [2, 2, 0, 0]]
        assert ds.counts.tolist() == [[0, 1, 3], [0, 1, 0], [0, 0, 2]]
        assert ds.counts.sum(axis=1).tolist() == ds.lengths.tolist()

    def test_are_read_only(self):
        ds = TestTake().dataset()
        for counts in (ds.counts, ds.take([2, 0]).counts):
            with pytest.raises(ValueError):
                counts[0, 0] = 1

    def test_widen_to_hold_the_longest_row(self):
        v = Vocab.from_tokens(["a", "b"])
        ds = SequenceDataset.from_sequences(((1,) * 300, (0,)), (0, 0), v, ("x",))
        assert ds.counts.dtype == np.uint16
        assert ds.counts.tolist() == [[0, 300], [1, 0]]
        assert ds.take([1]).counts.tolist() == [[1, 0]]

    def test_leave_no_rows_by_vocabulary_intp_temporary(self):
        rng = np.random.default_rng(5)
        n, vocab_size = 2000, 200
        lengths = rng.integers(1, 6, size=n)
        tokens = rng.integers(0, vocab_size, size=lengths.sum())
        v = Vocab.from_tokens(range(vocab_size))
        tracemalloc.start()
        try:
            ds = SequenceDataset.from_tokens(tokens, lengths, np.zeros(n), v, ("x",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.counts.tolist() == counter_counts(np.split(tokens, np.cumsum(lengths)[:-1]),
                                                    vocab_size)
        assert peak < n * vocab_size * np.dtype(np.intp).itemsize


class TestTake:
    SEQUENCES = ((2, 1, 0, 1), (1,), (0, 2), (1, 1, 1), (2,))
    LABELS = (0, 1, 0, 1, 1)

    def dataset(self):
        v = Vocab.from_tokens(["a", "b", "c"])
        return SequenceDataset.from_sequences(self.SEQUENCES, self.LABELS, v, ("x", "y"))

    @pytest.mark.parametrize("rows", [[1, 4], [3, 0, 3], [2], [4, 2, 1, 0, 3], [-1, 1]])
    def test_slices_equal_pad_of_the_rows_and_are_read_only(self, rows):
        ds = self.dataset()
        subset = ds.take(rows)
        # built from the raw rows, so its ids are as wide as their longest one
        padded = SequenceDataset.from_sequences([self.SEQUENCES[i] for i in rows],
                                                [self.LABELS[i] for i in rows],
                                                ds.vocab, ds.class_names)
        assert_same(subset, padded)
        assert subset.labels.dtype == np.int32
        for array in (subset.ids, subset.lengths, subset.labels):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_taken_rows_are_not_padded_again(self, monkeypatch):
        ds = self.dataset()

        def pad(cls, *args):
            raise AssertionError("a subset was padded again")

        for constructor in ("from_tokens", "from_sequences"):
            monkeypatch.setattr(SequenceDataset, constructor, classmethod(pad))
        subset = ds.take(np.array([3, 1]))
        assert subset.ids.tolist() == [[1, 1, 1], [1, 0, 0]]
        split(ds, SplitSpec(0.6, 0.2, 0.2, seed=1))
        subsample(ds, 3, seed=2)

    def test_empty_indices_give_an_empty_dataset(self):
        subset = self.dataset().take([])
        assert len(subset) == 0 and subset.labels.shape == (0,)
        assert subset.labels.dtype == np.int32
        assert subset.ids.shape == (0, 0) and subset.lengths.shape == (0,)

    @pytest.mark.parametrize("rows", [slice(7, 7), slice(7, 8), slice(5056, 5070)])
    def test_a_slice_equals_its_index_range(self, rows):
        # 5070 rows, as the acceptance train split, whose last batch of 64 has
        # 14 rows; row 0 is the longest, so a slice without it is trimmed
        rng = np.random.default_rng(0)
        seqs = [[0] * 20] + [rng.integers(0, 3, rng.integers(1, 11)).tolist()
                             for _ in range(5069)]
        ds = SequenceDataset.from_sequences(seqs, [i % 2 for i in range(5070)],
                                            Vocab.from_tokens("abc"), ("x", "y"))
        taken = ds.take(rows)
        assert_same(taken, ds.take(np.arange(5070)[rows]))
        assert taken.ids.shape[1] == taken.lengths.max(initial=0) < ds.ids.shape[1]
        for array in (taken.ids, taken.lengths, taken.labels, taken.counts):
            assert not array.flags.writeable

    def test_out_of_range_index_raises(self):
        with pytest.raises(IndexError):
            self.dataset().take([0, 5])


class TestReadArray:
    def test_reads_a_read_only_array_of_the_shape(self):
        array = read_array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [2, 3])
        assert array.dtype == np.float64 and array.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert not array.flags.writeable

    # reshape would infer a -1; a product other than the list's length is
    # rejected first, and numpy's reshape rejects the others
    @pytest.mark.parametrize("shape", [[-1, 6], [2, -1], [-2, -3], [2, 2], [2.0, 3], [True, 6],
                                       [6, 0]],
                             ids=["minus_one_first", "minus_one_last", "two_negatives", "too_few",
                                  "float", "bool", "zero"])
    def test_sizes_that_are_not_the_lists_rejected(self, shape):
        with pytest.raises((TypeError, ValueError)):
            read_array([0.0] * 6, shape)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            read_array([0.0, value], [2])
