import numpy as np
import pytest

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
    for name in ("ids", "lengths", "labels"):
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

    def test_absolute_counts(self, dataset):
        train, valid, test = split(dataset, SplitSpec(30, 5, 5, seed=0))
        assert (len(train), len(valid), len(test)) == (30, 5, 5)

    def test_counts_exceeding_size_rejected(self, dataset):
        with pytest.raises(ConfigError):
            split(dataset, SplitSpec(39, 5, 5, seed=0))

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
        # fractions summing to 1, or counts within the size, are no excuse
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
        assert v.token_to_index == {"a": 0, "b": 1, "c": 2}
        assert all(v.index_to_token[i] == tok for tok, i in v.token_to_index.items())

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

        def from_sequences(cls, *args):
            raise AssertionError("a subset was padded again")

        monkeypatch.setattr(SequenceDataset, "from_sequences", classmethod(from_sequences))
        subset = ds.take(np.array([3, 1]))
        assert subset.ids.tolist() == [[1, 1, 1], [1, 0, 0]]
        split(ds, SplitSpec(0.6, 0.2, 0.2, seed=1))
        subsample(ds, 3, seed=2)

    def test_empty_indices_give_an_empty_dataset(self):
        subset = self.dataset().take([])
        assert len(subset) == 0 and subset.labels.shape == (0,)
        assert subset.labels.dtype == np.int32
        assert subset.ids.shape == (0, 0) and subset.lengths.shape == (0,)

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
