import numpy as np
import pytest

from reprogram.data import (
    SequenceDataset,
    SplitSpec,
    Vocab,
    load_csv,
    load_fasta,
    save_csv,
    split,
    subsample,
    synth_tasks,
)
from reprogram.errors import ConfigError, DataFormatError


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\nACDK,toxic\nGG,nontoxic\n")
        ds = load_csv(path)
        assert ds.vocab.index_to_token == ("A", "C", "D", "G", "K")
        assert ds.class_names == ("toxic", "nontoxic")
        assert ds.labels == (0, 1)
        assert ds.sequences[0] == (0, 1, 2, 4)

    def test_duplicates_preserved(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\nAA,x\nAA,x\n")
        assert len(load_csv(path)) == 2

    def test_round_trip(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "sequence,label\nACDK,toxic\nGG,nontoxic\nKKA,toxic\n")
        ds = load_csv(path)
        out = tmp_path / "out.csv"
        save_csv(ds, out)
        again = load_csv(str(out))
        assert again == ds

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "seq,label\nAA,x\n")
        with pytest.raises(DataFormatError, match="sequence"):
            load_csv(path)

    def test_empty_sequence_row_reports_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\nAA,x\n,y\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(path)

    def test_loader_deterministic(self, tmp_path):
        path = write(tmp_path / "d.csv", "sequence,label\nABBA,x\nBAB,y\n")
        assert load_csv(path) == load_csv(path)


class TestLoadFasta:
    def test_single_record(self, tmp_path):
        path = write(tmp_path / "f.fa", ">s1|toxic\nACD\n")
        ds = load_fasta(path)
        assert len(ds) == 1
        assert ds.class_names == ("toxic",)

    def test_multiline_body_concatenated(self, tmp_path):
        path = write(tmp_path / "f.fa", ">s1|x\nAC\nDG\n>s2|y\nGG\n")
        ds = load_fasta(path)
        seq = "".join(ds.vocab.index_to_token[t] for t in ds.sequences[0])
        assert seq == "ACDG"

    def test_header_without_label(self, tmp_path):
        path = write(tmp_path / "f.fa", ">nolabel\nACD\n")
        with pytest.raises(DataFormatError, match="header without label"):
            load_fasta(path)

    def test_matches_csv_loader(self, tmp_path):
        fasta = write(tmp_path / "f.fa", ">a|toxic\nACDK\n>b|nontoxic\nGG\n")
        csvp = write(tmp_path / "d.csv", "sequence,label\nACDK,toxic\nGG,nontoxic\n")
        assert load_fasta(fasta) == load_csv(csvp)


@pytest.fixture
def dataset():
    seqs = tuple(tuple(int(x) for x in np.random.default_rng(i).integers(0, 4, 5))
                 for i in range(40))
    labels = tuple(i % 2 for i in range(40))
    vocab = Vocab.from_tokens(["A", "B", "C", "D"])
    return SequenceDataset(seqs, labels, vocab, ("neg", "pos"))


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
            assert x == y

    def test_disjoint_and_covering_random_specs(self, dataset):
        rng = np.random.default_rng(0)
        for _ in range(100):
            seed = int(rng.integers(1 << 31))
            train, valid, test = split(dataset, SplitSpec(0.5, 0.25, 0.25, seed=seed))
            combined = sorted(train.sequences + valid.sequences + test.sequences)
            assert combined == sorted(dataset.sequences)
            assert len(train) + len(valid) + len(test) == len(dataset)

    def test_fraction_sum_validated(self, dataset):
        with pytest.raises(ConfigError):
            split(dataset, SplitSpec(0.5, 0.2, 0.2, seed=0))


class TestSubsample:
    def test_full_size_is_same_multiset(self, dataset):
        sub = subsample(dataset, 40, seed=1)
        assert sorted(sub.sequences) == sorted(dataset.sequences)

    def test_too_large_rejected(self, dataset):
        with pytest.raises(ConfigError):
            subsample(dataset, 41, seed=1)

    def test_nested_for_fixed_seed(self, dataset):
        for n1, n2 in [(5, 10), (10, 20), (20, 40)]:
            small = subsample(dataset, n1, seed=3)
            large = subsample(dataset, n2, seed=3)
            pairs_small = list(zip(small.sequences, small.labels))
            pairs_large = list(zip(large.sequences, large.labels))
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
        assert a[0] == b[0] and a[1] == b[1]

    def test_target_labels_match_motif_presence(self):
        from reprogram.data import TARGET_MOTIF, _contains_motif

        _, target = synth_tasks(1, 200, 200)
        for seq, label in zip(target.sequences, target.labels):
            assert _contains_motif(seq) == bool(label)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            synth_tasks(0, 0, 10)


class TestVocab:
    def test_bijection(self):
        v = Vocab.from_tokens(["a", "b", "c"])
        assert len(v) == 3
        assert v.encode("b") == 1
        assert v.index_to_token[2] == "c"

    def test_dataset_rejects_out_of_range_tokens(self):
        v = Vocab.from_tokens(["a", "b"])
        with pytest.raises(DataFormatError):
            SequenceDataset(((0, 5),), (0,), v, ("x",))
