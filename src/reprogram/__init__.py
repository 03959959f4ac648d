"""Reprogramming a frozen sequence classifier via sparse dictionary coding."""

from .classifier import (
    ClassifierParams,
    FrozenClassifier,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_source,
)
from .data import SequenceDataset, SplitSpec, Vocab, load_csv, split, subsample, synth_tasks
from .errors import ConfigError, DataFormatError, NumericError, ShapeError
from .numerics import softmax
from .program import (
    AdversarialProgram,
    LabelMap,
    ReprogramConfig,
    evaluate_program,
    map_output,
    reprogram_train,
)
from .sparse_coding import (
    Dictionary,
    KsvdConfig,
    batch_encode,
    ksvd_dictionary_update,
    ksvd_run,
)

__version__ = "0.1.0"
