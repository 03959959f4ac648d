"""Reprogramming a frozen sequence classifier via sparse dictionary coding."""

from .classifier import (
    ClassifierParams,
    EmbeddingTable,
    FrozenClassifier,
    TrainConfig,
    forward_embedded,
    input_gradient,
    load_checkpoint,
    save_checkpoint,
    train_source,
)
from .data import SequenceDataset, SplitSpec, Vocab, load_csv, split, subsample, synth_tasks
from .errors import ConfigError, DataFormatError, NumericError, ShapeError
from .numerics import cross_entropy, softmax
from .program import (
    AdversarialProgram,
    LabelMap,
    ReprogramConfig,
    evaluate,
    loss_and_grad,
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
