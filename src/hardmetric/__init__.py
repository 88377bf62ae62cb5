"""Metric embedding training with adaptively hardened synthetic negatives.

The package factors into: low-level dense layers with hand-derived
backward passes (`nn`), the embedding model (`embedder`), hardness-aware
negative interpolation (`augmentor`), the feature-space generator and its
frozen-path classifier (`generator`), triplet/N-pair losses (`losses`), the
training loop (`training`), clustering/retrieval evaluation (`evaluation`),
and dataset plus CLI plumbing (`data`, `config`, `cli`).
"""

from .augmentor import AugmentorState, augment_tuples, pulling_lambda
from .data import Dataset, load_dataset, save_dataset, split_zero_shot, synth_gaussian_dataset
from .embedder import (
    EmbedderParams,
    EmbeddingBatch,
    embed,
    extract,
    init_embedder,
    pairwise_distances,
    project,
)
from .evaluation import EvalReport, evaluate_embeddings, kmeans, nmi, pairwise_f1, recall_at_k
from .generator import classifier_step, generator_loss, init_generator
from .losses import TupleBatch, batch_metric_loss, npair_loss, triplet_loss
from .nn import (
    Adam, DenseLayer, dense_backward, dense_forward, gradcheck, init_dense, softmax_xent, squared_error, stack_forward,
)
from .training import Models, TrainConfig, TrainState, metric_weight, mine_tuples, run_training, train_step

__version__ = "0.1.0"
