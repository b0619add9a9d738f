"""Multi-attention CNN+BiLSTM multi-label classification of multi-resolution scenes."""

from .dataset import DatasetManifest, Sample, generate_synthetic, load_split, read_sample, write_sample
from .init import xavier_init
from .metrics import MetricsReport, aggregate, example_metrics
from .model import Model, ModelConfig
from .tensor import Graph, Tensor
from .trainer import TrainConfig, evaluate_model, train

__all__ = [
    "DatasetManifest", "Sample", "generate_synthetic", "load_split", "read_sample", "write_sample",
    "xavier_init",
    "MetricsReport", "aggregate", "example_metrics",
    "Model", "ModelConfig",
    "Graph", "Tensor",
    "TrainConfig", "evaluate_model", "train",
]
__version__ = "0.1.0"
