"""A from-scratch NumPy deep-learning stack.

This subpackage replaces the paper's TensorFlow/Keras dependency (not
installable in this offline environment) with exactly the recipe the
paper trains (Sec. IV-A): Dense, ReLU, Conv2D, MaxPool2D and Flatten
layers with exact analytic backprop and Glorot-uniform weights, the MSE
loss, the Adam optimizer, a ``Sequential`` container with npz
checkpoints, a shuffling ``DataLoader`` and a fixed-epoch ``Trainer``.
Layer gradients are verified against finite differences in the test
suite.
"""

from repro.nn.initializers import glorot_uniform
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)
from repro.nn.losses import MSELoss
from repro.nn.metrics import max_absolute_error, mean_absolute_error
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.nn.data import DataLoader
from repro.nn.training import Trainer

__all__ = [
    "glorot_uniform",
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "MaxPool2D",
    "MSELoss",
    "Sequential",
    "Adam",
    "DataLoader",
    "Trainer",
    "mean_absolute_error",
    "max_absolute_error",
]
