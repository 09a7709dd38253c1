"""Shared utilities: RNG handling, artifact I/O, timing."""

from repro.utils.rng import as_generator, spawn_seeds
from repro.utils.io import ensure_dir, load_npz_dict, save_npz_dict
from repro.utils.timer import Timer

__all__ = [
    "as_generator",
    "spawn_seeds",
    "ensure_dir",
    "load_npz_dict",
    "save_npz_dict",
    "Timer",
]
