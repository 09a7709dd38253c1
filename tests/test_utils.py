"""Utility helpers: RNG plumbing, npz I/O, atomic writes, timer."""

import hashlib
import zipfile

import numpy as np
import pytest

from repro.utils.io import (
    atomic_write,
    ensure_dir,
    load_npz_dict,
    save_npz_dict,
    sha256_file,
    temp_path,
)
from repro.utils.rng import as_generator, spawn_seeds
from repro.utils.timer import Timer


class TestRng:
    def test_int_seed(self):
        a = as_generator(5).random(3)
        b = as_generator(5).random(3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_fresh_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_spawn_seeds_deterministic(self):
        assert spawn_seeds(7, 4) == spawn_seeds(7, 4)

    def test_spawn_seeds_distinct(self):
        seeds = spawn_seeds(7, 100)
        assert len(set(seeds)) == 100

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestNpzDict:
    def test_roundtrip_arrays_and_meta(self, tmp_path):
        data = {
            "array": np.arange(6.0).reshape(2, 3),
            "n": 42,
            "name": "two-stream",
            "values": [1.0, 2.0],
        }
        path = save_npz_dict(tmp_path / "out.npz", data)
        loaded = load_npz_dict(path)
        np.testing.assert_array_equal(loaded["array"], data["array"])
        assert loaded["n"] == 42
        assert loaded["name"] == "two-stream"
        assert loaded["values"] == [1.0, 2.0]

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_npz_dict(tmp_path / "x.npz", {"__meta__": 1})

    def test_creates_parent_dirs(self, tmp_path):
        path = save_npz_dict(tmp_path / "a" / "b" / "c.npz", {"x": np.zeros(1)})
        assert path.exists()

    def test_appends_npz_like_numpy_and_returns_the_file_written(self, tmp_path):
        path = save_npz_dict(tmp_path / "data", {"x": np.arange(3)})
        assert path == tmp_path / "data.npz"
        assert [p.name for p in tmp_path.iterdir()] == ["data.npz"]
        np.testing.assert_array_equal(load_npz_dict(path)["x"], np.arange(3))

    def test_archive_is_deflated_deterministic_and_read_by_np_load(self, tmp_path):
        data = {"counts": np.arange(1000, dtype=np.uint16) % 7, "n": 3}
        a = save_npz_dict(tmp_path / "a.npz", data)
        b = save_npz_dict(tmp_path / "b.npz", data)
        # Entry timestamps are fixed, not the clock: equal data writes
        # equal bytes (shard hashes in a campaign manifest rely on this).
        assert a.read_bytes() == b.read_bytes()
        with zipfile.ZipFile(a) as archive:
            assert [i.filename for i in archive.infolist()] == ["counts.npy", "__meta__.npy"]
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}
        with np.load(a, allow_pickle=False) as archive:
            assert archive["counts"].dtype == np.uint16
            np.testing.assert_array_equal(archive["counts"], data["counts"])

    def test_object_arrays_rejected(self, tmp_path):
        # load_npz_dict reads no pickles, so none are written either.
        with pytest.raises(ValueError):
            save_npz_dict(tmp_path / "x.npz", {"x": np.array([{"a": 1}], dtype=object)})


class TestAtomicWrite:
    def test_publishes_the_written_file(self, tmp_path):
        target = tmp_path / "out.npz"
        seen = []

        def write(tmp):
            seen.append(tmp)
            save_npz_dict(tmp, {"a": np.arange(3.0)})

        atomic_write(target, write)
        np.testing.assert_array_equal(load_npz_dict(target)["a"], np.arange(3.0))
        # The temp file kept the target's name as its tail
        # (save_npz_dict appends .npz otherwise) and is gone after the
        # rename.
        assert seen[0].name.startswith(".tmp-") and seen[0].name.endswith("-out.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["out.npz"]

    def test_failed_write_leaves_neither_temp_nor_target(self, tmp_path):
        def write(tmp):
            tmp.write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(tmp_path / "manifest.json", write)
        assert list(tmp_path.iterdir()) == []

    def test_temp_names_are_unique_within_a_process(self, tmp_path):
        assert temp_path(tmp_path / "x") != temp_path(tmp_path / "x")

    def test_sha256_file(self, tmp_path):
        path = tmp_path / "blob"
        data = bytes(range(256)) * 5000  # spans several read chunks
        path.write_bytes(data)
        assert sha256_file(path) == hashlib.sha256(data).hexdigest()


class TestEnsureDir:
    def test_creates_and_returns(self, tmp_path):
        p = ensure_dir(tmp_path / "x" / "y")
        assert p.is_dir()

    def test_idempotent(self, tmp_path):
        ensure_dir(tmp_path / "z")
        ensure_dir(tmp_path / "z")


class TestTimer:
    def test_measures_nonnegative_time(self):
        with Timer() as t:
            sum(range(100))
        assert t.elapsed >= 0.0
