"""Dataset tests: pixel scaling, IDX container, synthetic Gaussians, batching."""

import os
import struct

import numpy as np
import pytest

from encdiff.cli import EXIT_CONFIG_ERROR, main
from encdiff.config import RunConfig
from encdiff.data import (
    Dataset,
    PIXELS,
    batches,
    load_idx,
    real_items,
    scale_pixels,
    synth_gaussian2d,
    unscale_pixels,
    write_idx,
)
from encdiff.errors import ConfigError
from encdiff.train import load_dataset


class TestScalePixels:
    def test_endpoints(self):
        np.testing.assert_array_equal(scale_pixels(np.array([0, 255])), [-1.0, 1.0])

    def test_midpoint(self):
        assert scale_pixels(np.array([128]))[0] == pytest.approx(1.0 / 255.0, rel=1e-15)

    def test_strictly_increasing_distinct(self):
        vals = scale_pixels(np.arange(256))
        assert np.all(np.diff(vals) > 0)
        assert len(np.unique(vals)) == 256

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scale_pixels(np.array([-1]))
        with pytest.raises(ValueError):
            scale_pixels(np.array([0, 256]))

    def test_unscale_inverts_scale_and_clips(self):
        levels = np.arange(256)
        back = unscale_pixels(scale_pixels(levels))
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, levels)
        np.testing.assert_array_equal(unscale_pixels(np.array([-3.0, 2.0])), [0, 255])


class TestIdx:
    def _dataset(self, rng, n=7, rows=5, cols=4) -> Dataset:
        items = rng.integers(0, 256, size=(n, rows * cols)).astype(np.uint8)
        return Dataset(items=items, dims=(rows, cols), name="synthetic", kind=PIXELS)

    def test_round_trip_byte_identical(self, tmp_path, rng):
        ds = self._dataset(rng)
        p1 = os.path.join(tmp_path, "a.idx")
        p2 = os.path.join(tmp_path, "b.idx")
        write_idx(p1, ds)
        write_idx(p2, load_idx(p1))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_loaded_content_matches(self, tmp_path, rng):
        ds = self._dataset(rng)
        path = os.path.join(tmp_path, "c.idx")
        write_idx(path, ds)
        loaded = load_idx(path)
        assert loaded.dims == ds.dims
        np.testing.assert_array_equal(loaded.items, ds.items)

    def test_bad_magic_rejected_with_offset(self, tmp_path):
        path = os.path.join(tmp_path, "bad.idx")
        with open(path, "wb") as f:
            f.write(b"\x00\x00\x08\x01" + b"\x00" * 12)
        with pytest.raises(ConfigError, match="byte 0"):
            load_idx(path)

    def test_truncation_rejected(self, tmp_path, rng):
        ds = self._dataset(rng)
        path = os.path.join(tmp_path, "trunc.idx")
        write_idx(path, ds)
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw[:-5])
        with pytest.raises(ConfigError, match="truncated"):
            load_idx(path)

    def test_header_payload_mismatch(self, tmp_path):
        path = os.path.join(tmp_path, "short.idx")
        with open(path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 60000, 28, 28))
            f.write(b"\x00" * 100)
        with pytest.raises(ConfigError, match="truncated"):
            load_idx(path)

    def test_bytes_after_the_payload_rejected(self, tmp_path, rng):
        ds = self._dataset(rng)
        path = os.path.join(tmp_path, "long.idx")
        write_idx(path, ds)
        with open(path, "ab") as f:
            f.write(b"\x00")
        expected = 16 + 7 * 5 * 4
        with pytest.raises(ConfigError, match=f"IDX file has {expected + 1} bytes, 1 after its "
                                              f"payload \\(expected {expected}\\)"):
            load_idx(path)
        out = tmp_path / "out"
        assert main(["train", "--dataset", "idx", "--idx-path", path, "--steps", "1",
                     "--out-dir", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("n, rows, cols", [
        pytest.param(0, 8, 8, id="no-images"),
        pytest.param(5, 0, 8, id="no-rows"),
        pytest.param(5, 8, 0, id="no-columns"),
    ])
    def test_empty_file_rejected(self, tmp_path, n, rows, cols):
        path = os.path.join(tmp_path, "empty.idx")
        with open(path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        with pytest.raises(ConfigError, match="empty IDX file"):
            load_idx(path)
        out = tmp_path / "out"
        assert main(["train", "--dataset", "idx", "--idx-path", path, "--steps", "1",
                     "--out-dir", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()


class TestSynthGaussian:
    def test_clt_band(self):
        n, mean, c = 50_000, np.array([0.4, -0.6]), 0.8
        ds = synth_gaussian2d(n, mean, c, seed=0)
        band = 4.0 * np.sqrt(c / n)
        np.testing.assert_allclose(ds.items.mean(axis=0), mean, atol=band)

    def test_seed_determinism(self):
        a = synth_gaussian2d(100, [0.0, 0.0], 1.0, seed=42)
        b = synth_gaussian2d(100, [0.0, 0.0], 1.0, seed=42)
        np.testing.assert_array_equal(a.items, b.items)

    def test_degenerate_scale(self):
        ds = synth_gaussian2d(10, [1.0, 2.0], 0.0, seed=0)
        np.testing.assert_array_equal(ds.items, np.tile([1.0, 2.0], (10, 1)))

    def test_metadata_records_parameters(self):
        ds = synth_gaussian2d(10, [0.1, 0.2], 0.5, seed=3)
        assert ds.metadata["mean"] == [0.1, 0.2]
        assert ds.metadata["cov_scale"] == 0.5
        assert ds.metadata["seed"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_gaussian2d(0, [0.0, 0.0], 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_gaussian2d(5, [0.0, 0.0], -1.0, seed=0)
        with pytest.raises(ValueError):
            synth_gaussian2d(5, [0.0], 1.0, seed=0)


class TestBatches:
    def test_epoch_covers_every_item_once(self, rng):
        ds = synth_gaussian2d(97, [0.0, 0.0], 1.0, seed=0)
        seen = []
        for batch in batches(ds.items, 16, rng):
            seen.extend(batch[:, 0].tolist())
        assert len(seen) == 97
        assert sorted(seen) == sorted(ds.items[:, 0].tolist())

    def test_permutation_changes_between_epochs(self):
        ds = synth_gaussian2d(64, [0.0, 0.0], 1.0, seed=0)
        r = np.random.default_rng(5)
        first = np.concatenate([b for b in batches(ds.items, 16, r)])
        second = np.concatenate([b for b in batches(ds.items, 16, r)])
        assert not np.array_equal(first, second)


def test_real_items_scales_pixels(rng):
    items = rng.integers(0, 256, size=(3, 4)).astype(np.uint8)
    ds = Dataset(items=items, dims=(2, 2), name="x", kind=PIXELS)
    np.testing.assert_allclose(real_items(ds), 2.0 * items / 255.0 - 1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown dataset kind 'voxels'"):
        Dataset(items=np.zeros((2, 3)), dims=(3,), name="x", kind="voxels")


def test_d_is_the_flattened_item_size():
    items = np.zeros((2, 20), dtype=np.uint8)
    assert Dataset(items=items, dims=(5, 4), name="x", kind=PIXELS).d == 20
    assert synth_gaussian2d(4, [0.0, 0.0], 1.0, seed=0).d == 2


def test_real_dataset_is_not_written_as_idx(tmp_path):
    path = tmp_path / "real.idx"
    with pytest.raises(ConfigError, match="only pixel datasets can be written as IDX"):
        write_idx(str(path), synth_gaussian2d(4, [0.0, 0.0], 1.0, seed=0))
    assert not path.exists()


def test_load_dataset_rejects_an_unknown_dataset_unvalidated():
    """train.load_dataset keeps its own check for a config that skipped validate()."""
    with pytest.raises(ConfigError, match="unknown dataset 'mnist'"):
        load_dataset(RunConfig(dataset="mnist"))


def test_pixel_dataset_range_validated():
    with pytest.raises(ConfigError):
        Dataset(items=np.array([[300]]), dims=(1,), name="bad", kind=PIXELS)
