import numpy as np
import pytest

from bayesmlp import data


class TestExactXor:
    def test_truth_table(self):
        assert data.exact_xor(0, 0) == 0
        assert data.exact_xor(1, 1) == 0
        assert data.exact_xor(0, 1) == 1
        assert data.exact_xor(1, 0) == 1

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            data.exact_xor(2, 0)


class TestNoisyXor:
    def test_default_sizes(self):
        train, test = data.generate_noisy_xor(data.NoisyXorConfig(seed=1))
        assert len(train) == 500
        assert len(test) == 120

    def test_corner_branch_geometry(self):
        """Corner (0,1) maps u to (u - c, u + c) with label 1."""
        cfg = data.NoisyXorConfig(c=0.55, train_per_corner=5, test_per_corner=1, seed=3)
        train, _ = data.generate_noisy_xor(cfg)
        block = train.features[5:10]  # second corner block is (0, 1)
        u = block[:, 0] + cfg.c
        np.testing.assert_allclose(block[:, 1], u + cfg.c, atol=1e-12)
        assert (train.labels[5:10] == 1).all()

    def test_inputs_within_range(self):
        cfg = data.NoisyXorConfig(c=0.6, train_per_corner=50, test_per_corner=10, seed=7)
        train, test = data.generate_noisy_xor(cfg)
        for ds in (train, test):
            assert (ds.features >= -cfg.c).all()
            assert (ds.features <= 1 + cfg.c).all()

    def test_label_balance(self):
        train, test = data.generate_noisy_xor(data.NoisyXorConfig(seed=11))
        assert train.labels.sum() == len(train) // 2
        assert test.labels.sum() == len(test) // 2

    def test_seed_reproducible(self):
        a = data.generate_noisy_xor(data.NoisyXorConfig(seed=42))
        b = data.generate_noisy_xor(data.NoisyXorConfig(seed=42))
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_c_bounds_enforced(self):
        with pytest.raises(ValueError):
            data.NoisyXorConfig(c=0.5)
        with pytest.raises(ValueError):
            data.NoisyXorConfig(c=1.0)


class TestStandardize:
    def test_zero_mean_unit_std(self, rng):
        ds = data.LabeledDataset(rng.normal(3.0, 2.5, (200, 4)), rng.integers(0, 2, 200))
        out, _ = data.standardize(ds)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-10)

    def test_stats_reproduce_transform(self, rng):
        ds = data.LabeledDataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50))
        out, stats = data.standardize(ds)
        again = stats.apply(ds)
        np.testing.assert_array_equal(out.features, again.features)

    def test_constant_column_rejected(self):
        ds = data.LabeledDataset(np.ones((10, 2)), np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="zero-variance"):
            data.standardize(ds)

    def test_non_dyadic_constant_column_rejected(self, rng):
        """Twelve 0.1s have a computed std of about 1e-17, not 0."""
        features = np.column_stack([rng.normal(size=12), np.full(12, 0.1)])
        assert features[:, 1].std() > 0.0
        ds = data.LabeledDataset(features, np.zeros(12, dtype=int))
        with pytest.raises(ValueError, match=r"zero-variance feature column\(s\): \[1\]"):
            data.standardize(ds)


class TestCsvLoader:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return path

    def test_missing_rows_dropped(self, tmp_path):
        path = self._write(
            tmp_path / "d.csv",
            "a,b,label\n1,2,0\n3,,1\n4,5,1\nNA,6,0\n7,8,1\n",
        )
        ds = data.load_csv_dataset(path, ["a", "b"], "label", {"0": 0, "1": 1})
        assert len(ds) == 3

    def test_unknown_label_rejected(self, tmp_path):
        path = self._write(tmp_path / "d.csv", "a,label\n1,weird\n")
        with pytest.raises(ValueError, match="unknown label"):
            data.load_csv_dataset(path, ["a"], "label", {"0": 0})

    def test_unparseable_cell_reports_line(self, tmp_path):
        path = self._write(tmp_path / "d.csv", "a,label\n1,0\nnope,1\n")
        with pytest.raises(ValueError, match="line 3"):
            data.load_csv_dataset(path, ["a"], "label", {"0": 0, "1": 1})

    def test_categorical_encoding(self, tmp_path):
        path = self._write(
            tmp_path / "d.csv",
            "size,color,label\n1.5,red,0\n2.5,blue,1\n0.5,green,1\n",
        )
        ds = data.load_csv_dataset(
            path,
            ["size", "color"],
            "label",
            {"0": 0, "1": 1},
            encodings={"color": {"kind": "categorical", "levels": ["red", "green", "blue"]}},
        )
        np.testing.assert_array_equal(ds.features[:, 1], [0.0, 2.0, 1.0])

    def test_missing_column_rejected(self, tmp_path):
        path = self._write(tmp_path / "d.csv", "a,label\n1,0\n")
        with pytest.raises(ValueError, match="not found"):
            data.load_csv_dataset(path, ["a", "zz"], "label", {"0": 0})

    def test_round_trip(self, tmp_path, rng):
        ds = data.LabeledDataset(rng.normal(size=(25, 2)), rng.integers(0, 2, 25))
        path = tmp_path / "rt.csv"
        data.write_dataset_csv(ds, path, ["x1", "x2"])
        back = data.load_csv_dataset(path, ["x1", "x2"], "label", {"0": 0, "1": 1})
        np.testing.assert_array_equal(ds.features, back.features)
        np.testing.assert_array_equal(ds.labels, back.labels)


class TestVendored:
    @pytest.mark.parametrize(
        "name,train_rows,test_rows",
        [("penguins", 223, 110), ("hawks", 596, 295)],
    )
    def test_final_form_shapes(self, name, train_rows, test_rows):
        train, test = data.load_vendored(name)
        assert (len(train), len(test)) == (train_rows, test_rows)
        assert train.num_features == test.num_features == 6
        assert sorted(set(train.labels.tolist())) == [1, 2, 3]

    def test_manifest_is_auditable(self):
        manifest = data.vendored_manifest("penguins")
        assert len(manifest.feature_columns) == 6
        assert sorted(manifest.label_mapping.values()) == [1, 2, 3]
        assert manifest.standardized and manifest.provenance["seed"] == 20250810

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            data.vendored_manifest("iris")
