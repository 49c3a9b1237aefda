import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gsremotion.dataset import Dataset, EmotionLabel, GsrRecord
from gsremotion.features import (
    CATALOG_VERSION,
    FEATURE_NAMES,
    N_FEATURES,
    FeatureMatrix,
    FeatureNormalization,
    column_ids,
    extract_dataset_features,
    extract_features,
    fit_feature_normalization,
    read_feature_csv,
    write_feature_csv,
)

RATE = 16.0


def test_catalog_is_30_features():
    assert N_FEATURES == 30
    assert len(FEATURE_NAMES) == 30
    assert len(set(FEATURE_NAMES)) == 30


def test_column_ids_are_zero_padded():
    assert column_ids()[:3] == ["f01", "f02", "f03"]
    assert column_ids()[-1] == "f30"
    assert len(column_ids()) == N_FEATURES


class TestDifference:
    """The d1 and d2 blocks of the catalog: statistics of the first and
    second forward differences, one and two samples shorter than the signal."""

    # steps of 2 and 3 in turn: d1 is 2, 3, 2, 3, ... and d2 is 1, -1, 1, ...
    STEPS = np.concatenate([[0.0], np.cumsum(np.tile([2.0, 3.0], 40))])

    def test_first_order(self):
        fv = extract_features(self.STEPS, RATE)
        # mean, lower median, std, min, max, range, abs_mean, rms of 40 twos and 40 threes
        assert_array_equal(fv[8:16], [2.5, 2.0, 0.5, 2.0, 3.0, 1.0, 2.5, np.sqrt(6.5)])

    def test_second_order(self):
        fv = extract_features(self.STEPS, RATE)
        # 40 ones and 39 minus ones
        assert fv[16] == pytest.approx(1 / 79)
        assert_array_equal(fv[19:23], [-1.0, 1.0, 2.0, 1.0])
        assert fv[23] == 1.0

    def test_ramp_has_zero_second_difference(self):
        fv = extract_features(0.5 * np.arange(100), RATE)
        assert_array_equal(fv[8:16], [0.5, 0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.5])
        assert_array_equal(fv[16:24], 0.0)

    def test_too_short(self):
        # 64 samples, the fewest accepted, leave 63 first and 62 second
        # differences: 32 twos and 31 threes, then 31 ones and 31 minus ones
        fv = extract_features(self.STEPS[:64], RATE)
        assert fv[8] == pytest.approx(157 / 63)
        assert fv[16] == 0.0
        with pytest.raises(ValueError, match="at least 64"):
            extract_features(self.STEPS[:63], RATE)


class TestExtract:
    def test_constant_signal_degenerates(self):
        fv = extract_features(np.full(128, 3.0), RATE)
        # the whole signal block collapses onto the constant
        assert_allclose(fv[:8], [3.0, 3.0, 0.0, 3.0, 3.0, 0.0, 3.0, 3.0])
        # differences and spectrum are identically zero
        assert_allclose(fv[8:24], 0.0)
        assert_allclose(fv[24:], 0.0)

    def test_median_is_lower_order_statistic(self):
        fv = extract_features(np.arange(64, dtype=float), RATE)
        assert fv[1] == 31.0  # not the 31.5 an averaged median would give

    def test_std_is_population(self):
        x = np.arange(64, dtype=float)
        fv = extract_features(x, RATE)
        assert fv[2] == pytest.approx(np.sqrt(((x - x.mean()) ** 2).mean()), rel=1e-12)
        assert fv[2] != pytest.approx(np.std(x, ddof=1), rel=1e-6)

    def test_alternating_signal(self):
        x = (np.arange(128) % 2).astype(float)
        fv = extract_features(x, RATE)
        assert fv[5] == 1.0  # signal range
        assert fv[9] == 1.0  # d1 lower median over {+1 x64, -1 x63}

    def test_sinusoid_peak_frequency(self):
        t = np.arange(512) / RATE
        fv = extract_features(np.sin(2 * np.pi * 0.1 * t), RATE)
        bin_width = RATE / 512
        assert fv[29] == pytest.approx(0.09375)
        assert abs(fv[29] - 0.1) <= bin_width
        assert fv[26] >= 0.9  # nearly all power inside the 0.08-0.2 Hz band

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256) + 2.0
        a = extract_features(x, RATE)
        b = extract_features(3.7 * x, RATE)
        assert_allclose(b[:24], 3.7 * a[:24], rtol=1e-9)
        assert_allclose(b[24:26], 3.7 ** 2 * a[24:26], rtol=1e-9)
        assert_allclose(b[26:], a[26:], rtol=1e-9)

    def test_signal_block_is_permutation_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256) + 2.0
        a = extract_features(x, RATE)
        b = extract_features(x[rng.permutation(256)], RATE)
        assert_allclose(b[:8], a[:8], rtol=1e-12)

    def test_spectral_block_is_shift_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256) + 2.0
        a = extract_features(x, RATE)
        b = extract_features(np.roll(x, 37), RATE)
        assert_allclose(b[24:], a[24:], rtol=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 64"):
            extract_features(np.ones(63), RATE)

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            extract_features(np.ones(128), 0.0)

    def test_rejects_nan(self):
        x = np.ones(128)
        x[5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            extract_features(x, RATE)


def test_extract_dataset_features_preserves_order(small_corpus):
    matrix = extract_dataset_features(small_corpus)
    assert matrix.n_rows == len(small_corpus)
    assert matrix.n_features == 30
    assert matrix.record_ids == [r.record_id for r in small_corpus]
    assert matrix.labels == [r.label for r in small_corpus]


def test_extract_dataset_features_rejects_zero_records():
    with pytest.raises(ValueError, match="zero records"):
        extract_dataset_features(Dataset())


def test_extract_dataset_features_refuses_blocks_that_miss_a_record(small_corpus):
    blocks = list(small_corpus.signal_blocks(range(1, len(small_corpus))))
    with pytest.raises(ValueError, match="cover 19 rows of 20 records"):
        extract_dataset_features(small_corpus, blocks)


class TestFeatureVector:
    """One record's row of the feature table."""

    def test_non_finite(self):
        rng = np.random.default_rng(0)
        records = [
            GsrRecord("ok", "S01", EmotionLabel.CALM, RATE, rng.uniform(1, 2, 128)),
            GsrRecord("huge", "S01", EmotionLabel.FEAR, RATE, 1e200 * rng.uniform(1, 2, 128)),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="'huge' has non-finite"):
                extract_dataset_features(Dataset(records=records))


class TestFeatureMatrix:
    def matrix(self):
        return FeatureMatrix(
            values=np.arange(12, dtype=float).reshape(3, 4),
            record_ids=["a", "b", "c"],
            labels=[EmotionLabel.CALM, EmotionLabel.FEAR, None],
        )

    def test_values_are_frozen(self):
        m = self.matrix()
        with pytest.raises(ValueError):
            m.values[0, 0] = 99.0

    def test_metadata_mismatch(self):
        with pytest.raises(ValueError, match="metadata"):
            FeatureMatrix(values=np.ones((2, 4)), record_ids=["a"], labels=[None, None])


class TestFeatureNormalization:
    def test_fit_and_apply(self):
        m = FeatureMatrix(values=np.array([[2.0], [4.0], [6.0]]),
                          record_ids=list("abc"), labels=[None] * 3)
        norm = fit_feature_normalization(m)
        assert norm.mins[0] == 2.0 and norm.maxs[0] == 6.0
        assert_allclose(norm.scale(m.values)[:, 0], [0.0, 0.5, 1.0])
        assert norm.scale(np.array([[7.0]]))[0, 0] == pytest.approx(1.25)

    def test_degenerate_column_maps_to_zero(self):
        m = FeatureMatrix(values=np.array([[1.0, 5.0], [2.0, 5.0]]),
                          record_ids=list("ab"), labels=[None] * 2)
        norm = fit_feature_normalization(m)
        assert norm.mins[1] == norm.maxs[1] == 5.0
        assert_array_equal(norm.scale(m.values)[:, 1], [0.0, 0.0])
        assert norm.scale(np.array([[3.0, 9.0]]))[0, 1] == 0.0

    def test_columns_scale_bit_for_bit_as_the_full_row(self, default_features):
        X = default_features.values
        norm = fit_feature_normalization(default_features)
        columns = np.array([0, 4, 16, 29])  # f30 is constant on this corpus
        assert_array_equal(norm.scale(X[:, columns], columns), norm.scale(X)[:, columns])
        with pytest.raises(ValueError, match="expects 4 columns"):
            norm.scale(X, columns)

    def test_width_mismatch(self):
        m = FeatureMatrix(values=np.ones((2, 3)), record_ids=list("ab"),
                          labels=[None] * 2)
        norm = FeatureNormalization(mins=np.zeros(2), maxs=np.ones(2))
        with pytest.raises(ValueError, match="columns"):
            norm.scale(m.values)

    def test_inverted_bounds(self):
        with pytest.raises(ValueError, match="max"):
            FeatureNormalization(mins=np.ones(2), maxs=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bounds_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            FeatureNormalization(mins=np.array([0.0, bad]), maxs=np.ones(2))

    def test_span_beyond_the_float_range_names_the_column(self):
        m = FeatureMatrix(values=np.array([[0.0, -1e308, 1.0], [1.0, 1e308, 1.0]]),
                          record_ids=list("ab"), labels=[None] * 2)
        with pytest.raises(ValueError, match="column f02 spans more than the float range"):
            fit_feature_normalization(m)


class TestFeatureCsv:
    def matrix(self, small_corpus):
        return extract_dataset_features(small_corpus)

    def test_round_trip_is_bit_exact(self, small_corpus, tmp_path):
        m = self.matrix(small_corpus)
        path = str(tmp_path / "features.csv")
        write_feature_csv(m, path)
        back = read_feature_csv(path)
        assert_array_equal(back.values, m.values)
        assert back.record_ids == m.record_ids
        assert back.labels == m.labels

    def test_header_layout(self, small_corpus, tmp_path):
        path = tmp_path / "features.csv"
        write_feature_csv(self.matrix(small_corpus), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == f"# catalog_version: {CATALOG_VERSION}"
        assert lines[1] == "record_id,label," + ",".join(column_ids())

    def test_writer_refuses_restricted_table(self, small_corpus, tmp_path):
        path = tmp_path / "f.csv"
        with pytest.raises(ValueError, match="30 catalog columns, got 3"):
            m = self.matrix(small_corpus)
            restricted = FeatureMatrix(values=m.values[:, [1, 3, 8]],
                                       record_ids=m.record_ids, labels=m.labels)
            write_feature_csv(restricted, str(path))
        assert not path.exists()

    def test_unlabeled_rows_round_trip(self, tmp_path):
        m = FeatureMatrix(values=np.random.default_rng(0).normal(size=(2, 30)),
                          record_ids=["x", "y"], labels=[None, EmotionLabel.CALM])
        path = str(tmp_path / "f.csv")
        write_feature_csv(m, path)
        back = read_feature_csv(path)
        assert back.labels == [None, EmotionLabel.CALM]

    def test_missing_version_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("record_id,label,f01\nx,calm,1.0\n")
        with pytest.raises(ValueError, match="catalog_version"):
            read_feature_csv(str(path))

    def test_unsupported_version(self, small_corpus, tmp_path):
        path = tmp_path / "f.csv"
        write_feature_csv(self.matrix(small_corpus), str(path))
        body = path.read_text().replace("catalog_version: 1", "catalog_version: 2", 1)
        path.write_text(body)
        with pytest.raises(ValueError, match="unsupported"):
            read_feature_csv(str(path))

    def test_renamed_feature_column(self, small_corpus, tmp_path):
        path = tmp_path / "f.csv"
        write_feature_csv(self.matrix(small_corpus), str(path))
        path.write_text(path.read_text().replace("f02", "x02", 1))
        with pytest.raises(ValueError, match="f01"):
            read_feature_csv(str(path))

    def test_bad_value(self, small_corpus, tmp_path):
        path = tmp_path / "f.csv"
        write_feature_csv(self.matrix(small_corpus), str(path))
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[2] = "not-a-number"
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad feature value"):
            read_feature_csv(str(path))

    def test_short_row(self, small_corpus, tmp_path):
        path = tmp_path / "f.csv"
        write_feature_csv(self.matrix(small_corpus), str(path))
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected 32 fields"):
            read_feature_csv(str(path))

    def test_blank_row_is_refused(self, small_corpus, tmp_path):
        path = tmp_path / "f.csv"
        write_feature_csv(self.matrix(small_corpus), str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4] + [""] + lines[4:]) + "\n")
        with pytest.raises(ValueError, match=": line 5: expected 32 fields, got 0$"):
            read_feature_csv(str(path))

    def test_repeated_record_id_names_both_lines(self, small_corpus, tmp_path):
        path = tmp_path / "f.csv"
        write_feature_csv(self.matrix(small_corpus), str(path))
        lines = path.read_text().splitlines()
        record_id = lines[3].split(",")[0]
        path.write_text("\n".join(lines + [lines[3]]) + "\n")
        with pytest.raises(ValueError, match=f": line {len(lines) + 1}: record_id "
                                             f"'{record_id}' is also on line 4$"):
            read_feature_csv(str(path))

    def test_no_rows(self, tmp_path):
        path = tmp_path / "f.csv"
        header = "record_id,label," + ",".join(column_ids())
        path.write_text(f"# catalog_version: {CATALOG_VERSION}\n{header}\n")
        with pytest.raises(ValueError, match="no feature rows"):
            read_feature_csv(str(path))
