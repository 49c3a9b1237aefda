import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gsremotion.dataset import (
    LABEL_ORDER,
    Dataset,
    EmotionLabel,
    GsrRecord,
    load_dataset,
    load_record,
    parse_label,
    save_dataset,
    save_record,
    stratified_split_indices,
)


def make_record(record_id="r1", subject_id="S01", label=EmotionLabel.CALM,
                rate=16.0, n=128, seed=0):
    rng = np.random.default_rng(seed)
    return GsrRecord(
        record_id=record_id,
        subject_id=subject_id,
        label=label,
        sample_rate_hz=rate,
        samples=2.0 + rng.uniform(0.0, 1.0, n),
    )


@pytest.mark.parametrize("text,expected", [
    ("happiness", EmotionLabel.HAPPINESS),
    ("grief", EmotionLabel.GRIEF),
    ("fear", EmotionLabel.FEAR),
    ("anger", EmotionLabel.ANGER),
    ("calm", EmotionLabel.CALM),
    ("Fear", EmotionLabel.FEAR),
    ("ANGER", EmotionLabel.ANGER),
    ("  calm ", EmotionLabel.CALM),
])
def test_parse_label(text, expected):
    assert parse_label(text) is expected


def test_parse_label_rejects_unknown():
    with pytest.raises(ValueError, match="unknown emotion label"):
        parse_label("boredom")


def test_label_order_covers_all_labels_once():
    assert len(LABEL_ORDER) == 5
    assert set(LABEL_ORDER) == set(EmotionLabel)


class TestGsrRecord:
    def test_valid_record(self):
        rec = make_record(n=64)
        assert rec.samples.dtype == np.float64
        assert rec.duration_s == pytest.approx(4.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="need at least 64"):
            make_record(n=63)

    def test_non_finite_samples(self):
        samples = np.ones(128)
        samples[40] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            GsrRecord("r1", "S01", EmotionLabel.CALM, 16.0, samples)

    @pytest.mark.parametrize("rate", [0.0, -16.0])
    def test_bad_sample_rate(self, rate):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            make_record(rate=rate)

    def test_rejects_2d_samples(self):
        with pytest.raises(ValueError, match="1-D"):
            GsrRecord("r1", "S01", EmotionLabel.CALM, 16.0, np.ones((8, 16)))

    def test_rejects_string_label(self):
        with pytest.raises(ValueError, match="EmotionLabel"):
            GsrRecord("r1", "S01", "calm", 16.0, np.ones(64))

    @pytest.mark.parametrize("field", ["record_id", "subject_id"])
    def test_rejects_empty_ids(self, field):
        kwargs = {field: ""}
        with pytest.raises(ValueError, match=field):
            make_record(**kwargs)

    def test_with_samples_keeps_metadata(self):
        rec = make_record(label=EmotionLabel.FEAR)
        out = rec.with_samples(np.ones(64))
        assert out.record_id == rec.record_id
        assert out.label is EmotionLabel.FEAR
        assert out.samples.size == 64
        # original untouched
        assert rec.samples.size == 128


class TestRecordCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rec = make_record(label=EmotionLabel.ANGER, seed=5)
        path = tmp_path / "rec.csv"
        save_record(rec, str(path))
        back = load_record(str(path))
        assert back.record_id == rec.record_id
        assert back.subject_id == rec.subject_id
        assert back.label is rec.label
        assert back.sample_rate_hz == rec.sample_rate_hz
        assert_array_equal(back.samples, rec.samples)

    def test_non_finite_value_in_file(self, tmp_path):
        rec = make_record(n=64)
        path = tmp_path / "rec.csv"
        save_record(rec, str(path))
        text = path.read_text().replace(repr(float(rec.samples[10])), "nan", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="non-finite"):
            load_record(str(path))

    def test_bad_conductance_value(self, tmp_path):
        rec = make_record(n=64)
        path = tmp_path / "rec.csv"
        save_record(rec, str(path))
        text = path.read_text().replace(repr(float(rec.samples[3])), "oops", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="bad conductance"):
            load_record(str(path))

    def test_missing_metadata_key(self, tmp_path):
        rec = make_record(n=64)
        path = tmp_path / "rec.csv"
        save_record(rec, str(path))
        lines = path.read_text().splitlines()
        del lines[1]  # subject line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="missing metadata"):
            load_record(str(path))

    def test_unknown_label_in_file(self, tmp_path):
        rec = make_record(n=64)
        path = tmp_path / "rec.csv"
        save_record(rec, str(path))
        path.write_text(path.read_text().replace("label: calm", "label: boredom"))
        with pytest.raises(ValueError, match="unknown emotion label"):
            load_record(str(path))

    def test_missing_header_row(self, tmp_path):
        rec = make_record(n=64)
        path = tmp_path / "rec.csv"
        save_record(rec, str(path))
        path.write_text(path.read_text().replace("t_seconds,conductance_us", "a,b"))
        with pytest.raises(ValueError, match="expected header"):
            load_record(str(path))


def test_dataset_rejects_duplicate_record_ids():
    recs = [make_record(record_id="same"), make_record(record_id="same", seed=1)]
    with pytest.raises(ValueError, match="duplicate record_id"):
        Dataset(records=recs)


class TestManifest:
    def test_save_load_preserves_order(self, tmp_path):
        recs = [make_record(f"r{i}", seed=i) for i in range(5)]
        ds = Dataset(records=recs)
        manifest = save_dataset(ds, str(tmp_path / "out"))
        back = load_dataset(manifest)
        assert [r.record_id for r in back] == [r.record_id for r in ds]
        for a, b in zip(back, ds):
            assert_array_equal(a.samples, b.samples)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        recs = [make_record(f"r{i}", seed=i) for i in range(2)]
        manifest = save_dataset(Dataset(records=recs), str(tmp_path))
        with open(manifest) as fh:
            body = fh.read()
        with open(manifest, "w") as fh:
            fh.write("# corpus listing\n\n" + body + "\n# trailing note\n")
        back = load_dataset(manifest)
        assert len(back) == 2

    def test_empty_manifest_loads_empty_dataset(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# nothing yet\n")
        ds = load_dataset(str(manifest))
        assert len(ds) == 0


class TestStratifiedSplit:
    def labels(self, counts):
        out = []
        for lab, n in counts.items():
            out.extend([lab] * n)
        return out

    def test_partition_and_determinism(self):
        labels = self.labels({EmotionLabel.CALM: 9, EmotionLabel.FEAR: 7})
        train, test = stratified_split_indices(labels, 0.25, seed=3)
        assert sorted(train + test) == list(range(16))
        again = stratified_split_indices(labels, 0.25, seed=3)
        assert (train, test) == again
        other = stratified_split_indices(labels, 0.25, seed=4)
        assert other != (train, test)

    def test_rounds_half_up_per_label(self, default_corpus):
        labels = [rec.label for rec in default_corpus]
        train, test = stratified_split_indices(labels, 0.3, seed=1)
        counts = {}
        for i in test:
            counts[labels[i]] = counts.get(labels[i], 0) + 1
        assert counts == {
            EmotionLabel.HAPPINESS: 17,
            EmotionLabel.GRIEF: 15,
            EmotionLabel.FEAR: 14,
            EmotionLabel.ANGER: 13,
            EmotionLabel.CALM: 18,
        }
        assert len(train) + len(test) == 257

    def test_two_per_label_half_split(self):
        labels = self.labels({lab: 2 for lab in EmotionLabel})
        train, test = stratified_split_indices(labels, 0.5, seed=0)
        assert len(train) == 5 and len(test) == 5
        for side in (train, test):
            assert len({labels[i] for i in side}) == 5

    def test_every_label_keeps_a_train_row(self):
        # fraction so high that rounding alone would empty the train side
        labels = self.labels({EmotionLabel.CALM: 3, EmotionLabel.GRIEF: 3})
        train, test = stratified_split_indices(labels, 0.9, seed=0)
        train_labels = {labels[i] for i in train}
        assert train_labels == {EmotionLabel.CALM, EmotionLabel.GRIEF}

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_bounds(self, fraction):
        labels = self.labels({EmotionLabel.CALM: 4})
        with pytest.raises(ValueError, match="test_fraction"):
            stratified_split_indices(labels, fraction, seed=0)

    def test_zero_rows(self):
        with pytest.raises(ValueError, match="zero rows"):
            stratified_split_indices([], 0.3, seed=0)

    def test_singleton_label(self):
        labels = self.labels({EmotionLabel.CALM: 4, EmotionLabel.FEAR: 1})
        with pytest.raises(ValueError, match="at least 2"):
            stratified_split_indices(labels, 0.3, seed=0)
