import csv
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from gsremotion.dataset import (
    LABEL_ORDER,
    Dataset,
    EmotionLabel,
    GsrRecord,
    load_dataset,
    parse_float,
    parse_int,
    parse_label,
    parse_word,
    save_dataset,
    stratified_split_indices,
)
from gsremotion.features import FeatureMatrix, read_feature_csv, write_feature_csv
from gsremotion.kernels import KERNEL_KINDS
from gsremotion.preprocess import NORM_MODES


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
])
def test_parse_label(text, expected):
    assert parse_label(text) is expected


def test_parse_label_rejects_unknown():
    with pytest.raises(ValueError, match="unknown emotion label"):
        parse_label("boredom")


# The number grammar, written independently of dataset's: Python's int and
# float syntax in ASCII, without `_` or surrounding whitespace.
INT_GRAMMAR = re.compile(r"[+-]?[0-9]+", re.ASCII)
FLOAT_GRAMMAR = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                           r"|inf|infinity|nan)", re.ASCII | re.IGNORECASE)
# what int and float take besides the grammar: grouping, other scripts' digits
# (Arabic-Indic, fullwidth) and whitespace, ASCII and not
NUMBER_ALPHABET = list("0123456789+-.eEinfatyINFAN_ \t\n\x1c") + ["\u0663", "\uff11", "\u00a0"]


def accepts(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(text=st.text(st.sampled_from(NUMBER_ALPHABET), max_size=10)
       | st.from_regex(FLOAT_GRAMMAR, fullmatch=True),
       n=st.integers(), x=st.floats(allow_nan=False, allow_infinity=False))
@example(text="1_5", n=0, x=0.0)
@example(text=" 15", n=0, x=0.0)
@example(text="\u0661\u0662", n=0, x=0.0)
@example(text="\uff11\uff16.0", n=0, x=0.0)
@example(text="-Infinity", n=0, x=0.0)
def test_number_grammar(text, n, x):
    """A string is a number if and only if it matches the grammar, and every
    str(int) and repr(float) of a finite float reads back bit for bit."""
    assert accepts(parse_int, text) == bool(INT_GRAMMAR.fullmatch(text))
    assert accepts(parse_float, text) == bool(FLOAT_GRAMMAR.fullmatch(text))
    assert parse_int(str(n)) == n
    assert struct.pack("<d", parse_float(repr(x))) == struct.pack("<d", x)


# The word sets parse_word reads, each with its grammar written independently
# of dataset's: one of the words in any ASCII case, with nothing around it.
WORD_SETS = [("emotion label", tuple(lab.value for lab in LABEL_ORDER)),
             ("kernel kind", KERNEL_KINDS), ("norm mode", NORM_MODES)]
WORD_GRAMMARS = [(what, words, re.compile("|".join(words), re.ASCII | re.IGNORECASE))
                 for what, words in WORD_SETS]
ALL_WORDS = [word for _, words in WORD_SETS for word in words]
# what str.lower and a case-insensitive match take besides the grammar:
# whitespace, `_`, and letters of other scripts that case-fold near ASCII
# (dotted and dotless i, long s, the Kelvin sign)
WORD_JUNK = list(" \t\n_-\u00a0\u0130\u0131\u017f\u212a")
any_case = st.sampled_from(ALL_WORDS).flatmap(
    lambda w: st.tuples(*[st.sampled_from((c, c.upper())) for c in w]).map("".join))
word_junk = st.text(st.sampled_from(WORD_JUNK), max_size=2)


@settings(max_examples=400, deadline=None)
@given(text=any_case
       | st.tuples(word_junk, any_case, word_junk).map("".join)
       | st.text(st.sampled_from(sorted(set("".join(ALL_WORDS).upper() + "".join(ALL_WORDS)))
                                 + WORD_JUNK), max_size=10))
@example(text="  calm ")
@example(text=" CaLm\n")
@example(text="Both")
@example(text="\u017fignal")
def test_word_grammar(text):
    """parse_word takes a text if and only if it matches the grammar of the
    word set, returns its lower-case word, and refuses every other text with
    one wording."""
    for what, words, grammar in WORD_GRAMMARS:
        if grammar.fullmatch(text):
            assert parse_word(text, words, what) == text.lower()
            assert text.lower() in words
            continue
        with pytest.raises(ValueError) as exc:
            parse_word(text, words, what)
        assert str(exc.value) == (f"unknown {what} {text!r} "
                                  f"(expected one of: {', '.join(words)})")


def test_label_order_covers_all_labels_once():
    assert len(LABEL_ORDER) == 5
    assert set(LABEL_ORDER) == set(EmotionLabel)


class TestGsrRecord:
    def test_valid_record(self):
        rec = make_record(n=64)
        assert rec.samples.dtype == np.float64
        assert rec.samples.size == 64

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="need at least 64"):
            make_record(n=63)

    def test_non_finite_samples(self):
        samples = np.ones(128)
        samples[40] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            GsrRecord("r1", "S01", EmotionLabel.CALM, 16.0, samples)

    @pytest.mark.parametrize("rate", [0.0, -16.0, float("inf"), float("nan")])
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

    @pytest.mark.parametrize("field", ["record_id", "subject_id"])
    @pytest.mark.parametrize("value", [" s ", "s ", "c\n4", "c\r\n4", "c\r4", "c\x1c4",
                                       "c\u20284"])
    def test_rejects_ids_a_record_file_cannot_carry(self, field, value):
        # a line-oriented reader of the feature table would strip " s " to "s",
        # merging two subjects, or split "c\n4" into two lines
        with pytest.raises(ValueError,
                           match=f"^{field} .* cannot be stored in a manifest or feature table"):
            make_record(**{field: value})

    def test_with_samples_keeps_metadata(self):
        rec = make_record(label=EmotionLabel.FEAR)
        out = rec.with_samples(np.ones(64))
        assert out.record_id == rec.record_id
        assert out.label is EmotionLabel.FEAR
        assert out.samples.size == 64
        # original untouched
        assert rec.samples.size == 128


def save_one(tmp_path, rec=None):
    """A one-record corpus in tmp_path; returns (manifest path, samples path)."""
    manifest = save_dataset(Dataset(records=[rec or make_record(n=64)]), str(tmp_path))
    return manifest, str(tmp_path / "samples.npy")


def edit_manifest(manifest, edit):
    """Rewrite the manifest's lines through edit(lines)."""
    with open(manifest) as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def set_line(index, text):
    return lambda lines: lines.__setitem__(index, text)


def refused(path, message, manifest):
    """load_dataset(manifest) fails naming path, with message in its text."""
    with pytest.raises(ValueError) as exc:
        load_dataset(str(manifest))
    assert str(exc.value).startswith(f"{path}: "), str(exc.value)
    assert message in str(exc.value), str(exc.value)


class TestRecordCsv:
    """The manifest's record table, and the samples.npy it indexes."""

    def test_round_trip_is_bit_exact(self, tmp_path):
        rec = make_record(label=EmotionLabel.ANGER, rate=4.0 / 3.0, seed=5)
        back, = load_dataset(save_dataset(Dataset(records=[rec]), str(tmp_path)))
        assert back.record_id == rec.record_id
        assert back.subject_id == rec.subject_id
        assert back.label is rec.label
        assert back.sample_rate_hz == rec.sample_rate_hz
        assert back.samples.tobytes() == rec.samples.tobytes()

    def test_non_finite_value_in_file(self, tmp_path):
        recs = [make_record(f"r{i}", n=64, seed=i) for i in range(3)]
        manifest = save_dataset(Dataset(records=recs), str(tmp_path))
        samples = np.load(tmp_path / "samples.npy")
        samples[64 + 10] = np.nan
        np.save(tmp_path / "samples.npy", samples)
        refused(tmp_path / "samples.npy", "record 'r1' contains non-finite samples", manifest)

    def test_bad_conductance_value(self, tmp_path):
        # the array cut short inside its last sample
        manifest, samples = save_one(tmp_path)
        with open(samples, "r+b") as fh:
            fh.truncate(os.path.getsize(samples) - 3)
        refused(samples, "Failed to read all data", manifest)

    def test_missing_metadata_key(self, tmp_path):
        manifest, _ = save_one(tmp_path)
        edit_manifest(manifest, set_line(2, "r1,calm,16.0,64"))
        refused(manifest, "line 3: expected 5 fields, got 4", manifest)

    def test_repeated_metadata_key(self, tmp_path):
        manifest, _ = save_one(tmp_path)
        edit_manifest(manifest, set_line(1, "record_id,subject,label,label,n_samples"))
        refused(manifest, "header must be record_id,subject,label,sample_rate_hz,n_samples",
                manifest)

    def test_unknown_label_in_file(self, tmp_path):
        manifest, _ = save_one(tmp_path)
        edit_manifest(manifest, set_line(2, "r1,S01,boredom,16.0,64"))
        refused(manifest, "line 3: unknown emotion label 'boredom'", manifest)

    def test_missing_header_row(self, tmp_path):
        manifest, _ = save_one(tmp_path)
        edit_manifest(manifest, lambda lines: lines.pop(1))
        refused(manifest, "header must be", manifest)

    @pytest.mark.parametrize("rate, message", [
        ("abc", "line 3: could not convert string to float: 'abc'"),
        ("inf", "line 3: sample_rate_hz must be finite and > 0, got inf"),
        ("nan", "line 3: sample_rate_hz must be finite and > 0, got nan"),
        ("0", "line 3: sample_rate_hz must be finite and > 0, got 0.0"),
    ])
    def test_bad_rate(self, tmp_path, rate, message):
        manifest, _ = save_one(tmp_path)
        edit_manifest(manifest, set_line(2, f"r1,S01,calm,{rate},64"))
        refused(manifest, message, manifest)

    @pytest.mark.parametrize("count, message", [
        ("65", "n_samples sum to 65, but samples.npy holds 64 samples"),
        ("63", "n_samples sum to 63, but samples.npy holds 64 samples"),
        ("-64", "line 3: n_samples must be a count, got '-64'"),
        ("6.4e1", "line 3: n_samples must be a count, got '6.4e1'"),
        ("", "line 3: n_samples must be a count, got ''"),
    ])
    def test_wrong_n_samples(self, tmp_path, count, message):
        manifest, _ = save_one(tmp_path)
        edit_manifest(manifest, set_line(2, f"r1,S01,calm,16.0,{count}"))
        refused(manifest, message, manifest)

    def test_records_tile_the_array_in_manifest_order(self, tmp_path):
        recs = [make_record(f"r{i}", n=n, seed=i) for i, n in enumerate([64, 100, 77])]
        save_dataset(Dataset(records=recs), str(tmp_path))
        flat = np.load(tmp_path / "samples.npy")
        assert flat.dtype.str == "<f8" and flat.shape == (241,)
        assert flat.tobytes() == np.concatenate([r.samples for r in recs]).tobytes()
        assert (tmp_path / "manifest.txt").read_text().splitlines() == [
            "# record_format: 3", "record_id,subject,label,sample_rate_hz,n_samples",
            "r0,S01,calm,16.0,64", "r1,S01,calm,16.0,100", "r2,S01,calm,16.0,77"]

    def test_lengths_that_sum_to_the_array_read_back_as_given(self, tmp_path):
        # the one layout rule is the sum: each record is the slice its row gives
        recs = [make_record(f"r{i}", n=96, seed=i) for i in range(2)]
        manifest = save_dataset(Dataset(records=recs), str(tmp_path))
        edit_manifest(manifest, lambda lines: lines.__setitem__(
            slice(2, 4), ["r0,S01,calm,16.0,64", "r1,S01,calm,16.0,128"]))
        first, second = load_dataset(manifest)
        flat = np.concatenate([r.samples for r in recs])
        assert first.samples.tobytes() == flat[:64].tobytes()
        assert second.samples.tobytes() == flat[64:].tobytes()


def write_npy_header(path, header: bytes):
    """A version 1.0 .npy file holding only the given header dict text."""
    body = header + b" " * (-(10 + len(header) + 1) % 64) + b"\n"
    path.write_bytes(b"\x93NUMPY\x01\x00" + len(body).to_bytes(2, "little") + body)


def npy_shape(shape: str):
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': " + shape
    return lambda path, samples: write_npy_header(path, header.encode())


def npz(path, samples):
    with path.open("wb") as fh:
        np.savez(fh, samples)


class TestSamplesFile:
    """Every samples.npy that is not one flat '<f8' array ends in one error naming it."""

    @pytest.mark.parametrize("write, message", [
        (lambda p, a: p.write_bytes(b""), "not a readable .npy array (EOFError"),
        (lambda p, a: np.save(p, a.astype("<f4")), "got '<f4' of shape (64,)"),
        (lambda p, a: np.save(p, a.astype(">f8")), "got '>f8' of shape (64,)"),
        (lambda p, a: np.save(p, a.reshape(8, 8)), "got '<f8' of shape (8, 8)"),
        (lambda p, a: np.save(p, a[0]), "got '<f8' of shape ()"),
        (lambda p, a: np.save(p, a.astype(object), allow_pickle=True), "allow_pickle=False"),
        (lambda p, a: p.write_bytes(p.read_bytes() + b"\0"), "bytes follow the array"),
        (lambda p, a: p.write_bytes(p.read_bytes()[:60]), "EOF: reading array header"),
        (lambda p, a: p.write_bytes(b"gsremotion"), "pickled"),
        (npz, "bytes follow the array"),
        (npy_shape("(10000000000000,), }"), "not a readable .npy array (MemoryError"),
        (npy_shape("(99999999999999999999,), }"), "not a readable .npy array (OverflowError"),
        (npy_shape("("), "not a readable .npy array (TokenError"),
    ], ids=["empty", "f4", "big_endian", "2d", "0d", "object", "trailing", "cut_header",
            "no_magic", "npz", "huge_shape", "overflowing_shape", "open_bracket"])
    def test_refused(self, tmp_path, write, message):
        manifest, samples = save_one(tmp_path)
        write(tmp_path / "samples.npy", np.load(samples))
        refused(samples, message, manifest)

    def test_missing_samples_is_an_os_error(self, tmp_path):
        manifest, samples = save_one(tmp_path)
        os.remove(samples)
        with pytest.raises(FileNotFoundError):
            load_dataset(manifest)


def test_dataset_rejects_duplicate_record_ids():
    recs = [make_record(record_id="same"), make_record(record_id="same", seed=1)]
    with pytest.raises(ValueError, match="duplicate record_id"):
        Dataset(records=recs)


# every id _check_id accepts: non-empty, no surrounding whitespace, one line
ids = st.text(min_size=1, max_size=12).filter(
    lambda s: s == s.strip() and len(s.splitlines()) == 1)


def through_manifest(records, tmp_path) -> tuple:
    """(what went in, what came back) for the records through save_dataset
    and load_dataset."""
    def facts(recs):
        return [(r.record_id, r.subject_id, r.label, r.sample_rate_hz, r.samples.tobytes())
                for r in recs]

    return facts(records), facts(load_dataset(save_dataset(Dataset(records=records),
                                                           str(tmp_path))))


def through_feature_table(records, tmp_path) -> tuple:
    """The same through write_feature_csv and read_feature_csv, for a table
    whose row is its record's first 30 samples."""
    def facts(matrix):
        return list(zip(matrix.record_ids, matrix.labels, map(bytes, matrix.values)))

    matrix = FeatureMatrix(values=[r.samples[:30] for r in records],
                           record_ids=[r.record_id for r in records],
                           labels=[r.label for r in records])
    path = str(tmp_path / "features.csv")
    write_feature_csv(matrix, path)
    return facts(matrix), facts(read_feature_csv(path))


TABLES = {"manifest": through_manifest, "features": through_feature_table}


class TestManifest:
    def test_save_load_preserves_order(self, tmp_path):
        recs = [make_record(f"r{i}", seed=i) for i in range(5)]
        ds = Dataset(records=recs)
        manifest = save_dataset(ds, str(tmp_path / "out"))
        back = load_dataset(manifest)
        assert [r.record_id for r in back] == [r.record_id for r in ds]
        for a, b in zip(back, ds):
            assert_array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("table", TABLES)
    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pairs=st.lists(st.tuples(ids, ids), min_size=1, max_size=4,
                          unique_by=lambda pair: pair[0]),
           rates=st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=4,
                          max_size=4),
           raw=st.binary(min_size=64 * 8, max_size=64 * 8))
    @example(pairs=[("a,b", "s 1"), ('a"b', 's: "1"'), ("a/b", "#s"), ("#a", "a\\b"),
                    ("..", "."), ("é", "\x00")], rates=[16.0] * 4, raw=bytes(64 * 8))
    def test_ids_come_back_unchanged(self, tmp_path, table, pairs, rates, raw):
        # every id _check_id accepts (`,`, `"`, `/` and a leading `#` among them),
        # every rate and every finite sample's bits, through either table
        bits = np.frombuffer(raw, dtype="<f8")
        bits = np.where(np.isfinite(bits), bits, 1.0)
        records = [GsrRecord(rid, sid, LABEL_ORDER[i % 5], rates[i % 4], np.roll(bits, i))
                   for i, (rid, sid) in enumerate(pairs)]
        sent, back = TABLES[table](records, tmp_path)
        assert back == sent

    def test_empty_manifest_is_rejected(self, tmp_path):
        manifest = save_dataset(Dataset(records=[]), str(tmp_path))
        with pytest.raises(ValueError) as exc:
            load_dataset(manifest)
        assert str(exc.value) == f"{manifest}: manifest lists no records"

    def test_v2_corpus_is_refused_by_name(self, tmp_path):
        # record format 2: one text file per record, and a manifest of file names
        (tmp_path / "r1.csv").write_text(
            "# record_id: r1\n# subject: S01\n# label: calm\n# sample_rate_hz: 16.0\n"
            "conductance_us\n" + "2.5\n" * 64)
        (tmp_path / "manifest.txt").write_text("r1.csv\n")
        refused(tmp_path / "manifest.txt",
                "record format 2 (one file per record) is no longer read; regenerate "
                "the corpus with `gsremotion synth`", tmp_path / "manifest.txt")

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines.append(lines[2]), "line 6: record_id 'r0' is also on line 3"),
        (lambda lines: lines.pop(3), "n_samples sum to 128, but samples.npy holds 192"),
        (lambda lines: lines.insert(3, ""), "line 4: expected 5 fields, got 0"),
    ], ids=["duplicated_row", "dropped_row", "blank_row"])
    def test_rows_that_do_not_tile_are_refused(self, tmp_path, edit, message):
        recs = [make_record(f"r{i}", n=64, seed=i) for i in range(3)]
        manifest = save_dataset(Dataset(records=recs), str(tmp_path))
        edit_manifest(manifest, edit)
        refused(manifest, message, manifest)

    def test_writes_only_its_two_files(self, tmp_path):
        out = tmp_path / "corpus"
        save_dataset(Dataset(records=[make_record()]), str(out))
        assert sorted(os.listdir(out)) == ["manifest.txt", "samples.npy"]

    def test_manifest_is_written_after_the_samples(self, tmp_path, monkeypatch):
        out = tmp_path / "corpus"
        save_dataset(Dataset(records=[make_record()]), str(out))
        seen = []

        def failing_save(path, *args, **kwargs):
            seen.append(os.path.exists(out / "manifest.txt"))
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", failing_save)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(Dataset(records=[make_record(seed=1)]), str(out))
        # the old manifest went before the samples, and no new one was written
        assert seen == [False]
        assert not (out / "manifest.txt").exists()


def three_row_table(table, tmp_path) -> tuple:
    """A valid table of records r0, r1 and r2 (a manifest with its samples):
    (its path, its reader)."""
    records = [make_record(f"r{i}", n=64, seed=i) for i in range(3)]
    if table == "manifest":
        return save_dataset(Dataset(records=records), str(tmp_path)), load_dataset
    path = str(tmp_path / "features.csv")
    write_feature_csv(FeatureMatrix(values=[r.samples[:30] for r in records],
                                    record_ids=[r.record_id for r in records],
                                    labels=[r.label for r in records]), path)
    return path, read_feature_csv


def rewrite_rows(path, edit) -> None:
    """Rewrite the rows of a table, its first two lines kept, after edit(rows)."""
    with open(path, newline="", encoding="utf-8") as fh:
        head = [fh.readline(), fh.readline()]
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(head)
        csv.writer(fh, lineterminator="\n").writerows(rows)


def refusal(path, read) -> str:
    """The reader's error for the table at path, the path removed."""
    with pytest.raises(ValueError) as exc:
        read(path)
    return str(exc.value).removeprefix(f"{path}: ")


# Only a manifest can still hold a line break: read_table reads its subject
# raw, and GsrRecord refuses it only once every row is read. No field of a
# feature table can (test_feature_table_refuses_a_line_break_at_its_row), so
# its rows each take one line.
ROW_LINES = {"manifest": (3, 5, 6), "features": (3, 4, 5)}


@pytest.mark.parametrize("table", ["features", "manifest"])
class TestTableLines:
    """A row fault names the file line its row starts on: in a manifest after
    a row whose quoted field holds a line break (rows 0, 1 and 2 start on
    lines 3, 5, 6), in a feature table one row to a line (lines 3, 4, 5)."""

    def refused(self, table, tmp_path, row, record_id) -> str:
        """The reader's error, path removed, once row `row` has record_id and,
        in a manifest, row 0's subject ends in a line break."""
        path, read = three_row_table(table, tmp_path)

        def edit(rows):
            if table == "manifest":
                rows[0][1] += "\n"
            rows[row][0] = record_id

        rewrite_rows(path, edit)
        return refusal(path, read)

    def test_multiline_id_is_refused_at_its_line(self, table, tmp_path):
        line = ROW_LINES[table][1]
        assert self.refused(table, tmp_path, 1, "a\nb") == (
            f"line {line}: record_id 'a\\nb' cannot be stored in a manifest or feature table: "
            "it has leading or trailing whitespace or a line break")

    def test_repeated_id_names_both_lines(self, table, tmp_path):
        _, first, second = ROW_LINES[table]
        assert self.refused(table, tmp_path, 2, "r1") == (
            f"line {second}: record_id 'r1' is also on line {first}")

    def test_field_over_the_csv_limit_is_refused_at_its_line(self, table, tmp_path):
        limit = csv.field_size_limit()
        line = ROW_LINES[table][2]
        assert self.refused(table, tmp_path, 2, "r" * (limit + 1)) == (
            f"line {line}: field larger than field limit ({limit})")


def test_feature_table_refuses_a_line_break_at_its_row(tmp_path):
    """A line break in any field of row r1 (lines 4 and 5) is refused at
    line 4, whichever column holds it: the id, the label or a value."""
    for column in range(2 + 30):
        path, read = three_row_table("features", tmp_path)

        def edit(rows):
            rows[1][column] += "\n"

        rewrite_rows(path, edit)
        assert refusal(path, read).startswith("line 4: "), column


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


def test_readme_example_writes_a_corpus(tmp_path, monkeypatch):
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")) as fh:
        section = fh.read().split("### Record files", 1)[1].split("## Library use", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    recordings = [("p1,a", "P1", "calm", 4.0, np.linspace(1.0, 2.0, 64)),
                  ("p1,b", "P1", "Fear", 4.0, np.linspace(3.0, 2.0, 100))]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").mkdir()
    exec(compile(code, "README.md", "exec"), {"recordings": recordings})
    back = load_dataset("corpus/manifest.txt")
    assert [(r.record_id, r.subject_id, r.label, r.sample_rate_hz) for r in back] == [
        ("p1,a", "P1", EmotionLabel.CALM, 4.0), ("p1,b", "P1", EmotionLabel.FEAR, 4.0)]
    assert [r.samples.tobytes() for r in back] == [x[4].tobytes() for x in recordings]
