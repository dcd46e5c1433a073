import csv
import importlib.resources
import io
import re
from unittest import mock

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fuzzids import dataset, pipeline
from fuzzids.cli import main
from fuzzids.dataset import (
    DatasetSchema,
    LabeledDataset,
    class_distribution,
    load_csv,
    stratified_split,
)
from fuzzids.errors import ConfigError, LoadError, SchemaError
from fuzzids.pipeline import ExperimentConfig

from conftest import make_dataset


DATA = importlib.resources.files("fuzzids") / "data"
NSL_ENCODING = {"normal": 0, "r2l": 1, "u2r": 2, "probe": 3, "dos": 4}
UG_ENCODING = {"A": 0, "S": 1, "SS": 2}


def small_schema(encoding=None):
    return DatasetSchema(
        name="toy",
        columns=(("a", "numeric"), ("b", "categorical"), ("y", "categorical")),
        label_column="y",
        label_encoding=encoding or NSL_ENCODING,
    )


# a schema without numeric columns
CATS = DatasetSchema("cats", (("b", "categorical"), ("y", "categorical")), "y", NSL_ENCODING)


def schema_yaml(schema):
    """The schema file text ``DatasetSchema.from_file`` reads back as ``schema``."""
    return yaml.safe_dump({
        "name": schema.name,
        "columns": [c for c, _ in schema.columns],
        "kinds": [k for _, k in schema.columns],
        "label_column": schema.label_column,
        "label_encoding": dict(schema.label_encoding),
    })


def write_csv(path, text):
    # a lone surrogate U+DC80..U+DCFF writes the raw, non-UTF-8 byte 0x80..0xFF
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            DatasetSchema("bad", (("a", "numeric"), ("a", "numeric")), "a", {"x": 0})

    def test_label_column_must_exist(self):
        with pytest.raises(SchemaError):
            DatasetSchema("bad", (("a", "numeric"),), "y", {"x": 0})

    def test_encoding_must_be_injective(self):
        with pytest.raises(SchemaError):
            small_schema({"normal": 0, "dos": 0})

    def test_encoding_round_trip(self):
        schema = small_schema()
        for name, code in NSL_ENCODING.items():
            assert schema.decode_label(code) == name

    def test_yaml_round_trip(self, tmp_path):
        schema = small_schema()
        path = tmp_path / "schema.yaml"
        path.write_text(schema_yaml(schema), encoding="utf-8")
        assert DatasetSchema.from_file(path) == schema

    @pytest.mark.parametrize("name", ["schemas/nsl_kdd.yaml", "schemas/ugransome.yaml",
                                      "data/mini.yaml"])
    def test_both_yaml_loaders_read_equal_documents(self, name):
        text = (importlib.resources.files("fuzzids") / name).read_text(encoding="utf-8")
        assert yaml.load(text, Loader=dataset.YAML_LOADER) == yaml.safe_load(text)

    @pytest.mark.parametrize("loader", [yaml.SafeLoader, dataset.YAML_LOADER])
    def test_malformed_yaml_raises_typed_errors_with_either_loader(
            self, loader, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "YAML_LOADER", loader)
        monkeypatch.setattr(pipeline, "YAML_LOADER", loader)
        for text in ("name: [mini\n", "name: mini\n\tkinds: []\n", "name: \x07\n"):
            path = tmp_path / "bad.yaml"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(SchemaError, match="cannot read schema file"):
                DatasetSchema.from_file(path)
            with pytest.raises(ConfigError, match="cannot read experiment config"):
                ExperimentConfig.from_file(path)


class TestLoadCsv:
    def test_nsl_kdd_label_codes(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "a,b,y\n1,x,normal\n2,x,dos\n3,x,normal\n")
        ds = load_csv(path, small_schema())
        assert ds.labels.tolist() == [0, 4, 0]

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,y\n")
        ds = load_csv(path, small_schema())
        assert len(ds) == 0

    def test_ugransome_label_code(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,y\n1,x,SS\n")
        ds = load_csv(path, small_schema(UG_ENCODING))
        assert ds.labels.tolist() == [2]

    def test_non_float_features_rejected(self):
        with pytest.raises(SchemaError, match="float64"):
            LabeledDataset(small_schema(), np.array([[1.0, "x"]], dtype=object),
                           np.array([0]))

    def test_reordered_header_accepted(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y,a,b\nnormal,1,x\n")
        ds = load_csv(path, small_schema())
        assert ds.features[0, 0] == 1.0
        assert ds.categories[1][int(ds.features[0, 1])] == "x"

    def test_unparseable_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,y\nnope,x,normal\n")
        with pytest.raises(LoadError, match="column 'a'"):
            load_csv(path, small_schema())

    def test_unknown_label_reported(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,y\n1,x,zzz\n")
        with pytest.raises(LoadError, match="zzz"):
            load_csv(path, small_schema())

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,y\n1,normal\n")
        with pytest.raises(SchemaError, match="missing"):
            load_csv(path, small_schema())

    def test_schema_without_numeric_columns(self, tmp_path):
        ds = load_csv(write_csv(tmp_path / "d.csv", "b,y\n x ,normal\nz,dos\n"), CATS)
        assert ds.features.tolist() == [[0.0], [1.0]]
        assert ds.categories == {0: ("x", "z")}
        assert ds.labels.tolist() == [0, 4]

    def test_missing_value_is_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,y\n,x,normal\n")
        with pytest.raises(LoadError, match="missing value"):
            load_csv(path, small_schema())


GOOD_ROW = "1,x,normal\n"
# numpy's text reader reads flexible dtypes 50,000 rows at a time; the
# parse must not depend on where those chunks end. Line numbers count the
# blank line.
CHUNK_ROWS = 50_000
PAST_FIRST_CHUNK = GOOD_ROW * CHUNK_ROWS + "\n" + GOOD_ROW * 3
SENTINEL = "the column parse rejected a file the row scanner accepts"

# (case, bad record, message after "{path}:{line}: "), as the row scanner
# words them.
BAD_RECORDS = [
    ("short row", "1,x", "expected 3 cells, got 2"),
    ("long row", "1,x,normal,9", "expected 3 cells, got 4"),
    ("long row with a quoted comma", '1,x,normal,"9,9"', "expected 3 cells, got 4"),
    ("short row with a quoted comma", '1,"x,normal"', "expected 3 cells, got 2"),
    ("nan", "nan,x,normal", "non-finite value in column 'a'"),
    ("inf", "-inf,x,normal", "non-finite value in column 'a'"),
    ("empty numeric cell", ",x,normal", "missing value in 'a'"),
    ("whitespace-only cell", "  ,x,normal", "missing value in 'a'"),
    ("unparseable cell", "1e,x,normal", "unparseable numeric cell '1e' in column 'a'"),
    ("empty categorical cell", "1,,normal", "missing value in 'b'"),
    ("whitespace-only categorical cell", "1, ,normal", "missing value in 'b'"),
    ("unknown label", "1,x,zzz",
     "unknown label 'zzz' (known: ['dos', 'normal', 'probe', 'r2l', 'u2r'])"),
    ("quoted comma in a numeric cell", '"1,5",x,normal',
     "unparseable numeric cell '1,5' in column 'a'"),
    ("latin-1 cell", "1,caf\udce9,normal", "cannot decode byte 0xe9 as UTF-8"),
    ("cell over the csv field limit", '1,"' + "x" * 200_000 + '",normal',
     "field larger than field limit (131072)"),
    ("numeric cell over the csv field limit", "0" * 200_000 + "1,x,normal",
     "field larger than field limit (131072)"),
    ("underscore in a number", "1_0,x,normal",
     "unparseable numeric cell '1_0' in column 'a'"),
    ("non-ASCII digit", "\u0661,x,normal",
     "unparseable numeric cell '\u0661' in column 'a'"),
    ("quoted blank line", '""', "expected 3 cells, got 1"),
]


def _ingest(tmp_path, path):
    schema_path = tmp_path / "schema.yaml"
    schema_path.write_text(schema_yaml(small_schema()), encoding="utf-8")
    return CliRunner().invoke(main, ["ingest", "--data", str(path), "--schema",
                                     str(schema_path), "--report",
                                     str(tmp_path / "report.json")])


def _no_scanner(path, schema):
    raise AssertionError("row scanner called")


def _decoded(ds):
    """Rows with categorical codes turned back into their cells."""
    return [[ds.categories[j][int(v)] if j in ds.categories else v
             for j, v in enumerate(row)] for row in ds.features.tolist()]


class TestMalformedCsv:
    @pytest.mark.parametrize("prefix", ["", PAST_FIRST_CHUNK, '1,"x\ny",normal\n'],
                             ids=["first block", "past first block",
                                  "after a cell spanning lines"])
    @pytest.mark.parametrize("record, message", [c[1:] for c in BAD_RECORDS],
                             ids=[c[0] for c in BAD_RECORDS])
    def test_bad_record_names_its_line(self, tmp_path, prefix, record, message):
        path = write_csv(tmp_path / "d.csv", "a,b,y\n" + prefix + record + "\n" + GOOD_ROW)
        line = 2 + prefix.count("\n")
        expected = f"{path}:{line}: {message}"
        with pytest.raises(LoadError) as exc:
            load_csv(path, small_schema())
        assert str(exc.value) == expected
        result = _ingest(tmp_path, path)
        assert result.exit_code == 2
        assert f"error: {expected}" in result.output

    @pytest.mark.parametrize("record, message", [c[1:] for c in BAD_RECORDS],
                             ids=[c[0] for c in BAD_RECORDS])
    def test_bad_record_after_a_byte_order_mark_names_its_line(self, tmp_path, record,
                                                                message):
        path = write_csv(tmp_path / "d.csv", "\ufeffa,b,y\n" + GOOD_ROW + record + "\n")
        with pytest.raises(LoadError) as exc:
            load_csv(path, small_schema())
        assert str(exc.value) == f"{path}:3: {message}"

    def test_byte_order_mark_is_read_past(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        schema = DatasetSchema.from_file(DATA / "mini.yaml")
        text = (DATA / "mini_train.csv").read_text(encoding="utf-8")
        original = load_csv(DATA / "mini_train.csv", schema)
        copy = load_csv(write_csv(tmp_path / "bom.csv", "\ufeff" + text), schema)
        assert np.array_equal(copy.features, original.features)
        assert np.array_equal(copy.labels, original.labels)
        assert copy.categories == original.categories

    @pytest.mark.parametrize("text, error, message", [
        ("", LoadError, "{path}: empty file, no header row"),
        ("a,c,y\n1,x,normal\n", SchemaError,
         "{path}: header does not match schema 'toy' (missing ['b'], unexpected ['c'])"),
    ], ids=["empty file", "header with a wrong column"])
    def test_bad_file_is_rejected(self, tmp_path, text, error, message):
        path = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(error) as exc:
            load_csv(path, small_schema())
        assert str(exc.value) == message.format(path=path)
        result = _ingest(tmp_path, path)
        assert result.exit_code == 2
        assert f"error: {message.format(path=path)}" in result.output

    @pytest.mark.parametrize("text, rows, labels", [
        (" y , a,b\n", [], []),
        ("y,b,a\ndos, q ,2.5\n", [[2.5, "q"]], [4]),
        ("a,b,y\n1,x,normal\n\n   \n" + "\n" * CHUNK_ROWS + "2,y,dos\n",
         [[1.0, "x"], [2.0, "y"]], [0, 4]),
        ('a,b,y\n1,"x,y",normal\n', [[1.0, "x,y"]], [0]),
        ("a,b,y\n 1 , x , normal \n", [[1.0, "x"]], [0]),
    ], ids=["header only", "permuted header", "blank lines mid-file",
            "quoted comma in a categorical cell", "cells padded with spaces"])
    def test_accepted_file(self, tmp_path, text, rows, labels):
        ds = load_csv(write_csv(tmp_path / "d.csv", text), small_schema())
        assert _decoded(ds) == rows
        assert ds.labels.tolist() == labels

    def test_well_formed_file_never_reaches_row_scanner(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "_scan_rows", _no_scanner)
        loadtxt = mock.Mock(wraps=np.loadtxt)
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        body = "0.5,x,normal\n" + "\n" + "1e3, y ,dos\n2,x,probe\n"
        ds = load_csv(write_csv(tmp_path / "d.csv", "a,b,y\n" + body), small_schema())
        assert loadtxt.call_count == 1  # one pass of the C reader
        assert len(ds) == 3
        # codes follow first appearance in the file
        assert ds.categories == {1: ("x", "y")}
        assert _decoded(ds)[-2:] == [[1000.0, "y"], [2.0, "x"]]
        assert ds.labels[-2:].tolist() == [4, 3]

    def test_values_and_codes_are_exact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "_scan_rows", _no_scanner)
        rng = np.random.default_rng(12)
        bits = rng.integers(-2**63, 2**63 - 1, 2000, dtype=np.int64).view(np.float64)
        values = np.concatenate([bits[np.isfinite(bits)],
                                 rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)])
        spellings = [repr, "%.17g".__mod__, "%g".__mod__, "%e".__mod__,
                     lambda v: "+" + repr(abs(v)), lambda v: f"  {v!r}\t"]
        numbers = [spell(v) for v in values.tolist() for spell in spellings]
        numbers += ["-0", "0", "+0.0", " -0.0 "]
        # the first 50,000 rows hold one category; the others appear after them
        n = CHUNK_ROWS + len(numbers)
        cats = ["x"] * CHUNK_ROWS + [(" z ", "x", "y ", " w")[i % 4] for i in range(len(numbers))]
        labels = [("normal", " dos", "probe ")[i % 3] for i in range(n)]
        cells = [numbers[i % len(numbers)] for i in range(n)]
        text = "a,b,y\n" + "".join(f"{a},{b},{y}\n" for a, b, y in zip(cells, cats, labels))
        ds = load_csv(write_csv(tmp_path / "d.csv", text), small_schema())
        expected = np.array([float(c) for c in cells])
        assert np.array_equal(ds.features[:, 0].view(np.int64), expected.view(np.int64))
        assert ds.categories == {1: tuple(dict.fromkeys(c.strip() for c in cats))}
        assert [ds.categories[1][int(c)] for c in ds.features[:, 1]] == [c.strip() for c in cats]
        assert ds.labels.tolist() == [NSL_ENCODING[y.strip()] for y in labels]

    def test_per_cell_coding_matches_reference(self, tmp_path, monkeypatch):
        # raw cells that differ only by surrounding whitespace, seen in the first
        # 50,000 rows and again after them; "w" first appears after them
        monkeypatch.setattr(dataset, "_scan_rows", _no_scanner)
        rng = np.random.default_rng(5)
        head = ["x", " x", "x ", "\tx ", "y", " y ", "z\t"]
        tail = head + ["w ", " w", "w"]
        labels = ["normal", " normal", "dos ", " dos ", "probe"]
        cats = [head[i] for i in rng.integers(0, len(head), CHUNK_ROWS)]
        cats += [tail[i] for i in rng.integers(0, len(tail), 3000)]
        text = "a,b,y\n" + "".join(f"{i % 7},{b},{labels[i % len(labels)]}\n"
                                   for i, b in enumerate(cats))
        ds = load_csv(write_csv(tmp_path / "d.csv", text), small_schema())
        # unmemoised reference: every record's cells coded one by one
        records = list(csv.reader(io.StringIO(text)))[1:]
        vocab: dict = {}
        codes = [vocab.setdefault(r[1].strip(), len(vocab)) for r in records]
        assert ds.categories == {1: tuple(vocab)}
        assert ds.features[:, 1].tolist() == codes
        assert ds.labels.tolist() == [NSL_ENCODING[r[2].strip()] for r in records]

    @pytest.mark.parametrize("case", ["empty categorical cell", "unknown label",
                                      "cell over the csv field limit"])
    def test_bad_cell_after_repeated_cells_names_its_line(self, tmp_path, case):
        # the good cells repeat 50,000 times first, and the bad record twice
        record, message = {c[0]: c[1:] for c in BAD_RECORDS}[case]
        text = "a,b,y\n" + GOOD_ROW * CHUNK_ROWS + (record + "\n") * 2 + GOOD_ROW
        path = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(LoadError) as exc:
            load_csv(path, small_schema())
        assert str(exc.value) == f"{path}:{CHUNK_ROWS + 2}: {message}"

    def test_unreadable_path_names_it(self, tmp_path):
        with pytest.raises(LoadError) as exc:
            load_csv(tmp_path, small_schema())
        assert str(exc.value) == f"cannot read {tmp_path}: Is a directory"

    def test_missing_path_names_it(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(LoadError) as exc:
            load_csv(path, small_schema())
        assert str(exc.value) == f"cannot read {path}: No such file or directory"


HEADER = "a,b,y\n"
# Whole files on which the column parse and the row scanner must agree; a
# file whose header is "b,y" is read with CATS, any other with small_schema().
AGREEMENT_FILES = {
    "quoted comma": HEADER + '1,"x,y",normal\n',
    "doubled quote": HEADER + '1,"a""b",normal\n',
    "quote inside an unquoted cell": HEADER + '1,a"b,normal\n',
    "quoted cell spanning lines": HEADER + '1,"x\ny",normal\n2,x,dos\n',
    "crlf line ends": "a,b,y\r\n1,x,normal\r\n2,y,dos\r\n",
    "whitespace-only lines": HEADER + " \t \n1,x,normal\n   \n2,y,dos\n",
    "trailing blank lines": HEADER + "1,x,normal\n\n\n   \n\n",
    "header only": HEADER,
    "1_0": HEADER + "1_0,x,normal\n",
    "\u0661": HEADER + "\u0661,x,normal\n",
    "1e3": HEADER + "1e3,x,normal\n",
    " .5 ": HEADER + " .5 ,x,normal\n",
    "long row after 50,000 rows": HEADER + GOOD_ROW * CHUNK_ROWS + "1,x,normal,9\n",
    "over-limit numeric cell after 50,000 rows":
        HEADER + GOOD_ROW * CHUNK_ROWS + "0" * 200_000 + "1,x,normal\n",
    "whitespace-only line inside a quoted cell": HEADER + '1,"x\n  \ny",normal\n',
    "quoted blank line": HEADER + '1,x,normal\n""\n',
    "lone carriage returns": "a,b,y\r1,x,normal\r2,y,dos\r",
    "quote left open at the end": HEADER + '1,x,"normal',
    "NUL in a categorical cell": HEADER + '1,"x\x00",normal\n',
    "quoted number": HEADER + '"2.5",x,normal\n',
    "long line of short cells": HEADER + "1," + "x" * 60_000 + ",normal\n",
    "quoted number padded over three lines":
        HEADER + '"' + " " * 60_000 + "\n" + " " * 60_000 + "1\n" + " " * 60_000 + '",x,normal\n',
    "trailing empty cell in every record": HEADER + "1,x,normal,\n2,y,dos,\n",
    "every record one cell short": HEADER + "1,x\n2,y\n",
    "label over the csv field limit": HEADER + '1,x,"' + "n" * 200_000 + '"\n',
    "all-categorical, header only": "b,y\n",
    "all-categorical, long row": "b,y\nx,normal,1\n",
    # lines longer than a third of the csv field limit (131,072 characters)
    "numeric cell at the csv field limit": HEADER + "0" * 131_071 + "1,x,normal\n",
    "numeric cell one over the csv field limit": HEADER + "0" * 131_072 + "1,x,normal\n",
    "quoted cell over a line of 100,000 spaces":
        HEADER + '1,"x\n' + " " * 100_000 + '\ny",normal\n',
    "quoted cell over the limit in short lines and a line of 100,000 spaces":
        HEADER + '1,"' + ("x" * 999 + "\n") * 132 + " " * 100_000 + '\n",normal\n',
    "long line with quotes inside an unquoted cell": HEADER + "1," + 'a"b' * 20_000 + ",normal\n",
    "quotes inside an unquoted cell over the csv field limit":
        HEADER + "1," + 'a"b' * 50_000 + ",normal\n",
}


@pytest.mark.parametrize("text", AGREEMENT_FILES.values(), ids=list(AGREEMENT_FILES))
def test_column_parse_agrees_with_row_scanner(tmp_path, text):
    path = write_csv(tmp_path / "d.csv", text)
    schema = CATS if text.startswith("b,y\n") else small_schema()
    try:
        load_csv(path, schema)
    except LoadError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
        return
    with pytest.raises(LoadError, match=SENTINEL):
        dataset._scan_rows(path, schema)


@pytest.mark.parametrize("text", [
    HEADER + "1," + "x" * 60_000 + ",normal\n",
    HEADER + "0" * 200_000 + "1,x,normal\n",
], ids=["accepted", "numeric cell over the csv field limit"])
def test_one_c_read_per_file_with_a_long_line(tmp_path, monkeypatch, text):
    loadtxt = mock.Mock(wraps=np.loadtxt)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    path = write_csv(tmp_path / "d.csv", text)
    try:
        assert _decoded(load_csv(path, small_schema())) == [[1.0, "x" * 60_000]]
    except LoadError as exc:
        assert str(exc) == f"{path}:2: field larger than field limit (131072)"
    assert loadtxt.call_count == 1


class TestClassDistribution:
    def test_direct_count(self):
        ds = make_dataset([[0.0], [0.0], [1.0]], [0, 0, 1])
        assert class_distribution(ds) == {0: 2, 1: 1}

    def test_empty_dataset_all_zero(self):
        ds = make_dataset(np.empty((0, 1)), [], labels={"a": 0, "b": 1})
        assert class_distribution(ds) == {0: 0, 1: 0}

    def test_every_encoded_class_present(self):
        ds = make_dataset([[0.0]], [0], labels={"a": 0, "b": 1, "c": 2})
        assert class_distribution(ds) == {0: 1, 1: 0, 2: 0}

    def test_counts_sum_to_n(self, rng):
        y = rng.integers(0, 3, size=100)
        ds = make_dataset(rng.uniform(size=(100, 2)), y,
                          labels={"a": 0, "b": 1, "c": 2})
        assert sum(class_distribution(ds).values()) == 100


class TestStratifiedSplit:
    def test_exact_stratification(self):
        y = [0] * 5 + [1] * 5
        ds = make_dataset(np.arange(10).reshape(-1, 1), y)
        train, val = stratified_split(ds, 0.2, 1)
        assert len(train) == 8 and len(val) == 2
        assert class_distribution(train) == {0: 4, 1: 4}
        assert class_distribution(val) == {0: 1, 1: 1}

    def test_same_seed_identical_partition(self):
        ds = make_dataset(np.arange(30).reshape(-1, 1), [0, 1, 2] * 10,
                          labels={"a": 0, "b": 1, "c": 2})
        t1, v1 = stratified_split(ds, 0.2, 1)
        t2, v2 = stratified_split(ds, 0.2, 1)
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(v1.labels, v2.labels)

    def test_different_seed_different_partition_same_counts(self):
        ds = make_dataset(np.arange(50).reshape(-1, 1), [0, 1] * 25)
        t1, v1 = stratified_split(ds, 0.2, 1)
        t2, v2 = stratified_split(ds, 0.2, 2)
        assert class_distribution(v1) == class_distribution(v2)
        assert not np.array_equal(v1.features, v2.features)

    def test_partition_property(self, rng):
        for _ in range(20):
            n = int(rng.integers(10, 60))
            y = rng.integers(0, 3, size=n)
            y[:3] = [0, 1, 2]  # each class represented
            x = np.arange(n, dtype=float).reshape(-1, 1)
            ds = make_dataset(x, y, labels={"a": 0, "b": 1, "c": 2})
            train, val = stratified_split(ds, 0.2, int(rng.integers(1e6)))
            merged = sorted(
                train.features[:, 0].tolist() + val.features[:, 0].tolist()
            )
            assert merged == x[:, 0].tolist()

    def test_stratification_property(self, rng):
        for _ in range(10):
            n = int(rng.integers(20, 200))
            y = rng.integers(0, 3, size=n)
            y[:3] = [0, 1, 2]
            ds = make_dataset(rng.uniform(size=(n, 1)), y,
                              labels={"a": 0, "b": 1, "c": 2})
            _, val = stratified_split(ds, 0.3, 9)
            total = class_distribution(ds)
            in_val = class_distribution(val)
            for c, count in total.items():
                assert abs(in_val[c] / count - 0.3) <= 1.0 / count

    @pytest.mark.filterwarnings("ignore:class .* has only")
    @pytest.mark.parametrize("val_frac", [0.1, 0.2, 1 / 3, 0.5])
    def test_validation_takes_the_rounded_share_of_each_class(self, val_frac):
        sizes = np.arange(1, 301)  # class c holds c + 1 rows
        y = np.repeat(np.arange(len(sizes)), sizes)
        ds = make_dataset(np.arange(len(y)).reshape(-1, 1), y)
        train, val = stratified_split(ds, val_frac, 4)
        expected = {c: int(np.floor(val_frac * n + 0.5)) for c, n in enumerate(sizes.tolist())}
        assert class_distribution(val) == expected
        assert class_distribution(train) == {c: n - expected[c]
                                             for c, n in enumerate(sizes.tolist())}

    def test_tiny_class_warns(self):
        ds = make_dataset(np.arange(11).reshape(-1, 1), [0] * 10 + [1])
        with pytest.warns(UserWarning):
            train, val = stratified_split(ds, 0.1, 3)
        assert class_distribution(val)[1] == 0
