"""CSV/KEEL ingestion, splitting, and min-max normalization."""

import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from randnet.dataio import (
    Dataset,
    NormalizationSpec,
    dataset_summary,
    fit_normalization,
    load_csv,
    normalize,
    split_75_25,
    write_dataset_csv,
)
from randnet.benchfn import TargetFunction, sample_problem
from randnet.errors import ConfigError, DataFormatError, InvalidInputError
from randnet.rng import RngStream


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_file(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n"))
        assert ds.n_samples == 3 and ds.n_features == 2
        assert ds.y.tolist() == [3.0, 6.0, 9.0]

    def test_header_captured(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b,t\n1,2,3\n4,5,6\n"), header=True)
        assert ds.feature_names == ("a", "b")
        assert ds.n_samples == 2

    def test_target_column_by_name(self, tmp_path):
        ds = load_csv(
            write(tmp_path, "a,t,b\n1,9,2\n3,8,4\n"), header=True, target_column="t"
        )
        assert ds.y.tolist() == [9.0, 8.0]
        assert ds.x.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_target_column_by_index(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,9,2\n3,8,4\n"), target_column=0)
        assert ds.y.tolist() == [1.0, 3.0]

    def test_named_target_requires_header(self, tmp_path):
        with pytest.raises(ConfigError):
            load_csv(write(tmp_path, "1,2\n3,4\n"), target_column="t")

    def test_keel_style_metadata_skipped(self, tmp_path):
        text = (
            "@relation stock\n"
            "@attribute f1 real\n"
            "@inputs f1\n"
            "@outputs y\n"
            "@data\n"
            "1.0, 2.0\n"
            "\n"
            "3.0, 4.0\n"
        )
        ds = load_csv(write(tmp_path, text, "stock.dat"))
        assert ds.n_samples == 2 and ds.n_features == 1

    def test_non_numeric_cell_reports_location(self, tmp_path):
        with pytest.raises(DataFormatError) as err:
            load_csv(write(tmp_path, "1,2\n3,oops\n"))
        assert "line 2" in str(err.value) and "column 2" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", " inf", "-Infinity", "1e999"])
    def test_non_finite_cell_reports_location(self, tmp_path, cell):
        path = write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(path, header=True)
        assert str(err.value) == (
            f"{path}: non-finite value {cell.strip()!r} at line 3, column 2"
        )

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_csv(write(tmp_path, "1,2,3\n4,5\n"))

    def test_alternate_delimiter(self, tmp_path):
        ds = load_csv(write(tmp_path, "1;2\n3;4\n"), delimiter=";")
        assert ds.x.tolist() == [[1.0], [3.0]]

    @pytest.mark.parametrize("delimiter", [";;", "", None])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        # checked before the file is read, so a missing file gives no OSError
        with pytest.raises(ConfigError, match="delimiter must be one character"):
            load_csv(tmp_path / "nope.csv", delimiter=delimiter)

    def test_non_utf8_text_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,2\n\xff,3\n")
        with pytest.raises(DataFormatError, match="latin1.csv: not UTF-8 text"):
            load_csv(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n3,4\n")
        ds = load_csv(path, header=True, target_column="x")
        assert ds.y.tolist() == [1.0, 3.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("names, target", [
        ("a,b,c", None),  # one name short
        ("a,b", None),  # two short
        ("a,b,c,d,e", None),  # one name too many
        ("a,b,c,d,e", "e"),  # and the extra one named as the target
    ])
    def test_header_of_another_width_is_rejected_at_the_first_data_line(
        self, tmp_path, names, target
    ):
        path = write(tmp_path, f"{names}\n1,2,3,4\n5,6,7,8\n")
        with pytest.raises(DataFormatError, match="ragged row at line 2"):
            load_csv(path, header=True, target_column=target)

    @pytest.mark.parametrize("names, target, repeated", [
        ("x,x,y", "x", "x"), ("x,x,y", None, "x"), ("a,y,b,y", 0, "y"), ("a, b,b ", None, "b"),
    ])
    def test_header_that_repeats_a_name_is_rejected(self, tmp_path, names, target, repeated):
        # a named target would resolve to the first match, and the written
        # split would name two columns alike
        row = ",".join(["1"] * (names.count(",") + 1))
        path = write(tmp_path, f"{names}\n{row}\n{row}\n")
        with pytest.raises(DataFormatError, match=f"header repeats the column name '{repeated}'"):
            load_csv(path, header=True, target_column=target)

    def test_one_cell_header_leaves_no_feature_column(self, tmp_path):
        with pytest.raises(DataFormatError, match="need at least one feature column"):
            load_csv(write(tmp_path, "a\n1,2,3\n"), header=True)

    @pytest.mark.parametrize("text", ["", "@data\n\n", "a,b\n\n@data\n"])
    def test_no_data_rows(self, tmp_path, text):
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(write(tmp_path, text), header=text.startswith("a"))

    def test_quoted_cells_are_read_as_their_text(self, tmp_path):
        ds = load_csv(write(tmp_path, '"a b","t"\n"1.5",2\n3,"4"\n'), header=True)
        assert ds.feature_names == ("a b",)
        assert ds.x.tolist() == [[1.5], [3.0]] and ds.y.tolist() == [2.0, 4.0]

    def test_unterminated_quote_does_not_run_into_the_next_line(self, tmp_path):
        # read as one record, "3 and 4,5 would give the row 34,5
        with pytest.raises(DataFormatError, match="unterminated quote at line 2"):
            load_csv(write(tmp_path, '1,2\n"3\n4,5\n6,7\n'))

    def test_cell_past_the_field_size_limit_is_a_format_error(self, tmp_path):
        path = write(tmp_path, "1,2\n3," + "4" * 200_000 + "\n")
        with pytest.raises(DataFormatError, match="field larger than field limit .* at line 2"):
            load_csv(path)


names = st.text(string.ascii_letters + "_", min_size=1, max_size=6)
filler = st.lists(st.sampled_from(["", "   ", "@data", "@attribute x real"]), max_size=2)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), cols=st.integers(2, 5), rows=st.integers(1, 6),
       header=st.booleans(), delimiter=st.sampled_from([",", ";", "\t"]))
def test_written_table_loads_back_exactly(tmp_path, data, cols, rows, header, delimiter):
    table = np.array(data.draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))
    header_names = data.draw(st.lists(names, min_size=cols, max_size=cols, unique=True))
    lines = [header_names] if header else []
    lines += [[repr(v) for v in row] for row in table.tolist()]
    text = "".join(
        "".join(f"{f}\n" for f in data.draw(filler)) + delimiter.join(cells) + "\n"
        for cells in lines
    ) + "".join(f"{f}\n" for f in data.draw(filler))
    path = tmp_path / "table.csv"
    path.write_text(text)

    how = data.draw(st.sampled_from(["last", "index", "name"] if header else ["last", "index"]))
    target = cols - 1 if how == "last" else data.draw(st.integers(0, cols - 1))
    if how == "last":
        target_column = None
    elif how == "name":
        target_column = header_names[target]
    else:  # counted from the front or from the end
        target_column = target - cols * data.draw(st.booleans())
    ds = load_csv(path, delimiter=delimiter, header=header, target_column=target_column)

    features = [j for j in range(cols) if j != target]
    assert ds.y.tobytes() == np.ascontiguousarray(table[:, target]).tobytes()
    assert ds.x.tobytes() == np.ascontiguousarray(table[:, features]).tobytes()
    expected_names = tuple(header_names[j] for j in features) if header else None
    assert ds.feature_names == expected_names
    assert ds.target_name == (header_names[target] if header else "y")

    # written back, each column keeps its name, the target its own wherever
    # it was read from, so the file names each column once
    written = tmp_path / "written.csv"
    write_dataset_csv(written, ds)
    back = load_csv(written, header=True)
    assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()
    assert back.feature_names == (expected_names or tuple(f"x{j}" for j in range(1, cols)))
    assert back.target_name == ds.target_name


class TestCsvEmission:
    def test_round_trip_is_exact(self, tmp_path, demo_small):
        path = tmp_path / "train.csv"
        write_dataset_csv(path, demo_small.train)
        back = load_csv(path, header=True)
        assert back.feature_names == ("x1",)
        assert np.array_equal(back.x, demo_small.train.x)
        assert np.array_equal(back.y, demo_small.train.y)

    def test_header_names_follow_dimensions(self, tmp_path):
        prob = sample_problem(
            TargetFunction("TF2", 3), RngStream(12), train_size=20, test_size=5
        )
        path = tmp_path / "t.csv"
        write_dataset_csv(path, prob.train)
        first = path.read_text().splitlines()[0]
        assert first == "x1,x2,x3,y"


class TestSplit:
    def make(self, n):
        x = np.arange(n, dtype=float).reshape(-1, 1)
        return Dataset(x, np.arange(n, dtype=float))

    def test_hundred_rows(self):
        train, test = split_75_25(self.make(100), RngStream(0))
        assert train.n_samples == 75 and test.n_samples == 25

    def test_209_rows_round_half_up(self):
        train, test = split_75_25(self.make(209), RngStream(1))
        assert train.n_samples == 157 and test.n_samples == 52

    def test_partition_property(self):
        ds = self.make(101)
        train, test = split_75_25(ds, RngStream(2))
        seen = sorted(train.y.tolist() + test.y.tolist())
        assert seen == list(range(101))

    def test_determinism_and_seed_sensitivity(self):
        ds = self.make(100)
        a1, _ = split_75_25(ds, RngStream(3))
        a2, _ = split_75_25(ds, RngStream(3))
        b, _ = split_75_25(ds, RngStream(4))
        assert np.array_equal(a1.y, a2.y)
        assert not np.array_equal(a1.y, b.y)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInputError):
            split_75_25(self.make(3), RngStream(5))


class TestNormalize:
    def test_unit_data_unchanged(self):
        ds = Dataset(np.array([[0.0], [0.5], [1.0]]), np.array([0.0, 0.5, 1.0]))
        out, spec = normalize(ds)
        np.testing.assert_allclose(out.x, ds.x, atol=1e-12)
        np.testing.assert_allclose(out.y, ds.y, atol=1e-12)
        assert spec.input_scale[0] == 1.0 and spec.input_offset[0] == 0.0

    def test_constant_column_maps_to_midpoint(self):
        ds = Dataset(np.array([[7.0], [7.0], [7.0]]), np.array([1.0, 2.0, 3.0]))
        out, _ = normalize(ds)
        assert np.all(out.x == 0.5)

    def test_endpoints_exact(self):
        ds = Dataset(np.array([[-10.0], [10.0], [30.0]]), np.array([0.0, 1.0, 2.0]))
        out, _ = normalize(ds)
        assert out.x[0, 0] == 0.0 and out.x[2, 0] == 1.0
        assert out.x[1, 0] == 0.5

    def test_given_spec_is_applied_without_refitting(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([0.0, 4.0]))
        _, spec = normalize(train)
        test = Dataset(np.array([[4.0]]), np.array([8.0]))
        out, spec2 = normalize(test, spec)
        assert spec2 is spec
        assert out.x[0, 0] == 2.0  # beyond [0,1]: the train map was reused

    def test_output_range_option(self):
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([5.0, 9.0]))
        out, _ = normalize(ds, output_range=(-1.0, 1.0))
        assert out.y.tolist() == [-1.0, 1.0]

    def test_row_count_preserved_and_affine_per_column(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.normal(size=(40, 3)), rng.normal(size=40))
        out, spec = normalize(ds)
        assert out.n_samples == 40
        np.testing.assert_allclose(
            out.x, ds.x * spec.input_scale + spec.input_offset, atol=1e-12
        )

    def test_spec_round_trips_through_dict(self):
        ds = Dataset(np.array([[1.0, -3.0], [2.0, 5.0]]), np.array([0.0, 10.0]))
        spec = fit_normalization(ds, output_range=(-1.0, 1.0))
        again = NormalizationSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()


class TestDataset:
    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[np.nan]]), np.array([1.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.ones((3, 1)), np.ones(2))

    @pytest.mark.parametrize("x, names, target, repeated", [
        (np.ones((3, 1)), ("y",), "y", "y"),
        (np.ones((3, 2)), None, "x2", "x2"),
        (np.ones((3, 2)), ("a", "a"), "y", "a"),
    ])
    def test_repeated_column_names_rejected(self, x, names, target, repeated):
        # the default names x1..xn count when no feature names are given; a
        # repeated name would be written into a header that load_csv rejects
        with pytest.raises(InvalidInputError, match=f"repeats the column name '{repeated}'"):
            Dataset(x, np.arange(3.0), names, target)

    def test_column_names_default_to_x1_to_xn(self):
        assert Dataset(np.ones((3, 2)), np.arange(3.0)).column_names == ("x1", "x2", "y")
        assert Dataset(np.ones((3, 1)), np.arange(3.0), ("a",), "t").column_names == ("a", "t")

    def test_subset(self):
        ds = Dataset(np.arange(8, dtype=float).reshape(4, 2), np.arange(4, dtype=float))
        sub = ds.subset(np.array([2, 0]))
        assert sub.x.tolist() == [[4.0, 5.0], [0.0, 1.0]]
        assert sub.y.tolist() == [2.0, 0.0]

    def test_summary_fields(self):
        ds = Dataset(np.array([[1.0, 5.0], [3.0, 4.0]]), np.array([0.0, 2.0]))
        s = dataset_summary(ds, "toy")
        assert s["name"] == "toy"
        assert s["n_samples"] == 2 and s["n_features"] == 2
        assert s["columns"][0]["min"] == 1.0 and s["columns"][0]["max"] == 3.0
