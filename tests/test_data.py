from __future__ import annotations

import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradframe.data import (
    SIM_SOURCE_BLOBS,
    SIM_TARGET_BLOBS,
    Boundary,
    CsvSchema,
    Domain,
    DomainSet,
    Standardization,
    apply_standardization,
    generate_gaussian_domain,
    label_by_boundary,
    load_csv_dataset,
    save_csv_dataset,
    simulation_source,
    simulation_target,
    split_into_k_domains,
    standardize,
    write_csv,
    write_json,
)
from gradframe.errors import ConfigError, DataError, NumericError, ShapeError
from gradframe.rng import derive_seed


class TestBoundaryLabeling:
    def test_on_the_line_labels_zero(self):
        assert label_by_boundary(np.array([0.0, 0.0]), Boundary(-1.0, 0.0)) == 0

    def test_above_the_line_labels_one(self):
        assert label_by_boundary(np.array([1.0, 2.0]), Boundary(-1.0, 0.0)) == 1

    def test_steeper_boundary(self):
        assert label_by_boundary(np.array([1.0, -3.0]), Boundary(-2.0, 0.0)) == 0

    def test_wrong_dimension(self):
        with pytest.raises(ShapeError):
            label_by_boundary(np.array([1.0, 2.0, 3.0]), Boundary(-1.0, 0.0))


BOUNDARY = Boundary(-1.0, 0.0)


class TestGaussianGeneration:
    def test_counts_and_exact_label_consistency(self):
        blobs = (((-2.5, -2.5), 0.5), ((2.5, 2.5), 0.5))
        dom = generate_gaussian_domain("S1", blobs, 100, BOUNDARY, seed=42)
        assert len(dom) == 200
        for features, label in zip(dom.x, dom.y):
            assert label == label_by_boundary(features, BOUNDARY)

    def test_sample_mean_converges(self):
        mean = np.array([1.0, -2.0])
        dom = generate_gaussian_domain("g", [(mean, 0.25)], 4000, BOUNDARY, seed=7)
        sample_mean = dom.x.mean(axis=0)
        tol = 4.0 * 0.5 / np.sqrt(4000)
        assert np.all(np.abs(sample_mean - mean) < tol)

    def test_zero_covariance_degenerates_to_mean(self):
        dom = generate_gaussian_domain("d", [((1.5, 1.5), 0.0)], 20, BOUNDARY, seed=1)
        assert np.array_equal(dom.x, np.full((20, 2), 1.5))
        assert len(set(dom.y.tolist())) == 1

    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_count_rejected(self, count):
        with pytest.raises(ConfigError):
            generate_gaussian_domain("d", [((0.0, 0.0), 1.0)], count, BOUNDARY, seed=1)

    @pytest.mark.parametrize("var", [-0.5, math.nan, math.inf])
    def test_invalid_variance_rejected(self, var):
        with pytest.raises(DataError):
            generate_gaussian_domain("d", [((0.0, 0.0), var)], 5, BOUNDARY, seed=1)

    @pytest.mark.parametrize("mean", [(0.0,), (0.0, 0.0, 0.0), ((0.0, 0.0),)])
    def test_mean_not_a_2_vector_rejected(self, mean):
        with pytest.raises(ShapeError):
            generate_gaussian_domain("d", [(mean, 1.0)], 5, BOUNDARY, seed=1)

    def test_seeded_reproducibility(self):
        blobs = [((0.0, 0.0), 1.0)]
        a = generate_gaussian_domain("a", blobs, 50, BOUNDARY, seed=3)
        b = generate_gaussian_domain("a", blobs, 50, BOUNDARY, seed=3)
        assert np.array_equal(a.x, b.x)


def cholesky_blobs(blobs, count: int, seed: int) -> np.ndarray:
    """Points of each (mean, variance) blob by the full-covariance form,
    ``mean + z @ cholesky(var * I).T``, from the same generator stream."""
    rng = np.random.default_rng(seed)
    return np.vstack(
        [
            np.asarray(mean) + rng.standard_normal((count, 2)) @ np.linalg.cholesky(var * np.eye(2)).T
            for mean, var in blobs
        ]
    )


@pytest.mark.parametrize("per_blob", [7, 50, 100])
def test_simulation_matches_the_cholesky_form_bit_for_bit(per_blob):
    for seed in range(50):
        source = simulation_source(seed, per_blob)
        for dom in source.domains:
            ref = cholesky_blobs(SIM_SOURCE_BLOBS[dom.id], per_blob, derive_seed(seed, "data", dom.id))
            assert np.array_equal(dom.x, ref)
        target = simulation_target(seed, per_blob)
        ref = cholesky_blobs(SIM_TARGET_BLOBS, per_blob, derive_seed(seed, "data", "target"))
        assert np.array_equal(target.x, ref)


class TestSimulationPresets:
    def test_source_composition(self):
        src = simulation_source(0)
        assert src.k == 2
        assert [d.id for d in src.domains] == ["S1", "S2"]
        assert all(len(d) == 200 for d in src.domains)

    def test_target_composition(self):
        tgt = simulation_target(0)
        assert len(tgt) == 100
        labels = tgt.y
        assert set(labels.tolist()) == {0.0, 1.0}


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ds = simulation_source(5)
        path = tmp_path / "ds.csv"
        save_csv_dataset(ds, path)
        loaded = load_csv_dataset(path)
        assert [d.id for d in loaded.domains] == [d.id for d in ds.domains]
        for da, db in zip(ds.domains, loaded.domains):
            assert np.array_equal(da.x, db.x)
            assert np.array_equal(da.y, db.y)

    def test_domains_grouped(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "x0,x1,label,domain\n1,2,0,A\n3,4,1,B\n5,6,0,A\n7,8,1,B\n"
        )
        ds = load_csv_dataset(path)
        assert ds.k == 2
        assert len(ds.domain("A")) == 2
        assert len(ds.domain("B")) == 2
        assert np.array_equal(ds.domain("A").x, [[1, 2], [5, 6]])

    def test_without_domain_column(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x0,x1,label\n1,2,0\n3,4,1\n")
        ds = load_csv_dataset(path, CsvSchema(domain_column=None))
        assert ds.k == 1
        assert ds.domains[0].id == "all"

    @pytest.mark.parametrize("column", ["domain", "regoin"])
    def test_missing_domain_column_rejected(self, tmp_path, column):
        path = tmp_path / "nodomain.csv"
        path.write_text("x0,region,label\n1,2,0\n3,4,1\n")
        with pytest.raises(DataError, match=f"domain column '{column}'.*empty.*one domain"):
            load_csv_dataset(path, CsvSchema(domain_column=column))

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,label\n1,2,0\n3,4,1\n5,6,2\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv_dataset(path, CsvSchema(domain_column=None))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("x0,x1,outcome\n1,2,0\n")
        with pytest.raises(DataError, match="label"):
            load_csv_dataset(path)

    def test_non_numeric_feature_names_row_and_column(self, tmp_path):
        path = tmp_path / "nn.csv"
        path.write_text("x0,x1,label\n1,2,0\n1,oops,1\n")
        with pytest.raises(DataError, match="row 2.*x1"):
            load_csv_dataset(path, CsvSchema(domain_column=None))

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_csv_dataset("/nonexistent/path.csv")

    def test_explicit_feature_columns(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b,c,label\n1,2,9,0\n3,4,9,1\n")
        ds = load_csv_dataset(path, CsvSchema(feature_columns=("a", "b"), domain_column=None))
        assert ds.feature_dim == 2

    @pytest.mark.parametrize(
        "header, schema, name",
        [
            ("x,x,label,domain", CsvSchema(), "x"),
            ("x,x,label,domain", CsvSchema(feature_columns=("x",)), "x"),
            ("x,y,label,label,domain", CsvSchema(), "label"),
            ("x,y,label,domain,domain", CsvSchema(), "domain"),
        ],
        ids=["default-feature", "named-feature", "label", "domain"],
    )
    def test_repeated_header_name_that_is_read_rejected(self, tmp_path, header, schema, name):
        # the last ``x`` used to win: the row ``1,2,0,0`` loaded as features [2, 2]
        path = tmp_path / "dup.csv"
        row = ",".join(["1", "2", "0", "0", "A"][: header.count(",") + 1])
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(DataError, match=f"column '{name}' appears more than once"):
            load_csv_dataset(path, schema)

    def test_repeated_header_name_that_is_not_read_is_ignored(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text("x,notes,notes,label,domain\n1,a,b,0,A\n2,c,d,1,A\n")
        ds = load_csv_dataset(path, CsvSchema(feature_columns=("x",)))
        assert np.array_equal(ds.domains[0].x, [[1.0], [2.0]])

    @pytest.mark.parametrize(
        "fields",
        [
            {"feature_columns": ("x", "label")},
            {"feature_columns": ("x", "domain")},
            {"feature_columns": ("x", "region"), "domain_column": "region"},
            {"domain_column": "label"},
            {"feature_columns": ("x", "y", "x")},
        ],
        ids=[
            "feature-is-label", "feature-is-domain", "feature-is-named-domain",
            "domain-is-label", "feature-twice",
        ],
    )
    def test_overlapping_schema_rejected(self, fields):
        with pytest.raises(ConfigError):
            CsvSchema(**fields)


class TestWriteJson:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_writes_nothing(self, tmp_path, value):
        path = tmp_path / "out" / "report.json"
        with pytest.raises(NumericError, match="report.json"):
            write_json(path, {"a": 1.0, "nested": {"values": [0.5, value]}})
        assert not path.parent.exists()

    def test_finite_payload_round_trips_with_sorted_keys(self, tmp_path):
        path = tmp_path / "report.json"
        payload = {"b": [0.1, -2.5e-300], "a": {"z": None, "y": 3}, "c": "text"}
        write_json(path, payload)
        text = path.read_text(encoding="utf-8")
        assert json.loads(text) == payload
        assert list(json.loads(text)) == ["a", "b", "c"]
        assert list(json.loads(text)["a"]) == ["y", "z"]
        assert text.endswith("}\n")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = st.sampled_from([5e-324, -5e-324, 2.2250738585072009e-308, -1e-310])


class TestWriteCsv:
    def test_header_first_then_cells_as_csv_writes_them(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "n", "value"], [["a,b", 7, np.float64(0.1)], ["c", -2, 1.0]])
        assert path.read_bytes() == b'name,n,value\r\n"a,b",7,0.10000000000000001\r\nc,-2,1\r\n'

    def test_missing_parent_directory_is_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "t.csv"
        write_csv(path, ["x"], [[0.5]])
        assert path.read_text(encoding="utf-8").splitlines() == ["x", "0.5"]

    def test_negative_zero_label_is_written_as_zero(self, tmp_path):
        path = tmp_path / "t.csv"
        save_csv_dataset(DomainSet((Domain("d", [[1.0]], [-0.0]),)), path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == "1,0,d"
        assert load_csv_dataset(path).domains[0].y.tolist() == [0.0]

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(FINITE | SUBNORMAL | st.just(-0.0), min_size=1, max_size=6))
    def test_floats_read_back_bit_for_bit(self, csv_dir, values):
        path = csv_dir / "floats.csv"
        write_csv(path, [f"c{j}" for j in range(len(values))], [values])
        with path.open(newline="", encoding="utf-8") as fh:
            header, row = list(csv.reader(fh))
        assert header == [f"c{j}" for j in range(len(values))]
        assert np.array([float(v) for v in row]).tobytes() == np.array(values).tobytes()


# any text a UTF-8 file can hold: every character but the lone surrogates
DOMAIN_ID = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def domain_sets(draw):
    d = draw(st.integers(1, 4))
    ids = draw(st.lists(DOMAIN_ID, min_size=1, max_size=4, unique=True))
    domains = []
    for domain_id in ids:
        n = draw(st.integers(1, 5))
        x = draw(arrays(np.float64, (n, d), elements=FINITE))
        y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
        domains.append(Domain(domain_id, x, y))
    return DomainSet(tuple(domains))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=150, deadline=None)
@given(ds=domain_sets())
def test_csv_round_trip_is_bit_exact(csv_dir, ds):
    path = csv_dir / "drawn.csv"
    save_csv_dataset(ds, path)
    loaded = load_csv_dataset(path)
    assert [d.id for d in loaded.domains] == [d.id for d in ds.domains]
    for saved, read in zip(ds.domains, loaded.domains):
        assert read.x.tobytes() == saved.x.tobytes()
        assert read.y.tobytes() == saved.y.tobytes()


class TestStandardize:
    def _ds(self, rows):
        return DomainSet((Domain("d", rows, [i % 2 for i in range(len(rows))]),))

    def test_constant_feature_maps_to_zero(self):
        ds = standardize(self._ds([[5.0, 1.0], [5.0, 3.0]]))
        x = ds.pooled().x
        assert np.all(x[:, 0] == 0.0)

    def test_two_point_feature_maps_to_unit(self):
        ds = standardize(self._ds([[0.0, 0.0], [2.0, 2.0]]))
        x = ds.pooled().x
        assert np.allclose(sorted(x[:, 0]), [-1.0, 1.0])

    def test_moments_after_transform(self):
        raw = simulation_source(3)
        ds = standardize(raw)
        x = ds.pooled().x
        assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(x.std(axis=0), 1.0, atol=1e-12)

    def test_stats_apply_to_held_out(self):
        raw = simulation_source(3)
        ds = standardize(raw)
        held_out = simulation_target(3)
        transformed = apply_standardization(held_out, ds.standardization)
        expected = (held_out.x - ds.standardization.mean) / ds.standardization.std
        assert np.allclose(transformed.x, expected)

    def test_feature_names_ride_along(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("a,b,label,domain\n0,1,0,A\n2,3,1,A\n4,5,0,B\n6,8,1,B\n")
        assert standardize(load_csv_dataset(path)).feature_names == ("a", "b")

    @pytest.mark.parametrize("width", [1, 3])
    def test_held_out_of_another_width_is_shape_error(self, width):
        ds = standardize(simulation_source(3))
        held_out = Domain("t", np.zeros((4, width)), [0, 1, 0, 1])
        with pytest.raises(ShapeError, match=f"has {width} features, the standardization 2"):
            apply_standardization(held_out, ds.standardization)

    @pytest.mark.parametrize(
        "column", [[1e300, -1e300, 1e300, -1e300], [1.7e308] * 4], ids=["std", "mean"]
    )
    def test_overflowing_moment_is_data_error_naming_the_column(self, column):
        rows = [[0.5 * i, v] for i, v in enumerate(column)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor may it warn on the way
            with pytest.raises(DataError, match="column 1 .*pooled mean or std not finite"):
                standardize(self._ds(rows))


class TestSplitIntoKDomains:
    def _domain_with_keys(self, keys):
        x = [[float(k), 0.0] for k in keys]
        return Domain("base", x, [i % 2 for i in range(len(keys))]), list(keys)

    def test_nine_months_into_four(self):
        keys = [m for m in range(1, 10) for _ in range(3)]
        dom, ks = self._domain_with_keys(keys)
        groups = split_into_k_domains(dom, 4, ks)
        spans = [sorted({int(v) for v in g.x[:, 0]}) for g in groups.domains]
        assert spans == [[1, 2], [3, 4], [5, 6], [7, 8, 9]]

    def test_k_equals_distinct(self):
        keys = [1, 2, 3, 4]
        dom, ks = self._domain_with_keys(keys)
        groups = split_into_k_domains(dom, 4, ks)
        assert groups.k == 4
        assert all(len(g) == 1 for g in groups.domains)

    def test_balanced_two_way(self):
        keys = list(range(1, 11))
        dom, ks = self._domain_with_keys(keys)
        groups = split_into_k_domains(dom, 2, ks)
        spans = [sorted({int(v) for v in g.x[:, 0]}) for g in groups.domains]
        assert spans == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]

    def test_partition_property(self):
        keys = [3, 1, 2, 3, 2, 1, 4, 5, 4]
        dom, ks = self._domain_with_keys(keys)
        groups = split_into_k_domains(dom, 3, ks)
        total = sum(len(g) for g in groups.domains)
        assert total == len(dom)
        all_rows = np.concatenate([g.x[:, 0] for g in groups.domains])
        assert sorted(all_rows.tolist()) == sorted(float(k) for k in keys)

    def test_k_exceeding_distinct_keys(self):
        dom, ks = self._domain_with_keys([1, 1, 2, 2])
        with pytest.raises(DataError):
            split_into_k_domains(dom, 3, ks)

    def test_k_below_two(self):
        dom, ks = self._domain_with_keys([1, 2, 3])
        with pytest.raises(ConfigError):
            split_into_k_domains(dom, 1, ks)

    def test_non_whole_key_is_data_error_naming_row_and_value(self):
        # truncating would group a key of 1.7 with key 1
        dom, _ = self._domain_with_keys([1, 1, 2, 2])
        with pytest.raises(DataError, match=r"row 2: key 1\.7 is not a whole number"):
            split_into_k_domains(dom, 2, [1, 1.7, 2, 2.2])

    def test_1e300_key_groups_as_the_largest(self):
        dom = Domain("base", [[float(i), 0.0] for i in range(5)], [0, 1, 0, 1, 0])
        groups = split_into_k_domains(dom, 3, np.array([1e300, 1.0, 2.0, 1.0, 2.0]))
        assert [g.x[:, 0].tolist() for g in groups.domains] == [[1.0, 3.0], [2.0, 4.0], [0.0]]


class TestDomainTypes:
    def test_empty_domain_rejected(self):
        with pytest.raises(DataError):
            Domain("empty", np.empty((0, 1)), np.empty(0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            DomainSet((Domain("a", [[1.0]], [0]), Domain("a", [[1.0]], [0])))

    def test_label_validation(self):
        with pytest.raises(DataError):
            Domain("a", [[1.0]], [3])

    def test_non_finite_features_rejected(self):
        with pytest.raises(DataError):
            Domain("a", [[np.inf]], [0])

    def test_standardized_set_hashes_by_identity(self):
        ds = standardize(simulation_source(3))
        assert {ds: 1}[ds] == 1
        assert len({ds, standardize(simulation_source(3))}) == 2

    def test_set_equals_only_itself(self):
        ds = standardize(simulation_source(3))
        stats = Standardization(ds.standardization.mean.copy(), ds.standardization.std.copy())
        twin = DomainSet(ds.domains, standardization=stats)
        assert ds == ds
        assert (twin == ds) is False and (twin != ds) is True


class TestDomain:
    @pytest.mark.parametrize(
        "x, y, error",
        [
            ([[0.0, np.nan]], [0], DataError),
            ([[0.0, 1.0]], [2], DataError),
            ([[0.0, 1.0], [1.0, 2.0]], [0], ShapeError),
            ([0.0, 1.0], [0, 1], ShapeError),
            (np.empty((0, 2)), np.empty(0), DataError),
        ],
        ids=["non-finite", "label-2", "length-mismatch", "one-dimensional", "empty"],
    )
    def test_invalid_arrays_rejected(self, x, y, error):
        with pytest.raises(error):
            Domain("d", x, y)

    def test_arrays_are_read_only_copies(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        dom = Domain("d", x, [0, 1])
        x[0, 0] = 99.0
        assert dom.x[0, 0] == 1.0
        with pytest.raises(ValueError):
            dom.x[0, 0] = 5.0
        with pytest.raises(ValueError):
            dom.y[0] = 1.0
