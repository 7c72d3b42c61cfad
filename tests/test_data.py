import hashlib
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oculogate.data as data_module
from oculogate.data import (_RECORD, COLUMNS, CohortSpec, CohortTable,
                            apply_preprocess_table, assign_slope_targets,
                            default_cohort_spec, fit_preprocess, generate_cohort,
                            generate_image, generate_images, generate_trajectories,
                            generate_trajectory, inject_blur,
                            load_cohort_csv, load_image_pgm, write_cohort,
                            write_image_pgm, PreprocessStats)
from oculogate.errors import ConfigError, DataError, SchemaError
from oculogate.gate import laplacian_variance
from oculogate.metrics import ols_slope
from oculogate.rng import Rng

from helpers import (patients, reference_cohort, reference_slope_targets,
                     spy_on_streams, table_digest)


def same_records(a, b, float_rtol=0.0):
    """Whether two tables' visit records agree, floats to within float_rtol;
    where a row's raster comes from is not compared."""
    if len(a) != len(b):
        return False
    for name, column in COLUMNS.items():
        if column.fill is not _RECORD:
            continue
        x, y = getattr(a, name), getattr(b, name)
        if column.dtype is np.float64:
            if not np.allclose(x, y, rtol=float_rtol, atol=0.0, equal_nan=True):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


def tiny_table(**over):
    cols = {
        "patient_id": ["A", "A", "B", "B", "C"],
        "visit_index": [0, 1, 0, 1, 0],
        "visit_time": [0.0, 1.0, 0.0, 0.6, 0.0],
        "age": [50.0, 51.0, 70.0, 70.6, 60.0],
        "sex": ["F", "F", "M", "M", "F"],
        "race": ["Black", "Black", "White", "White", "Asian"],
        "rnflt": [90.0, 88.0, 70.0, np.nan, 95.0],
        "iop": [15.0, 16.0, 22.0, 23.0, 14.0],
        "cdr": [0.4, 0.42, 0.7, 0.72, 0.35],
        "md": [-1.0, -1.5, -8.0, -9.0, -0.5],
        "label": [0, 0, 1, 1, 0],
        "slope_target": [np.nan] * 5,
        "img_severity": [0.0, 0.05, 0.8, 0.9, -0.1],
        "image_seed": [1, 2, 3, 4, 5],
    }
    cols.update(over)
    return CohortTable(cols)


class TestGenerateCohort:
    def test_determinism(self):
        spec = default_cohort_spec(n_patients=120, seed=9)
        a = generate_cohort(spec)
        b = generate_cohort(default_cohort_spec(n_patients=120, seed=9))
        assert same_records(a, b)
        assert np.array_equal(a.image_seed, b.image_seed)

    def test_group_counts_within_binomial_bound(self):
        spec = CohortSpec(n_patients=3000, visits_per_patient=(1, 1), seed=5)
        table = generate_cohort(spec)
        race = {pid: table.race[idx[0]] for pid, idx in patients(table).items()}
        counts = {g: 0 for g in ("Asian", "Black", "White")}
        for g in race.values():
            counts[g] += 1
        n, p = 3000, 1 / 3
        sigma = math.sqrt(n * p * (1 - p))
        for g, c in counts.items():
            assert abs(c - n * p) <= 3 * sigma, (g, c)

    def test_age_effect_monotone_prevalence(self):
        spec = default_cohort_spec(n_patients=3000, age_effect=0.8, seed=6,
                                   visits_per_patient=(1, 1))
        table = generate_cohort(spec)
        bands = [(30, 50), (50, 70), (70, 90)]
        rates = []
        for lo, hi in bands:
            m = (table.age >= lo) & (table.age < hi)
            rates.append(table.label[m].mean())
        assert rates[0] < rates[1] < rates[2]

    def test_visit_times_strictly_increasing(self):
        table = generate_cohort(default_cohort_spec(n_patients=50, seed=3))
        for pid, idx in patients(table).items():
            times = table.visit_time[sorted(idx)]
            assert np.all(np.diff(times) > 0)

    def test_md_range_invariant(self):
        table = generate_cohort(default_cohort_spec(n_patients=200, seed=4))
        assert table.md.min() >= -30.0 and table.md.max() <= 5.0

    def test_slope_targets_match_ols_oracle(self):
        table = generate_cohort(default_cohort_spec(n_patients=40, seed=12))
        for pid, idx in patients(table).items():
            idx = sorted(idx)
            times = table.visit_time[idx]
            target = table.slope_target[idx[0]]
            if len(idx) >= 3 and times.max() - times.min() >= 1.0:
                assert target == pytest.approx(ols_slope(times, table.md[idx]),
                                               abs=1e-12)
            else:
                assert np.isnan(target)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            generate_cohort(CohortSpec(prevalence=0.0))
        with pytest.raises(ConfigError):
            generate_cohort(CohortSpec(label_noise=0.5))
        with pytest.raises(ConfigError):
            generate_cohort(CohortSpec(group_mix={"Asian": 0.5, "Black": 0.4}))


def test_subset_takes_the_rows_of_every_column():
    """Every column of the schema, latents and attached rasters included,
    keeps its dtype and yields exactly the chosen rows, in order."""
    table = tiny_table()
    table.rasters[2] = np.full((64, 64), 0.25)
    table.image_path[0] = "images/A_0.pgm"
    part = table.subset([2, 0])
    for name, column in COLUMNS.items():
        got, full = getattr(part, name), getattr(table, name)
        if column.dtype is list:
            assert len(got) == 2 and got[0] is full[2] and got[1] is full[0], name
        else:
            assert got.dtype == column.dtype, name
            np.testing.assert_array_equal(got, full[[2, 0]], err_msg=name)


def _generated(tmp_path):
    return generate_cohort(default_cohort_spec(n_patients=40, seed=12))


def _trajectory(tmp_path):
    # long enough that the rapid decline reaches the -30 dB clip of md
    table = generate_trajectory("rapid", 50, 3).table
    assert table.md.min() == -30.0
    return table


def _loaded(tmp_path):
    write_cohort(_generated(tmp_path), tmp_path, with_images=False)
    return load_cohort_csv(tmp_path / "cohort.csv")


@pytest.mark.parametrize("make", [_generated, _trajectory, _loaded],
                         ids=["generated", "trajectory", "loaded"])
def test_slope_targets_follow_the_one_rule(make, tmp_path):
    """Generated, trajectory and loaded tables hold the slope targets that
    assign_slope_targets derives from their own md and visit_time."""
    table = make(tmp_path)
    held = table.slope_target.copy()
    assert np.isfinite(held).any()
    table.slope_target[:] = 0.0
    assign_slope_targets(table)
    np.testing.assert_array_equal(table.slope_target, held)


def test_table_without_slope_targets_derives_them():
    table = generate_cohort(default_cohort_spec(n_patients=20, seed=4))
    columns = {name: getattr(table, name) for name in COLUMNS
               if name != "slope_target"}
    np.testing.assert_array_equal(CohortTable(columns).slope_target,
                                  table.slope_target)


class TestGenerateImage:
    def test_determinism(self):
        assert np.array_equal(generate_image(0.7, 123), generate_image(0.7, 123))
        assert not np.array_equal(generate_image(0.7, 123), generate_image(0.7, 124))

    def test_cup_disc_area_ratio_encodes_severity(self):
        def area_ratio(img):
            cup = (img > 0.82).sum()
            disc = (img > 0.48).sum()
            return cup / disc

        r0 = area_ratio(generate_image(0.0, 55))
        r1 = area_ratio(generate_image(1.0, 55))
        assert r1 - r0 >= 0.2

    def test_sharp_by_construction(self):
        rng = Rng(77, "imgs")
        passed = 0
        total = 1000
        for i in range(total):
            sev = float(rng.uniform() * 2.0 - 0.3)
            if laplacian_variance(generate_image(sev, i)) >= 100.0:
                passed += 1
        assert passed / total >= 0.99

    def test_range(self):
        img = generate_image(0.5, 9)
        assert img.min() >= 0.0 and img.max() <= 1.0 and img.shape == (64, 64)

    @pytest.mark.parametrize("severity,seed,digest", [
        (0.0, 0, "8e9c0bf2926a7c3dc00a5806c4de8876113c082c846896f0321074835104a8e1"),
        (0.37, 12345,
         "14dfcab92a8e519e96a19f5ddb375a941ffd6bc4781278e32a712aa7a256dd29"),
        (1.5, 2**64 - 1,
         "8ca09104c9968f70b5087325d95dd0da791f889cd8812cde4ba778c1d91200f6"),
        (-0.8, 987654321987654321,
         "1ff92632423a9f802da9bdd3b0294d6fba398ff0a5ab55d90db23bae2b2b5824"),
    ])
    def test_rasters_are_pinned(self, severity, seed, digest):
        raster = generate_image(severity, seed)
        assert hashlib.sha256(raster.tobytes()).hexdigest() == digest


def reference_image(severity, seed, size=64):
    """The per-raster generator: its own Rng stream and its own geometry."""
    rng = Rng(seed, "image")
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    disc_r = size * 0.22
    cup_r = disc_r * float(np.clip(0.3 + 0.25 * severity, 0.1, 0.95))
    r2 = (yy - size / 2.0) ** 2 + (xx - size / 2.0) ** 2
    img = 0.30 + 0.06 * (yy / size)
    img = np.where(r2 <= disc_r ** 2, 0.65, img)
    img = np.where(r2 <= cup_r ** 2, 0.95, img)
    return np.clip(img + rng.normal((size, size)) * 0.02, 0.0, 1.0)


U64_SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


# batch sizes around one RASTER_READ block, and the smallest two that split
# in halves between the calling thread and the worker
@given(st.sampled_from([1, 2, 3, 31, 32, 33, 65]).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1.0, 3.0), min_size=n, max_size=n),
    st.lists(U64_SEEDS, min_size=n, max_size=n))))
@settings(max_examples=20, deadline=None)
def test_generate_images_matches_per_raster_loop(case):
    severities, seeds = case
    batch = generate_images(severities, np.array(seeds, dtype=np.uint64))
    assert batch.shape == (len(seeds), 64, 64)
    for row, severity, seed in zip(batch, severities, seeds):
        assert np.array_equal(row, reference_image(severity, seed))


def test_generate_images_of_no_rows_draws_no_stream(monkeypatch):
    counts = spy_on_streams(monkeypatch)
    assert generate_images([], []).shape == (0, 64, 64)
    assert counts == {"rng": 0, "sponge": []}


def test_raster_stack_reads_every_source(tmp_path):
    """Generated, attached and PGM rows in one stack, each equal to its
    source and to the row's own raster() call."""
    table = tiny_table()
    attached = np.full((64, 64), 0.25)
    table.rasters[1] = attached
    pgm = tmp_path / "row3.pgm"
    write_image_pgm(reference_image(0.3, 17), pgm)
    table.image_path[3] = str(pgm)
    order = [4, 3, 1, 0, 2, 3]
    stack = table.raster_stack(order)
    assert np.array_equal(stack, np.stack([table.raster(i) for i in order]))
    for row, i in zip(stack, order):
        if i == 1:
            assert np.array_equal(row, attached)
        elif i == 3:
            assert np.array_equal(row, load_image_pgm(pgm))
        else:
            assert np.array_equal(row, reference_image(table.img_severity[i],
                                                       int(table.image_seed[i])))
    assert table.raster_stack([]).shape == (0, 64, 64)


def test_raster_stack_names_a_row_without_source():
    table = tiny_table(img_severity=[0.0, np.nan, 0.8, 0.9, -0.1])
    with pytest.raises(DataError, match="sample 1"):
        table.raster_stack([0, 1])


def test_raster_stack_refuses_a_raster_of_another_shape(tmp_path):
    """A PGM of another shape than the read's first raster is named with
    both shapes; so is an attached raster, and a read given a shape holds
    its first raster to it."""
    table = tiny_table()
    pgm = tmp_path / "small.pgm"
    write_image_pgm(np.full((32, 32), 0.5), pgm)
    table.image_path[2] = str(pgm)
    with pytest.raises(DataError, match=r"small\.pgm: raster is 32x32, but the "
                                        r"first raster read is 64x64"):
        table.raster_stack([0, 1, 2])
    table.rasters[4] = np.zeros((64, 48))
    with pytest.raises(DataError, match="sample 4: raster is 64x48"):
        table.raster_stack([3, 4])
    with pytest.raises(DataError, match="sample 0: raster is 64x64, but the "
                                        "first raster read is 32x32"):
        table.raster_stack([0], (32, 32))
    assert table.raster_stack([2]).shape == (1, 32, 32)


def test_raster_blocks_hold_every_block_to_the_first_raster(tmp_path):
    table = generate_cohort(default_cohort_spec(n_patients=12, seed=29))
    assert len(table) > 2 * data_module.RASTER_READ
    blocks = list(table.raster_blocks())
    assert [start for start, _ in blocks] == \
        list(range(0, len(table), data_module.RASTER_READ))
    assert np.array_equal(np.concatenate([r for _, r in blocks]),
                          table.raster_stack(range(len(table))))
    pgm = tmp_path / "late.pgm"
    write_image_pgm(np.full((32, 32), 0.5), pgm)
    late = len(table) - 1
    table.image_path[late] = str(pgm)
    with pytest.raises(DataError, match=r"late\.pgm: raster is 32x32"):
        list(table.raster_blocks())


def test_write_cohort_bytes_are_pinned_and_read_a_block_at_a_time(tmp_path,
                                                                   monkeypatch):
    """cohort.csv and the PGMs of a 75-visit cohort keep their bytes, read
    RASTER_READ rasters at a time."""
    reads = []
    raster_stack = CohortTable.raster_stack

    def recording(table, indices, shape=None):
        reads.append(len(indices))
        return raster_stack(table, indices, shape)

    monkeypatch.setattr(CohortTable, "raster_stack", recording)
    table = generate_cohort(default_cohort_spec(n_patients=12, seed=29))
    write_cohort(table, tmp_path)
    assert len(table) == 75 and reads == [32, 32, 11]
    h = hashlib.sha256()
    for folder in (tmp_path, tmp_path / "images"):
        for path in sorted(folder.iterdir()):
            if path.is_file():
                h.update(path.name.encode())
                h.update(path.read_bytes())
    assert h.hexdigest() == \
        "2ed0a0528dedb4221cb25e55e557b6e2ac7b63bfe22d61dd23a33b6925204133"


class TestInjectBlur:
    def test_radius_zero_identity(self):
        img = generate_image(0.4, 31)
        blurred = inject_blur(img, 0)
        assert blurred is not img and blurred.tobytes() == img.tobytes()

    def test_blur_reduces_laplacian_variance(self):
        drops = 0
        for i in range(100):
            img = generate_image(0.3 + 0.01 * i, i)
            if laplacian_variance(inject_blur(img, 3)) < laplacian_variance(img):
                drops += 1
        assert drops == 100

    def test_blur_radius2_reduces_on_95_percent(self):
        below = 0
        for i in range(100):
            img = generate_image(0.2 + 0.015 * i, 1000 + i)
            if laplacian_variance(inject_blur(img, 2)) < laplacian_variance(img):
                below += 1
        assert below >= 95

    def test_constant_image_fixed_point(self):
        img = np.full((32, 32), 0.25)
        assert np.allclose(inject_blur(img, 3), img)

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigError):
            inject_blur(np.zeros((8, 8)), -1)


class TestPreprocess:
    def test_mean_and_population_std(self):
        t = tiny_table(rnflt=[1.0, 2.0, 3.0, np.nan, np.nan])
        stats = fit_preprocess(t)
        st = stats.continuous["rnflt_um"]
        assert st["global_mean"] == 2.0
        assert st["global_std"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_constant_feature_dropped_with_warning(self):
        t = tiny_table(iop=[15.0] * 5)
        with pytest.warns(UserWarning, match="iop"):
            stats = fit_preprocess(t)
        assert "iop_mmhg" in stats.dropped
        assert "iop_mmhg" not in stats.continuous

    def test_all_missing_feature_named_in_error(self):
        t = tiny_table(cdr=[np.nan] * 5)
        with pytest.raises(ConfigError, match="cdr"):
            fit_preprocess(t)

    def test_stats_independent_of_row_order(self):
        t = tiny_table()
        perm = [4, 2, 0, 3, 1]
        a = fit_preprocess(t).to_dict()
        b = fit_preprocess(t.subset(perm)).to_dict()
        assert a == b

    def test_train_split_z_scores_standardized(self):
        table = generate_cohort(default_cohort_spec(n_patients=150, seed=8))
        stats = fit_preprocess(table)
        x = apply_preprocess_table(stats, table)
        n_cont = len([f for f in stats.continuous])
        for j in range(n_cont):
            assert abs(x[:, j].mean()) <= 1e-9
            assert abs(x[:, j].std() - 1.0) <= 1e-9

    def test_value_at_mean_maps_to_zero(self):
        t = tiny_table()
        stats = fit_preprocess(t)
        one = t.subset([2])
        one.iop[0] = stats.continuous["iop_mmhg"]["global_mean"]
        x = apply_preprocess_table(stats, one)
        assert x.shape == (1, len(stats.feature_names))
        assert x[0, 1] == 0.0

    def test_missing_fills_group_mean_then_zscores(self):
        t = tiny_table()
        stats = fit_preprocess(t)
        one = t.subset([0])  # a Black patient
        one.rnflt[0] = np.nan
        x = apply_preprocess_table(stats, one)
        st = stats.continuous["rnflt_um"]
        want = (st["group_means"]["Black"] - st["global_mean"]) / st["global_std"]
        assert x[0, 0] == want

    def test_missing_unseen_group_falls_back_to_global(self):
        t = tiny_table()
        stats = fit_preprocess(t)
        one = t.subset([0])
        one.rnflt[0] = np.nan
        one.race = ["Hispanic"]
        x = apply_preprocess_table(stats, one)
        assert x[0, 0] == 0.0  # global mean z-scores to zero

    def test_unseen_category_truncates_to_zero(self):
        t = tiny_table()
        stats = fit_preprocess(t)
        one = t.subset([0])
        one.sex = ["device_X"]
        x = apply_preprocess_table(stats, one)
        assert x[0, len(stats.continuous)] == 0.0

    def test_vocab_reserves_index_zero(self):
        stats = fit_preprocess(tiny_table())
        x = apply_preprocess_table(stats, tiny_table().subset([0]))
        sex_idx = stats.categorical["sex"].index("F") + 1
        assert x[0, len(stats.continuous)] == sex_idx

    def test_table_and_sample_paths_agree(self):
        # a single visit is a batch of one: its row equals the table's row
        table = generate_cohort(default_cohort_spec(n_patients=30, seed=13))
        stats = fit_preprocess(table)
        x = apply_preprocess_table(stats, table)
        for i in (0, 5, len(table) - 1):
            xi = apply_preprocess_table(stats, table.subset([i]))
            assert np.array_equal(x[i], xi[0])

    def test_stats_json_round_trip(self):
        stats = fit_preprocess(tiny_table())
        d = stats.to_dict()
        again = PreprocessStats.from_dict(d)
        assert again.to_dict() == d
        assert "image_norm" not in d

    def test_stats_from_older_file_with_image_norm(self):
        d = fit_preprocess(tiny_table()).to_dict()
        old = dict(d, image_norm={"mean": 0.5, "std": 0.2})
        assert PreprocessStats.from_dict(old).to_dict() == d

    @pytest.mark.parametrize("kind,name", [("continuous", "cdr"),
                                           ("categorical", "race")])
    def test_stats_lacking_a_feature_rejected(self, kind, name):
        stats = fit_preprocess(tiny_table())
        del getattr(stats, kind)[name]
        with pytest.raises(SchemaError, match=name):
            apply_preprocess_table(stats, tiny_table())


class TestCohortCsv:
    def test_round_trip(self, tmp_path):
        table = generate_cohort(default_cohort_spec(
            n_patients=12, seed=21, visits_per_patient=(3, 5)))
        write_cohort(table, tmp_path)
        loaded = load_cohort_csv(tmp_path / "cohort.csv")
        # slope targets are derived from the (9-digit) md column, not stored
        ok = ~np.isnan(table.slope_target)
        assert np.allclose(loaded.slope_target[ok], table.slope_target[ok],
                           atol=1e-6)
        loaded.slope_target = table.slope_target.copy()
        assert same_records(loaded, table, float_rtol=1e-8)
        # second cycle is byte-identical: values now carry 9 significant digits
        write_cohort(loaded, tmp_path / "again", with_images=False)
        first = (tmp_path / "cohort.csv").read_text()
        second = (tmp_path / "again" / "cohort.csv").read_text()
        assert first.split("\n")[0] == second.split("\n")[0]
        for a, b in zip(first.splitlines()[1:], second.splitlines()[1:]):
            assert a.rsplit(",", 1)[0] == b.rsplit(",", 1)[0]  # all but image_path

    def test_header_exact(self, tmp_path):
        table = generate_cohort(default_cohort_spec(
            n_patients=3, seed=1, visits_per_patient=(1, 1)))
        write_cohort(table, tmp_path, with_images=False)
        head = (tmp_path / "cohort.csv").read_text().splitlines()[0]
        assert head == ("patient_id,visit_index,visit_time_years,age,sex,race,"
                        "rnflt_um,iop_mmhg,cdr,md_db,label,image_path")

    def test_empty_cell_is_missing(self, tmp_path):
        table = tiny_table()
        path = tmp_path / "cohort.csv"
        from oculogate.data import write_cohort_csv

        write_cohort_csv(table, path, table.image_path)
        loaded = load_cohort_csv(path)
        assert np.isnan(loaded.rnflt[3])

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        from oculogate.data import CSV_HEADER

        rows = [",".join(CSV_HEADER),
                "P1,0,0.0,50,F,White,90,15,0.4,-1.0,0,",
                "P1,1,0.0,50,F,White,90,oops,0.4,-1.0,0,"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="line 3"):
            load_cohort_csv(path)

    @pytest.mark.parametrize("header,cell", [("visit_index", "1.5"),
                                             ("label", "2"), ("label", " 1"),
                                             ("md_db", "-1,0")])
    def test_refused_cell_names_its_line_and_column(self, tmp_path, header, cell):
        from oculogate.data import CSV_HEADER

        good = "P1,0,0.0,50,F,White,90,15,0.4,-1.0,0,".split(",")
        bad = list(good)
        bad[CSV_HEADER.index(header)] = f'"{cell}"'
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(CSV_HEADER), ",".join(good),
                                   ",".join(bad)]) + "\n")
        with pytest.raises(DataError, match=f"line 3: .*{header}"):
            load_cohort_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(SchemaError, match="line 1"):
            load_cohort_csv(path)

    def test_existing_cohort_is_refused_and_left_untouched(self, tmp_path):
        write_cohort(generate_cohort(default_cohort_spec(
            n_patients=3, seed=1, visits_per_patient=(2, 2))), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        other = generate_cohort(default_cohort_spec(
            n_patients=3, seed=2, visits_per_patient=(2, 2)))
        with pytest.raises(ConfigError, match="cohort.csv"):
            write_cohort(other, tmp_path)
        after = {p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == before

    def test_loaded_slope_targets_recomputed(self, tmp_path):
        table = generate_cohort(default_cohort_spec(
            n_patients=10, seed=3, visits_per_patient=(4, 6)))
        write_cohort(table, tmp_path, with_images=False)
        loaded = load_cohort_csv(tmp_path / "cohort.csv")
        ok = ~np.isnan(table.slope_target)
        assert np.allclose(loaded.slope_target[ok], table.slope_target[ok],
                           atol=1e-6)


class TestPgm:
    def test_round_trip_quantized(self, tmp_path):
        raster = np.round(generate_image(0.5, 44) * 255.0) / 255.0
        path = tmp_path / "img.pgm"
        write_image_pgm(raster, path)
        again = load_image_pgm(path)
        assert np.array_equal(raster, again)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(DataError, match="P5"):
            load_image_pgm(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(DataError, match="truncated"):
            load_image_pgm(path)

    @pytest.mark.parametrize("size", [b"-64 -64", b"0 0", b"64 0", b"-1 64"])
    def test_size_that_is_not_positive_rejected(self, tmp_path, size):
        path = tmp_path / "size.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + b"\x00" * 4096)
        with pytest.raises(DataError, match=r"size\.pgm: PGM size .* is not positive"):
            load_image_pgm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "max.pgm"
        path.write_bytes(b"P5\n1 1\n127\n\x00")
        with pytest.raises(DataError, match="maxval"):
            load_image_pgm(path)


class TestTrajectories:
    def test_stable_bounded_drift(self):
        for seed in range(20):
            traj = generate_trajectory("stable", 8, seed)
            md = traj.table.md
            assert np.abs(md - md[0]).max() <= 0.5

    def test_slow_two_year_drop(self):
        traj = generate_trajectory("slow", 8, 5)
        t = traj.table.visit_time
        md = traj.table.md
        i = int(np.argmin(np.abs(t - 2.0)))
        drop = md[0] - md[i]
        assert drop == pytest.approx(0.5 * t[i], abs=0.3)

    def test_rapid_post_break_decrement_larger(self):
        traj = generate_trajectory("rapid", 8, 7)
        md = traj.table.md
        pre = md[0] - md[1]
        post = md[-2] - md[-1]
        assert post > pre

    def test_determinism_and_kinds(self):
        a = generate_trajectory("slow", 8, 3)
        b = generate_trajectory("slow", 8, 3)
        assert same_records(a.table, b.table)
        assert a.onset_time == b.onset_time
        with pytest.raises(ConfigError):
            generate_trajectory("sideways", 8, 1)
        with pytest.raises(ConfigError):
            generate_trajectory("slow", 3, 1)

    def test_onset_is_latent_crossing(self):
        traj = generate_trajectory("slow", 8, 11)
        # slope -0.5 from baseline -0.7: crossing -2 at t = 2.6
        assert traj.onset_time == pytest.approx(2.6, abs=1e-9)

    def test_features_co_move_with_md(self):
        traj = generate_trajectory("rapid", 8, 13)
        md = traj.table.md
        rnflt = traj.table.rnflt
        assert np.corrcoef(md, rnflt)[0, 1] > 0.9


# sha256 (helpers.table_digest) of generated tables, recorded when each
# patient and visit still drew from its own Rng: the column-wise generator
# must reproduce them bit for bit
COHORT_SHA256 = {
    (600, 31, (4, 8)): "956939b95f56cad07f3a343b2fcd9e01b458ee09d7abae01abe0e45c3c0312d2",
    (600, 37, (4, 8)): "92c5f3aaa72fb9a51e6593b1a89527d4dace3f2659057fa9ff57d1dbd801df83",
    (2000, 5, (4, 8)): "60e509003f0520575b99b6062f3f6371f3becc7feb6cc0d48f785b05a17377a0",
    (1, 9, (4, 8)): "e56a0f0b6447fcf28e7aaafa1df9be8d8e459340e2966729db409a7828092d80",
    (200, 11, (1, 1)): "06695a5dc402a0234c549f81dd37a5897aed8fe43c7ef798c731dd9ce5d1224a",
    (200, 12, (2, 12)): "d5d50bf2d7880da28de86810f22d58e065f6ab193d94ef5c9ba71a87b18576c7",
    (150, -7, (4, 8)): "608d8099590cbd1539d84cc31936ce02df44bb3b4c4c0138cdc366cf0fe1339c",
    (150, 2**70, (4, 8)): "ba2c70d5d448c049895801c08c4b0565ecd3ee9941c41b85243eac35d9bdc9a6",
}
# more patients than one generation block, in an uneven group mix
BLOCKS_SPEC = dict(n_patients=5000, seed=3, visits_per_patient=(1, 3),
                   group_mix={"Asian": 0.2, "Black": 0.3, "White": 0.5})
BLOCKS_SHA256 = "b3506e4c3875c70447d8960724e0688d918f223051f4c6a121e203cbf158381a"
# (kind, n_visits, seed): table_digest of the table, then repr(onset_time);
# at 50 visits the rapid decline reaches the md clip
TRAJECTORY_SHA256 = {
    ("stable", 4, 3): "07acc53062bfe0bab1f48c329e3ec6a8a7ab224d5b8017724207e7bca92c20bc",
    ("stable", 8, 3): "844f3c44d1564faba830e19d7bededc9afc730943f3465891431d58ffa83ebc6",
    ("stable", 50, 3): "e7749a58364b72a60923fe0ea1e6a64dd2defdc026fc27133080d13b12917d49",
    ("slow", 4, 3): "161eaad9bc83da0a960cbf29d4cc4a302766d5457f267a46c907f9b6bf9edbff",
    ("slow", 8, 3): "d2d4492b06de65842f7e95e63449caaccf21f17f6e711cb285e212a99f7d66fc",
    ("slow", 50, 3): "af051db55898d6cb48da6f8b75462887d04b49126cf9fc07c9125c48e67cd304",
    ("rapid", 4, 3): "7ee22d9827ffaacc8a7c8873367aadef05839969183d1f6a8a22d258279187e3",
    ("rapid", 8, 3): "56bf1853fd6afd0bade41c4d7aa4626d94468e4e96bbec7d6ceb214b575a47ba",
    ("rapid", 50, 3): "96d9489513a370dcc73a538c29babd72e4ece79167e4bb534f1a5eff3e3df732",
    ("stable", 8, -5): "c93d672d990338690a9f14d9c8d1a8dc9226a489845040318119215570513409",
    ("slow", 8, -5): "b1fae0c5cf669c78dcd18f54021758444cd60b5ad099d04a0863dc1630ae6255",
    ("rapid", 8, -5): "eef4adc2c0f298b6c05d622c0d58bd13374a5e73a73f994649e52a5ef24cc177",
    ("stable", 8, 2**64 + 9): "f62e6ac8d83305c8fa66809ba45023643f1bf9f9f871a77e4cd843216404a7e9",
    ("slow", 8, 2**64 + 9): "79ef07cb5739eaf184bf4082406fb6f48401ff0ec28766674cbf6b555bb78754",
    ("rapid", 8, 2**64 + 9): "594f36e752a96778d2e1e88cac17767375c821dc590b4610ec072e94dd03c462",
}


@pytest.mark.parametrize("n_patients,seed,visits", sorted(COHORT_SHA256, key=repr))
def test_generated_cohort_bytes_are_pinned(n_patients, seed, visits):
    table = generate_cohort(default_cohort_spec(n_patients=n_patients, seed=seed,
                                                visits_per_patient=visits))
    assert table_digest(table) == COHORT_SHA256[(n_patients, seed, visits)]


def test_cohort_of_several_blocks_is_pinned():
    assert BLOCKS_SPEC["n_patients"] > data_module._PATIENT_BLOCK
    assert table_digest(generate_cohort(default_cohort_spec(**BLOCKS_SPEC))) == \
        BLOCKS_SHA256


@pytest.mark.parametrize("kind,n_visits,seed", sorted(TRAJECTORY_SHA256, key=repr))
def test_trajectory_bytes_are_pinned(kind, n_visits, seed):
    traj = generate_trajectory(kind, n_visits, seed)
    assert table_digest(traj.table, repr(traj.onset_time)) == \
        TRAJECTORY_SHA256[(kind, n_visits, seed)]


SPECS = st.builds(
    dict,
    n_patients=st.integers(1, 12),
    seed=st.one_of(st.sampled_from([0, -1, 2**64 - 1, 2**70]), st.integers(-2**66, 2**66)),
    visits_per_patient=st.tuples(st.integers(1, 5), st.integers(0, 6))
    .map(lambda t: (t[0], t[0] + t[1])),
    group_mix=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)
    .filter(lambda w: sum(w) > 0.1)
    .map(lambda w: {f"G{i}": x / math.fsum(w) for i, x in enumerate(w)})
    .filter(lambda mix: abs(sum(mix.values()) - 1.0) <= 1e-9),
    group_shift=st.floats(-1.0, 1.0),
    prevalence=st.floats(0.01, 0.99),
    age_effect=st.floats(-1.0, 1.0),
    label_noise=st.floats(0.0, 0.49),
)


@given(SPECS, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_cohort_equals_the_per_patient_reference(spec, block):
    """Column-wise generation, in blocks of any size, draws what one Rng per
    patient and per visit draws."""
    spec = CohortSpec(**{**spec, "group_shift": {
        g: spec["group_shift"] * i for i, g in enumerate(spec["group_mix"])}})
    want = reference_cohort(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_PATIENT_BLOCK", block)
        got = generate_cohort(spec)
    assert table_digest(got) == table_digest(want)


@st.composite
def slope_tables(draw):
    """Tables of 1-8 patients with 1-20 visits each, rows shuffled across
    patients: visit times often from a coarse grid (so ties and spans under
    a year occur), and md sometimes NaN."""
    times = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0, 1.5, 2.75]),
                      st.floats(0.0, 5.0))
    md = st.floats(-30.0, 5.0).map(lambda x: math.nan if x > 3.0 else x)
    visits = [(f"P{p}", draw(times), draw(md))
              for p in range(draw(st.integers(1, 8)))
              for _ in range(draw(st.integers(1, 20)))]
    order = draw(st.permutations(range(len(visits))))
    pid, t, m = zip(*(visits[i] for i in order))
    n = len(pid)
    return CohortTable({
        "patient_id": list(pid), "visit_index": np.arange(n),
        "visit_time": np.array(t), "age": np.full(n, 60.0), "sex": ["F"] * n,
        "race": ["White"] * n, "rnflt": np.full(n, 90.0), "iop": np.full(n, 15.0),
        "cdr": np.full(n, 0.4), "md": np.array(m), "label": np.zeros(n, dtype=np.int64),
        "slope_target": np.full(n, np.nan)})


@given(slope_tables())
@settings(max_examples=60, deadline=None)
def test_slope_targets_equal_the_per_patient_rule(table):
    want = table.subset(range(len(table)))
    reference_slope_targets(want)
    assign_slope_targets(table)
    assert table.slope_target.tobytes() == want.slope_target.tobytes()


@given(st.sampled_from(["stable", "slow", "rapid"]), st.integers(4, 12),
       st.lists(st.integers(-2**65, 2**65), min_size=1, max_size=5, unique=True))
@settings(max_examples=30, deadline=None)
def test_trajectories_equal_the_per_seed_series(kind, n_visits, seeds):
    table, onsets = generate_trajectories(kind, n_visits, seeds)
    for j, seed in enumerate(seeds):
        one = generate_trajectory(kind, n_visits, seed)
        rows = table.subset(range(j * n_visits, (j + 1) * n_visits))
        assert onsets[j] == one.onset_time
        assert table_digest(rows) == table_digest(one.table)


def test_cohort_is_drawn_column_wise(monkeypatch):
    """200 patients in blocks of 64: no per-patient or per-visit Rng, and
    one sponge pass per block for the patients' streams and one for their
    visits' (every label here is 2 words long)."""
    counts = spy_on_streams(monkeypatch)
    monkeypatch.setattr(data_module, "_PATIENT_BLOCK", 64)
    table = generate_cohort(default_cohort_spec(n_patients=200, seed=8))
    assert counts["rng"] == 0
    blocks = [64, 64, 64, 8]
    visits = np.bincount(np.unique(table.patient_id, return_inverse=True)[1])
    per_block = np.add.reduceat(visits, np.cumsum([0] + blocks[:-1]))
    assert counts["sponge"] == [shape for b, v in zip(blocks, per_block)
                                for shape in ((b, 2), (v, 2))]


def test_slope_targets_take_one_ols_pass_per_visit_count(monkeypatch):
    """The per-patient rule costs one batched ols_slope call per count of
    usable visits, not one per patient."""
    table = generate_cohort(default_cohort_spec(n_patients=200, seed=8))
    calls = []
    monkeypatch.setattr(data_module, "ols_slope",
                        lambda t, v: calls.append(t.shape) or ols_slope(t, v))
    assign_slope_targets(table)
    assert sorted(k for _, k in calls) == [4, 5, 6, 7, 8]


@pytest.mark.parametrize("override,name", [
    ({"group_mix": {"Asian": 1.5, "Black": -0.5, "White": 0.0}}, "group_mix"),
    ({"age_effect": math.nan}, "age_effect"),
    ({"group_mix": {"Asian": math.nan, "Black": 0.5, "White": 0.5}}, "group_mix"),
    ({"group_shift": {"Asian": math.inf, "Black": 0.0, "White": 0.0}}, "group_shift"),
    ({"prevalence": math.nan}, "prevalence"),
    ({"label_noise": math.nan}, "label_noise"),
], ids=["negative-mix", "nan-age-effect", "nan-mix", "inf-shift", "nan-prevalence",
        "nan-label-noise"])
def test_spec_refuses_non_finite_and_negative_numbers_by_name(override, name):
    with pytest.raises(ConfigError, match=f"'{name}'"):
        generate_cohort(default_cohort_spec(n_patients=5, **override))


def test_no_call_makes_or_reduces_more_than_raster_read_rasters(tmp_path,
                                                                 monkeypatch):
    """Training, gating, scoring and the warn stage, on tables of more than
    2 x RASTER_READ visits, never hand generate_images or patch_stats more
    than RASTER_READ rasters, whichever module calls them. Scoring, the warn
    stage and training's validation project features through predict_arrays
    (model) at most a predict block at a time; only training batches (train)
    and the gate's batches (gate) project elsewhere."""
    import oculogate.cli as cli
    import oculogate.model as model
    import oculogate.pipeline as pipeline
    from oculogate.gate import GateConfig, run_gate
    from oculogate.train import TrainConfig

    rows = {}   # (function, module it was called through) -> rows per call
    # each function with the position of the argument that holds its rows
    for fn, arg in ((generate_images, 0), (model.patch_stats, 0),
                    (model.visual_features_batch, 1)):
        for name, module in list(sys.modules.items()):
            if name.startswith("oculogate."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        def recording(*args, fn=fn, arg=arg, caller=name):
                            rows.setdefault((fn.__name__, caller), []).append(len(args[arg]))
                            return fn(*args)

                        monkeypatch.setattr(module, attr, recording)

    cohort = generate_cohort(default_cohort_spec(n_patients=40, seed=8))
    tp = pipeline.run_training_pipeline(cohort, TrainConfig(max_epochs=1, seed=3))
    assert len(tp.split.train) > 2 * data_module.RASTER_READ
    run_gate(tp.model, cohort, tp.stats, GateConfig(n_passes=3, tau_unc=0.01), 7,
             tp.fusion)
    pipeline.deterministic_scores(tp, cohort)
    write_cohort(cohort, tmp_path / "cohort")
    (tmp_path / "train.json").write_text('{"max_epochs": 1}')
    (tmp_path / "warn.json").write_text('{"n_triples": 3}')   # 72 visits
    assert cli.main(["train", "--config", str(tmp_path / "train.json"),
                     "--cohort", str(tmp_path / "cohort"),
                     "--out", str(tmp_path / "model")]) == 0
    assert cli.main(["warn", "--config", str(tmp_path / "warn.json"),
                     "--cohort", str(tmp_path / "cohort"),
                     "--model", str(tmp_path / "model"),
                     "--out", str(tmp_path / "warn")]) == 0
    for fn in ("generate_images", "patch_stats"):
        sizes = [n for (name, _), calls in rows.items() if name == fn for n in calls]
        assert max(sizes) == data_module.RASTER_READ, (fn, sizes)
    projecting = {caller for name, caller in rows if name == "visual_features_batch"}
    assert projecting == {"oculogate.model", "oculogate.train", "oculogate.gate"}
    assert max(rows["visual_features_batch", "oculogate.model"]) == model._PREDICT_ROWS
