import hashlib
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from oculogate.cli import (_BOUNDS, _DEFAULTS, build_parser, dump_json, main,
                           resolve_config)

GEN_CFG = {"n_patients": 90, "visits_min": 3, "visits_max": 5, "seed": 11}
TRAIN_CFG = {"max_epochs": 4, "seed": 5}
GATE_CFG = {"n_passes": 6, "seed": 23}


@pytest.fixture(scope="session")
def run_dir(tmp_path_factory):
    """One gen-data + train chain shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "gen.json").write_text(json.dumps(GEN_CFG))
    (root / "train.json").write_text(json.dumps(TRAIN_CFG))
    (root / "gate.json").write_text(json.dumps(GATE_CFG))
    assert main(["gen-data", "--config", str(root / "gen.json"),
                 "--out", str(root / "cohort")]) == 0
    assert main(["train", "--config", str(root / "train.json"),
                 "--cohort", str(root / "cohort"),
                 "--out", str(root / "model")]) == 0
    return root


def test_help_exits_zero(capsys):
    for cmd in ("gen-data", "train", "predict", "gate", "calibrate",
                "evaluate", "coverage", "warn", "report"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out.lower()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"foo": 1}))
    code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "foo" in capsys.readouterr().err


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "oculogate.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "oculogate" in proc.stdout


def test_train_emits_history_jsonl(run_dir):
    lines = (run_dir / "model" / "history.jsonl").read_text().strip().splitlines()
    assert len(lines) == TRAIN_CFG["max_epochs"]
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"epoch", "train_loss", "val_auc", "val_mae",
                            "grad_ratio"}


def test_gen_data_writes_config_echo_and_images(run_dir):
    cohort = run_dir / "cohort"
    assert (cohort / "cohort.csv").exists()
    assert (cohort / "gen-data-config.json").exists()
    echoed = json.loads((cohort / "gen-data-config.json").read_text())
    assert echoed["n_patients"] == 90
    assert echoed["prevalence"] == 0.35  # defaults get echoed too
    pgms = list((cohort / "images").glob("*.pgm"))
    assert len(pgms) > 0


def test_append_only_refuses_overwrite(run_dir, capsys):
    code = main(["gen-data", "--config", str(run_dir / "gen.json"),
                 "--out", str(run_dir / "cohort")])
    assert code == 2
    assert "exists" in capsys.readouterr().err
    # prior artifacts untouched
    assert (run_dir / "cohort" / "cohort.csv").exists()


def test_end_to_end_smoke(run_dir):
    out = run_dir / "eval"
    assert main(["evaluate", "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.5 < metrics["auc"] <= 1.0
    assert main(["report", str(out), str(run_dir / "model"),
                 "--out", str(run_dir / "final")]) == 0
    report = json.loads((run_dir / "final" / "report.json").read_text())
    assert report["metrics"]["auc"] == metrics["auc"]
    assert "train_report" in report


def test_gate_and_coverage_outputs(run_dir):
    gate_out = run_dir / "gate"
    assert main(["gate", "--config", str(run_dir / "gate.json"),
                 "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(gate_out)]) == 0
    summary = json.loads((gate_out / "gate-report.json").read_text())
    assert summary["n"] == summary["accepted"] + summary["rejected_blur"] \
        + summary["rejected_uncertain"]
    lines = (gate_out / "gate.jsonl").read_text().strip().splitlines()
    assert len(lines) == summary["n"]
    rec = json.loads(lines[0])
    assert set(rec) == {"sample_id", "lap_var", "mu", "u", "decision", "group"}

    cov_out = run_dir / "cov"
    assert main(["coverage", "--config", str(run_dir / "gate.json"),
                 "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(cov_out)]) == 0
    cov = json.loads((cov_out / "coverage.json").read_text())
    assert cov["points"][0][0] == 0.5 and cov["points"][-1][0] == 1.0
    csv_lines = (cov_out / "coverage.csv").read_text().splitlines()
    assert csv_lines[0] == "coverage,accuracy"
    assert len(csv_lines) == len(cov["points"]) + 1


@pytest.mark.parametrize("coverage_min, step, n_points, last", [
    (0.01, 0.05, 20, 0.96), (0.3, 0.1, 8, 1.0)])
def test_coverage_grid_stops_at_full_coverage(run_dir, tmp_path, coverage_min,
                                              step, n_points, last):
    cfg = tmp_path / "cov.json"
    cfg.write_text(json.dumps({**GATE_CFG, "coverage_min": coverage_min,
                               "coverage_step": step}))
    assert main(["coverage", "--config", str(cfg),
                 "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "coverage.csv").read_text().splitlines()[1:]
    points = [float(row.split(",")[0]) for row in rows]
    assert len(points) == n_points
    assert points[0] == coverage_min and points[-1] == last


def test_calibrate_output_shape(run_dir):
    out = run_dir / "cal"
    assert main(["calibrate", "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(out)]) == 0
    fairness = json.loads((out / "fairness.json").read_text())
    stages = {s["stage"]: s for s in fairness["stages"]}
    assert set(stages) == {"global", "calibrated"}
    assert stages["calibrated"]["gap"] <= stages["global"]["gap"] + 1e-12
    assert stages["global"]["auc"] == stages["calibrated"]["auc"]


def test_predict_csv(run_dir):
    out = run_dir / "pred"
    assert main(["predict", "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0].startswith("sample_id,group,label,p_final")
    assert len(lines) > 1
    cells = lines[1].split(",")
    p_final, p_vis, p_clin = float(cells[3]), float(cells[4]), float(cells[5])
    # CSV carries 9 significant digits; the exact identity is checked in-memory
    assert abs(p_final - (0.6 * p_vis + 0.4 * p_clin)) <= 5e-9


def test_byte_identical_reports(run_dir):
    args_template = ["evaluate", "--cohort", str(run_dir / "cohort"),
                     "--model", str(run_dir / "model")]
    assert main(args_template + ["--out", str(run_dir / "det1")]) == 0
    assert main(args_template + ["--out", str(run_dir / "det2")]) == 0
    a = (run_dir / "det1" / "metrics.json").read_bytes()
    b = (run_dir / "det2" / "metrics.json").read_bytes()
    assert a == b


def test_ablation_flags(run_dir):
    for i, flag in enumerate(["--no-clinical", "--no-tta", "--no-mc-dropout"]):
        out = run_dir / f"abl{i}"
        assert main(["evaluate", "--config", str(run_dir / "gate.json"),
                     "--cohort", str(run_dir / "cohort"),
                     "--model", str(run_dir / "model"),
                     "--out", str(out), flag]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        abl = metrics["ablation"]
        assert set(abl) >= {"auc", "sensitivity", "specificity", "fnr_gap",
                            "top_fraction"}
        assert abl["top_fraction"] == 0.3


def test_no_mc_dropout_identity_tta_accepts_all(run_dir):
    out = run_dir / "accept_all"
    assert main(["gate", "--config", str(run_dir / "gate.json"),
                 "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(out),
                 "--no-mc-dropout", "--no-tta"]) == 0
    summary = json.loads((out / "gate-report.json").read_text())
    assert summary["rejected_uncertain"] == 0
    assert summary["accepted"] + summary["rejected_blur"] == summary["n"]
    for line in (out / "gate.jsonl").read_text().strip().splitlines():
        rec = json.loads(line)
        if rec["decision"] != "reject_blur":
            assert rec["u"] == 0.0 and rec["decision"] == "accept"


def _predict_with_broken_model(run_dir, tmp_path, capsys, corrupt):
    """Run predict against a copy of the trained model dir that `corrupt`
    has damaged; returns (exit code, stderr lines)."""
    model = tmp_path / "model"
    shutil.copytree(run_dir / "model", model)
    corrupt(model)
    code = main(["predict", "--cohort", str(run_dir / "cohort"),
                 "--model", str(model), "--out", str(tmp_path / "pred")])
    return code, capsys.readouterr().err.strip().splitlines()


def test_truncated_params_bin_exits_one(run_dir, tmp_path, capsys):
    def truncate(model):
        path = model / "checkpoint" / "params.bin"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, truncate)
    assert code == 1
    assert len(err) == 1 and "params.bin" in err[0]


@pytest.mark.parametrize("command", ["predict", "evaluate", "gate"])
def test_non_finite_params_bin_exits_one(run_dir, tmp_path, capsys, command):
    """A NaN in dcce.b0.l0.W and +inf as the last value of params.bin: one
    stderr line naming the first such parameter, exit 1, no output dir."""
    model = tmp_path / "model"
    shutil.copytree(run_dir / "model", model)
    path = model / "checkpoint" / "params.bin"
    values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    values[5], values[-1] = np.nan, np.inf
    path.write_bytes(values.tobytes())
    code = main([command, "--cohort", str(run_dir / "cohort"), "--model", str(model),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and "'dcce.b0.l0.W'" in err[0], err
    assert not (tmp_path / "out").exists()


def _cohort_without_md(run_dir, tmp_path):
    """A copy of the CLI cohort with the md_db cell of every patient's
    visit 1 left blank."""
    cohort = tmp_path / "cohort"
    shutil.copytree(run_dir / "cohort", cohort)
    lines = (cohort / "cohort.csv").read_text().splitlines()
    header = lines[0].split(",")
    md, visit = header.index("md_db"), header.index("visit_index")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[visit] == "1":
            cells[md] = ""
            lines[i] = ",".join(cells)
    (cohort / "cohort.csv").write_text("\n".join(lines) + "\n")
    return cohort


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_train_on_blank_md_cells(run_dir, tmp_path):
    """Missing MD targets add nothing to the progression loss, so training
    runs and its history holds a finite validation MAE."""
    cohort = _cohort_without_md(run_dir, tmp_path)
    (tmp_path / "train.json").write_text(json.dumps({"max_epochs": 1, "seed": 5}))
    assert main(["train", "--config", str(tmp_path / "train.json"),
                 "--cohort", str(cohort), "--out", str(tmp_path / "model")]) == 0
    rec = _strict_json((tmp_path / "model" / "history.jsonl").read_text())
    assert np.isfinite(rec["val_mae"])


def test_evaluate_on_blank_md_cells(run_dir, tmp_path):
    """md_mae averages over the visits with an MD, so metrics.json stays
    valid JSON."""
    cohort = _cohort_without_md(run_dir, tmp_path)
    assert main(["evaluate", "--cohort", str(cohort), "--model", str(run_dir / "model"),
                 "--out", str(tmp_path / "eval")]) == 0
    metrics = _strict_json((tmp_path / "eval" / "metrics.json").read_text())
    assert np.isfinite(metrics["md_mae"])


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
@pytest.mark.parametrize("header", ["visit_time_years", "age", "rnflt_um",
                                    "iop_mmhg", "cdr", "md_db"])
def test_train_on_a_non_finite_cell_exits_one(run_dir, tmp_path, capsys, header,
                                              cell):
    """A non-finite number in any float column of cohort.csv is refused by
    line and column before training: exit 1, one line, no output."""
    lines = (run_dir / "cohort" / "cohort.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[lines[0].split(",").index(header)] = cell
    lines[5] = ",".join(cells)
    (tmp_path / "cohort").mkdir()
    (tmp_path / "cohort" / "cohort.csv").write_text("\n".join(lines) + "\n")
    code = main(["train", "--cohort", str(tmp_path / "cohort"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and f"line 6: bad value for {header}: {cell!r}" in err[0], err
    assert not (tmp_path / "out").exists()


def test_manifest_shape_mismatch_exits_one(run_dir, tmp_path, capsys):
    def reshape_bias(model):
        path = model / "checkpoint" / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["params"]:
            if entry["name"] == "vis_head.b":
                entry["shape"] = [1, 1]  # same size, so the bytes still fit
        path.write_text(json.dumps(manifest))

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, reshape_bias)
    assert code == 1
    assert len(err) == 1 and "vis_head.b" in err[0]


@pytest.mark.parametrize("command", ["gate", "predict"])
def test_test_pgm_of_another_shape_exits_one(run_dir, tmp_path, capsys, command):
    """One 32x32 test PGM among 64x64 ones: one stderr line naming the PGM
    and both shapes, exit 1, no traceback."""
    from oculogate.data import load_cohort_csv, read_json_object, write_image_pgm
    from oculogate.train import SplitResult

    cohort = tmp_path / "cohort"
    shutil.copytree(run_dir / "cohort", cohort)
    table = load_cohort_csv(cohort / "cohort.csv")
    test = SplitResult.of(table, read_json_object(
        run_dir / "model" / "splits.json")).test
    small = test.image_path[len(test) // 2]
    write_image_pgm(np.full((32, 32), 0.5), small)
    code = main([command, "--cohort", str(cohort), "--model", str(run_dir / "model"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{small}: raster is 32x32, but the first raster read is 64x64" in err[0]


@pytest.mark.parametrize("size", ["-64 -64", "0 0"])
def test_test_pgm_of_no_size_exits_one(run_dir, tmp_path, capsys, size):
    """The first test PGM with a header size that is not positive: one
    stderr line naming that PGM, exit 1, no output directory."""
    from oculogate.data import load_cohort_csv, read_json_object
    from oculogate.train import SplitResult

    cohort = tmp_path / "cohort"
    shutil.copytree(run_dir / "cohort", cohort)
    table = load_cohort_csv(cohort / "cohort.csv")
    bad = SplitResult.of(table, read_json_object(
        run_dir / "model" / "splits.json")).test.image_path[0]
    with open(bad, "wb") as f:
        f.write(f"P5\n{size}\n255\n".encode() + b"\x00" * 4096)
    out = tmp_path / "out"
    code = main(["predict", "--cohort", str(cohort), "--model", str(run_dir / "model"),
                 "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{bad}: PGM size {size.replace(' ', 'x')} is not positive" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("kind,name", [("continuous", "cdr"),
                                       ("categorical", "sex")])
def test_preprocess_lacking_a_feature_exits_one(run_dir, tmp_path, capsys,
                                                kind, name):
    def drop_feature(model):
        path = model / "preprocess.json"
        stats = json.loads(path.read_text())
        del stats[kind][name]
        path.write_text(json.dumps(stats))

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, drop_feature)
    assert code == 1
    assert len(err) == 1 and name in err[0]


@pytest.mark.parametrize("path", [("dropped",), ("continuous",), ("categorical",),
                                  ("continuous", "cdr", "global_mean")],
                         ids=lambda p: "-".join(p))
def test_preprocess_lacking_a_key_exits_one(run_dir, tmp_path, capsys, path):
    def drop_key(model):
        file = model / "preprocess.json"
        stats = json.loads(file.read_text())
        node = stats
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        file.write_text(json.dumps(stats))

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, drop_key)
    assert code == 1
    assert len(err) == 1 and path[-1] in err[0]


@pytest.mark.parametrize("block,edit", [("dcce", {"depth": 3}),
                                        ("visual", {"proj_dim": None}),
                                        ("fusion", {"alpha_vis": None})],
                         ids=["dcce-unknown", "visual-missing", "fusion-missing"])
def test_manifest_config_block_keys_exit_one(run_dir, tmp_path, capsys, block,
                                             edit):
    def edit_block(model):
        file = model / "checkpoint" / "manifest.json"
        manifest = json.loads(file.read_text())
        for key, value in edit.items():
            if value is None:
                del manifest[block][key]
            else:
                manifest[block][key] = value
        file.write_text(json.dumps(manifest))

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, edit_block)
    assert code == 1
    assert len(err) == 1 and block in err[0] and next(iter(edit)) in err[0]


@pytest.mark.parametrize("block,value,kind", [("dcce", 5, "int"), ("visual", [1], "list"),
                                              ("fusion", "x", "str")],
                         ids=["dcce-number", "visual-array", "fusion-string"])
def test_manifest_config_block_not_an_object_exits_one(run_dir, tmp_path, capsys,
                                                       block, value, kind):
    """A manifest config block that is not an object is refused by name and
    JSON type, where it ended in a raw TypeError or a list of "unknown keys"."""
    def replace_block(model):
        file = model / "checkpoint" / "manifest.json"
        manifest = json.loads(file.read_text())
        manifest[block] = value
        file.write_text(json.dumps(manifest))

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, replace_block)
    assert code == 1
    assert err == [f"error: manifest block '{block}' must be an object, got {kind}"], err


@pytest.mark.parametrize("block,key,value", [
    ("dcce", "growth_k", -3), ("visual", "patch_grid", 0), ("fusion", "alpha_vis", "a"),
    ("dcce", "dropout_p", 1.0), ("dcce", "n_blocks", 2.0), ("visual", "proj_seed", True),
    ("fusion", "alpha_vis", 0.9),
], ids=["growth_k-negative", "patch_grid-zero", "alpha_vis-string", "dropout_p-one",
        "n_blocks-float", "proj_seed-bool", "fusion-sum"])
def test_manifest_config_block_values_exit_one(run_dir, tmp_path, capsys, block,
                                               key, value):
    """A manifest config value of the wrong JSON type or outside the bound
    the CLI enforces at train (or fusion weights that do not sum to 1) is
    refused by name, where it used to die in a reshape, a modulo by zero or
    a float conversion."""
    def edit_value(model):
        file = model / "checkpoint" / "manifest.json"
        manifest = json.loads(file.read_text())
        manifest[block][key] = value
        file.write_text(json.dumps(manifest))

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, edit_value)
    assert code == 1
    assert len(err) == 1 and f"'{block}'" in err[0] and key in err[0] \
        and json.dumps(value) in err[0], err


@pytest.mark.parametrize("path,value", [
    (("continuous", "age", "global_mean"), "x"),
    (("continuous", "age", "global_std"), None),
    (("continuous", "age", "global_std"), 0),
    (("continuous", "iop_mmhg", "group_means", "Black"), float("nan")),
    (("categorical", "sex"), [0, 1]),
    (("dropped",), "cdr"),
], ids=["mean-string", "std-null", "std-zero", "group-mean-nan", "vocab-numbers",
        "dropped-string"])
def test_preprocess_value_of_the_wrong_type_exits_one(run_dir, tmp_path, capsys,
                                                      path, value):
    """A preprocess.json statistic that is not a finite number (or a zero
    standard deviation, which made predict write NaN scores and exit 0) or
    a name list that is not a list of strings is refused by name, where it
    used to end in numpy's _UFuncNoLoopError traceback."""
    def set_value(model):
        file = model / "preprocess.json"
        stats = json.loads(file.read_text())
        node = stats
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        file.write_text(json.dumps(stats))

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, set_value)
    assert code == 1
    assert len(err) == 1 and path[-1] in err[0] and json.dumps(value) in err[0], err


@pytest.mark.parametrize("value", [3, "Test", None, ["test"]],
                         ids=["int", "capitalised", "null", "list"])
def test_splits_value_outside_the_split_names_exits_one(run_dir, tmp_path, capsys,
                                                        value):
    """A splits.json value other than "train", "val" or "test" is refused by
    patient id and value; it used to drop the patient from every split, so
    predict wrote fewer rows and exited 0."""
    def set_split(model):
        file = model / "splits.json"
        assignment = json.loads(file.read_text())
        for pid in [p for p, name in sorted(assignment.items()) if name == "test"][:4]:
            assignment[pid] = value
        file.write_text(json.dumps(assignment))

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, set_split)
    assignment = json.loads((tmp_path / "model" / "splits.json").read_text())
    pid = next(p for p, name in assignment.items() if name == value)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ") and f"'{pid}'" in err[0] \
        and json.dumps(value) in err[0], err
    assert not (tmp_path / "pred").exists()


def test_splits_without_a_patient_leaves_it_out_of_every_split(run_dir, tmp_path,
                                                              capsys):
    """A patient splits.json does not name belongs to no split, so predict
    scores the test split without that patient's visits."""
    from oculogate.data import load_cohort_csv
    from oculogate.train import SplitResult

    full = (run_dir / "model" / "splits.json").read_text()
    dropped = [p for p, name in sorted(json.loads(full).items()) if name == "test"][:4]

    def drop_patients(model):
        assignment = json.loads(full)
        for pid in dropped:
            del assignment[pid]
        (model / "splits.json").write_text(json.dumps(assignment))

    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, drop_patients)
    assert code == 0 and err == []
    rows = (tmp_path / "pred" / "predictions.csv").read_text().splitlines()[1:]
    test = SplitResult.of(load_cohort_csv(run_dir / "cohort" / "cohort.csv"),
                          json.loads(full)).test
    kept = [sid for sid, pid in zip(test.sample_ids(), test.patient_id)
            if pid not in dropped]
    assert len(kept) < len(test)
    assert [row.split(",")[0] for row in rows] == kept


@pytest.mark.parametrize("split", ["bogus", "assignment"])
@pytest.mark.parametrize("command", ["predict", "gate", "calibrate", "evaluate",
                                     "coverage"])
def test_unknown_split_exits_two_before_any_work(run_dir, tmp_path, capsys,
                                                 command, split):
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({"split": split}))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and f"'{split}'" in err[0]
    assert not out.exists()


def test_rerun_train_is_refused_before_training(run_dir, capsys, monkeypatch):
    def must_not_train(*args, **kwargs):
        raise AssertionError("training ran before the write-once check")

    monkeypatch.setattr("oculogate.cli.run_training_pipeline", must_not_train)
    code = main(["train", "--config", str(run_dir / "train.json"),
                 "--cohort", str(run_dir / "cohort"),
                 "--out", str(run_dir / "model")])
    assert code == 2
    assert "train-config.json" in capsys.readouterr().err


def test_zero_seed_and_coverage_flag_reach_the_config(run_dir):
    out = run_dir / "cov-flags"
    assert main(["coverage", "--config", str(run_dir / "gate.json"),
                 "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(out),
                 "--seed", "0", "--coverage-min", "0.7"]) == 0
    echoed = json.loads((out / "coverage-config.json").read_text())
    assert echoed["seed"] == 0 and echoed["coverage_min"] == 0.7
    assert echoed["n_passes"] == GATE_CFG["n_passes"]
    assert echoed["no_tta"] is False  # an absent flag leaves the config alone
    cov = json.loads((out / "coverage.json").read_text())
    assert cov["points"][0][0] == 0.7


def _truncate(relpath):
    def corrupt(model):
        path = model / relpath
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
    return corrupt


def _edit_json(relpath, edit):
    def corrupt(model):
        path = model / relpath
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return corrupt


def _drop_first_shape(manifest):
    del manifest["params"][0]["shape"]
    return manifest


@pytest.mark.parametrize("corrupt,named", [
    (_truncate("checkpoint/manifest.json"), "manifest.json"),
    (_truncate("preprocess.json"), "preprocess.json"),
    (_truncate("splits.json"), "splits.json"),
    (_edit_json("checkpoint/manifest.json",
                lambda m: {k: v for k, v in m.items() if k != "params"}), "params"),
    (_edit_json("checkpoint/manifest.json", _drop_first_shape), "shape"),
    (_edit_json("splits.json", sorted), "splits.json"),
    (_edit_json("checkpoint/manifest.json", lambda m: [m]), "manifest.json"),
    (lambda model: (model / "preprocess.json").write_bytes(b"\xff\xfe{}"),
     "preprocess.json"),
], ids=["manifest-truncated", "preprocess-truncated", "splits-truncated",
        "manifest-no-params", "param-no-shape", "splits-list", "manifest-list",
        "preprocess-not-utf8"])
def test_malformed_model_file_exits_one(run_dir, tmp_path, capsys, corrupt, named):
    code, err = _predict_with_broken_model(run_dir, tmp_path, capsys, corrupt)
    assert code == 1
    assert len(err) == 1 and named in err[0]


def _set_params(value):
    def edit(manifest):
        manifest["params"] = value
        return manifest
    return edit


def _set_first_shape(value):
    def edit(manifest):
        manifest["params"][0]["shape"] = value
        return manifest
    return edit


@pytest.mark.parametrize("edit,named", [
    (_set_params(5), "params"),
    (_set_params(["dcce.b0.l0.W"]), "params"),
    (_set_params({"name": "dcce.b0.l0.W"}), "params"),
    (_set_first_shape(5), "shape"),
    (_set_first_shape(None), "shape"),
], ids=["params-int", "params-list-of-strings", "params-object",
        "shape-int", "shape-null"])
def test_malformed_manifest_types_exit_one(run_dir, tmp_path, capsys, edit, named):
    """A manifest whose params is not a list of objects, or whose shape is
    not a list, ends in a one-line exit 1, not a TypeError traceback."""
    code, err = _predict_with_broken_model(
        run_dir, tmp_path, capsys, _edit_json("checkpoint/manifest.json", edit))
    assert code == 1
    assert len(err) == 1 and named in err[0]


def _refuse_reads(monkeypatch):
    def must_not_read(*args, **kwargs):
        raise AssertionError("an input was read before the config was checked")

    for name in ("load_checkpoint", "load_cohort_csv"):
        monkeypatch.setattr(f"oculogate.cli.{name}", must_not_read)


def _run_with_config(run_dir, tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command != "gen-data":
        argv += ["--cohort", str(run_dir / "cohort")]
    if command not in ("gen-data", "train"):
        argv += ["--model", str(run_dir / "model")]
    return main(argv)


@pytest.mark.parametrize("command,cfg", [
    # a value of another JSON type than its default's
    ("gate", {"n_passes": "15"}),
    ("gate", {"n_passes": 15.0}),
    ("calibrate", {"threshold": None}),
    ("coverage", {"no_tta": 1}),
    ("train", {"lr": True}),
    ("gen-data", {"n_patients": True}),
    ("gen-data", {"group_mix": {"Asian": "1"}}),
    ("gen-data", {"group_shift": [0.5]}),
    ("warn", {"seed": "0"}),
    # a value out of its key's bounds
    ("coverage", {"coverage_step": 0}),
    ("coverage", {"coverage_step": -0.05}),
    ("coverage", {"coverage_min": 1.5}),
    ("coverage", {"coverage_min": 0.0}),
    ("coverage", {"coverage_step": 1e-12}),
    ("coverage", {"coverage_step": 5e-324}),
    ("coverage", {"coverage_step": 4.9995e-05, "coverage_min": 0.5}),
    ("warn", {"n_triples": 0}),
    ("train", {"patch_grid": 0}),
    ("train", {"proj_dim": -1}),
    ("train", {"n_blocks": -1}),
    ("train", {"layers_per_block": -1}),
    ("train", {"growth_k": -1}),
    ("train", {"dropout_p": 1.0}),
    ("train", {"dropout_p": -0.5}),
    ("train", {"lr": 0.0}),
    ("train", {"lr": -0.5, "wd": 4.0}),
    ("train", {"wd": -1e-4}),
    ("train", {"lr": 0.5, "wd": 2.0}),
    ("gate", {"dropout_p": float("nan")}),
    ("evaluate", {"top_fraction": float("nan"), "ablation_table": True}),
    ("evaluate", {"top_fraction": 0.0, "ablation_table": True}),
    ("evaluate", {"top_fraction": 1.5, "ablation_table": True}),
    # JSON's NaN and Infinity literals, also where the key has no bound
    ("train", {"alpha_vis": float("nan")}),
    ("train", {"lr": float("inf")}),
    ("calibrate", {"threshold": float("inf")}),
    ("gate", {"tau_blur": float("nan")}),
    ("gen-data", {"group_shift": {"Asian": float("-inf")}}),
    # a bound of GateConfig's, TrainConfig's or the cohort's table, also on
    # the stages that used to check it only after reading the model
    ("gate", {"n_passes": 1}),
    ("gate", {"tau_blur": 0}),
    ("evaluate", {"n_passes": 1}),
    ("evaluate", {"tau_blur": 0}),
    ("coverage", {"n_passes": 1}),
    ("coverage", {"tau_blur": 0}),
    ("warn", {"n_visits": 3}),
    ("train", {"batch_size": 0}),
    ("train", {"patience": 0}),
    ("train", {"lambda_weight": -1}),
    ("gen-data", {"n_patients": 0}),
    ("gen-data", {"prevalence": 1.5}),
    ("gen-data", {"label_noise": 0.5}),
], ids=["str-for-int", "float-for-int", "null-for-float", "int-for-bool",
        "bool-for-float", "bool-for-int", "str-in-dict", "list-for-dict",
        "str-seed", "coverage-step-zero", "coverage-step-negative",
        "coverage-min-above-one", "coverage-min-zero",
        "coverage-grid-too-fine", "coverage-step-subnormal",
        "coverage-grid-one-point-past-the-bound", "warn-no-triples",
        "train-patch-grid-zero", "train-proj-dim-negative",
        "train-n-blocks-negative", "train-layers-per-block-negative",
        "train-growth-k-negative", "train-dropout-one", "train-dropout-negative",
        "train-lr-zero", "train-lr-negative", "train-wd-negative",
        "train-decay-factor-zero",
        "gate-dropout-nan", "top-fraction-nan", "top-fraction-zero",
        "top-fraction-above-one", "alpha-vis-nan", "lr-infinity",
        "threshold-infinity", "tau-blur-nan", "negative-infinity-in-dict",
        "gate-one-pass", "gate-tau-blur-zero", "evaluate-one-pass",
        "evaluate-tau-blur-zero", "coverage-one-pass", "coverage-tau-blur-zero",
        "warn-three-visits", "train-batch-size-zero", "train-patience-zero",
        "train-lambda-negative", "gen-data-no-patients", "gen-data-prevalence-above-one",
        "gen-data-label-noise-half"])
def test_refused_config_value_exits_two_before_any_read(
        run_dir, tmp_path, capsys, monkeypatch, command, cfg):
    _refuse_reads(monkeypatch)
    code = _run_with_config(run_dir, tmp_path, command, cfg)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and f"'{next(iter(cfg))}'" in err[0]
    assert not (tmp_path / "out").exists()


# number-valued config keys that take any finite value: seeds, the cohort's
# risk-logit effects, the gate's referral cost, the decision threshold and
# calibrate's accuracy tolerance (a negative one leaves no feasible solution)
_UNBOUNDED = ("seed", "proj_seed", "age_effect", "group_shift", "gamma",
              "threshold", "acc_tolerance")


def test_every_number_valued_key_is_bounded_or_named_unbounded():
    """A new number-valued key lands in a config's bounds table or, on
    purpose, in _UNBOUNDED: never unbounded by accident."""
    for stage, defaults in _DEFAULTS.items():
        for key, value in defaults.items():
            values = value.values() if isinstance(value, dict) else [value]
            if all(type(v) in (int, float) for v in values):
                assert (key in _BOUNDS) != (key in _UNBOUNDED), (stage, key)


@pytest.mark.parametrize("stage,key", [(stage, key) for stage in _DEFAULTS
                                       for key in _DEFAULTS[stage] if key in _BOUNDS])
def test_every_bounded_key_is_refused_before_any_read(tmp_path, capsys, monkeypatch,
                                                      stage, key):
    """-1, or -1 for each value of a dict, lies outside every key's bound:
    exit 2 and one line quoting the key, before any file is read."""
    assert not _BOUNDS[key][0](-1)
    _refuse_reads(monkeypatch)
    default = _DEFAULTS[stage][key]
    value = dict.fromkeys(default, -1.0) if isinstance(default, dict) else \
        type(default)(-1)
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    inputs = {"gen-data": [], "train": ["--cohort", str(tmp_path / "cohort")]}.get(
        stage, ["--cohort", str(tmp_path / "cohort"), "--model", str(tmp_path / "model")])
    code = main([stage, "--config", str(tmp_path / "cfg.json"), *inputs,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and f"'{key}'" in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg", [
    {"group_mix": {"Asian": 1.5, "Black": -0.5, "White": 0.0}},
    {"age_effect": float("nan")},
    {"group_mix": {"Asian": float("nan"), "Black": 0.5, "White": 0.5}},
], ids=["negative-mix", "nan-age-effect", "nan-mix"])
def test_gen_data_refuses_a_cohort_spec_it_cannot_draw(tmp_path, capsys, cfg):
    """JSON's NaN literal and a negative fraction that keeps the sum at 1
    pass the type check; the config (NaN) or the cohort spec (the negative
    fraction) refuses them by name, with exit 2 and one line, before
    cohort.csv is written."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and f"'{next(iter(cfg))}'" in err[0]
    assert not (tmp_path / "out" / "cohort.csv").exists()


def test_coverage_with_every_visit_blurred_exits_one(run_dir, tmp_path, capsys):
    """No visit passes the firewall, so there is no curve to draw: one line
    and exit 1, not an IndexError traceback."""
    code = _run_with_config(run_dir, tmp_path, "coverage", {"tau_blur": 1e12})
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and "at least one sample" in err[0]
    assert not (tmp_path / "out").exists()


def test_gate_with_every_validation_visit_blurred_exits_two(run_dir, tmp_path,
                                                           capsys):
    """A firewall that rejects every validation visit leaves no U to
    calibrate tau_unc on: one line that names tau_blur and counts the
    rejected visits, exit 2, and no output directory."""
    code = _run_with_config(run_dir, tmp_path, "gate",
                            {"n_passes": 3, "tau_blur": 1e300})
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and "tau_blur" in err[0], err
    rejected = re.search(r"rejects all (\d+) validation visits", err[0])
    assert rejected and int(rejected.group(1)) > 0, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("step, last", [(5e-05, "1,"), (4.9999e-05, "0.99999,")],
                         ids=["ends-at-one", "ends-below-one"])
def test_coverage_grid_at_the_point_bound_is_drawn(run_dir, tmp_path, step, last):
    """From coverage_min 0.5, a step of 5e-05 (quotient 10,000) and one of
    4.9999e-05 (quotient 10,000.2) both ask for exactly the bound's 10,001
    points, which the stage draws, one CSV row each; 4.9995e-05 (quotient
    10,001.0, 10,002 points) is refused above."""
    code = _run_with_config(run_dir, tmp_path, "coverage",
                            {"coverage_min": 0.5, "coverage_step": step})
    assert code == 0
    rows = (tmp_path / "out" / "coverage.csv").read_text().splitlines()
    assert len(rows) == 1 + 10_001 and rows[-1].startswith(last)


# sha256 of each stage's default resolved config as the stage echoes it: a
# changed default of a config dataclass shows here as a CLI contract change
DEFAULT_CONFIG_SHA256 = {
    "gen-data": "8e521e885fa8a61510bb84f67947451f0a9a4b854ea6316c62ffb2f1732216ed",
    "train": "16292efdfc1195f1291803fa334e6c60794375245bfdcd91f12f9ecb9e39a740",
    "predict": "bce0a33ccd509652768337dd07f17b91eeda5e030129ceaf7359eafdcde02b06",
    "gate": "c742404a58a5b4562513b70b709985da133004f0422fe59ee914bd7d6ce8b554",
    "calibrate": "c6e5ef4db0a8807a5380b15a920e2c51185bdd069ea2f513ef92960aedd37f57",
    "evaluate": "084c3588d3dc0eb90322958f38dc6e09febf11c61e7e40507ba65cea29d861b4",
    "coverage": "ed6c31fa6418e4755156a650f1a336ee0124dc33e64a12e6296d458a845d3bd6",
    "warn": "85c54e8a19d0f8aa313e4a13ec9150e3ffd7893b6fdcfbacca56c760db12bc6b",
    "report": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
}


@pytest.mark.parametrize("stage", list(DEFAULT_CONFIG_SHA256))
def test_default_config_bytes_are_pinned(stage):
    required = {"gen-data": ["--out", "o"], "train": ["--cohort", "c", "--out", "o"],
                "report": ["i", "--out", "o"]}
    argv = [stage, *required.get(stage, ["--cohort", "c", "--model", "m", "--out", "o"])]
    resolved = resolve_config(stage, build_parser().parse_args(argv))
    assert hashlib.sha256(dump_json(resolved).encode()).hexdigest() == \
        DEFAULT_CONFIG_SHA256[stage]


def test_int_config_value_stands_for_a_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": 1, "acc_tolerance": 0}))
    args = build_parser().parse_args(["calibrate", "--config", str(cfg),
                                      "--cohort", "c", "--model", "m", "--out", "o"])
    resolved = resolve_config("calibrate", args)
    assert resolved["threshold"] == 1 and resolved["acc_tolerance"] == 0


def test_warn_reads_only_the_model_directory(run_dir, tmp_path):
    """warn simulates its trajectories: the cohort is never opened, so a
    --cohort without cohort.csv gives the same warnings.json."""
    cfg = tmp_path / "warn.json"
    cfg.write_text(json.dumps({"n_triples": 2}))
    outs = {}
    for name, cohort in (("real", run_dir / "cohort"), ("empty", tmp_path)):
        outs[name] = tmp_path / f"warn-{name}"
        assert main(["warn", "--config", str(cfg), "--cohort", str(cohort),
                     "--model", str(run_dir / "model"),
                     "--out", str(outs[name])]) == 0
    assert (outs["real"] / "warnings.json").read_bytes() == \
        (outs["empty"] / "warnings.json").read_bytes()


@pytest.mark.parametrize("config", ["cfgdir", "missing.json"])
def test_unreadable_config_exits_two_naming_it(tmp_path, capsys, config):
    (tmp_path / "cfgdir").mkdir()
    out = tmp_path / "out"
    code = main(["gen-data", "--config", str(tmp_path / config), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("config error: ") \
        and str(tmp_path / config) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("missing", ["nonexistent", "gen.json"])
def test_report_refuses_an_input_that_is_not_a_directory(run_dir, tmp_path, capsys,
                                                         missing):
    out = tmp_path / "rep"
    code = main(["report", str(run_dir / "model"), str(run_dir / missing),
                 "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and str(run_dir / missing) in err[0], err
    assert not out.exists()


def test_report_refuses_a_piece_found_in_two_inputs(run_dir, tmp_path, capsys):
    evaluate = tmp_path / "ev"
    assert main(["evaluate", "--cohort", str(run_dir / "cohort"),
                 "--model", str(run_dir / "model"), "--out", str(evaluate)]) == 0
    again = tmp_path / "ev-copy"
    shutil.copytree(evaluate, again)
    capsys.readouterr()
    for inputs in ((evaluate, evaluate), (evaluate, run_dir / "model", again)):
        out = tmp_path / "rep"
        code = main(["report", *map(str, inputs), "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and "metrics.json" in err[0] \
            and f"{inputs[0]} and {inputs[-1]}" in err[0], err
        assert not out.exists()
