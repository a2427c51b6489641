import concurrent.futures
import csv
import importlib
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import irissr
from irissr import (cli, dataset, eigenpatch, fusion_eval, iriscode, raster,
                    siftmatch, sr)
from irissr.errors import BackendError, InputError


def run(argv):
    return cli.main(argv)


def write_config(path, **extra):
    cfg = {
        "factors": {"1/4": [57, 57], "1/16": [15, 15]},
        "seeds": 3,
        "sessions": 2,
        "train_subjects": 1,
        "backends": {"nn2x": {
            "command": f"{sys.executable} -m irissr.refbackend {{in}} {{out}}"}},
    }
    cfg.update(extra)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run shared by the assertion tests below."""
    root = tmp_path_factory.mktemp("pipe")
    out = str(root / "out")
    cfg = write_config(root / "cfg.json")
    base = ["--config", cfg, "--out", out]
    assert run(["synth", *base]) == 0
    assert run(["prep", *base]) == 0
    assert run(["degrade", *base, "--factor", "1/4"]) == 0
    assert run(["sr", *base, "--factor", "1/4", "--method", "bicubic"]) == 0
    assert run(["quality", *base, "--factor", "1/4", "--method", "bicubic"]) == 0
    assert run(["match", *base, "--factor", "1/4", "--method", "bicubic"]) == 0
    assert run(["eval", *base]) == 0
    return out, cfg


@pytest.fixture
def own_pipeline(pipeline, tmp_path):
    """A private copy of the shared run, for tests that rerun stages with
    another config."""
    out, cfg = pipeline
    shutil.copytree(out, tmp_path / "out")
    return str(tmp_path / "out"), cfg


def test_pipeline_artifacts_exist(pipeline):
    out, _ = pipeline
    assert os.path.exists(os.path.join(out, "synth", "manifest.csv"))
    assert os.path.exists(os.path.join(out, "prep", "manifest.csv"))
    assert os.path.exists(os.path.join(out, "prep", "discarded.csv"))
    quality_csv = os.path.join(out, "quality", "quality.csv")
    with open(quality_csv) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "method,factor,region,psnr,ssim,fsim"
    assert len(lines) == 3  # full + iris rows for (bicubic, 1/4)
    eer_csv = os.path.join(out, "eval", "eer.csv")
    with open(eer_csv) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "method,factor,comparator,eer"
    assert len(lines) == 4  # LG, SIFT, FUSED
    summary = json.load(open(os.path.join(out, "eval", "run_summary.json")))
    assert "config_hash" in summary and "versions" in summary
    # importing the command line pinned it, unless this process's caller set it
    assert summary["versions"]["OPENBLAS_NUM_THREADS"] == \
        os.environ["OPENBLAS_NUM_THREADS"]
    assert summary["stage_timings"]


def test_score_csv_shape(pipeline):
    out, _ = pipeline
    lg = os.path.join(out, "scores", "bicubic", "1_4", "lg.csv")
    with open(lg) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert header == "probe,gallery,score,comparator"
    assert first[3] == "LG"
    assert 0.0 <= float(first[2]) <= 1.0


def test_sr_restores_full_size_for_1_16(pipeline):
    out, cfg = pipeline
    base = ["--config", cfg, "--out", out]
    assert run(["degrade", *base, "--factor", "1/16"]) == 0
    assert run(["sr", *base, "--factor", "1/16", "--method", "bicubic"]) == 0
    img_dir = os.path.join(out, "sr", "bicubic", "1_16", "images")
    names = sorted(os.listdir(img_dir))
    assert names
    img = raster.read_pgm(os.path.join(img_dir, names[0]))
    assert img.shape == (231, 231)
    lr = raster.read_pgm(os.path.join(out, "lr", "1_16", "lr", names[0]))
    assert lr.shape == (15, 15)


def test_rerun_is_bit_identical(pipeline):
    out, cfg = pipeline
    base = ["--config", cfg, "--out", out]
    sr_img = os.path.join(out, "sr", "bicubic", "1_4", "images")
    before = {n: open(os.path.join(sr_img, n), "rb").read()
              for n in os.listdir(sr_img)}
    assert run(["sr", *base, "--factor", "1/4", "--method", "bicubic"]) == 0
    after = {n: open(os.path.join(sr_img, n), "rb").read()
             for n in os.listdir(sr_img)}
    assert before == after


def test_backend_method_roundtrip(pipeline):
    out, cfg = pipeline
    base = ["--config", cfg, "--out", out]
    assert run(["sr", *base, "--factor", "1/4", "--method", "backend:nn2x"]) == 0
    img_dir = os.path.join(out, "sr", "backend-nn2x", "1_4", "images")
    img = raster.read_pgm(os.path.join(img_dir, sorted(os.listdir(img_dir))[0]))
    assert img.shape == (231, 231)


def test_backend_call_times_left_out_of_lineage(own_pipeline):
    out, cfg = own_pipeline
    base = ["--config", cfg, "--out", out, "--factor", "1/16"]
    assert run(["degrade", *base]) == 0
    names = sorted(os.listdir(os.path.join(out, "lr", "1_16", "lr")))
    metas = []
    for jobs in ("1", "2"):
        assert run(["sr", *base, "--method", "backend:nn2x", "--jobs", jobs]) == 0
        metas.append(cli._read_json(
            os.path.join(out, "sr", "backend-nn2x", "1_16", "stage_sr.json")))
    for meta in metas:
        # 15x15 -> 231x231 takes 4 x2 passes per image
        calls = meta["extra"]["backend_call_s"]
        assert sorted(calls) == names
        assert all(len(times) == 4 and all(sec > 0 for sec in times)
                   for times in calls.values())
    assert cli.fingerprint(metas[0]) == cli.fingerprint(metas[1])


def sr_images(out, method="eigenpatch"):
    """The bytes of each image of the 1/4 SR set of `method`, by name."""
    img_dir = os.path.join(out, "sr", method, "1_4", "images")
    return {name: open(os.path.join(img_dir, name), "rb").read()
            for name in os.listdir(img_dir)}


def sr_meta(out, method="eigenpatch"):
    return cli._read_json(os.path.join(out, "sr", method, "1_4", "stage_sr.json"))


def test_eigenpatch_sr_trains_in_memory(own_pipeline):
    out, cfg = own_pipeline
    sr_argv = ["sr", "--config", cfg, "--out", out, "--factor", "1/4",
               "--method", "eigenpatch"]
    runs = []
    for _ in range(2):
        assert run(sr_argv) == 0
        runs.append((sr_images(out), cli.fingerprint(sr_meta(out))))
    assert runs[0][0] and runs[0] == runs[1]
    assert not os.path.exists(os.path.join(out, "models"))


def test_degrade_rerun_retrains_eigenpatch_model(own_pipeline, tmp_path):
    out, cfg = own_pipeline
    lr_dir = os.path.join(out, "lr", "1_4")
    degrade = cli._read_json(os.path.join(lr_dir, "stage_degrade.json"))
    old_sigma = degrade["extra"]["sigma"]
    sr_argv = ["sr", "--out", out, "--factor", "1/4", "--method", "eigenpatch"]
    quality_argv = ["quality", "--out", out, "--factor", "1/4", "--method", "eigenpatch"]
    assert run([*sr_argv, "--config", cfg]) == 0
    before = sr_images(out)
    sharp = write_config(tmp_path / "sharp.json", blur_sigma=1.0)
    assert run(["degrade", "--config", sharp, "--out", out, "--factor", "1/4"]) == 0
    # the SR set was built from the old LR images, until sr runs again
    assert run([*quality_argv, "--config", sharp]) == cli.EXIT_MISSING_INPUT
    assert run([*sr_argv, "--config", sharp]) == 0
    after = sr_images(out)
    assert after.keys() == before.keys() and after != before
    assert run([*quality_argv, "--config", sharp]) == 0
    # the new set is the one a model trained at the new blur gives
    prep_dir, _, prep_records = cli._load_prep(out, {})
    hr = [raster.read_pgm(os.path.join(prep_dir, r.image_path)) for r in prep_records
          if os.path.basename(r.image_path) not in after]
    name = sorted(after)[0]
    lr = raster.read_pgm(os.path.join(lr_dir, "lr", name))
    for sigma, same in ((1.0, True), (old_sigma, False)):
        img, _ = sr.super_resolve(lr, 231, 231, "eigenpatch",
                                  model=eigenpatch.train(hr, 57, 57, sigma))
        raster.write_pgm(tmp_path / "expected.pgm", img)
        assert ((tmp_path / "expected.pgm").read_bytes() == after[name]) is same, sigma


PACKAGE_MODULES = sorted(name[:-3] for name in os.listdir(cli.SOURCE_DIR)
                         if name.endswith(".py"))


def edited_source(monkeypatch, tmp_path, name, text=b"\n"):
    """Point the store tag at a copy of the package source whose module
    `name` ends with `text` appended, the source a later edit would give."""
    copy = tmp_path / "src_copy"
    copy.mkdir(parents=True)
    for module in PACKAGE_MODULES:
        shutil.copyfile(os.path.join(cli.SOURCE_DIR, f"{module}.py"),
                        copy / f"{module}.py")
    with open(copy / f"{name}.py", "ab") as fh:
        fh.write(text)
    monkeypatch.setattr(cli, "SOURCE_DIR", str(copy))


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_store_tag_follows_module_source(monkeypatch, tmp_path, name):
    # an edit to any package module makes the store stale; the same bytes
    # in another directory do not
    before = cli.store_tag("fp")
    edited_source(monkeypatch, tmp_path / "same", name, text=b"")
    assert cli.store_tag("fp") == before
    edited_source(monkeypatch, tmp_path / "edited", name)
    assert cli.store_tag("fp") != before
    assert cli.store_tag("fp") != cli.store_tag("other")


def test_reproject_flags(pipeline):
    out, cfg = pipeline
    base = ["--config", cfg, "--out", out]
    assert run(["sr", *base, "--factor", "1/4", "--method", "bicubic",
                "--reproject", "--tau", "0.02", "--reproject-max-iter", "40"]) == 0
    meta = json.load(open(os.path.join(out, "sr", "bicubic-rp", "1_4",
                                       "stage_sr.json")))
    assert meta["extra"]["tau"] == 0.02
    assert all(i >= 1 for i in meta["extra"]["reproject_iterations"])


def test_reproject_convergence_recorded(pipeline, capsys):
    out, cfg = pipeline
    base = ["--config", cfg, "--out", out, "--factor", "1/4",
            "--method", "bicubic", "--reproject"]
    meta_path = os.path.join(out, "sr", "bicubic-rp", "1_4", "stage_sr.json")
    for max_iter, expect in (("1", False), ("1000", True)):
        capsys.readouterr()
        assert run(["sr", *base, "--reproject-max-iter", max_iter]) == 0
        extra = json.load(open(meta_path))["extra"]
        flags = extra["reproject_converged"]
        assert len(flags) == len(extra["reproject_iterations"]) > 0
        assert flags == [expect] * len(flags)
        missed = 0 if expect else len(flags)
        assert f"({missed} not converged within {max_iter} iterations)" \
            in capsys.readouterr().out
    assert run(["sr", "--config", cfg, "--out", out, "--factor", "1/4",
                "--method", "bicubic"]) == 0
    extra = json.load(open(os.path.join(out, "sr", "bicubic", "1_4",
                                        "stage_sr.json")))["extra"]
    assert "reproject_converged" not in extra


def test_bad_reproject_settings_exit_code(pipeline, tmp_path):
    out, cfg = pipeline
    base = ["sr", "--config", cfg, "--out", out, "--factor", "1/4",
            "--method", "bicubic", "--reproject"]
    assert run([*base, "--reproject-max-iter", "0"]) == cli.EXIT_CONFIG
    assert run([*base, "--reproject-tol", "0"]) == cli.EXIT_CONFIG
    assert run([*base, "--reproject-tol=-1e-5"]) == cli.EXIT_CONFIG
    bad = write_config(tmp_path / "bad.json", reproject_max_iter=-3)
    assert run(["synth", "--config", bad,
                "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG


def test_eval_reads_factor_label_from_match_stage(tmp_path):
    # a label with "_" in it: its directory slug "1_4_sharp" cannot be
    # turned back into the label by swapping "_" for "/"
    label = "1/4_sharp"
    cfg = write_config(tmp_path / "c.json", seeds=2, sessions=2,
                       train_subjects=0, factors={label: [57, 57]},
                       comparators=["lg"])
    base = ["--config", cfg, "--out", str(tmp_path / "out")]
    for argv in (["synth", *base], ["prep", *base],
                 ["degrade", *base, "--factor", label],
                 ["sr", *base, "--factor", label, "--method", "bicubic"],
                 ["match", *base, "--factor", label, "--method", "bicubic"],
                 ["eval", *base]):
        assert run(argv) == 0, argv
    with open(tmp_path / "out" / "eval" / "eer.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert rows[1:] and all(r.startswith(f"bicubic,{label},LG,") for r in rows[1:])


def test_missing_upstream_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    out = str(tmp_path / "out")
    assert run(["degrade", "--config", cfg, "--out", out,
                "--factor", "1/4"]) == cli.EXIT_MISSING_INPUT
    # eval needs a scores directory that holds at least one score set
    scores = os.path.join(out, "scores")
    for message in (f"no scores directory at {scores}", "no score sets found to evaluate"):
        capsys.readouterr()
        assert run(["eval", "--config", cfg, "--out", out]) == cli.EXIT_MISSING_INPUT
        assert capsys.readouterr().err == f"irissr eval: {message}\n"
        os.makedirs(scores, exist_ok=True)


def test_unknown_factor_exit_code(pipeline):
    out, cfg = pipeline
    for stage in ("degrade", "sr", "quality", "match"):
        assert run([stage, "--config", cfg, "--out", out,
                    "--factor", "1/32"]) == cli.EXIT_CONFIG, stage


@pytest.mark.parametrize("train_subjects", [3, 4])
def test_no_target_subjects_exit_code(pipeline, tmp_path, capsys, train_subjects):
    # the shared run's corpus has 3 subjects: training on all leaves none to test
    out, _ = pipeline
    cfg = write_config(tmp_path / "c.json", train_subjects=train_subjects)
    capsys.readouterr()
    assert run(["degrade", "--config", cfg, "--out", out,
                "--factor", "1/4"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "irissr degrade: no target records left after the subject split\n"


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    out = str(tmp_path / "out")
    for text in ('{"factors": {"1/4": [0, 57]}}', '{"no_such_key": 1}',
                 # a negative count would slice the subject list from the end
                 '{"train_subjects": -1}',
                 '{"jobs": "2"}', '{"jobs": true}', '{"blur_sigma": -0.5}',
                 '{"target_sclera_radius": 0}', '{"seeds": 0}', '{"sessions": 0}',
                 '{"crop_side": 0}', '{"synth_size": 63}', '{"tau": NaN}',
                 # a float setting must be finite, also as a float
                 *('{"%s": Infinity}' % key for key in (
                     "blur_sigma", "tau", "reproject_tol", "target_sclera_radius")),
                 '{"tau": 1%s}' % ("0" * 400),
                 # an int too long for the parser
                 '{"seeds": 1%s}' % ("0" * 5000),
                 '{"comparators": []}', '{"comparators": ["fused"]}',
                 '{"comparators": ["lg", "iris"]}',
                 # two labels of one LR size would write one LR set twice
                 '{"factors": {"1/4": [57, 57], "quarter": [57, 57]}}',
                 # structured keys of the wrong type end in exit 2, not a traceback
                 '{"method": 5}', '{"factors": {"1/4": "ab"}}', '{"factors": [57, 57]}',
                 '{"factors": {"1/4": [57.0, 57]}}', '{"comparators": "lg"}',
                 '{"backends": []}', '{"backends": {"nn2x": {"command": 5}}}',
                 '{"backends": {"nn2x": null}}',
                 # factor and backend names become directory names: each must
                 # be one path component, and no two factors may share one
                 '{"factors": {"1/4": [57, 57], "1_4": [40, 40]}}',
                 *('{"factors": {"%s": [57, 57]}}' % label for label in ("", ".", "..")),
                 *('{"backends": {"%s": {"command": "x"}}}' % name
                   for name in ("a/b", "", "..")),
                 '{"backends": {"a/b": {"command": "x"}}, "method": "backend:a/b"}',
                 # a repeated comparator would write its EER rows twice
                 '{"comparators": ["lg", "lg"]}',
                 # a backend timeout is a positive number of seconds
                 *('{"backends": {"nn2x": {"command": "x", "timeout": %s}}}' % limit
                   for limit in ("true", '"5"', "0", "-1", "NaN", "Infinity")),
                 # a command must split into at least one token, and an
                 # exchange directory must be a non-empty path
                 *('{"backends": {"nn2x": %s}}' % entry for entry in (
                     '{"command": "x \\"y"}', '{"command": ""}', '{"command": " "}',
                     '{"command": "x", "exchange_dir": 5}',
                     '{"command": "x", "exchange_dir": ""}',
                     # a misspelt key would leave the default timeout in force
                     '{"command": "x", "timout": 5}'))):
        bad.write_text(text)
        assert run(["synth", "--config", str(bad), "--out", out]) == cli.EXIT_CONFIG, text
    assert capsys.readouterr().err.splitlines()[-1] == \
        "irissr synth: backend 'nn2x': unknown keys ['timout']"
    for flag in ("--seeds", "--sessions"):
        assert run(["synth", "--out", out, flag, "-2"]) == cli.EXIT_CONFIG, flag
    for flag in ("--tau", "--reproject-tol"):
        assert run(["sr", "--out", out, "--factor", "1/16", "--method", "bicubic",
                    "--reproject", flag, "inf"]) == cli.EXIT_CONFIG, flag
    for argv in (["match", "--factor", "1/4", "--method", "bicubic"], ["eval"]):
        assert run([*argv, "--out", out, "--comparators", "fused"]) == cli.EXIT_CONFIG
    assert not os.path.exists(out)
    for sigma in (None, 0):
        cli.validate_config({**cli.DEFAULT_CONFIG, "blur_sigma": sigma})
    for limit in (None, 1, 0.5):
        cli.validate_config({**cli.DEFAULT_CONFIG,
                             "backends": {"b": {"command": "x", "timeout": limit}}})


def test_degrade_writes_only_lr_images(pipeline):
    out, _ = pipeline
    stage = os.path.join(out, "lr", "1_4")
    assert not os.path.exists(os.path.join(stage, "baseline"))
    with open(os.path.join(stage, "stage_degrade.json")) as fh:
        outputs = json.load(fh)["outputs"]
    lr_images = sorted(os.path.join("lr", name)
                       for name in os.listdir(os.path.join(stage, "lr")))
    assert lr_images and sorted(outputs) == lr_images


def test_degrade_rerun_makes_sr_outputs_stale(own_pipeline, tmp_path):
    out, _ = own_pipeline
    sharp = write_config(tmp_path / "sharp.json", blur_sigma=1.0)
    assert run(["degrade", "--config", sharp, "--out", out, "--factor", "1/4"]) == 0
    # the SR images were built from the old LR images
    for stage in ("quality", "match"):
        assert run([stage, "--config", sharp, "--out", out, "--factor", "1/4",
                    "--method", "bicubic"]) == cli.EXIT_MISSING_INPUT, stage
    # so they are when the degrade meta is gone
    os.remove(os.path.join(out, "lr", "1_4", "stage_degrade.json"))
    assert run(["quality", "--config", sharp, "--out", out, "--factor", "1/4",
                "--method", "bicubic"]) == cli.EXIT_MISSING_INPUT


def test_sr_reads_targets_from_degrade(own_pipeline, tmp_path):
    out, _ = own_pipeline
    cfg = write_config(tmp_path / "c.json", train_subjects=0)
    assert run(["sr", "--config", cfg, "--out", out, "--factor", "1/4",
                "--method", "bicubic"]) == 0
    assert sorted(os.listdir(os.path.join(out, "sr", "bicubic", "1_4", "images"))) \
        == sorted(os.listdir(os.path.join(out, "lr", "1_4", "lr")))


def test_identical_reruns_keep_downstream_valid(pipeline):
    out, cfg = pipeline
    base = ["--config", cfg, "--out", out]
    assert run(["degrade", *base, "--factor", "1/4", "--jobs", "2"]) == 0
    assert run(["sr", *base, "--factor", "1/4", "--method", "bicubic"]) == 0
    # match was not rerun: its recorded lineage must still hold
    assert run(["eval", *base]) == 0


def test_prep_rerun_makes_degrade_stale(own_pipeline, tmp_path):
    out, _ = own_pipeline
    cfg = write_config(tmp_path / "c.json", target_sclera_radius=100.0)
    assert run(["prep", "--config", cfg, "--out", out]) == 0
    assert run(["sr", "--config", cfg, "--out", out, "--factor", "1/4",
                "--method", "bicubic"]) == cli.EXIT_MISSING_INPUT


def test_stale_artifact_detected(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", seeds=2, sessions=1)
    out = str(tmp_path / "out")
    base = ["--config", cfg, "--out", out]
    assert run(["synth", *base]) == 0
    # corrupt one synth output; prep must refuse to run on it
    victim = os.path.join(out, "synth", "images", "s000_j0.pgm")
    raster.write_pgm(victim, np.zeros((8, 8)))
    assert run(["prep", *base]) == cli.EXIT_MISSING_INPUT
    # and so must it on a deleted one
    os.remove(victim)
    capsys.readouterr()
    assert run(["prep", *base]) == cli.EXIT_MISSING_INPUT
    assert capsys.readouterr().err == f"irissr prep: stale synth stage: missing {victim}\n"
    # a meta that records no lineage cannot be trusted either
    assert run(["synth", *base]) == 0
    meta_path = os.path.join(out, "synth", "stage_synth.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    del meta["inputs"]
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    assert run(["prep", *base]) == cli.EXIT_MISSING_INPUT


@pytest.mark.parametrize("rel, text, argv, stage", [
    ("prep/stage_prep.json", b"{", ["degrade", "--factor", "1/4"], "prep"),
    ("prep/stage_prep.json", b"[]", ["degrade", "--factor", "1/4"], "prep"),
    ("prep/stage_prep.json", b'{"\xff": 1}', ["degrade", "--factor", "1/4"], "prep"),
    # an ancestor of the stage degrade checks
    ("synth/stage_synth.json", b"{", ["degrade", "--factor", "1/4"], "prep"),
    # eval reads a meta only as part of a table's lineage
    ("sr/bicubic/1_4/stage_sr.json", b"{", ["eval"], "quality_bicubic_1_4")],
    ids=["damaged", "not-object", "not-utf8", "damaged-ancestor", "eval-ancestor"])
def test_unreadable_stage_meta_exit_code(own_pipeline, capsys, rel, text, argv, stage):
    out, cfg = own_pipeline
    path = os.path.join(out, *rel.split("/"))
    with open(path, "wb") as fh:
        fh.write(text)
    capsys.readouterr()
    assert run([*argv, "--config", cfg, "--out", out]) == cli.EXIT_MISSING_INPUT
    assert capsys.readouterr().err == \
        f"irissr {argv[0]}: stale {stage} stage: unreadable {path}\n"


@pytest.mark.parametrize("rel, key, value", [
    ("prep/stage_prep.json", "inputs", 5),
    ("prep/stage_prep.json", "outputs", []),
    ("prep/stage_prep.json", "inputs", {"x": 5}),
    # an ancestor of the stage degrade checks
    ("synth/stage_synth.json", "outputs", None)],
    ids=["inputs-number", "outputs-list", "inputs-number-value", "ancestor"])
def test_misshapen_stage_meta_exit_code(own_pipeline, capsys, rel, key, value):
    out, cfg = own_pipeline
    path = os.path.join(out, *rel.split("/"))
    meta = cli._read_json(path)
    meta[key] = value
    with open(path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    assert run(["degrade", "--factor", "1/4", "--config", cfg, "--out", out]) == \
        cli.EXIT_MISSING_INPUT
    assert capsys.readouterr().err == (f"irissr degrade: stale prep stage: {key} of "
                                       f"{path} is missing or not a map of strings\n")


@pytest.mark.parametrize("value", [5, [], None], ids=["number", "list", "null"])
def test_stage_meta_extra_not_a_map_exit_code(own_pipeline, capsys, value):
    out, cfg = own_pipeline
    path = os.path.join(out, "prep", "stage_prep.json")
    meta = cli._read_json(path)
    meta["extra"] = value
    with open(path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    assert run(["degrade", "--factor", "1/4", "--config", cfg, "--out", out]) == \
        cli.EXIT_MISSING_INPUT
    assert capsys.readouterr().err == \
        f"irissr degrade: stale prep stage: extra of {path} is not a map\n"


@pytest.mark.parametrize("rel, key, value, argv, kind", [
    ("prep/stage_prep.json", "crop_side", KeyError, ["degrade"], "an int >= 1"),
    ("prep/stage_prep.json", "crop_side", True, ["degrade"], "an int >= 1"),
    ("lr/1_4/stage_degrade.json", "sigma", KeyError, ["sr", "--method", "bicubic"],
     "a finite number >= 0"),
    ("lr/1_4/stage_degrade.json", "sigma", "1.0", ["sr", "--method", "bicubic"],
     "a finite number >= 0"),
    ("lr/1_4/stage_degrade.json", "lr_size", [57], ["sr", "--method", "eigenpatch"],
     "two ints >= 1"),
    ("scores/bicubic/1_4/stage_match.json", "method", KeyError, ["eval"], "a string"),
    ("scores/bicubic/1_4/stage_match.json", "factor", 5, ["eval"], "a string"),
    ("quality/stage_quality_bicubic_1_4.json", "summary_rows", 5, ["eval"],
     "a list of rows of six strings"),
    ("quality/stage_quality_bicubic_1_4.json", "summary_rows",
     [["bicubic", "1/4", "full"]], ["eval"], "a list of rows of six strings"),
], ids=["crop_side-missing", "crop_side-bool", "sigma-missing", "sigma-string",
        "lr_size-one-int", "method-missing", "factor-number", "summary_rows-number",
        "summary_rows-short-row"])
def test_bad_upstream_extra_field_exit_code(own_pipeline, capsys, rel, key, value,
                                            argv, kind):
    # each field a command reads from an upstream meta's `extra` (KeyError:
    # the field is deleted)
    out, cfg = own_pipeline
    path = os.path.join(out, *rel.split("/"))
    meta = cli._read_json(path)
    if value is KeyError:
        del meta["extra"][key]
    else:
        meta["extra"][key] = value
    with open(path, "w") as fh:
        json.dump(meta, fh)
    if argv[0] != "eval":
        argv = [*argv, "--factor", "1/4"]
    stage = os.path.basename(path)[len("stage_"):-len(".json")]
    capsys.readouterr()
    assert run([*argv, "--config", cfg, "--out", out]) == cli.EXIT_MISSING_INPUT
    assert capsys.readouterr().err == (f"irissr {argv[0]}: stale {stage} stage: extra "
                                       f"{key} of {path} is missing or not {kind}\n")


def test_quality_table_rejects_misshapen_rows_of_another_set(own_pipeline, capsys):
    # `quality` rebuilds quality.csv from every quality meta, not only its own
    out, cfg = own_pipeline
    meta = cli._read_json(os.path.join(out, "quality", "stage_quality_bicubic_1_4.json"))
    meta["extra"]["summary_rows"] = 5
    path = os.path.join(out, "quality", "stage_quality_bilinear_1_4.json")
    with open(path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    assert run(["quality", "--factor", "1/4", "--method", "bicubic", "--config", cfg,
                "--out", out]) == cli.EXIT_MISSING_INPUT
    assert capsys.readouterr().err == (
        f"irissr quality: stale quality_bilinear_1_4 stage: extra summary_rows of {path} "
        f"is missing or not a list of rows of six strings\n")


def test_unknown_backend_exit_code(pipeline):
    out, cfg = pipeline
    for stage in ("sr", "quality", "match"):
        for method in ("backend:nope", "foo"):
            assert run([stage, "--config", cfg, "--out", out, "--factor", "1/4",
                        "--method", method]) == cli.EXIT_CONFIG, (stage, method)


def test_eigenpatch_without_training_images_exit_code(own_pipeline, tmp_path, capsys):
    out, _ = own_pipeline
    # degrade targets every subject, so no prep image is left to train on
    cfg = write_config(tmp_path / "c.json", train_subjects=0)
    assert run(["degrade", "--config", cfg, "--out", out, "--factor", "1/4"]) == 0
    capsys.readouterr()
    assert run(["sr", "--config", cfg, "--out", out, "--factor", "1/4",
                "--method", "eigenpatch"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "irissr sr: eigenpatch training needs train_subjects > 0\n"
    assert not os.path.exists(os.path.join(out, "sr", "eigenpatch"))


def test_model_dir_config_key_exit_code(pipeline, tmp_path, capsys):
    out, _ = pipeline
    cfg = write_config(tmp_path / "c.json", model_dir=str(tmp_path / "models"))
    capsys.readouterr()
    assert run(["sr", "--config", cfg, "--out", out, "--factor", "1/4",
                "--method", "eigenpatch"]) == cli.EXIT_CONFIG
    assert "unknown config keys: ['model_dir']" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "models")


@pytest.mark.parametrize("key, value, argv", [
    ("reproject", "false", ["sr", "--factor", "1/4", "--method", "bicubic"]),
    ("fusion_split", 1, ["eval"])])
def test_boolean_config_key_exit_code(pipeline, tmp_path, capsys, key, value, argv):
    # a JSON string or number is not a switch: "false" would read as true
    out, _ = pipeline
    before = sorted(os.listdir(os.path.join(out, "sr")))
    cfg = write_config(tmp_path / "c.json", **{key: value})
    capsys.readouterr()
    assert run([*argv, "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    assert f"{key} must be true or false" in capsys.readouterr().err
    assert sorted(os.listdir(os.path.join(out, "sr"))) == before


def test_eval_without_genuine_pairs_exit_code(tmp_path):
    # one session per subject: every trial is an impostor, so no EER exists;
    # one subject alone has no trials at all, so fusion has nothing to fit
    for name, extra in (("impostors", {"seeds": 2, "comparators": ["lg"]}),
                        ("no-trials", {"seeds": 1})):
        cfg = write_config(tmp_path / f"{name}.json", sessions=1,
                           train_subjects=0, **extra)
        base = ["--config", cfg, "--out", str(tmp_path / name)]
        for argv in (["synth", *base], ["prep", *base],
                     ["degrade", *base, "--factor", "1/4"],
                     ["sr", *base, "--factor", "1/4", "--method", "bicubic"],
                     ["match", *base, "--factor", "1/4", "--method", "bicubic"]):
            assert run(argv) == 0, (name, argv)
        assert run(["eval", *base]) == cli.EXIT_CONFIG, name


def test_error_table_covers_module_errors():
    # main maps InputError and BackendError; an error class of a module's own
    # could be raised past that table and end in a traceback
    allowed = {"errors": {InputError, BackendError}, "cli": {cli.CliError}}
    for info in pkgutil.iter_modules(irissr.__path__):
        module = importlib.import_module(f"irissr.{info.name}")
        defined = {obj for obj in vars(module).values()
                   if isinstance(obj, type) and obj.__module__ == module.__name__
                   and issubclass(obj, BaseException)}
        assert defined == allowed.get(info.name, set()), info.name


def test_failing_backend_exit_code(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(
        tmp_path / "c.json", seeds=2, sessions=1, train_subjects=0,
        backends={"boom": {
            "command": f"{sys.executable} -c \"import sys; sys.exit(9)\" {{in}} {{out}}"}})
    base = ["--config", cfg, "--out", out]
    assert run(["synth", *base]) == 0
    assert run(["prep", *base]) == 0
    assert run(["degrade", *base, "--factor", "1/4"]) == 0
    assert run(["sr", *base, "--factor", "1/4",
                "--method", "backend:boom"]) == cli.EXIT_BACKEND


def run_malformed_backend(tmp_path, capsys, script):
    """`sr` at 1/4 through a backend that runs `script` with the input and
    output paths in sys.argv; asserts exit 5 after one backend process and
    returns stderr."""
    out = str(tmp_path / "out")
    exchange = tmp_path / "exchange"
    writer = f"{sys.executable} -c \"import sys; {script}\" {{in}} {{out}}"
    cfg = write_config(
        tmp_path / "c.json", seeds=2, sessions=1, train_subjects=0,
        backends={"bad": {"command": writer, "exchange_dir": str(exchange)}})
    base = ["--config", cfg, "--out", out]
    assert run(["synth", *base]) == 0
    assert run(["prep", *base]) == 0
    assert run(["degrade", *base, "--factor", "1/4"]) == 0
    capsys.readouterr()
    assert run(["sr", *base, "--factor", "1/4",
                "--method", "backend:bad"]) == cli.EXIT_BACKEND
    # the first pass failed, so one backend process ran
    assert len(os.listdir(exchange)) == 1
    return capsys.readouterr().err


def test_truncated_backend_output_exit_code(tmp_path, capsys):
    # a 30x30 header over a 10-byte body
    err = run_malformed_backend(
        tmp_path, capsys, "open(sys.argv[2], 'wb').write(b'P5 30 30 255 ' + bytes(10))")
    assert "out.pgm" in err and "truncated PGM pixel data" in err


def test_wide_backend_output_exit_code(tmp_path, capsys):
    # 16-bit samples of the right size under a maxval-255 header
    err = run_malformed_backend(
        tmp_path, capsys,
        "d = open(sys.argv[1], 'rb').read().split(); w, h = 2 * int(d[1]), 2 * int(d[2]); "
        "open(sys.argv[2], 'wb').write(b'P5 %d %d 255 ' % (w, h) + bytes(2 * w * h))")
    assert "out.pgm" in err and "bytes after the PGM pixel data" in err


def test_backend_output_above_maxval_exit_code(tmp_path, capsys):
    # samples of 200 under a maxval-100 header would read as 2.0
    err = run_malformed_backend(
        tmp_path, capsys,
        "d = open(sys.argv[1], 'rb').read().split(); w, h = 2 * int(d[1]), 2 * int(d[2]); "
        "open(sys.argv[2], 'wb').write(b'P5 %d %d 100 ' % (w, h) + bytes([200]) * (w * h))")
    assert "out.pgm: PGM sample 200 above maxval 100" in err


def run_sleeping_backend(tmp_path, capsys, **entry):
    """stderr of an `sr` through a backend that sleeps for a minute, configured
    with `entry`, after checking that it exits 5 well before then and that the
    first expiry ended the stage."""
    out = str(tmp_path / "out")
    exchange = tmp_path / "exchange"
    sleeper = f"{sys.executable} -c \"import time; time.sleep(60)\" {{in}} {{out}}"
    cfg = write_config(
        tmp_path / "c.json", seeds=2, sessions=1, train_subjects=0,
        backends={"slow": {"command": sleeper, "exchange_dir": str(exchange),
                           **entry}})
    base = ["--config", cfg, "--out", out]
    assert run(["synth", *base]) == 0
    assert run(["prep", *base]) == 0
    assert run(["degrade", *base, "--factor", "1/4"]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    assert run(["sr", *base, "--factor", "1/4",
                "--method", "backend:slow"]) == cli.EXIT_BACKEND
    assert time.perf_counter() - t0 < 30
    # each call gets its own exchange directory
    assert len(os.listdir(exchange)) == 1
    return capsys.readouterr().err


def test_backend_timeout_exit_code(tmp_path, capsys):
    err = run_sleeping_backend(tmp_path, capsys, timeout=0.5)
    assert "within 0.5 s" in err and "time.sleep(60)" in err


def test_backend_without_timeout_stops_at_default(tmp_path, capsys, monkeypatch):
    # a backend that never exits cannot hang `sr` when its entry sets no limit
    monkeypatch.setattr(sr, "BACKEND_TIMEOUT_S", 0.5)
    err = run_sleeping_backend(tmp_path, capsys)
    assert "within 0.5 s" in err and "time.sleep(60)" in err


def test_match_records_keypoints_and_valid_bits(pipeline, capsys):
    out, cfg = pipeline
    base = ["--config", cfg, "--out", out]
    capsys.readouterr()
    assert run(["match", *base, "--factor", "1/4", "--method", "bicubic"]) == 0
    score_dir = os.path.join(out, "scores", "bicubic", "1_4")
    extra = json.load(open(os.path.join(score_dir, "stage_match.json")))["extra"]
    counts = extra["sift_keypoints"]
    assert counts and set(counts) == set(extra["lg_valid_fraction"])
    annotations = {os.path.basename(rec.image_path): rec.annotation
                   for rec in dataset.load_manifest(
                       os.path.join(out, "prep", "manifest.csv"))}
    for name, count in counts.items():
        with np.load(os.path.join(score_dir, "features", name + ".npz")) as data:
            assert count == data["keypoints"].shape[0] == data["descriptors"].shape[0]
        img = raster.read_pgm(os.path.join(out, "sr", "bicubic", "1_4", "images", name))
        template = iriscode.encode(iriscode.unwrap(img, annotations[name]))
        assert extra["lg_valid_fraction"][name] == template.mask.mean()
        assert 0.0 < extra["lg_valid_fraction"][name] <= 1.0
    empty = sum(n == 0 for n in counts.values())
    assert f"({empty} of {len(counts)} images without SIFT keypoints)" in \
        capsys.readouterr().out


def test_match_outputs_independent_of_worker_processes(tmp_path):
    # 9 images: 2 workers split them unevenly, 3 workers take 3 each
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path / "c.json", seeds=4, sessions=3)
    base = ["--config", cfg, "--out", out]
    for argv in (["synth"], ["prep"], ["degrade", "--factor", "1/4"],
                 ["sr", "--factor", "1/4", "--method", "bicubic"]):
        assert run([*argv, *base]) == 0
    score_dir = os.path.join(out, "scores", "bicubic", "1_4")
    runs = {}
    for jobs in (1, 2, 3):
        assert run(["match", *base, "--factor", "1/4", "--method", "bicubic",
                    "--jobs", str(jobs)]) == 0
        meta = cli._read_json(os.path.join(score_dir, "stage_match.json"))
        files = {}
        for name in ("lg.csv", "sift.csv", "labels.csv"):
            with open(os.path.join(score_dir, name), "rb") as fh:
                files[name] = fh.read()
        features = {}
        for name in sorted(os.listdir(os.path.join(score_dir, "features"))):
            with np.load(os.path.join(score_dir, "features", name)) as data:
                features[name] = {key: data[key] for key in data.files}
        runs[jobs] = meta, files, features
    meta1, files1, features1 = runs[1]
    assert len(features1) == len(meta1["extra"]["extract_s"]) == 9
    for jobs, (meta, files, features) in runs.items():
        extra = meta["extra"]
        assert extra["extract_workers"] == (0 if jobs == 1 else jobs)
        assert set(extra["extract_s"]) == set(extra["sift_keypoints"])
        assert all(sec > 0 for sec in extra["extract_s"].values())
        assert files == files1
        assert features.keys() == features1.keys()
        for name, arrays in features.items():
            assert arrays.keys() == features1[name].keys()
            for key, array in arrays.items():
                np.testing.assert_array_equal(array, features1[name][key])
        for key in ("sift_keypoints", "lg_valid_fraction"):
            assert extra[key] == meta1["extra"][key]
        # timing and worker count are left out of the lineage
        assert cli.fingerprint(meta) == cli.fingerprint(meta1)


@pytest.mark.parametrize("error, code", [(InputError, cli.EXIT_CONFIG),
                                         (BackendError, cli.EXIT_BACKEND)])
def test_match_worker_error_keeps_exit_code(own_pipeline, capsys, monkeypatch,
                                            error, code):
    out, cfg = own_pipeline

    def failing(img, annulus=None):
        raise error("no usable pixels")

    # the forked workers inherit the patch
    monkeypatch.setattr(siftmatch, "detect_describe", failing)
    stderr = []
    for jobs in ("1", "2"):
        capsys.readouterr()
        assert run(["match", "--config", cfg, "--out", out, "--factor", "1/4",
                    "--method", "bicubic", "--jobs", jobs]) == code
        stderr.append(capsys.readouterr().err)
    assert stderr[0] == stderr[1] == "irissr match: no usable pixels\n"


def test_match_worker_death_exits_promptly(own_pipeline):
    out, cfg = own_pipeline
    argv = ["match", "--config", cfg, "--out", out, "--factor", "1/4",
            "--method", "bicubic", "--jobs", "2"]
    # patched in a child interpreter, so a hang ends at the timeout and the
    # exit status is the one a shell would see
    code = ("import os, sys\n"
            "from irissr import cli, siftmatch\n"
            "siftmatch.detect_describe = lambda *args, **kwargs: os._exit(9)\n"
            f"sys.exit(cli.main({argv!r}))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(irissr.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert time.perf_counter() - t0 < 30
    assert proc.returncode == 1
    assert "BrokenProcessPool" in proc.stderr


def test_match_scores_in_the_stage_process(own_pipeline, monkeypatch):
    out, cfg = own_pipeline
    score_dir = os.path.join(out, "scores", "bicubic", "1_4")

    def scores():
        files = {}
        for name in ("lg.csv", "sift.csv", "labels.csv"):
            with open(os.path.join(score_dir, name), "rb") as fh:
                files[name] = fh.read()
        return files

    before = scores()

    def no_threads(*args, **kwargs):
        raise AssertionError("match started a thread pool")

    # _pmap imports the executor from the package when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    assert run(["match", "--config", cfg, "--out", out, "--factor", "1/4",
                "--method", "bicubic", "--jobs", "2"]) == 0
    assert scores() == before


def test_eval_gathers_quality_table(pipeline):
    out, _ = pipeline
    gathered = os.path.join(out, "eval", "quality.csv")
    assert os.path.exists(gathered)
    assert open(gathered, "rb").read() == \
        open(os.path.join(out, "quality", "quality.csv"), "rb").read()


def test_eval_quality_table_only_from_checked_metas(own_pipeline):
    out, cfg = own_pipeline
    with open(os.path.join(out, "quality", "quality.csv"), "a") as fh:
        fh.write("bilinear,1/4,full,99.000000,1.000000,1.000000\n")
    assert run(["eval", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "eval", "quality.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "method,factor,region,psnr,ssim,fsim"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["bicubic", "1/4", "full"], ["bicubic", "1/4", "iris"]]
    # a quality meta that records no summary rows cannot back the table
    meta_path = os.path.join(out, "quality", "stage_quality_bicubic_1_4.json")
    meta = json.load(open(meta_path))
    del meta["extra"]
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    assert run(["eval", "--config", cfg, "--out", out]) == cli.EXIT_MISSING_INPUT


def test_eer_table_holds_only_this_evals_rows(own_pipeline):
    out, cfg = own_pipeline
    assert run(["eval", "--config", cfg, "--out", out, "--comparators", "lg"]) == 0
    with open(os.path.join(out, "eval", "eer.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "method,factor,comparator,eer"
    assert [line.split(",")[:3] for line in lines[1:]] == [["bicubic", "1/4", "LG"]]


def test_eval_reads_only_score_files_the_match_meta_hashes(own_pipeline):
    out, cfg = own_pipeline
    base = ["--config", cfg, "--out", out]
    assert run(["match", *base, "--factor", "1/4", "--method", "bicubic",
                "--comparators", "lg"]) == 0
    # the lg-only run removed the SIFT files of the first match run
    score_dir = os.path.join(out, "scores", "bicubic", "1_4")
    assert not os.path.exists(os.path.join(score_dir, "sift.csv"))
    assert os.listdir(os.path.join(score_dir, "features")) == []
    assert run(["eval", *base]) == cli.EXIT_MISSING_INPUT
    assert run(["eval", *base, "--comparators", "lg"]) == 0


def test_eval_outputs_hold_only_this_evals_rows(own_pipeline):
    out, cfg = own_pipeline
    base = ["--config", cfg, "--out", out]
    eval_dir = os.path.join(out, "eval")
    with open(os.path.join(eval_dir, "roc.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "method,factor,comparator,threshold,far,frr"
    assert {row.split(",")[2] for row in rows[1:]} == {"LG", "SIFT", "FUSED"}
    assert run(["eval", *base, "--comparators", "lg"]) == 0
    with open(os.path.join(eval_dir, "roc.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[1:] and all(row.startswith("bicubic,1/4,LG,") for row in rows[1:])
    outputs = json.load(open(os.path.join(eval_dir, "stage_eval.json")))["outputs"]
    assert sorted(os.listdir(eval_dir)) == sorted([*outputs, "stage_eval.json"])


def test_eval_skips_stray_files_under_scores(own_pipeline):
    out, cfg = own_pipeline
    eval_dir = os.path.join(out, "eval")

    def outputs():
        # every table; run_summary.json holds the timings of the last run
        rels = json.load(open(os.path.join(eval_dir, "stage_eval.json")))["outputs"]
        return {rel: open(os.path.join(eval_dir, rel), "rb").read()
                for rel in rels if rel.endswith(".csv")}

    before = outputs()
    for rel in ("NOTES.txt", os.path.join("bicubic", "NOTES.txt")):
        open(os.path.join(out, "scores", rel), "w").close()
    assert run(["eval", "--config", cfg, "--out", out]) == 0
    assert outputs() == before


def test_quality_table_rebuilt_from_metas(own_pipeline, capsys):
    out, cfg = own_pipeline
    table = os.path.join(out, "quality", "quality.csv")
    before = open(table, "rb").read()
    with open(table, "a") as fh:
        fh.write("bilinear,1/4,full,99.000000,1.000000,1.000000\n")
    capsys.readouterr()
    assert run(["quality", "--config", cfg, "--out", out, "--factor", "1/4",
                "--method", "bicubic"]) == 0
    assert open(table, "rb").read() == before
    assert " fsim " in capsys.readouterr().out


def test_quality_metas_keep_lineage_across_methods(own_pipeline):
    out, cfg = own_pipeline
    base = ["--config", cfg, "--out", out, "--factor", "1/4"]
    assert run(["sr", *base, "--method", "bilinear"]) == 0
    assert run(["quality", *base, "--method", "bilinear"]) == 0
    # the second run rewrote the shared quality.csv; both metas still verify
    quality_dir = os.path.join(out, "quality")
    for stage in ("quality_bicubic_1_4", "quality_bilinear_1_4"):
        cli.check_stage(out, quality_dir, stage, {})
    assert run(["eval", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(quality_dir, "detail_bilinear_1_4.csv"), "a") as fh:
        fh.write("edited,full,0,0,0\n")
    assert run(["eval", "--config", cfg, "--out", out]) == cli.EXIT_MISSING_INPUT


def test_eval_reads_only_the_metas_of_its_tables(tmp_path):
    # degrade at two factors, every later stage at one: the other factor's
    # meta is outside every table's lineage, so eval neither lists nor reads it
    out = str(tmp_path / "out")
    base = ["--config", write_config(tmp_path / "c.json", train_subjects=0),
            "--out", out]
    at_1_16 = ["--factor", "1/16", "--method", "bicubic"]
    for argv in (["synth"], ["prep"], ["degrade", "--factor", "1/4"],
                 ["degrade", "--factor", "1/16"], ["sr", *at_1_16],
                 ["quality", *at_1_16], ["match", *at_1_16]):
        assert run([*argv, *base]) == 0, argv
    assert run(["eval", *base]) == 0
    lineage = ["synth/stage_synth.json", "prep/stage_prep.json",
               "lr/1_16/stage_degrade.json", "sr/bicubic/1_16/stage_sr.json",
               "quality/stage_quality_bicubic_1_16.json",
               "scores/bicubic/1_16/stage_match.json"]
    timings = cli._read_json(os.path.join(out, "eval", "run_summary.json"))["stage_timings"]
    assert timings == {
        os.path.normpath(rel): cli._read_json(os.path.join(out, rel))["elapsed_seconds"]
        for rel in lineage}
    # so a broken meta outside the lineage leaves eval's tables to stand
    with open(os.path.join(out, "lr", "1_4", "stage_degrade.json"), "w") as fh:
        fh.write("{")
    assert run(["eval", *base]) == 0


def quality_meta(out, stage="quality_bicubic_1_4"):
    return cli._read_json(os.path.join(out, "quality", f"stage_{stage}.json"))


def quality_files(out):
    """The bytes of quality.csv and of every detail CSV, by file name."""
    quality_dir = os.path.join(out, "quality")
    return {name: open(os.path.join(quality_dir, name), "rb").read()
            for name in os.listdir(quality_dir) if name.endswith(".csv")}


def test_quality_reference_counts_left_out_of_lineage(own_pipeline, capsys):
    out, cfg = own_pipeline
    base = ["quality", "--config", cfg, "--out", out, "--factor", "1/4",
            "--method", "bicubic"]
    cold = quality_meta(out)
    n = cold["extra"]["reference_built"]
    assert n > 0 and cold["extra"]["reference_reused"] == 0
    capsys.readouterr()
    for jobs in ("1", "2"):
        assert run([*base, "--jobs", jobs]) == 0
        warm = quality_meta(out)
        assert (warm["extra"]["reference_built"], warm["extra"]["reference_reused"]) \
            == (0, n)
        assert cli.fingerprint(warm) == cli.fingerprint(cold)
    assert f"{n} images: 0 built, {n} reused" in capsys.readouterr().out
    shutil.rmtree(os.path.join(out, "quality", "reference"))
    assert run([*base, "--jobs", "2"]) == 0
    assert quality_meta(out)["extra"]["reference_built"] == n
    assert cli.fingerprint(quality_meta(out)) == cli.fingerprint(cold)


def test_damaged_quality_reference_exit_code(own_pipeline, capsys):
    out, cfg = own_pipeline
    ref_dir = os.path.join(out, "quality", "reference")
    path = os.path.join(ref_dir, sorted(os.listdir(ref_dir))[0])
    with np.load(path) as data:
        pc = data["pc"].tobytes()
    blob = bytearray(open(path, "rb").read())
    # the archive stores each array uncompressed: flip a byte inside pc's data
    at = blob.find(pc) + len(pc) // 2
    blob[at] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(blob)
    capsys.readouterr()
    assert run(["quality", "--config", cfg, "--out", out, "--factor", "1/4",
                "--method", "bicubic"]) == cli.EXIT_MISSING_INPUT
    err = capsys.readouterr().err
    assert err.startswith("irissr quality: stale quality reference: ") and path in err


def test_prep_rerun_rebuilds_quality_reference(own_pipeline, tmp_path):
    out, _ = own_pipeline
    cfg = write_config(tmp_path / "c.json", target_sclera_radius=120.0)
    base = ["--config", cfg, "--out", out, "--factor", "1/4"]
    assert run(["prep", "--config", cfg, "--out", out]) == 0
    assert run(["degrade", *base]) == 0
    assert run(["sr", *base, "--method", "bicubic"]) == 0
    assert run(["quality", *base, "--method", "bicubic"]) == 0
    extra = quality_meta(out)["extra"]
    assert extra["reference_built"] > 0 and extra["reference_reused"] == 0
    detail = quality_files(out)["detail_bicubic_1_4.csv"]
    shutil.rmtree(os.path.join(out, "quality", "reference"))
    assert run(["quality", *base, "--method", "bicubic"]) == 0
    assert quality_files(out)["detail_bicubic_1_4.csv"] == detail


def test_changed_quality_code_rebuilds_reference(own_pipeline, monkeypatch, tmp_path):
    out, cfg = own_pipeline
    n = quality_meta(out)["extra"]["reference_built"]
    before = quality_files(out)
    edited_source(monkeypatch, tmp_path, "quality")
    assert run(["quality", "--config", cfg, "--out", out, "--factor", "1/4",
                "--method", "bicubic"]) == 0
    assert quality_meta(out)["extra"]["reference_built"] == n
    assert quality_files(out) == before


def test_changed_image_reader_rebuilds_reference(own_pipeline, monkeypatch, tmp_path):
    # an edit to the code that reads the reference image (not to the code
    # that builds its maps) rebuilds the maps: a store reused across it
    # scored the new images against the old maps
    out, cfg = own_pipeline
    argv = ["quality", "--config", cfg, "--out", out, "--factor", "1/4",
            "--method", "bicubic"]
    n = quality_meta(out)["extra"]["reference_built"]
    before = quality_files(out)["detail_bicubic_1_4.csv"]
    read_pgm = raster.read_pgm
    monkeypatch.setattr(raster, "read_pgm", lambda path: 0.9 * read_pgm(path))
    edited_source(monkeypatch, tmp_path, "raster",
                  b"\n_read_pgm = read_pgm\n"
                  b"def read_pgm(path):\n    return 0.9 * _read_pgm(path)\n")
    assert run(argv) == 0
    extra = quality_meta(out)["extra"]
    assert (extra["reference_built"], extra["reference_reused"]) == (n, 0)
    edited = quality_files(out)["detail_bicubic_1_4.csv"]
    assert edited != before
    shutil.rmtree(os.path.join(out, "quality", "reference"))
    assert run(argv) == 0
    assert quality_files(out)["detail_bicubic_1_4.csv"] == edited


def test_quality_outputs_equal_from_cold_or_warm_reference(own_pipeline):
    out, cfg = own_pipeline
    base = ["--config", cfg, "--out", out, "--factor", "1/4"]
    ref_dir = os.path.join(out, "quality", "reference")
    assert run(["sr", *base, "--method", "bilinear"]) == 0
    # every set over a cold store, then both over the warm one
    for method in ("bicubic", "bilinear"):
        shutil.rmtree(ref_dir)
        assert run(["quality", *base, "--method", method]) == 0
    cold = quality_files(out)
    assert sorted(cold) == ["detail_bicubic_1_4.csv", "detail_bilinear_1_4.csv",
                            "quality.csv"]
    for method in ("bicubic", "bilinear"):
        assert run(["quality", *base, "--method", method]) == 0
        assert quality_meta(out, f"quality_{method}_1_4")["extra"][
            "reference_built"] == 0
    assert quality_files(out) == cold
    # eval gathers the table from the stage metas alone
    assert run(["eval", "--config", cfg, "--out", out]) == 0
    assert open(os.path.join(out, "eval", "quality.csv"), "rb").read() == \
        cold["quality.csv"]
    summary = cli._read_json(os.path.join(out, "eval", "run_summary.json"))
    assert not [rel for rel in summary["stage_timings"] if "reference" in rel]


def test_quality_image_working_set(tmp_path):
    # one 231^2 image's quality work, with the filter banks built and its
    # reference maps stored, holds at most 19 image planes at its peak: the
    # SR image's phase congruency runs before the reference side is read
    eye, ann = dataset.synth_iris(0, 231)
    os.mkdir(tmp_path / "images")
    raster.write_pgm(tmp_path / "eye.pgm", eye)
    raster.write_pgm(tmp_path / "images" / "eye.pgm", raster.resize_bicubic(
        dataset.simulate_lr(eye, 57, 57, 2.0), 231, 231))
    rec = dataset.ManifestRecord("eye.pgm", "0", 0, ann)
    args = (str(tmp_path), str(tmp_path), str(tmp_path), "tag", rec)
    assert cli._score(*args)[3]  # built and stored
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = cli._score(*args)[3]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert not built
    assert peak <= 19.0 * eye.nbytes


def test_fusion_split_option(pipeline):
    out, cfg = pipeline
    score_dir = os.path.join(out, "scores", "bicubic", "1_4")

    def column(name):
        with open(os.path.join(score_dir, name)) as fh:
            return [row[2] for row in csv.reader(fh)][1:]

    scores = np.column_stack([np.array(column(f"{comp}.csv"), dtype=np.float64)
                              for comp in ("lg", "sift")])
    genuine = np.array(column("labels.csv")) == fusion_eval.GENUINE
    # with the flag fusion is fitted on the even rows and scored on the odd
    # ones; without it, on all of them
    for argv, fit, test in ((["--fusion-split"], slice(0, None, 2), slice(1, None, 2)),
                            ([], slice(None), slice(None))):
        assert run(["eval", "--config", cfg, "--out", out, *argv]) == 0
        weights = fusion_eval.train_fusion(scores[fit][genuine[fit]],
                                           scores[fit][~genuine[fit]])
        fused = fusion_eval.fuse(weights, scores[test])
        rate, roc = fusion_eval.eer(fused[genuine[test]], fused[~genuine[test]])
        with open(os.path.join(out, "eval", "eer.csv")) as fh:
            assert [row for row in csv.reader(fh) if row[2] == "FUSED"] \
                == [["bicubic", "1/4", "FUSED", f"{rate:.6f}"]]
        with open(os.path.join(out, "eval", "roc.csv")) as fh:
            assert [row[3] for row in csv.reader(fh) if row[2] == "FUSED"] \
                == [repr(float(t)) for t in roc.thresholds]


def test_unwritable_output_exit_code(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where a directory must go")
    assert run(["synth", "--config", cfg,
                "--out", str(blocker / "out")]) == cli.EXIT_UNWRITABLE


def test_write_probe_takes_no_name_in_the_output_directory(tmp_path):
    # the writability probe is an unnamed file, so no entry of the directory
    # (nor another command probing it at the same time) can get in its way
    out = tmp_path / "out"
    os.makedirs(out / "synth" / ".write-probe")
    assert run(["synth", "--config", write_config(tmp_path / "c.json", seeds=2, sessions=1),
                "--out", str(out)]) == 0
    assert sorted(os.listdir(out / "synth")) == [
        ".write-probe", "images", "manifest.csv", "stage_synth.json"]


def test_exchange_dir_naming_a_file_exit_code(tmp_path, capsys):
    out = str(tmp_path / "out")
    blocker = tmp_path / "exchange"
    blocker.write_text("a file where the exchange directory must go")
    cfg = write_config(
        tmp_path / "c.json", seeds=2, sessions=1, train_subjects=0,
        backends={"nn2x": {"command": f"{sys.executable} -m irissr.refbackend {{in}} {{out}}",
                           "exchange_dir": str(blocker)}})
    base = ["--config", cfg, "--out", out]
    assert run(["synth", *base]) == 0
    assert run(["prep", *base]) == 0
    assert run(["degrade", *base, "--factor", "1/4"]) == 0
    capsys.readouterr()
    assert run(["sr", *base, "--factor", "1/4",
                "--method", "backend:nn2x"]) == cli.EXIT_UNWRITABLE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("irissr sr:") and str(blocker) in err[0]
    # the check ran before any image: no SR output directory, no stage meta
    assert not os.path.exists(os.path.join(out, "sr"))


def test_exchange_env_var_used(tmp_path, monkeypatch):
    # IRIS_SR_TMP supplies the exchange directory when the backend config
    # does not name one
    out = str(tmp_path / "out")
    exchange = str(tmp_path / "scratch")
    monkeypatch.setenv("IRIS_SR_TMP", exchange)
    cfg = write_config(tmp_path / "c.json", seeds=2, sessions=1, train_subjects=0)
    base = ["--config", cfg, "--out", out]
    assert run(["synth", *base]) == 0
    assert run(["prep", *base]) == 0
    assert run(["degrade", *base, "--factor", "1/4"]) == 0
    assert run(["sr", *base, "--factor", "1/4", "--method", "backend:nn2x"]) == 0
    assert os.path.isdir(exchange) and os.listdir(exchange)


def test_missing_manifest_image_exit_code(tmp_path, capsys):
    # prep checks every manifest image before it writes anything
    out = tmp_path / "out"
    src = tmp_path / "data"
    os.makedirs(src)
    img, ann = dataset.synth_iris(0, 128)
    raster.write_pgm(src / "ok.pgm", img)
    dataset.save_manifest(src / "manifest.csv", [
        dataset.ManifestRecord("ok.pgm", "sA", 0, ann),
        dataset.ManifestRecord("nope.pgm", "sB", 0, ann)])
    assert run(["prep", "--config", write_config(tmp_path / "c.json"),
                "--out", str(out), "--manifest", str(src / "manifest.csv")]
               ) == cli.EXIT_MISSING_INPUT
    err = capsys.readouterr().err
    assert f"manifest image not found: {src / 'nope.pgm'}" in err
    assert not os.path.exists(out / "prep")


def test_prep_rejects_two_images_with_one_file_name(tmp_path, capsys):
    # prep writes every image to prep/images/<file name>: the second crop
    # would overwrite the first, so prep refuses before it writes anything
    out = tmp_path / "out"
    src = tmp_path / "data"
    img, ann = dataset.synth_iris(0, 128)
    for sub in ("a", "b"):
        os.makedirs(src / sub)
        raster.write_pgm(src / sub / "x.pgm", img)
    dataset.save_manifest(src / "manifest.csv", [
        dataset.ManifestRecord("a/x.pgm", "sA", 0, ann),
        dataset.ManifestRecord("b/x.pgm", "sB", 0, ann)])
    assert run(["prep", "--config", write_config(tmp_path / "c.json"),
                "--out", str(out), "--manifest", str(src / "manifest.csv")]
               ) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'a/x.pgm'" in err and "'b/x.pgm'" in err
    assert not os.path.exists(out / "prep")


@pytest.mark.parametrize("case", ["png", "above-maxval", "pupil-outside"])
def test_bad_manifest_image_exit_code(tmp_path, capsys, case):
    # PGM is the only image format, its samples lie within its maxval, and a
    # pupil centre must lie in its image: prep reads every image before it
    # writes any
    out = tmp_path / "out"
    src = tmp_path / "data"
    os.makedirs(src)
    img, ann = dataset.synth_iris(0, 128)
    raster.write_pgm(src / "ok.pgm", img)
    if case == "png":
        # the codec reads no further than a PNG's signature
        (src / "eye.png").write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(25))
        bad = dataset.ManifestRecord("eye.png", "sB", 0, ann)
        message = f"{src / 'eye.png'}: not a binary PGM (P5) file"
    elif case == "above-maxval":
        # the eye at maxval 100, with one sample above it
        samples = np.rint(img * 100).astype(np.uint8)
        samples[0, 0] = 101
        (src / "eye.pgm").write_bytes(b"P5 128 128 100\n" + samples.tobytes())
        bad = dataset.ManifestRecord("eye.pgm", "sB", 0, ann)
        message = f"{src / 'eye.pgm'}: PGM sample 101 above maxval 100"
    else:
        raster.write_pgm(src / "eye.pgm", img)
        bad = dataset.ManifestRecord("eye.pgm", "sB", 0, ann.translated(200.0, 0.0))
        message = f"pupil center ({ann.px + 200.0}, {ann.py}) outside image 128x128"
    dataset.save_manifest(src / "manifest.csv", [
        dataset.ManifestRecord("ok.pgm", "sA", 0, ann), bad])
    assert run(["prep", "--config", write_config(tmp_path / "c.json"),
                "--out", str(out), "--manifest", str(src / "manifest.csv")]
               ) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"irissr prep: {message}\n"
    assert os.listdir(out / "prep" / "images") == []
    assert not os.path.exists(out / "prep" / "stage_prep.json")


def test_prep_skips_blank_manifest_rows(tmp_path):
    out = tmp_path / "out"
    src = tmp_path / "data"
    os.makedirs(src)
    img, ann = dataset.synth_iris(0, 128)
    raster.write_pgm(src / "ok.pgm", img)
    dataset.save_manifest(src / "manifest.csv",
                          [dataset.ManifestRecord("ok.pgm", "sA", 0, ann)])
    header, row = (src / "manifest.csv").read_text().splitlines()
    (src / "manifest.csv").write_text(f"{header}\n\n , ,\n{row}\n,,,,,,,\n")
    assert run(["prep", "--config", write_config(tmp_path / "c.json"),
                "--out", str(out), "--manifest", str(src / "manifest.csv")]) == 0
    assert [r.image_path for r in dataset.load_manifest(out / "prep" / "manifest.csv")] \
        == [os.path.join("images", "ok.pgm")]


@pytest.mark.parametrize("case, code", [
    ("config-dir", cli.EXIT_CONFIG),
    ("manifest-dir", cli.EXIT_CONFIG),
    ("manifest-not-utf8", cli.EXIT_CONFIG),
    ("manifest-empty", cli.EXIT_CONFIG),
    ("manifest-other-header", cli.EXIT_CONFIG),
    ("manifest-short-row", cli.EXIT_CONFIG),
    ("config-missing", cli.EXIT_MISSING_INPUT),
    ("manifest-missing", cli.EXIT_MISSING_INPUT)])
def test_unreadable_config_or_manifest_exit_code(tmp_path, capsys, case, code):
    bad = tmp_path / "bad"
    header = ",".join(dataset.MANIFEST_HEADER).encode() + b"\n"
    texts = {"manifest-not-utf8": b"path,subject\n\xff\xfe.pgm,s1\n",
             "manifest-empty": b"",
             "manifest-other-header": b"path,subject,session\n",
             "manifest-short-row": header + b"a.pgm,s1,0,50,50,10,25\n"}
    if case.endswith("-dir"):
        bad.mkdir()
    elif case in texts:
        bad.write_bytes(texts[case])
    flag = "--config" if case.startswith("config") else "--manifest"
    argv = ["prep", "--out", str(tmp_path / "out"), flag, str(bad)]
    if flag == "--manifest":
        argv += ["--config", write_config(tmp_path / "c.json")]
    assert run(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(bad) in err[0], err


@pytest.mark.parametrize("text", ["null", "5", '["jobs"]', '"abc"', "[]"])
def test_config_not_an_object_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    assert run(["synth", "--config", str(bad), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"irissr synth: config file {bad} must hold a JSON object\n"
    assert not out.exists()


def test_discard_sidecar_logs_out_of_bounds(tmp_path):
    # hand-written manifest with a pupil near the corner: prep discards it
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path / "c.json", crop_side=100,
                       target_sclera_radius=48.0)
    src = tmp_path / "data"
    os.makedirs(src / "images")
    from irissr import dataset
    img, ann = dataset.synth_iris(0, 128)
    raster.write_pgm(src / "images" / "ok.pgm", img)
    raster.write_pgm(src / "images" / "edge.pgm", img)
    rows = [
        dataset.ManifestRecord("images/ok.pgm", "sA", 0, ann),
        dataset.ManifestRecord("images/edge.pgm", "sB", 0,
                               dataset.IrisAnnotation(5.0, 5.0, 2.0, 4.0, 6.0)),
    ]
    dataset.save_manifest(src / "manifest.csv", rows)
    assert run(["prep", "--config", cfg, "--out", out,
                "--manifest", str(src / "manifest.csv")]) == 0
    sidecar = open(os.path.join(out, "prep", "discarded.csv")).read()
    assert "edge.pgm" in sidecar and "crop-out-of-bounds" in sidecar
    kept = open(os.path.join(out, "prep", "manifest.csv")).read()
    assert "ok.pgm" in kept and "edge.pgm" not in kept
