"""Layer benchmark of the `match` stage: `cmd_match` on 8 synthetic eyes
upscaled bicubically from 1/4, at `--jobs 1` (feature extraction in the
stage process) and `--jobs 2` (extraction in two forked worker processes).

    PYTHONPATH=src python -m pytest bench/test_match_layers.py --benchmark-enable --benchmark-only

The default test run collects it with `--benchmark-disable`: each
benchmarked call runs once, untimed. Compare the two jobs counts on one
machine with at least two free cores.
"""

import contextlib
import io
import json
import os

import pytest

from irissr import cli


@pytest.fixture(scope="module")
def sr_run(tmp_path_factory):
    """The arguments of a run whose `sr` stage holds 8 bicubic 1/4 eyes
    (4 subjects x 2 sessions; one more subject trains nothing here)."""
    root = tmp_path_factory.mktemp("match")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"factors": {"1/4": [57, 57]}, "seeds": 5,
                               "sessions": 2, "train_subjects": 1}))
    base = ["--config", str(cfg), "--out", str(root / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["synth"], ["prep"], ["degrade", "--factor", "1/4"],
                     ["sr", "--factor", "1/4", "--method", "bicubic"]):
            assert cli.main([*argv, *base]) == 0
    return base, str(root / "out")


@pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
def test_match(benchmark, sr_run, jobs):
    base, out = sr_run
    argv = ["match", "--factor", "1/4", "--method", "bicubic",
            "--jobs", str(jobs), *base]

    def match():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    assert benchmark(match) == 0
    with open(os.path.join(out, "scores", "bicubic", "1_4", "stage_match.json")) as fh:
        extra = json.load(fh)["extra"]
    assert len(extra["extract_s"]) == 8
    assert extra["extract_workers"] == (0 if jobs == 1 else 2)
