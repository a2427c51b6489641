"""Start-up cost: the stage commands run without scipy, the reference backend
runs without numpy, and importing the command line or running a backend loads
only the modules it uses. The reference backend's output is checked against
numpy's nearest-neighbour doubling."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import irissr
from irissr import cli, raster

SRC = os.path.dirname(os.path.dirname(os.path.abspath(irissr.__file__)))


def package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))


def loaded_modules(code):
    """Names in sys.modules after running `code` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=package_env(), check=True)
    return set(proc.stdout.split())


def test_cli_imports_no_scipy():
    names = loaded_modules("import irissr.cli")
    assert "irissr.cli" in names
    assert not [n for n in names if n == "scipy" or n.startswith("scipy.")]


def test_cli_imports_no_command_modules():
    # each command imports the modules it uses when it runs
    names = loaded_modules("import irissr.cli")
    heavy = {"siftmatch", "quality", "eigenpatch", "iriscode", "fusion_eval", "sr"}
    assert not {f"irissr.{m}" for m in heavy} & names


def test_jobs_1_loads_no_process_pool(tmp_path):
    # only `match` at --jobs > 1 forks workers; importing the command line or
    # a --jobs 1 match pays nothing for the pool's modules
    def pool_modules(names):
        return {n for n in names if n.split(".")[0] == "multiprocessing"
                or n == "concurrent.futures.process"}

    assert not pool_modules(loaded_modules("import irissr.cli"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"factors": {"1/16": [15, 15]}, "seeds": 2,
                               "sessions": 2, "train_subjects": 1}))
    base = ["--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", "1"]
    for argv in (["synth"], ["prep"], ["degrade", "--factor", "1/16"],
                 ["sr", "--factor", "1/16", "--method", "bicubic"]):
        assert cli.main([*argv, *base]) == 0
    match = ["match", "--factor", "1/16", "--method", "bicubic", *base]
    names = loaded_modules(
        "import contextlib, io\n"
        "from irissr import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({match!r}) == 0")
    assert "irissr.siftmatch" in names
    assert not pool_modules(names)


def test_refbackend_loads_no_numpy(tmp_path):
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    raster.write_pgm(src, np.linspace(0.0, 1.0, 12).reshape(3, 4))
    names = loaded_modules(
        "from irissr import refbackend\n"
        f"assert refbackend.main([{str(src)!r}, {str(dst)!r}]) == 0")
    assert raster.read_pgm(dst).shape == (6, 8)
    assert "numpy" not in names
    assert not [n for n in names if n == "scipy" or n.startswith("scipy.")]
    # irissr.errors holds the error classes and imports nothing; irissr.pgm
    # is the standard-library PGM codec
    assert {n for n in names if n.split(".")[0] == "irissr"} == {
        "irissr", "irissr.errors", "irissr.pgm", "irissr.refbackend"}


def run_refbackend(src, dst):
    return subprocess.run(
        [sys.executable, "-m", "irissr.refbackend", str(src), str(dst)],
        capture_output=True, text=True, env=package_env())


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (7, 13), (15, 15), (120, 120)])
def test_refbackend_equals_numpy_doubling(tmp_path, shape):
    pixels = np.random.default_rng(sum(shape)).integers(0, 256, size=shape)
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    raster.write_pgm(src, pixels / 255.0)
    assert run_refbackend(src, dst).returncode == 0
    expected = tmp_path / "expected.pgm"
    raster.write_pgm(expected, np.repeat(np.repeat(pixels, 2, 0), 2, 1) / 255.0)
    assert dst.read_bytes() == expected.read_bytes()


def test_refbackend_reads_header_comments(tmp_path):
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(b"P5\n# made by hand\n3 2\n# 8 bits\n255\n"
                    + bytes([0, 1, 2, 253, 254, 255]))
    assert run_refbackend(src, dst).returncode == 0
    assert dst.read_bytes() == b"P5\n6 4\n255\n" + 2 * bytes(
        [0, 0, 1, 1, 2, 2]) + 2 * bytes([253, 253, 254, 254, 255, 255])


@pytest.mark.parametrize("body, message", [
    (b"P2\n2 2\n255\n0 0 0 0", "not a binary PGM (P5) file"),
    (b"P5\n2 2\n255\n\x00", "truncated PGM pixel data"),
    (b"P5\n2 2\n65535\n" + bytes(8), "maxval 65535, expected 255"),
], ids=["p2", "truncated", "maxval-65535"])
def test_refbackend_rejects_bad_input(tmp_path, body, message):
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(body)
    proc = run_refbackend(src, dst)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"refbackend: {src}: {message}"]
    assert not dst.exists()
