"""Start-up cost: the stage commands and the reference backend run without
scipy, and importing the command line or running a backend loads only the
modules it uses."""

import os
import subprocess
import sys

import numpy as np

import irissr
from irissr import raster

SRC = os.path.dirname(os.path.dirname(os.path.abspath(irissr.__file__)))


def loaded_modules(code):
    """Names in sys.modules after running `code` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, check=True)
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


def test_refbackend_loads_only_raster(tmp_path):
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    raster.write_pgm(src, np.linspace(0.0, 1.0, 12).reshape(3, 4))
    names = loaded_modules(
        "from irissr import refbackend\n"
        f"assert refbackend.main([{str(src)!r}, {str(dst)!r}]) == 0")
    assert raster.read_pgm(dst).shape == (6, 8)
    assert not [n for n in names if n == "scipy" or n.startswith("scipy.")]
    # irissr.errors holds the input-error base class and imports nothing
    assert {n for n in names if n.split(".")[0] == "irissr"} == {
        "irissr", "irissr.errors", "irissr.raster", "irissr.refbackend"}
