"""Corpus set-up, stage commands and the checks on what they write.

Stages run either as `python -m irissr.cli` subprocesses (what a user runs;
used for the end-to-end metrics) or in-process through `irissr.cli.main`
(used for the traced run and its untraced twin).
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from workloads import SYNTH_SIZE, Workload, identities


@dataclass
class StageRun:
    stage: str
    code: int
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0


@dataclass
class Pass:
    """One run of a list of stage commands."""
    stages: list = field(default_factory=list)
    wall_s: float = 0.0  # first command start to last command end

    @property
    def ok(self) -> bool:
        return all(s.code == 0 for s in self.stages)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def build_corpus(root: str, workload: Workload, seed: int, dataset, raster) -> str:
    """Render the seed's identities as PGMs plus a manifest; return its path.

    The program sees only these files, through `irissr prep --manifest`.
    """
    img_dir = os.path.join(root, "images")
    os.makedirs(img_dir)
    records = []
    for ident in identities(workload, seed):
        for session in range(workload.sessions):
            img, ann = dataset.synth_iris(ident, SYNTH_SIZE, jitter=session)
            name = f"id{ident:05d}_j{session}.pgm"
            raster.write_pgm(os.path.join(img_dir, name), img)
            records.append(dataset.ManifestRecord(
                image_path=f"images/{name}", subject_id=f"id{ident:05d}",
                session=session, annotation=ann))
    manifest = os.path.join(root, "manifest.csv")
    dataset.save_manifest(manifest, records)
    return manifest


def write_config(path: str, workload: Workload) -> str:
    backend = f"{shlex.quote(sys.executable)} -m irissr.refbackend {{in}} {{out}}"
    cfg = {"train_subjects": workload.train_subjects,
           "backends": {"nn2x": {"command": backend}}}
    cfg.update(dict(workload.config))
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return path


# ---------------------------------------------------------------------------
# stage command lists
# ---------------------------------------------------------------------------

def _common(out, config, workload):
    return ["--out", out, "--config", config, "--jobs", str(workload.jobs)]


def setup_commands(workload: Workload, manifest: str, out: str, config: str) -> list:
    common = _common(out, config, workload)
    cmds = [("prep", ["prep", "--manifest", manifest] + common)]
    for factor in workload.factors:
        cmds.append(("degrade", ["degrade", "--factor", factor] + common))
    return cmds


def pipeline_commands(workload: Workload, out: str, config: str) -> list:
    common = _common(out, config, workload)
    cmds = []
    for m in workload.methods:
        flags = ["--factor", m.factor, "--method", m.method] + common
        if m.reproject:
            flags.append("--reproject")
        cmds += [(stage, [stage] + flags) for stage in ("sr", "quality", "match")]
    cmds.append(("eval", ["eval"] + common))
    return cmds


# ---------------------------------------------------------------------------
# running stages
# ---------------------------------------------------------------------------

def run_subprocess(stage: str, argv: list, env: dict, log_path: str) -> StageRun:
    """Run one `irissr` command; take its CPU time and peak RSS from wait4.

    The rusage of a reaped child includes the children it reaped itself
    (the backend processes of an `sr` stage). The command runs in a process
    group of its own, so an interrupted run kills its backends with it.
    """
    cmd = [sys.executable, "-m", "irissr.cli"] + argv
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(log_path, "rb") as log:
            log.seek(max(0, os.path.getsize(log_path) - 2000))
            sys.stderr.write(log.read().decode(errors="replace"))
    return StageRun(stage, code, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


def run_inprocess(stage: str, argv: list, cli, tracer=None) -> StageRun:
    """Run one command through `irissr.cli.main`, inside a stage span if traced."""
    span = tracer.stage(stage) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with span:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the subprocess form would exit 1 here
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - t0
    return StageRun(stage, code, wall)


def run_commands(cmds: list, runner) -> Pass:
    """Run commands in order; stop at the first that fails."""
    result = Pass()
    t0 = time.perf_counter()
    for stage, argv in cmds:
        run = runner(stage, argv)
        result.stages.append(run)
        if run.code != 0:
            print(f"perfbench: `irissr {' '.join(argv)}` exited {run.code}",
                  file=sys.stderr)
            break
    result.wall_s = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# checking outputs
# ---------------------------------------------------------------------------

def digests(out: str) -> dict:
    """SHA-256 of every result the pipeline produced, keyed by output group.

    Groups: each SR image set, each lg/sift score file, quality.csv, eer.csv.
    """
    found = {}
    for img_dir in sorted(glob.glob(os.path.join(out, "sr", "*", "*", "images"))):
        h = hashlib.sha256()
        for name in sorted(os.listdir(img_dir)):
            h.update(f"{name}\0{sha256_file(os.path.join(img_dir, name))}\n".encode())
        found["sr/" + os.path.relpath(os.path.dirname(img_dir), os.path.join(out, "sr"))] = \
            h.hexdigest()
    for path in sorted(glob.glob(os.path.join(out, "scores", "*", "*", "*.csv"))):
        if os.path.basename(path) in ("lg.csv", "sift.csv"):
            found[os.path.relpath(path, out)] = sha256_file(path)
    for rel in ("quality/quality.csv", "eval/eer.csv"):
        path = os.path.join(out, rel)
        if os.path.exists(path):
            found[rel] = sha256_file(path)
    return found


def mismatches(found: dict, expected: dict) -> list:
    return sorted(k for k in set(found) | set(expected) if found.get(k) != expected.get(k))


def _stage_extras(out: str, pattern: str):
    for path in sorted(glob.glob(os.path.join(out, pattern))):
        with open(path) as fh:
            yield json.load(fh).get("extra", {})


def counters(out: str) -> dict:
    """Exact counts read from the run's own artifacts.

    These depend only on the inputs, so every pass over one input set must
    give the same values.
    """
    iterations = backend_calls = trials = 0
    for extra in _stage_extras(out, "sr/*/*/stage_sr.json"):
        iterations += sum(extra.get("reproject_iterations", []))
        if extra.get("method", "").startswith("backend-"):
            backend_calls += sum(extra.get("passes", []))
    for extra in _stage_extras(out, "scores/*/*/stage_match.json"):
        trials += extra.get("genuine", 0) + extra.get("impostor", 0)
    keypoints = 0
    for path in glob.glob(os.path.join(out, "scores", "*", "*", "features", "*.npz")):
        with np.load(path) as data:
            keypoints += int(data["keypoints"].shape[0])
    model_bytes = sum(os.path.getsize(p)
                      for p in glob.glob(os.path.join(out, "models", "*")))
    return {"reproject.iterations": iterations,
            "sr.apply_backend.calls": backend_calls,
            "siftmatch.keypoints": keypoints,
            "fusion_eval.trials": trials,
            "eigenpatch.model_bytes": model_bytes}
