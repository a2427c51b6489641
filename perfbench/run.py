"""Layered benchmark of the irissr pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload reproject16 --seed 0 --seconds 30 --trace 0

`--trace 0` times the stage commands as `python -m irissr.cli` subprocesses
and prints the end-to-end metrics. `--trace 1` runs the same commands twice
in-process through `irissr.cli.main`, once plain and once with every layer
function wrapped, and prints the per-layer metrics. Either way the outputs
are checked against golden.json, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is nonzero when any operation failed or the benchmark cannot run.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time

import pipeline
import spans
from workloads import INPUT_SETS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
WORK_DIR = ".perfbench_work"

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 3

END_TO_END = (("setup_s", "s"), ("pipeline_s", "s"), ("sr_s", "s"),
              ("quality_s", "s"), ("match_s", "s"), ("eval_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# Counters that the outputs determine; they must match golden.json.
OUTPUT_COUNTERS = ("reproject.iterations", "sr.apply_backend.calls",
                   "siftmatch.keypoints", "fusion_eval.trials")

PIPELINE_STAGES = ("sr", "quality", "match", "eval")


class BenchError(Exception):
    """The benchmark cannot run or found a fault in itself."""


class Terminated(BaseException):
    """SIGTERM arrived; unwinds past the stage runners, which stop their children."""


def _terminate(signum, frame):
    raise Terminated()


class Ops:
    """Operations attempted and failed: stage commands and backend calls."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.counters = None

    def add_commands(self, run: pipeline.Pass) -> None:
        self.attempted += len(run.stages)
        self.failed += sum(s.code != 0 for s in run.stages)

    def add_pipeline(self, run: pipeline.Pass, out: str) -> None:
        """Count a pipeline pass and, if every command succeeded, check its outputs."""
        self.add_commands(run)
        if run.ok:
            self.check_outputs(out)
            self.attempted += self.counters["sr.apply_backend.calls"]

    def check_outputs(self, out: str) -> None:
        """Compare the pipeline outputs under `out` with golden.json.

        A mismatched output group counts as one failed operation, as does a
        counter that differs from the recorded one.
        """
        found = pipeline.counters(out)
        if self.counters is not None and found != self.counters:
            raise BenchError(f"counters differ between passes over one input set: "
                             f"{self.counters} != {found}")
        self.counters = found
        bad = pipeline.mismatches(pipeline.digests(out), self.expected["digests"])
        for key in bad:
            print(f"perfbench: output {key} differs from golden.json", file=sys.stderr)
        self.failed += len(bad)
        if any(found[k] != self.expected["counters"][k] for k in OUTPUT_COUNTERS):
            print(f"perfbench: counters {found} differ from golden.json "
                  f"{self.expected['counters']}", file=sys.stderr)
            self.failed += 1

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(workload, seed, seconds, work, irissr, ops) -> dict:
    """End-to-end metrics from subprocess stage commands."""
    env = dict(os.environ)
    config = pipeline.write_config(os.path.join(work, "config.json"), workload)
    log = os.path.join(work, "stages.log")

    def runner(stage, argv):
        return pipeline.run_subprocess(stage, argv, env, log)

    setup_times = []
    for i in range(SETUP_REPEATS):
        rep = os.path.join(work, f"setup{i}")
        if i:
            shutil.rmtree(os.path.join(work, f"setup{i - 1}"))
        out = os.path.join(rep, "out")
        t0 = time.perf_counter()
        manifest = pipeline.build_corpus(os.path.join(rep, "corpus"), workload, seed,
                                         irissr.dataset, irissr.raster)
        setup = pipeline.run_commands(
            pipeline.setup_commands(workload, manifest, out, config), runner)
        setup_times.append(time.perf_counter() - t0)
        ops.add_commands(setup)
        if not setup.ok:
            return ops.result({})

    cmds = pipeline.pipeline_commands(workload, out, config)
    t0 = time.perf_counter()
    first = pipeline.run_commands(cmds, runner)
    ops.add_pipeline(first, out)
    if not first.ok:
        return ops.result({})
    samples = repeat_commands(cmds, first.stages, runner, ops, t0 + seconds)
    if samples is None:
        return ops.result({})
    # the repeats rewrote every output; check them again
    ops.check_outputs(out)

    wall = [statistics.median(s.wall_s for s in runs) for runs in samples]
    cpu = [statistics.median(s.cpu_s for s in runs) for runs in samples]
    figures = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": sum(wall),
        "cpu_s": sum(cpu),
        "peak_rss_mb": max(statistics.median(s.rss_mb for s in runs) for runs in samples),
    }
    for stage in PIPELINE_STAGES:
        figures[f"{stage}_s"] = sum(w for w, (name, _) in zip(wall, cmds) if name == stage)
    return ops.result({name: (figures[name], unit) for name, unit in END_TO_END})


def repeat_commands(cmds, first, runner, ops, deadline):
    """Run the pipeline commands again, one at a time, until the deadline.

    Each step runs the command with the fewest samples so far among those
    whose median time still fits before the deadline (the earliest in
    pipeline order on a tie), so short stages gather many samples and the
    long ones as many as the time allows. Every command rewrites the same
    outputs from the same inputs, so any order leaves them as one pass
    does. Returns the samples per command, `first` included, or None when
    a command failed.
    """
    samples = [[run] for run in first]
    while True:
        now = time.perf_counter()
        fits = [i for i, runs in enumerate(samples)
                if now + statistics.median(s.wall_s for s in runs) <= deadline]
        if not fits:
            return samples
        i = min(fits, key=lambda i: (len(samples[i]), i))
        run = pipeline.run_commands(cmds[i:i + 1], runner)
        ops.add_commands(run)
        if not run.ok:
            return None
        samples[i].append(run.stages[0])


def traced_run(workload, seed, work, irissr, ops, run_id) -> dict:
    """Per-layer metrics from one traced in-process pass and its plain twin.

    Each pass runs the set-up commands and the pipeline on the same corpus;
    the wall-time gap between the twins is the tracing overhead. An untimed
    plain pass runs first: the first pass in a process runs 15-20% slower
    than later ones, which would otherwise show as negative overhead.
    """
    config = pipeline.write_config(os.path.join(work, "config.json"), workload)
    manifest = pipeline.build_corpus(os.path.join(work, "corpus"), workload, seed,
                                     irissr.dataset, irissr.raster)

    def run_pass(out, tracer=None):
        def runner(stage, argv):
            return pipeline.run_inprocess(stage, argv, irissr.cli, tracer)
        setup = pipeline.run_commands(
            pipeline.setup_commands(workload, manifest, out, config), runner)
        ops.add_commands(setup)
        if not setup.ok:
            return None
        run = pipeline.run_commands(pipeline.pipeline_commands(workload, out, config),
                                    runner)
        ops.add_pipeline(run, out)
        return setup.wall_s + run.wall_s if run.ok else None

    for name in ("warm-up", "plain"):
        plain_s = run_pass(os.path.join(work, name))
        if plain_s is None:
            return ops.result({})
    shutil.rmtree(os.path.join(work, "warm-up"))
    tracer = spans.Tracer(run_id)
    spans.install(tracer, {name: getattr(irissr, name) for name in spans.LAYERS})
    try:
        traced_s = run_pass(os.path.join(work, "traced"), tracer)
    finally:
        tracer.unwrap_all()
    if traced_s is None:
        return ops.result({})
    spans.write_jsonl(os.path.join(os.path.dirname(work),
                                   f"spans-{workload.name}-{seed}.jsonl"), tracer.spans)

    figures = per_layer_metrics(tracer.spans, ops.counters,
                                (traced_s - plain_s) / plain_s)
    for name in ("reproject.iterations", "sr.apply_backend.calls"):
        if figures[name][0] != ops.counters[name]:
            raise BenchError(f"traced {name} {figures[name][0]} != "
                             f"{ops.counters[name]} from the artifacts")
    return ops.result(figures)


def per_layer_metrics(traced_spans, counters: dict, overhead: float) -> dict:
    """Metric name -> (value, unit) for everything a traced run reports.

    Keypoints, trials and model bytes come from the artifacts; the rest
    from the spans.
    """
    figures = spans.function_figures(traced_spans)
    figures.update(spans.layer_figures(traced_spans))
    for name in ("siftmatch.keypoints", "fusion_eval.trials"):
        figures[name] = (counters.get(name, 0), "count")
    figures["eigenpatch.model_bytes"] = (counters.get("eigenpatch.model_bytes", 0), "B")
    stage_s = spans.stage_seconds(traced_spans)
    figures["trace.setup_s"] = (stage_s.get("prep", 0.0) + stage_s.get("degrade", 0.0),
                                "s")
    for stage in PIPELINE_STAGES:
        figures[f"trace.{stage}_s"] = (stage_s.get(stage, 0.0), "s")
    figures["trace.pipeline_s"] = (sum(stage_s.get(s, 0.0) for s in PIPELINE_STAGES),
                                   "s")
    figures["trace.overhead_frac"] = (overhead, "frac")
    return figures


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _read(path, default=None):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return default


def _cpu_model():
    for line in (_read("/proc/cpuinfo", "") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    out = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(idx, f)) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def _git_commit(root):
    """HEAD commit read from .git, or None where the tree is not a checkout."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if not head or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(root, ".git", "packed-refs"), "") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _steal_s():
    """CPU time the hypervisor gave to other guests so far, summed over CPUs."""
    fields = (_read("/proc/stat", "") or "").split("\n", 1)[0].split()
    if len(fields) > 8 and fields[0] == "cpu":
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return None


def _source_digest(src):
    """SHA-256 over the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "irissr", "*.py"))):
        h.update(f"{os.path.basename(path)}\0{pipeline.sha256_file(path)}\n".encode())
    return h.hexdigest()


def machine_facts(root, src, workload, seed):
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "caches": _caches(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(root),
            "source_sha256": _source_digest(src), "workload": workload.name,
            "jobs": workload.jobs, "seed": seed, "input_set": seed % INPUT_SETS,
            "loadavg_start": _read("/proc/loadavg"), "steal_s_start": _steal_s()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_golden():
    try:
        with open(GOLDEN) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def record_pass(workload, seed, work, irissr):
    """One subprocess set-up and pipeline pass; return its digests and counters."""
    env = dict(os.environ)
    config = pipeline.write_config(os.path.join(work, "config.json"), workload)
    out = os.path.join(work, "out")
    manifest = pipeline.build_corpus(os.path.join(work, "corpus"), workload, seed,
                                     irissr.dataset, irissr.raster)

    def runner(stage, argv):
        return pipeline.run_subprocess(stage, argv, env, os.path.join(work, "stages.log"))

    for cmds in (pipeline.setup_commands(workload, manifest, out, config),
                 pipeline.pipeline_commands(workload, out, config)):
        if not pipeline.run_commands(cmds, runner).ok:
            raise BenchError("a stage failed while recording golden digests")
    return {"digests": pipeline.digests(out), "counters": pipeline.counters(out)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="selects the input set (seed modulo %d)" % INPUT_SETS)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="untraced runs repeat the pipeline commands until this much "
                        "time passed since the first one started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="run set-up and the pipeline once and store their digests "
                        "in golden.json instead of checking them")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "irissr", "cli.py")):
        print("perfbench: no irissr sources at ./src/irissr; run from the "
              "repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    usable = len(os.sched_getaffinity(0))
    if workload.jobs > usable:
        print(f"perfbench: workload {workload.name} needs --jobs {workload.jobs} "
              f"but only {usable} CPUs are usable", file=sys.stderr)
        return 2

    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    import irissr
    import irissr.cli  # noqa: F401  (the package does not import cli itself)
    # backend exchange files stay under --out, inside the checkout
    os.environ.pop(irissr.sr.EXCHANGE_ENV, None)

    key = str(args.seed % INPUT_SETS)
    golden = load_golden()
    expected = golden.get(workload.name, {}).get(key)
    if expected is None and not args.record_golden:
        print(f"perfbench: golden.json has no entry for {workload.name} input set "
              f"{key}", file=sys.stderr)
        return 2

    facts = machine_facts(root, src, workload, args.seed)
    work = os.path.join(root, WORK_DIR, f"{workload.name}-{os.getpid()}")
    os.makedirs(work)
    ops = Ops(expected)
    try:
        if args.record_golden:
            entry = record_pass(workload, args.seed, work, irissr)
            golden.setdefault(workload.name, {})[key] = entry
            with open(GOLDEN, "w") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(json.dumps(entry["counters"]))
            return 0
        if args.trace:
            result = traced_run(workload, args.seed, work, irissr, ops,
                                run_id=f"{workload.name}-{args.seed}-{os.getpid()}")
        else:
            result = untraced_run(workload, args.seed, args.seconds, work, irissr, ops)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(os.path.join(root, WORK_DIR)):
            os.rmdir(os.path.join(root, WORK_DIR))

    facts["loadavg_end"] = _read("/proc/loadavg")
    start, end = facts.pop("steal_s_start"), _steal_s()
    facts["steal_s"] = None if start is None or end is None else end - start
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1



if __name__ == "__main__":
    sys.exit(main())
