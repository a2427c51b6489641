"""Outside-in tracing of the irissr layers: spans, self time, tails.

The benchmark replaces public module attributes of the irissr package with
wrappers that record one span per call. The package calls its layers through
module attributes (`raster.gaussian_blur(...)`, or a bare name that resolves
in the module's globals), so a wrapper installed with `setattr` sees every
call, including calls a module makes to its own functions. Nothing under
`src/` changes.

Spans stay in memory; per-layer figures are derived from them after the run.
"""

import collections
import dataclasses
import functools
import itertools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Which figures are reported for each wrapped function, by module. Every
# function listed here is wrapped in a traced run; a function that does no
# work on a workload reports zeros.
LAYERS = {
    "cli": {"check_stage": ("self_s",), "file_sha": ("calls",),
            "write_stage_meta": ("self_s",)},
    "dataset": {"preprocess": ("self_s",), "simulate_lr": ("self_s",)},
    "raster": {"gaussian_blur": ("calls", "self_s"),
               "upsample_linear": ("calls", "self_s"),
               "degrade_linear": ("calls", "self_s"),
               "read_pgm": ("calls", "self_s"),
               "write_pgm": ("calls", "self_s")},
    "reproject": {"reproject": ("calls", "self_s", "p50_ms", "tail_ms")},
    "sr": {"super_resolve": ("calls", "self_s"),
           "apply_backend": ("calls", "p50_ms", "tail_ms", "failed")},
    "eigenpatch": {"train": ("self_s",), "save_model": ("self_s",),
                   "reconstruct": ("calls", "p50_ms")},
    "quality": {"ssim": ("calls", "self_s", "p50_ms"),
                "phase_congruency": ("calls", "self_s", "p50_ms"),
                "fsim": ("self_s",), "psnr": ("self_s",),
                "region_report": ("calls",)},
    "iriscode": {"unwrap": ("calls", "self_s"), "encode": ("calls", "self_s"),
                 "hamming": ("calls", "self_s", "p50_ms")},
    "siftmatch": {"detect_describe": ("calls", "self_s", "p50_ms", "tail_ms"),
                  "match_score": ("calls", "self_s")},
    "fusion_eval": {"train_fusion": ("self_s",), "eer": ("calls", "self_s")},
}

UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms",
         "tail_pct": "%", "failed": "count"}

# Candidate percentiles for `tail_ms`, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    run: str
    start: float
    end: float = 0.0
    failed: bool = False
    value: object = None  # what a wrapper's `note` hook kept from the call


class Tracer:
    """Records spans for wrapped functions and for the benchmark's stage calls.

    A span's parent is the innermost open span on the same thread. A span
    opened on a thread with no open span (a `--jobs` pool thread) takes the
    current stage span as its parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.stage_id: int | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else self.stage_id
        with self._lock:
            span_id = next(self._ids)
        sp = Span(span_id, name, parent, threading.get_ident(), self.run_id,
                  time.perf_counter())
        stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def stage(self, name: str):
        """Span around one stage call; pool-thread spans attach to it."""
        with self.span(f"stage.{name}") as sp:
            self.stage_id = sp.id
            try:
                yield sp
            finally:
                self.stage_id = None

    def wrap(self, module, attr: str, note=None) -> None:
        """Replace `module.attr` with a traced wrapper until `unwrap_all`.

        `note(args, result)`, when given, returns a value kept on the span.
        """
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
                if note is not None:
                    sp.value = note(args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _note_reproject(args, result):
    _img, iterations, converged = result
    return iterations, bool(converged)


def _note_file_sha(args, result):
    return os.path.getsize(args[0])


NOTES = {("reproject", "reproject"): _note_reproject,
         ("cli", "file_sha"): _note_file_sha}


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every function in LAYERS; `modules` maps layer name to module."""
    for layer, funcs in LAYERS.items():
        for func in funcs:
            tracer.wrap(modules[layer], func, NOTES.get((layer, func)))


def write_jsonl(path: str, spans) -> None:
    """Write one JSON object per span."""
    with open(path, "w") as fh:
        for sp in spans:
            fh.write(json.dumps(dataclasses.asdict(sp)) + "\n")


# ---------------------------------------------------------------------------
# derived figures
# ---------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by its child spans.

    Children on other threads (pool spans under a stage span) may overlap
    each other; only their union is subtracted.
    """
    children = collections.defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.id: (sp.end - sp.start) - covered(children[sp.id], sp.start, sp.end)
            for sp in spans}


def tail(durations):
    """(percentile, value) for the highest percentile in TAIL_PERCENTILES
    with at least TAIL_MIN_BEYOND samples above its nearest rank. With too
    few samples for any of them it is the slowest sample, reported as
    percentile 100; with none it is (0.0, 0.0).
    """
    xs = sorted(durations)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        rank = -(-round(pct * 10) * n // 1000)  # nearest rank, exact in integers
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return pct, xs[rank - 1]
    return (100.0, xs[-1]) if xs else (0.0, 0.0)


def function_figures(spans) -> dict:
    """Metric name -> (value, unit) for every function in LAYERS."""
    own = self_times(spans)
    by_name = collections.defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
    out = {}
    for layer, funcs in LAYERS.items():
        for func, figures in funcs.items():
            name = f"{layer}.{func}"
            calls = by_name.get(name, [])
            durations_ms = [(sp.end - sp.start) * 1e3 for sp in calls]
            for fig in figures:
                if fig == "calls":
                    value = len(calls)
                elif fig == "self_s":
                    value = sum(own[sp.id] for sp in calls)
                elif fig == "p50_ms":
                    value = statistics.median(durations_ms) if calls else 0.0
                elif fig == "failed":
                    value = sum(sp.failed for sp in calls)
                else:  # tail_ms, reported with the percentile it was taken at
                    pct, value = tail(durations_ms)
                    out[f"{name}.tail_pct"] = (pct, UNITS["tail_pct"])
                out[f"{name}.{fig}"] = (value, UNITS[fig])
    return out


def layer_figures(spans) -> dict:
    """Per-layer metrics that need more than one function's spans."""
    by_name = collections.defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    rp = by_name.get("reproject.reproject", [])
    iterations = sum(sp.value[0] for sp in rp if sp.value)
    converged = sum(sp.value[1] for sp in rp if sp.value)
    rp_seconds = sum(sp.end - sp.start for sp in rp)

    # backend concurrency: call time over the wall time of the sr stages
    # that made backend calls
    backend = by_name.get("sr.apply_backend", [])
    stage_of = _stage_index(spans)
    sr_stages = {stage_of[sp.id] for sp in backend}
    sr_wall = sum(sp.end - sp.start for sp in spans if sp.id in sr_stages)
    backend_s = sum(sp.end - sp.start for sp in backend)

    return {
        "reproject.iterations": (iterations, "count"),
        "reproject.converged_frac": (converged / len(rp) if rp else 0.0, "frac"),
        "reproject.ms_per_iter": (1e3 * rp_seconds / iterations if iterations else 0.0,
                                  "ms"),
        "sr.apply_backend.concurrency": (backend_s / sr_wall if sr_wall else 0.0,
                                         "ratio"),
        "cli.file_sha.bytes": (sum(sp.value or 0 for sp in by_name.get("cli.file_sha", [])),
                               "B"),
    }


def stage_seconds(spans) -> dict:
    """Stage name -> summed wall time of its stage spans."""
    out = collections.defaultdict(float)
    for sp in spans:
        if sp.name.startswith("stage."):
            out[sp.name[len("stage."):]] += sp.end - sp.start
    return dict(out)


def _stage_index(spans) -> dict:
    """Span id -> id of the stage span it ran under (None if none)."""
    parent = {sp.id: sp.parent for sp in spans}
    is_stage = {sp.id for sp in spans if sp.name.startswith("stage.")}
    out = {}
    for sp in spans:
        node = sp.id
        while node is not None and node not in is_stage:
            node = parent.get(node)
        out[sp.id] = node
    return out
