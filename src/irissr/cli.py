"""Command-line pipeline: synth / prep / degrade / sr / quality / match / eval.

Stages communicate only through artifacts on disk (PGM images, CSV manifests
and score files, JSON stage metadata), so external SR backends can be plugged
in and intermediates inspected. Binary PGM (P5) is the only image format, the
manifest's images included. Each stage meta records the hashes of its
outputs and the fingerprints of the upstream metas it read; a stage verifies
both across all its ancestors, so a rerun that changes a stage makes what was
built from it stale, and an identical rerun does not. The tables are built
from stage records only: each `quality` run rebuilds `quality/quality.csv`
from the summary rows of the quality metas, and `eval` reads only the score
files a checked match meta hashes and writes every table in `eval/`, and
the run summary's stage timings, from this run's checked records.

`quality` stores each prep image's reference maps (`quality.reference_maps`)
in `quality/reference/`, as every (method, factor) set is scored against the
same prep images. The store is not a stage's output: each file is a tagged
`.npz` (`raster.save_npz`) whose `store_tag` digests the whole package's
source and holds the fingerprint of the `prep` stage, so an edit to any
package module or a rerun of `prep` rebuilds it, and a file that cannot be
read back intact exits 3. `sr` keeps no eigen-patch model: each eigen-patch
command trains one in memory, a few milliseconds more than reading it back.

Each config key is read by one stage; later stages read what upstream stages
recorded. Every command checks the whole configuration before it does any
work, including the method string and the `--factor` label, so a typo fails
the same way in `sr`, `quality` and `match`.

Each command imports the package modules it uses when it runs, so a command
pays only for its own; they are still called through module attributes.

`--jobs` is the only parallelism in a stage command: this module sets
`OPENBLAS_NUM_THREADS=1` before it loads numpy, unless the caller set it, so
BLAS runs on the stage's (or worker's) own thread and the outputs do not
depend on the machine's core count. Backend commands inherit the setting.

Exit codes: 0 ok, 2 bad config/usage or input data the configuration cannot
process, 3 missing or stale input artifact, 4 unwritable output, 5 external
backend failure, 1 unexpected error.
"""

import argparse
import csv
import functools
import glob
import hashlib
import json
import math
import os
import shlex
import sys
import tempfile
import time

# read once, when numpy loads: extra BLAS threads busy-wait on the cores that
# --jobs workers use, and their split moves last bits with the core count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from . import reproject as reproject_mod  # the config defaults of re-projection
from .errors import BackendError, InputError

EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_UNWRITABLE = 4
EXIT_BACKEND = 5

DEFAULT_CONFIG = {
    "crop_side": 231,
    "target_sclera_radius": 110.88,
    "synth_size": 231,
    "seeds": 20,
    "sessions": 3,
    "train_subjects": 6,
    "factors": {"1/2": [115, 115], "1/4": [57, 57],
                "1/8": [29, 29], "1/16": [15, 15]},
    "blur_sigma": None,  # null -> 0.5 * reduction factor per axis maximum
    "method": "bicubic",
    "backends": {},      # name -> {"command": ..., optional "exchange_dir", "timeout"}
    "reproject": False,
    "tau": reproject_mod.DEFAULT_TAU,
    "reproject_tol": reproject_mod.DEFAULT_TOL,
    "reproject_max_iter": reproject_mod.DEFAULT_MAX_ITER,
    "comparators": ["lg", "sift", "fused"],
    "fusion_split": False,
    "jobs": 1,
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# config and artifact helpers
# ---------------------------------------------------------------------------

def load_config(args) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if getattr(args, "config", None):
        try:
            user = _read_json(args.config)
        except FileNotFoundError:
            raise CliError(EXIT_MISSING_INPUT, f"config file not found: {args.config}")
        except OSError as exc:  # a directory, or no read permission
            raise CliError(EXIT_CONFIG, f"unreadable config file {args.config}: "
                                        f"{exc.strerror}")
        except ValueError as exc:  # bad JSON or encoding, or an int too long to convert
            raise CliError(EXIT_CONFIG, f"bad config JSON in {args.config}: {exc}")
        if not isinstance(user, dict):
            raise CliError(EXIT_CONFIG,
                           f"config file {args.config} must hold a JSON object")
        unknown = set(user) - set(cfg)
        if unknown:
            raise CliError(EXIT_CONFIG, f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    # flags win over the config file
    for key in ("jobs", "method", "tau", "reproject_tol", "reproject_max_iter",
                "seeds", "sessions", "reproject", "fusion_split"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "comparators", None):
        cfg["comparators"] = [c.strip() for c in args.comparators.split(",") if c.strip()]
    validate_config(cfg)
    label = getattr(args, "factor", None)
    if label is not None and label not in cfg["factors"]:
        raise CliError(EXIT_CONFIG,
                       f"factor {label!r} not in config (have {sorted(cfg['factors'])})")
    return cfg


# Numeric config key -> (type, comparison, bound). A float key also takes an
# int; a bool is neither. Every value must be finite. blur_sigma may also be null.
NUMERIC_KEYS = {
    "crop_side": (int, ">=", 1),
    "target_sclera_radius": (float, ">", 0),
    "synth_size": (int, ">=", 64),
    "seeds": (int, ">=", 1),
    "sessions": (int, ">=", 1),
    "train_subjects": (int, ">=", 0),
    "blur_sigma": (float, ">=", 0),
    "tau": (float, ">=", 0),
    "reproject_tol": (float, ">", 0),
    "reproject_max_iter": (int, ">=", 1),
    "jobs": (int, ">=", 1),
}


def validate_config(cfg: dict) -> None:
    for key, (kind, op, bound) in NUMERIC_KEYS.items():
        val = cfg[key]
        if key == "blur_sigma" and val is None:
            continue
        if isinstance(val, bool) or not isinstance(val, (kind, int)) \
                or not (val > bound if op == ">" else val >= bound):
            raise CliError(EXIT_CONFIG, f"{key} must be {kind.__name__} {op} {bound}")
        # an int above the float range turns into inf as a float
        if not val <= sys.float_info.max:
            raise CliError(EXIT_CONFIG, f"{key} must be finite")
    for key in ("reproject", "fusion_split"):
        if not isinstance(cfg[key], bool):
            raise CliError(EXIT_CONFIG, f"{key} must be true or false")
    if not isinstance(cfg["factors"], dict):
        raise CliError(EXIT_CONFIG, "factors must map each label to a [w, h] size")
    seen_sizes, seen_slugs = set(), set()
    for label, size in cfg["factors"].items():
        if not isinstance(size, (list, tuple)) or len(size) != 2 or not all(
                isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in size):
            raise CliError(EXIT_CONFIG,
                           f"factor {label!r} needs a [w, h] size of ints >= 1")
        key = tuple(size)
        if key in seen_sizes:
            raise CliError(EXIT_CONFIG, f"factor {label!r} duplicates an LR size")
        seen_sizes.add(key)
        # each factor's files live under a directory named by its slug
        slug = factor_slug(label)
        if not _is_path_component(slug) or slug in seen_slugs:
            raise CliError(EXIT_CONFIG, f"factor {label!r} gives the directory name "
                           f"{slug!r}, which is not one new path component")
        seen_slugs.add(slug)
    comparators = cfg["comparators"]
    if not isinstance(comparators, list) or \
            not all(isinstance(comp, str) for comp in comparators):
        raise CliError(EXIT_CONFIG, "comparators must be a list of names")
    for comp in comparators:
        if comp not in ("lg", "sift", "fused"):
            raise CliError(EXIT_CONFIG, f"unknown comparator {comp!r}")
    if len(set(comparators)) != len(comparators):
        raise CliError(EXIT_CONFIG, f"comparators listed twice: {comparators}")
    if not {"lg", "sift"} & set(comparators):
        raise CliError(EXIT_CONFIG, "comparators must include lg or sift")
    backends = cfg["backends"]
    if not isinstance(backends, dict) or not all(
            isinstance(entry, dict) and isinstance(entry.get("command"), str)
            for entry in backends.values()):
        raise CliError(EXIT_CONFIG,
                       'backends must map each name to {"command": "<string>", ...}')
    for name, entry in backends.items():
        if not _is_path_component(name):
            raise CliError(EXIT_CONFIG, f"backend name {name!r} must be one path "
                           f"component: it names the SR directory")
        unknown = set(entry) - {"command", "exchange_dir", "timeout"}
        if unknown:
            raise CliError(EXIT_CONFIG, f"backend {name!r}: unknown keys "
                           f"{sorted(unknown)}")
        try:  # an unclosed quotation or a trailing escape raises
            tokens = shlex.split(entry["command"])
        except ValueError:
            tokens = []
        if not tokens:
            raise CliError(EXIT_CONFIG, f"backend {name!r}: command must parse into "
                           f"at least one token, got {entry['command']!r}")
        exchange = entry.get("exchange_dir")
        if "exchange_dir" in entry and not (isinstance(exchange, str) and exchange):
            raise CliError(EXIT_CONFIG, f"backend {name!r}: exchange_dir must be a "
                           f"non-empty path, got {exchange!r}")
        limit = entry.get("timeout")
        if limit is not None and (isinstance(limit, bool)
                                  or not isinstance(limit, (int, float))
                                  or not 0 < limit < math.inf):
            raise CliError(EXIT_CONFIG, f"backend {name!r}: timeout must be a "
                           f"positive number of seconds, got {limit!r}")
    method = cfg["method"]
    if not isinstance(method, str):
        raise CliError(EXIT_CONFIG, "method must be a string")
    if method.startswith("backend:"):
        name = method.split(":", 1)[1]
        if name not in backends:
            raise CliError(EXIT_CONFIG,
                           f"backend {name!r} not configured under config['backends']")
    elif method not in ("bilinear", "bicubic", "eigenpatch"):
        raise CliError(EXIT_CONFIG, f"unknown method {method!r}")


def _is_path_component(name: str) -> bool:
    """True when `name` is one directory entry: no separator, not `.` or `..`."""
    return name not in ("", ".", "..") and os.path.basename(name) == name


# stage meta `extra` keys that say how a run went, not what it made
RUN_FACTS = ("extract_s", "extract_workers", "backend_call_s",
             "reference_built", "reference_reused")


def fingerprint(obj: dict) -> str:
    """SHA-256 of the sort_keys JSON of a config or a stage meta, leaving out
    a meta's timings, worker count and reference-map counts, so that
    identical reruns match at any `--jobs` and over a cold or warm store."""
    body = {k: v for k, v in obj.items() if k != "elapsed_seconds"}
    if "extra" in body:
        body["extra"] = {k: v for k, v in body["extra"].items() if k not in RUN_FACTS}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


# the package source a store's tag digests
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))


def store_tag(upstream: str) -> str:
    """The tag of a stored `.npz` built from the stage whose fingerprint is
    `upstream`: the JSON of a SHA-256 over the name and bytes of every `*.py`
    file of this package, with numpy's version, and `upstream`. An edit to any
    package module or a rerun of that stage makes what is stored stale."""
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(SOURCE_DIR) if n.endswith(".py")):
        with open(os.path.join(SOURCE_DIR, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return json.dumps([f"{digest.hexdigest()} numpy {np.__version__}", upstream])


def file_sha(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_meta(path, stage) -> dict:
    """The stage meta at `path`; content that is not a JSON object, whose
    `inputs` (its lineage) or `outputs` is not a map of strings, or whose
    `extra` is there but not a map, ends the command with exit 3."""
    try:
        meta = _read_json(path)
    except (OSError, ValueError):  # ValueError: bad JSON or encoding
        meta = None
    if not isinstance(meta, dict):
        raise CliError(EXIT_MISSING_INPUT, f"stale {stage} stage: unreadable {path}")
    for key in ("inputs", "outputs"):
        value = meta.get(key)
        # JSON object keys are strings already
        if not isinstance(value, dict) or not all(isinstance(v, str)
                                                  for v in value.values()):
            raise CliError(EXIT_MISSING_INPUT, f"stale {stage} stage: {key} of "
                           f"{path} is missing or not a map of strings")
    if not isinstance(meta.get("extra", {}), dict):
        raise CliError(EXIT_MISSING_INPUT,
                       f"stale {stage} stage: extra of {path} is not a map")
    return meta


def read_extra(meta, stage_dir, stage, key):
    """`extra[key]` of the checked `stage` meta in `stage_dir`, for each
    upstream field a command reads; a value that is missing or not what the
    table below says (a bool is no number) ends the command with exit 3."""
    kind, valid = {
        "crop_side": ("an int >= 1", lambda v: type(v) is int and v >= 1),
        "lr_size": ("two ints >= 1", lambda v: type(v) is list and len(v) == 2
                    and all(type(n) is int and n >= 1 for n in v)),
        "sigma": ("a finite number >= 0",
                  lambda v: type(v) in (int, float) and 0 <= v < math.inf),
        "method": ("a string", lambda v: type(v) is str),
        "factor": ("a string", lambda v: type(v) is str),
        "summary_rows": ("a list of rows of six strings", lambda v: type(v) is list
                         and all(type(row) is list and len(row) == 6
                                 and all(type(c) is str for c in row) for row in v)),
    }[key]
    value = meta.get("extra", {}).get(key)
    if not valid(value):
        path = os.path.join(stage_dir, f"stage_{stage}.json")
        raise CliError(EXIT_MISSING_INPUT, f"stale {stage} stage: extra {key} of "
                       f"{path} is missing or not {kind}")
    return value


def ensure_dir(path) -> str:
    try:
        os.makedirs(path, exist_ok=True)
        # an unnamed file: commands sharing `path` cannot remove each other's
        tempfile.TemporaryFile(dir=path).close()
    except OSError as exc:
        raise CliError(EXIT_UNWRITABLE, f"output directory not writable: {path} ({exc})")
    return path


def write_stage_meta(stage_dir, stage, inputs, outputs, elapsed, extra=None) -> None:
    """`inputs`: the fingerprint of each upstream meta read, by path under --out."""
    meta = {
        "stage": stage,
        "inputs": inputs,
        "elapsed_seconds": round(elapsed, 3),
        "outputs": {os.path.relpath(p, stage_dir): file_sha(p) for p in outputs},
    }
    if extra:
        meta["extra"] = extra
    with open(os.path.join(stage_dir, f"stage_{stage}.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_stage(out_root, stage_dir, stage, inputs, metas=None) -> dict:
    """Verify a completed upstream stage: meta present, output hashes intact,
    every ancestor meta as its consumer recorded it (by fingerprint; ancestor
    outputs are not hashed again). Adds the meta's fingerprint to `inputs`,
    and the meta and each checked ancestor, by path under `out_root`, to
    `metas` when given."""
    meta_path = os.path.join(stage_dir, f"stage_{stage}.json")
    if not os.path.exists(meta_path):
        raise CliError(EXIT_MISSING_INPUT,
                       f"missing upstream artifact: {meta_path} (run `{stage}` first)")
    meta = _read_meta(meta_path, stage)
    for rel, sha in meta["outputs"].items():
        path = os.path.join(stage_dir, rel)
        if not os.path.exists(path):
            raise CliError(EXIT_MISSING_INPUT, f"stale {stage} stage: missing {path}")
        if file_sha(path) != sha:
            raise CliError(EXIT_MISSING_INPUT,
                           f"stale {stage} stage: hash mismatch for {path}")
    pending = list(meta["inputs"].items())
    while pending:
        rel, recorded = pending.pop()
        path = os.path.join(out_root, rel)
        ancestor = _read_meta(path, stage) if os.path.exists(path) else {}
        if fingerprint(ancestor) != recorded:
            raise CliError(EXIT_MISSING_INPUT, f"stale {stage} stage: {rel}, which it "
                           f"was built from, is missing or has changed")
        pending += ancestor["inputs"].items()
        if metas is not None:
            metas[rel] = ancestor
    rel = os.path.relpath(meta_path, out_root)
    inputs[rel] = fingerprint(meta)
    if metas is not None:
        metas[rel] = meta
    return meta


def _write_csv(path, header, rows) -> str:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


def _read_csv(path) -> list:
    """Every row of a CSV file, the header first."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def pool_size(jobs: int, n_items: int) -> int:
    """Workers `_pmap` starts for `n_items` at `--jobs`; 0 runs them in the caller."""
    return min(jobs, n_items) if jobs > 1 and n_items > 1 else 0


def _pmap(fn, items, jobs: int, processes: bool = False):
    """`[fn(item) for item in items]` on `pool_size` threads or, with
    `processes`, forked worker processes, which need a picklable `fn` (a
    module-level function or a `functools.partial` of one). Threads serve
    work that releases the interpreter lock (FFTs, file and process I/O);
    processes serve work that holds it (per-keypoint SIFT in Python). BLAS
    runs on each worker's own thread, so the pool is the only parallelism.
    Results come back in item order; a worker's exception is re-raised here,
    and a worker that dies raises `BrokenProcessPool`."""
    workers = pool_size(jobs, len(items))
    if not workers:
        return [fn(item) for item in items]
    if processes:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
    with pool as ex:
        return list(ex.map(fn, items))


def factor_slug(label: str) -> str:
    return label.replace("/", "_")


def method_dir(cfg) -> str:
    """Directory name of the SR run the config selects, e.g. `backend-nn2x-rp`."""
    return cfg["method"].replace(":", "-", 1) + ("-rp" if cfg["reproject"] else "")


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def cmd_synth(cfg, args) -> int:
    from . import dataset, raster

    t0 = time.perf_counter()
    out = ensure_dir(os.path.join(args.out, "synth"))
    img_dir = ensure_dir(os.path.join(out, "images"))
    seeds, sessions, size = cfg["seeds"], cfg["sessions"], cfg["synth_size"]
    jobs = [(seed, session) for seed in range(seeds) for session in range(sessions)]

    def render(job):
        seed, session = job
        img, ann = dataset.synth_iris(seed, size, jitter=session)
        name = f"s{seed:03d}_j{session}.pgm"
        raster.write_pgm(os.path.join(img_dir, name), img)
        return dataset.ManifestRecord(
            image_path=os.path.join("images", name),
            subject_id=f"s{seed:03d}", session=session, annotation=ann)

    records = _pmap(render, jobs, cfg["jobs"])
    manifest = os.path.join(out, "manifest.csv")
    dataset.save_manifest(manifest, records)
    outputs = [manifest] + [os.path.join(img_dir, f"s{s:03d}_j{j}.pgm")
                            for s, j in jobs]
    write_stage_meta(out, "synth", {}, outputs, time.perf_counter() - t0,
                     extra={"seeds": seeds, "sessions": sessions, "size": size})
    print(f"synth: {len(records)} images -> {out}")
    return 0


def cmd_prep(cfg, args) -> int:
    from . import dataset, raster

    t0 = time.perf_counter()
    inputs = {}
    if args.manifest:
        manifest_path = args.manifest
        src_root = os.path.dirname(os.path.abspath(manifest_path))
    else:
        synth_dir = os.path.join(args.out, "synth")
        check_stage(args.out, synth_dir, "synth", inputs)
        manifest_path = os.path.join(synth_dir, "manifest.csv")
        src_root = synth_dir
    if not os.path.exists(manifest_path):
        raise CliError(EXIT_MISSING_INPUT, f"manifest not found: {manifest_path}")
    records = dataset.load_manifest(manifest_path)
    firsts = {}  # prep writes each image to images/<file name>
    for rec in records:
        path = os.path.join(src_root, rec.image_path)
        if not os.path.isfile(path):
            raise CliError(EXIT_MISSING_INPUT, f"manifest image not found: {path}")
        first = firsts.setdefault(os.path.basename(path), rec.image_path)
        if first != rec.image_path:
            raise CliError(EXIT_CONFIG, f"{manifest_path}: manifest paths {first!r} "
                           f"and {rec.image_path!r} share one file name")

    out = ensure_dir(os.path.join(args.out, "prep"))
    img_dir = ensure_dir(os.path.join(out, "images"))
    side, radius = cfg["crop_side"], cfg["target_sclera_radius"]

    def process(rec):
        img = raster.read_pgm(os.path.join(src_root, rec.image_path))
        rec.annotation.check_in_bounds(img.shape[1], img.shape[0])
        return rec, dataset.preprocess(img, rec.annotation, radius, side)

    results = _pmap(process, records, cfg["jobs"])
    kept, discarded = [], []
    for rec, payload in results:
        if payload is None:
            discarded.append(rec)
            continue
        cropped, ann = payload
        name = os.path.basename(rec.image_path)
        raster.write_pgm(os.path.join(img_dir, name), cropped)
        kept.append(dataset.ManifestRecord(
            image_path=os.path.join("images", name),
            subject_id=rec.subject_id, session=rec.session, annotation=ann))

    manifest = os.path.join(out, "manifest.csv")
    dataset.save_manifest(manifest, kept)
    sidecar = _write_csv(
        os.path.join(out, "discarded.csv"), ["path", "subject", "session", "reason"],
        ([rec.image_path, rec.subject_id, rec.session, "crop-out-of-bounds"]
         for rec in discarded))

    outputs = [manifest, sidecar] + [
        os.path.join(img_dir, os.path.basename(r.image_path)) for r in kept]
    write_stage_meta(out, "prep", inputs, outputs, time.perf_counter() - t0,
                     extra={"kept": len(kept), "discarded": len(discarded),
                            "crop_side": side, "target_sclera_radius": radius})
    print(f"prep: kept {len(kept)}, discarded {len(discarded)} -> {out}")
    return 0


def stage_records(meta, prep_records):
    """The prep records of the images a stage wrote, in manifest order (trial
    order, and so the bytes of the score files, follow it)."""
    names = {os.path.basename(rel) for rel in meta["outputs"]}
    return [r for r in prep_records if os.path.basename(r.image_path) in names]


def _load_prep(out_root, inputs):
    from . import dataset

    prep_dir = os.path.join(out_root, "prep")
    meta = check_stage(out_root, prep_dir, "prep", inputs)
    records = dataset.load_manifest(os.path.join(prep_dir, "manifest.csv"))
    return prep_dir, meta, records


def cmd_degrade(cfg, args) -> int:
    from . import dataset, raster

    t0 = time.perf_counter()
    inputs = {}
    prep_dir, prep, records = _load_prep(args.out, inputs)
    _, records = dataset.split_by_subject(records, cfg["train_subjects"])
    if not records:
        raise CliError(EXIT_CONFIG, "no target records left after the subject split")
    label = args.factor
    lr_size = cfg["factors"][label]
    side = read_extra(prep, prep_dir, "prep", "crop_side")
    sigma = float(cfg["blur_sigma"]) if cfg["blur_sigma"] is not None \
        else raster.antialias_sigma(side, side, lr_size[0], lr_size[1])

    out = ensure_dir(os.path.join(args.out, "lr", factor_slug(label)))
    lr_dir = ensure_dir(os.path.join(out, "lr"))

    def process(rec):
        img = raster.read_pgm(os.path.join(prep_dir, rec.image_path))
        name = os.path.basename(rec.image_path)
        raster.write_pgm(os.path.join(lr_dir, name),
                         dataset.simulate_lr(img, lr_size[0], lr_size[1], sigma))
        return name

    names = _pmap(process, records, cfg["jobs"])
    outputs = [os.path.join(lr_dir, n) for n in names]
    write_stage_meta(out, "degrade", inputs, outputs, time.perf_counter() - t0,
                     extra={"factor": label, "lr_size": list(lr_size),
                            "sigma": sigma, "records": len(names)})
    print(f"degrade[{label}]: {len(names)} images at {lr_size[0]}x{lr_size[1]} "
          f"(sigma {sigma:.3f}) -> {out}")
    return 0


def _resolve_method(cfg, out_root, label, degrade, prep_dir, train_recs):
    """(model, backend): the model and backend the validated method needs,
    each None when it needs none. The model is an eigen-patch model trained
    in memory on `train_recs` at the `degrade` record's LR size and blur. The
    backend is a config entry with its exchange directory resolved and
    checked writable."""
    from . import eigenpatch, raster, sr

    method = cfg["method"]
    if method == "eigenpatch":
        if not train_recs:
            raise CliError(EXIT_CONFIG,
                           "eigenpatch training needs train_subjects > 0")
        hr_images = [raster.read_pgm(os.path.join(prep_dir, r.image_path))
                     for r in train_recs]
        lr_stage = os.path.join(out_root, "lr", factor_slug(label))
        lr_w, lr_h = read_extra(degrade, lr_stage, "degrade", "lr_size")
        model = eigenpatch.train(hr_images, lr_w, lr_h,
                                 read_extra(degrade, lr_stage, "degrade", "sigma"))
        return model, None
    if not method.startswith("backend:"):
        return None, None
    name = method.split(":", 1)[1]
    entry = cfg["backends"][name]
    exchange = entry.get("exchange_dir") or os.environ.get(sr.EXCHANGE_ENV) \
        or os.path.join(out_root, "exchange", name)
    return None, {**entry, "exchange_dir": ensure_dir(exchange)}


def cmd_sr(cfg, args) -> int:
    from . import raster, sr

    t0 = time.perf_counter()
    inputs = {}
    prep_dir, prep, prep_records = _load_prep(args.out, inputs)
    label = args.factor
    lr_stage = os.path.join(args.out, "lr", factor_slug(label))
    degrade = check_stage(args.out, lr_stage, "degrade", inputs)
    records = stage_records(degrade, prep_records)
    targets = {r.image_path for r in records}
    train_recs = [r for r in prep_records if r.image_path not in targets]

    model, backend = _resolve_method(cfg, args.out, label, degrade, prep_dir,
                                     train_recs)
    method_name = method_dir(cfg)
    side = read_extra(prep, prep_dir, "prep", "crop_side")
    sigma = read_extra(degrade, lr_stage, "degrade", "sigma")

    out = ensure_dir(os.path.join(args.out, "sr", method_name, factor_slug(label)))
    img_dir = ensure_dir(os.path.join(out, "images"))

    def process(rec):
        name = os.path.basename(rec.image_path)
        lr = raster.read_pgm(os.path.join(lr_stage, "lr", name))
        call_s = []
        img, passes = sr.super_resolve(lr, side, side, cfg["method"], model=model,
                                       backend=backend, call_s=call_s)
        iters, converged = 0, False
        if cfg["reproject"]:
            img, iters, converged = reproject_mod.reproject(
                img, lr, sigma, tau=cfg["tau"], tol=cfg["reproject_tol"],
                max_iter=cfg["reproject_max_iter"])
        raster.write_pgm(os.path.join(img_dir, name), img)
        return name, passes, iters, converged, call_s

    results = _pmap(process, records, cfg["jobs"])
    outputs = [os.path.join(img_dir, name) for name, _, _, _, _ in results]
    extra = {"factor": label, "method": method_name,
             "passes": [p for _, p, _, _, _ in results],
             "reproject_iterations": [i for _, _, i, _, _ in results],
             "tau": cfg["tau"], "tol": cfg["reproject_tol"]}
    line = f"sr[{method_name}, {label}]: {len(results)} images -> {out}"
    if backend is not None:
        extra["backend_call_s"] = {name: [round(sec, 4) for sec in call_s]
                                   for name, _, _, _, call_s in results}
    if cfg["reproject"]:
        converged = [c for _, _, _, c, _ in results]
        extra["reproject_converged"] = converged
        line += (f" ({converged.count(False)} not converged within "
                 f"{cfg['reproject_max_iter']} iterations)")
    write_stage_meta(out, "sr", inputs, outputs, time.perf_counter() - t0,
                     extra=extra)
    print(line)
    return 0


def _load_sr(cfg, args, inputs):
    """The checked SR stage of the configured method at `--factor`: the prep
    directory, the SR directory and the prep records of its images."""
    prep_dir, _, prep_records = _load_prep(args.out, inputs)
    sr_dir = os.path.join(args.out, "sr", method_dir(cfg), factor_slug(args.factor))
    records = stage_records(check_stage(args.out, sr_dir, "sr", inputs), prep_records)
    return prep_dir, sr_dir, records


QUALITY_HEADER = ["method", "factor", "region", "psnr", "ssim", "fsim"]


def _quality_stages(quality_dir) -> list:
    """The stage name of every quality meta in `quality_dir`, sorted."""
    return [os.path.basename(path)[len("stage_"):-len(".json")] for path in
            sorted(glob.glob(os.path.join(quality_dir, "stage_quality_*.json")))]


def _reference_maps(path, tag, ref, ann):
    """The reference maps of one prep image (`quality.reference_maps`) and
    whether they were built here: read back from the store at `path` when it
    holds `tag`, otherwise built and stored there. A file that cannot be
    read back intact ends the command with exit 3."""
    from . import quality, raster

    try:
        maps = raster.load_npz(path, tag, quality.REFERENCE_MAPS)
    except InputError as exc:
        raise CliError(EXIT_MISSING_INPUT, f"stale quality reference: {exc}")
    if maps is not None:
        return maps, False
    maps = quality.reference_maps(ref, ann)
    raster.save_npz(path, tag, **maps)
    return maps, True


def cmd_quality(cfg, args) -> int:
    from . import quality, raster

    t0 = time.perf_counter()
    inputs = {}
    prep_dir, sr_dir, records = _load_sr(cfg, args, inputs)
    label = args.factor
    spec_method = method_dir(cfg)
    out = ensure_dir(os.path.join(args.out, "quality"))
    # the reference side of every set over this prep stage, stored once per
    # image and tagged with what it was built from
    ref_dir = ensure_dir(os.path.join(out, "reference"))
    tag = store_tag(inputs[os.path.join("prep", "stage_prep.json")])

    def process(rec):
        name = os.path.basename(rec.image_path)
        ref = raster.read_pgm(os.path.join(prep_dir, rec.image_path))
        test = raster.read_pgm(os.path.join(sr_dir, "images", name))
        maps, built = _reference_maps(os.path.join(ref_dir, name + ".npz"), tag,
                                      ref, rec.annotation)
        full, iris = quality.region_report(ref, test, rec.annotation, maps)
        return name, full, iris, built

    results = _pmap(process, records, cfg["jobs"])
    built = sum(r[3] for r in results)
    detail_path = _write_csv(
        os.path.join(out, f"detail_{spec_method}_{factor_slug(label)}.csv"),
        ["image", "region", "psnr", "ssim", "fsim"],
        ([name, rep.region, f"{quality.psnr_for_table(rep.psnr):.6f}",
          f"{rep.ssim:.6f}", f"{rep.fsim:.6f}"]
         for name, full, iris, _ in results for rep in (full, iris)))

    summary_rows = []
    for region_idx, region in ((1, "full"), (2, "iris")):
        reps = [r[region_idx] for r in results]
        mean_psnr = float(np.mean([quality.psnr_for_table(r.psnr) for r in reps]))
        mean_ssim = float(np.mean([r.ssim for r in reps]))
        mean_fsim = float(np.mean([r.fsim for r in reps]))
        summary_rows.append([spec_method, label, region,
                             f"{mean_psnr:.6f}", f"{mean_ssim:.6f}",
                             f"{mean_fsim:.6f}"])
        print(f"quality[{spec_method}, {label}, {region}]: "
              f"psnr {mean_psnr:.2f} ssim {mean_ssim:.4f} fsim {mean_fsim:.4f}")

    # quality.csv gathers every method and factor, so it is no stage's own
    # output: each meta records its own rows, and the table is rebuilt from
    # the metas (their lineage unchecked here; eval checks the ones it gathers)
    write_stage_meta(out, f"quality_{spec_method}_{factor_slug(label)}", inputs,
                     [detail_path], time.perf_counter() - t0,
                     extra={"summary_rows": summary_rows, "reference_built": built,
                            "reference_reused": len(results) - built})
    print(f"quality[{spec_method}, {label}]: reference maps of {len(results)} "
          f"images: {built} built, {len(results) - built} reused -> {ref_dir}")
    _write_csv(os.path.join(out, "quality.csv"), QUALITY_HEADER, sorted(
        row for stage in _quality_stages(out) for row in read_extra(
            _read_meta(os.path.join(out, f"stage_{stage}.json"), stage), out, stage,
            "summary_rows")))
    return 0


def _extract(sr_dir, feat_dir, comparators, rec):
    """One SR image's features by comparator, its `.npz` written when SIFT is
    among them: (image name, features, seconds taken)."""
    from . import iriscode, raster, siftmatch

    t = time.perf_counter()
    name = os.path.basename(rec.image_path)
    img = raster.read_pgm(os.path.join(sr_dir, "images", name))
    feats = {}
    if "lg" in comparators:
        feats["lg"] = iriscode.encode(iriscode.unwrap(img, rec.annotation))
    if "sift" in comparators:
        kps, feats["sift"] = siftmatch.detect_describe(
            img, annulus=siftmatch.iris_annulus(rec.annotation))
        siftmatch.save_features(os.path.join(feat_dir, name + ".npz"),
                                kps, feats["sift"])
    return name, feats, time.perf_counter() - t


def cmd_match(cfg, args) -> int:
    from . import fusion_eval, iriscode, siftmatch

    t0 = time.perf_counter()
    inputs = {}
    _, sr_dir, records = _load_sr(cfg, args, inputs)
    label = args.factor
    method_name = method_dir(cfg)
    comparators = [c for c in cfg["comparators"] if c != "fused"]

    out = ensure_dir(os.path.join(args.out, "scores", method_name,
                                  factor_slug(label)))
    feat_dir = ensure_dir(os.path.join(out, "features"))
    # remove what an earlier, wider match left here and this run does not write
    written = {os.path.basename(rec.image_path) + ".npz"
               for rec in records} if "sift" in comparators else set()
    stale = [os.path.join(out, f"{comp}.csv") for comp in ("lg", "sift")
             if comp not in comparators]
    stale += [os.path.join(feat_dir, name) for name in os.listdir(feat_dir)
              if name.endswith(".npz") and name not in written]
    for path in stale:
        if os.path.exists(path):
            os.remove(path)

    # scores come from the features in memory; the pipeline never reads the
    # .npz files back (perfbench counts their keypoints). Extraction holds
    # the interpreter lock, so it runs in worker processes.
    extracted = _pmap(functools.partial(_extract, sr_dir, feat_dir, comparators),
                      records, cfg["jobs"], processes=True)
    features = {name: feats for name, feats, _ in extracted}
    ids = [(rec.subject_id, os.path.basename(rec.image_path)) for rec in records]
    genuine, impostor = fusion_eval.make_trials(ids)
    pairs = [(p, g, fusion_eval.GENUINE) for p, g in genuine]
    pairs += [(p, g, fusion_eval.IMPOSTOR) for p, g in impostor]

    outputs = [os.path.join(feat_dir, name + ".npz")
               for name in features if "sift" in comparators]
    for comp in comparators:
        compare = iriscode.hamming if comp == "lg" else siftmatch.match_score
        values = [compare(features[p][comp], features[g][comp]) for p, g, _ in pairs]
        outputs.append(_write_csv(
            os.path.join(out, f"{comp}.csv"), ["probe", "gallery", "score", "comparator"],
            ([probe, gallery, repr(value), comp.upper()]
             for (probe, gallery, _), value in zip(pairs, values))))
    outputs.append(_write_csv(os.path.join(out, "labels.csv"),
                              ["probe", "gallery", "label"], pairs))

    extra = {"factor": label, "method": method_name,
             "genuine": len(genuine), "impostor": len(impostor),
             "extract_s": {name: round(sec, 4) for name, _, sec in extracted},
             "extract_workers": pool_size(cfg["jobs"], len(records))}
    line = (f"match[{method_name}, {label}]: {len(genuine)} genuine / "
            f"{len(impostor)} impostor pairs -> {out}")
    # per image: SIFT keypoints (none quietly scores 0) and the valid share
    # of LG bits
    if "sift" in comparators:
        extra["sift_keypoints"] = {name: len(feats["sift"])
                                   for name, feats in features.items()}
        empty = sum(n == 0 for n in extra["sift_keypoints"].values())
        line += f" ({empty} of {len(features)} images without SIFT keypoints)"
    if "lg" in comparators:
        extra["lg_valid_fraction"] = {name: float(feats["lg"].mask.mean())
                                      for name, feats in features.items()}
    write_stage_meta(out, "match", inputs, outputs, time.perf_counter() - t0,
                     extra=extra)
    print(line)
    return 0


def cmd_eval(cfg, args) -> int:
    from . import fusion_eval, iriscode, siftmatch

    polarity = {"lg": iriscode.SCORE_POLARITY, "sift": siftmatch.SCORE_POLARITY,
                "fused": "genuine_high"}
    t0 = time.perf_counter()
    scores_root = os.path.join(args.out, "scores")
    if not os.path.isdir(scores_root):
        raise CliError(EXIT_MISSING_INPUT, f"no scores directory at {scores_root}")
    out = ensure_dir(os.path.join(args.out, "eval"))
    inputs, metas = {}, {}  # metas: every meta the tables were checked against
    quality_dir = os.path.join(args.out, "quality")
    quality_rows = []
    for stage in _quality_stages(quality_dir):
        meta = check_stage(args.out, quality_dir, stage, inputs, metas)
        quality_rows += read_extra(meta, quality_dir, stage, "summary_rows")

    # every file read below is one the checked match meta hashes; match
    # writes the labels and each score file from one pair list, so their
    # rows line up by position
    comp_names = [c for c in cfg["comparators"] if c != "fused"]
    eer_rows, roc_rows, trial_counts = [], [], {}
    for method_name in sorted(os.listdir(scores_root)):
        if not os.path.isdir(os.path.join(scores_root, method_name)):
            continue
        for slug in sorted(os.listdir(os.path.join(scores_root, method_name))):
            score_dir = os.path.join(scores_root, method_name, slug)
            if not os.path.isdir(score_dir):
                continue
            match = check_stage(args.out, score_dir, "match", inputs, metas)
            method = read_extra(match, score_dir, "match", "method")
            label = read_extra(match, score_dir, "match", "factor")
            for comp in comp_names:
                if f"{comp}.csv" not in match["outputs"]:
                    raise CliError(EXIT_MISSING_INPUT,
                                   f"no {comp} scores recorded by the match stage "
                                   f"in {score_dir} (rerun match with {comp})")
            # one row per trial, one column per comparator
            scores = np.array([[float(row[2]) for row in
                                _read_csv(os.path.join(score_dir, f"{comp}.csv"))[1:]]
                               for comp in comp_names], dtype=np.float64).T
            # dtype=bool keeps an empty label file a usable mask
            genuine = np.array(
                [row[2] == fusion_eval.GENUINE for row in
                 _read_csv(os.path.join(score_dir, "labels.csv"))[1:]], dtype=bool)

            scored = [(comp, scores[:, idx], genuine)
                      for idx, comp in enumerate(comp_names)]
            if "fused" in cfg["comparators"]:
                fit = test = slice(None)
                if cfg["fusion_split"]:
                    fit, test = slice(0, None, 2), slice(1, None, 2)
                weights = fusion_eval.train_fusion(scores[fit][genuine[fit]],
                                                   scores[fit][~genuine[fit]])
                scored.append(("fused", fusion_eval.fuse(weights, scores[test]),
                               genuine[test]))
            for comp, values, is_genuine in scored:
                rate, roc = fusion_eval.eer(values[is_genuine], values[~is_genuine],
                                            polarity[comp])
                eer_rows.append([method, label, comp.upper(), f"{rate:.6f}"])
                roc_rows += ([method, label, comp.upper(), repr(float(t)),
                              f"{fa:.6f}", f"{fr:.6f}"]
                             for t, fa, fr in zip(roc.thresholds, roc.far, roc.frr))
            n_genuine = int(genuine.sum())
            trial_counts[f"{method}/{factor_slug(label)}"] = {
                "trials": len(genuine), "genuine": n_genuine,
                "impostor": len(genuine) - n_genuine}

    if not eer_rows:
        raise CliError(EXIT_MISSING_INPUT, "no score sets found to evaluate")

    summary = {
        "config_hash": fingerprint(cfg)[:16],
        "versions": {
            "iris-sr": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            # as this process saw it; the import of this module pins it
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "stage_timings": {rel: meta.get("elapsed_seconds")
                          for rel, meta in metas.items()},
        "trial_counts": trial_counts,
    }
    # the EER, ROC and quality tables hold only what this run checked
    outputs = [
        _write_csv(os.path.join(out, "eer.csv"),
                   ["method", "factor", "comparator", "eer"], sorted(eer_rows)),
        _write_csv(os.path.join(out, "roc.csv"),
                   ["method", "factor", "comparator", "threshold", "far", "frr"],
                   roc_rows),
        _write_csv(os.path.join(out, "quality.csv"), QUALITY_HEADER,
                   sorted(quality_rows)),
    ]
    outputs.append(os.path.join(out, "run_summary.json"))
    with open(outputs[-1], "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    write_stage_meta(out, "eval", inputs, outputs, time.perf_counter() - t0)
    for row in eer_rows:
        print(f"eer[{row[0]}, {row[1]}, {row[2]}]: {row[3]}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irissr",
        description="Iris super-resolution evaluation pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, factor=False, method=False):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", required=True, help="pipeline output directory")
        p.add_argument("--jobs", type=int, default=None,
                       help="workers per stage: threads, but forked processes for "
                            "match's feature extraction (POSIX); match scores in "
                            "the stage process; outputs are identical for any N")
        if factor:
            p.add_argument("--factor", required=True,
                           help="factor label from the config (e.g. 1/16)")
        if method:
            p.add_argument("--method",
                           help="bilinear | bicubic | eigenpatch | backend:<name>")
            p.add_argument("--reproject", action="store_true", default=None,
                           help="the re-projected variant (sr applies iterative "
                                "re-projection after SR)")

    p = sub.add_parser("synth", help="generate the synthetic iris corpus")
    common(p)
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--sessions", type=int, default=None)

    p = sub.add_parser("prep", help="sclera normalization + pupil-centered crop")
    common(p)
    p.add_argument("--manifest", help="external manifest CSV (default: synth stage)")

    p = sub.add_parser("degrade", help="simulate the LR images")
    common(p, factor=True)

    p = sub.add_parser("sr", help="reconstruct LR images with the chosen method")
    common(p, factor=True, method=True)
    p.add_argument("--tau", type=float, default=None, help="re-projection step size")
    p.add_argument("--reproject-tol", dest="reproject_tol", type=float, default=None)
    p.add_argument("--reproject-max-iter", dest="reproject_max_iter", type=int,
                   default=None)

    p = sub.add_parser("quality", help="PSNR/SSIM/FSIM on full image and iris region")
    common(p, factor=True, method=True)

    p = sub.add_parser("match", help="comparator scores for all trial pairs")
    common(p, factor=True, method=True)
    p.add_argument("--comparators", help="comma list from {lg,sift,fused}")

    p = sub.add_parser("eval", help="EERs, ROC exports and the run summary")
    common(p)
    p.add_argument("--comparators", help="comma list from {lg,sift,fused}")
    p.add_argument("--fusion-split", dest="fusion_split", action="store_true",
                   default=None,
                   help="train fusion on a disjoint half of the trials")
    return parser


COMMANDS = {"synth": cmd_synth, "prep": cmd_prep, "degrade": cmd_degrade,
            "sr": cmd_sr, "quality": cmd_quality, "match": cmd_match,
            "eval": cmd_eval}


# Every module raises one of two errors: InputError (exit 2) or BackendError
# (exit 5). The command line's own CliError carries its exit code.
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return COMMANDS[args.command](cfg, args)
    except (CliError, InputError, BackendError) as exc:
        print(f"irissr {args.command}: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return EXIT_BACKEND if isinstance(exc, BackendError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
