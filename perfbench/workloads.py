"""The benchmark's workloads: which corpus each builds and which stages it runs.

Each workload loads one group of irissr layers and leaves the others nearly
idle, so a change to one layer moves one workload and is predicted to leave
the others unchanged. See README.md for the layer -> metric -> workload map.
"""

import random
from dataclasses import dataclass

# The workload seed selects one of this many input sets (seed modulo
# INPUT_SETS). golden.json holds the reference digests of every set.
INPUT_SETS = 16

# Identities are drawn from this range and passed to dataset.synth_iris.
IDENTITY_POOL = 100_000

SYNTH_SIZE = 231


@dataclass(frozen=True)
class Method:
    method: str     # irissr --method value
    factor: str     # factor label from the config
    reproject: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subjects: int         # identities in the corpus
    sessions: int         # jittered captures per identity
    train_subjects: int   # identities held out to train eigen-patch models
    jobs: int             # irissr --jobs for every stage
    methods: tuple        # Method, in the order the pipeline runs them
    config: tuple = ()    # extra (key, value) pairs for the irissr config

    @property
    def factors(self) -> list:
        return sorted({m.factor for m in self.methods})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="reproject16",
        why="bicubic + re-projection at 1/16: re-projection and its raster "
            "blur/resample calls do almost all the work",
        subjects=2, sessions=2, train_subjects=0, jobs=1,
        methods=(Method("bicubic", "1/16", reproject=True),),
        # Converging takes ~470-800 iterations depending on the identity, so
        # every image stops at this cap and the work does not depend on
        # which identities the seed draws (golden.json: 1200 = 4 x 300 on
        # every input set).
        config=(("reproject_max_iter", 300),),
    ),
    Workload(
        name="metrics4",
        why="plain bicubic at 1/4 on a 9x2 corpus: SSIM/FSIM and SIFT do most "
            "of the work, re-projection none",
        subjects=9, sessions=2, train_subjects=0, jobs=1,
        methods=(Method("bicubic", "1/4"),),
    ),
    Workload(
        name="exchange",
        why="external x2 backend at 1/16 plus eigen-patch at 1/4, --jobs 2: "
            "process and file exchange, model training and its large file",
        subjects=4, sessions=2, train_subjects=2, jobs=2,
        methods=(Method("backend:nn2x", "1/16"), Method("eigenpatch", "1/4")),
    ),
)}


def identities(workload: Workload, seed: int) -> list:
    """The synthetic identities (synth_iris seeds) of the workload's corpus."""
    rng = random.Random(f"{workload.name}/{seed % INPUT_SETS}")
    return sorted(rng.sample(range(IDENTITY_POOL), workload.subjects))
