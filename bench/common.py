"""Workload definitions and helpers shared by the benchmark scripts.

Every script runs from the root of a source checkout and imports the
program from that checkout's ``src/`` directory, never from an installed
copy, so the numbers always belong to the tree under test.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Scratch space for generated collections, outputs and run records; listed
# in the repository's .gitignore.
RUNS_DIR = ROOT / ".bench_runs"

# BLAS stays single-threaded: the program's own worker pool is the only
# parallelism measured, and thread oversubscription would add noise.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The generator's default seed. Where a workload's work depends strongly on
# the planted geometry, the geometry stays at this seed and --seed only
# relabels proposals (see write_workload).
GEOMETRY_SEED = 7

# name -> (SynthSpec overrides, Config overrides, geometry fixed?).
WORKLOADS = {
    # The acceptance collection at the paper's operating point: 8 videos x 5
    # key frames x 9 proposals; matching is most of the run.
    "default": ({}, {}, True),
    # Few videos, 28 proposals per key frame: saliency matching of whole
    # frames against large pools is most of the run, containment next;
    # retrieval is capped at 20 proposals per side. A trellis holds at most
    # 28 candidates per key frame, so consistency and DP stay small.
    "wide": ({"videos_per_class": 2, "frames_per_video": 41, "num_distractors": 24}, {},
             True),
    # 16 short videos (48 key frames) at the half-margin descriptor noise:
    # retrieval's ~F^2 small-table matchings dominate. Three iterations (two
    # of region-matching retrieval) keep one round of it near ten seconds.
    "tall": ({"videos_per_class": 8, "frames_per_video": 41, "descriptor_noise": 0.11},
             {"iterations": 3}, False),
}


def require_src() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit 2."""
    if not (SRC / "tubeloc" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'tubeloc'}; "
              "run from the root of a tubeloc checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def pin_blas() -> None:
    """Must run before numpy is imported."""
    os.environ.update(BLAS_ENV)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workload_inputs(name: str, seed: int):
    """(SynthSpec, Config) of a workload at a seed."""
    from tubeloc.model import Config
    from tubeloc.synth import SynthSpec

    spec_kw, config_kw, fixed_geometry = WORKLOADS[name]
    return (SynthSpec(seed=GEOMETRY_SEED if fixed_geometry else seed, **spec_kw),
            Config(**config_kw))


def relabel_proposals(collection, planted, seed: int) -> None:
    """Permute the proposal ids of every frame, and the planted tubes with them.

    Ids are opaque labels: the permuted collection has the same geometry and
    appearance, so the same work, but every input and output record differs.
    """
    import numpy as np
    from tubeloc.model import Proposal

    rng = np.random.default_rng(seed)
    for vid, video in collection.videos.items():
        for t, frame in video.frames.items():
            if not frame.proposals:
                continue
            ids = rng.permutation(len(frame.proposals))
            relabel = {p.id: int(ids[i]) for i, p in enumerate(frame.proposals)}
            frame.proposals = sorted((Proposal(relabel[p.id], p.box, p.descriptor)
                                      for p in frame.proposals), key=lambda p: p.id)
            if t in planted.tubes[vid]:
                planted.tubes[vid][t] = relabel[planted.tubes[vid][t]]


def write_workload(name: str, seed: int, out_dir: Path) -> Path:
    """Generate a workload's collection plus its planted truth; returns the manifest."""
    from tubeloc.formats import save_collection
    from tubeloc.synth import generate_collection, save_planted

    spec, _config = workload_inputs(name, seed)
    collection, planted, _truths = generate_collection(spec)
    if WORKLOADS[name][2]:
        relabel_proposals(collection, planted, seed)
    manifest = save_collection(collection, out_dir)
    save_planted(planted, out_dir / "planted.jsonl")
    return manifest


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(threads: int) -> dict:
    """What a figure needs beside it to be reproduced."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted((SRC / "tubeloc").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": _git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": threads,
    }
