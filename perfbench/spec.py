"""Workload definitions, importable without the program (run.py reads them).

Every input is fixed here: the scene, the models and the search seed.
README.md beside this file records why each workload exists and why the
workload seed of the command line does not change these inputs.
"""

#: Fixed hypervolume reference point for every workload: the worst value of
#: each minimised objective (normalised intensity 1, degradation 1 = no
#: change, negated normalised distance 0), so hypervolumes compare across
#: runs instead of moving with each run's own nadir.
HV_REFERENCE = (1.0, 1.0, 0.0)

#: The scene every workload attacks: objects on the left half only, as in
#: the quickstart example; the attack may only touch the right half.
SCENE_SEED = 7

#: Worker processes of the transfer plan.
TRANSFER_JOBS = 2

#: NSGA-II seed of the serial attacks and experiment seed of the transfer
#: plan.  It is pinned: one short search's front varies too much across
#: search seeds for a steady hypervolume (README.md has the figures).
SEARCH_SEED = 0

WORKLOADS = {
    "kitti-yolo": {
        "architecture": "yolo",
        "shape": (376, 1248),
        "population": 8,
        "generations": 2,
    },
    "detr-attack": {
        "architecture": "detr",
        "shape": (96, 320),
        "population": 32,
        "generations": 4,
    },
    "transfer-plan": {
        "models": (("yolo", 1), ("yolo", 2), ("detr", 1), ("detr", 2)),
        "shape": (96, 320),
        "population": 16,
        "generations": 4,
    },
}
