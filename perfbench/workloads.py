"""The benchmark's workloads: CLI arguments per call, drawn from a seed.

A single-run workload repeats ``fisherkpp run`` in cycles of three
calls. Seed 0 gives the configuration named in the README on every
call; any other seed gives each cycle a shuffled order of the three
shift parameters, so each call's beta is drawn from {sqrt2, 2, pi} and
every whole cycle holds the same set of runs. The final-time Linf error
and the cost of a call vary with beta; a run always completes its first
cycle of warm calls, so at every seed other than 0 it covers all three
betas and ``linf_err`` is the same.

The sweep workload runs all three betas in one ``fisherkpp convergence``
call; a non-zero seed shuffles their order. The step counts keep their
doubling order, which the CLI requires.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BETAS = ("sqrt2", "2", "pi")
DEFAULT_SEED = 0

# ref_nominal_s: the fastest time of the reference kernel (worker.py) at
# the workload's grid size on the host the bounds were set on, 2 vCPUs of
# a shared x86-64 machine; wall_s is scaled to that speed
WORKLOADS = {
    "mms-starter": {
        "command": "run",
        "args": ["--example", "manufactured", "-M", "6", "--nx", "48"],
        "beta": "2",
        "ref_nominal_s": 0.0090,
    },
    "wave-solve": {
        "command": "run",
        "args": ["--example", "wave", "-M", "80", "--nx", "160", "--gamma", "0.75"],
        "beta": "pi",
        "ref_nominal_s": 0.0105,
    },
    "mms-sweep-graded": {
        "command": "convergence",
        "args": ["--example", "manufactured", "--nx", "16",
                 "--sweep-m", "20,40,80", "--grids", "graded:0.75"],
        "betas": list(BETAS),
        "ref_nominal_s": 0.0075,
    },
}

# Final-time Linf errors of the unmodified solver, per beta (and per M for
# the sweep), read from the artifacts of each configuration.
REFERENCES = json.loads(Path(__file__).with_name("references.json").read_text())

# |linf - ref| <= ABS_TOL + REL_TOL * ref admits a change of solver or
# starter that keeps the discretisation (such changes moved the field by
# at most 6e-11) and rejects any change of the scheme's error.
ABS_TOL = 1e-9
REL_TOL = 1e-6


def cycles(name, seed):
    """Endless sequence of cycles; each cycle is a list of (argv, betas)."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    while True:
        if spec["command"] == "run":
            order = [spec["beta"]] * len(BETAS) if seed == DEFAULT_SEED \
                else rng.sample(BETAS, len(BETAS))
            yield [(["run", *spec["args"], "--beta", b], [b]) for b in order]
        else:
            order = spec["betas"] if seed == DEFAULT_SEED \
                else rng.sample(spec["betas"], len(spec["betas"]))
            yield [(["convergence", *spec["args"], "--betas", ",".join(order)], order)]


def grid_size(name):
    args = WORKLOADS[name]["args"]
    return int(args[args.index("--nx") + 1])


def first_cycle(name, seed):
    return next(cycles(name, seed))


def calls(name, seed):
    """Endless sequence of (argv, betas), one per CLI call, cycle after cycle."""
    return (call for cycle in cycles(name, seed) for call in cycle)


def config_key(betas):
    """Calls with the same key make the same integrations, in any order."""
    return ",".join(sorted(betas))


def expected_errors(name, betas):
    """{(beta label, M or None): reference Linf} for one repetition."""
    refs = REFERENCES[name]
    if WORKLOADS[name]["command"] == "run":
        return {(b, None): refs[b] for b in betas}
    return {(b, int(m)): v for b in betas for m, v in refs[b].items()}


def within_tolerance(linf, ref):
    return abs(linf - ref) <= ABS_TOL + REL_TOL * ref
