"""Seeded request inputs for every workload.

Only the standard library is used here, so inputs are generated before
``levyfourier`` (and with it numpy and scipy) is imported: the set-up time of a
run then starts from a process that has imported nothing of the program. The
program receives plain floats and strings, never the seed.
"""
from __future__ import annotations

import random

WORKLOADS = ("cold-highres", "term-structure", "calib-sweep", "cli-batch")

# Distinct requests per run. The request stream cycles through them, so every
# run verifies each of them at least once and accuracy_digits depends on the
# seed alone, not on how many requests fit in the run.
POOL = 16


def _cold_highres(rng: random.Random) -> list:
    # The base alternates so both kinds are equally frequent in every run.
    return [{"base": ("vg", "nig")[k % 2],
             "c": rng.uniform(0.7, 1.4),
             "lam": rng.uniform(0.7, 1.4)} for k in range(POOL)]


def _term_structure(rng: random.Random) -> list:
    return [{"times": [rng.uniform(0.5, 4.0) for _ in range(8)]}
            for _ in range(POOL)]


def _calib_sweep(rng: random.Random) -> list:
    # Y runs over a fixed grid on [0.1, 1.9], so every run includes Y = 1.9,
    # where the accuracy is lowest (about 7.8 digits); a random Y would make
    # accuracy_digits depend on whether the seed happens to come near 1.9.
    ys = [0.1 + 1.8 * k / (POOL - 1) for k in range(POOL)]
    rng.shuffle(ys)
    return [{"C": rng.uniform(0.5, 1.5), "M": rng.uniform(1.0, 4.0), "Y": y}
            for y in ys]


def _cli_batch(rng: random.Random) -> list:
    # Three decimals keep the CLI's '%g' file names distinct.
    return [{"times": [ms / 1000 for ms in sorted(rng.sample(range(1000, 4001), 4))]}
            for _ in range(POOL)]


_MAKERS = {"cold-highres": _cold_highres, "term-structure": _term_structure,
           "calib-sweep": _calib_sweep, "cli-batch": _cli_batch}


def generate(workload: str, seed: int) -> list:
    """The request pool of one workload; equal seeds give equal pools."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
