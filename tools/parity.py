"""Print one SHA-256 digest per stage of the numbers the solver computes,
so that two checkouts can be compared bit for bit, stage by stage.

The digests cover, in a fixed order, the Step-1 transform
(_spliced_transform) as `step1`, the exponent (g_gamma) as `exponent` and
the density solve(...).p as `density`, each for vg, nig and the custom
densities y^-0.5 e^-y (gamma 2), 1.43 y^-0.9 e^-1.02y (CGMY Y = 1.9,
gamma 2) and e^-0.05y (gamma 1), at
M = 2^i for i = 7..14 on the window [2, 5] with d = 1, and at
t = 0.5, 1, 2.5 and 4.  Run it from the root of each checkout:

    python3 tools/parity.py

It imports the package from the src/ directory next to it, not from an
installed copy.  An equal digest means every array of that stage is
equal, so the first digest that differs names the first stage a change
alters.
"""
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from levyfourier.euler_ft import EulerParams  # noqa: E402
from levyfourier.solver import (_spliced_transform, custom_model, g_gamma,  # noqa: E402
                                make_grid, nig_model, solve, vg_model)

MODELS = (
    vg_model(),
    nig_model(),
    custom_model("y^-0.5 e^-y", 2, lambda y: y ** -0.5 * np.exp(-y)),
    custom_model("cgmy-1.9", 2, lambda y: 1.43 * y ** -0.9 * np.exp(-1.02 * y)),
    custom_model("e^-0.05y", 1, lambda y: np.exp(-0.05 * y)),
)
EXPONENTS = range(7, 15)
TIMES = (0.5, 1.0, 2.5, 4.0)


def main() -> None:
    digests = {stage: hashlib.sha256() for stage in ("step1", "exponent", "density")}
    for model in MODELS:
        for i in EXPONENTS:
            euler = EulerParams(2 ** (i - model.i_offset), 2.0, 5.0, 1.0)
            grid = make_grid(model, euler)
            arrays = [("step1", _spliced_transform(model, grid)[0]),
                      ("exponent", g_gamma(model, grid))]
            arrays += [("density", solve(model, grid, t, euler).p) for t in TIMES]
            for stage, arr in arrays:
                digests[stage].update(np.ascontiguousarray(arr).tobytes())
    for stage, digest in digests.items():
        print(stage, digest.hexdigest())


if __name__ == "__main__":
    main()
