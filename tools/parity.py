"""Print one SHA-256 digest over the numbers the solver computes, so that
two checkouts can be compared bit for bit.

The digest covers, in a fixed order, the Step-1 transform
(_spliced_transform), the exponent (g_gamma) and the density solve(...).p
for vg, nig and the custom densities y^-0.5 e^-y (gamma 2),
1.43 y^-0.9 e^-1.02y (CGMY Y = 1.9, gamma 2) and e^-0.05y (gamma 1), at
M = 2^i for i = 7..14 on the window [2, 5] with d = 1, and at
t = 0.5, 1, 2.5 and 4.  Run it from the root of each checkout:

    python3 tools/parity.py

It imports the package from the src/ directory next to it, not from an
installed copy.  Equal digests mean every one of those arrays is equal.
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
    digest = hashlib.sha256()
    for model in MODELS:
        for i in EXPONENTS:
            euler = EulerParams(2 ** (i - model.i_offset), 2.0, 5.0, 1.0)
            grid = make_grid(model, euler)
            arrays = [_spliced_transform(model, grid)[0], g_gamma(model, grid)]
            arrays += [solve(model, grid, t, euler).p for t in TIMES]
            for arr in arrays:
                digest.update(np.ascontiguousarray(arr).tobytes())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
