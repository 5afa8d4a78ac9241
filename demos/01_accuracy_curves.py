"""Accuracy-curve family on a synthetic prediction log.

Builds a 60-class taxonomy with three superclasses, synthesizes a prediction
trajectory whose early errors stay inside the true superclass, and compares
the hypernym label space against a size-matched random control through the
whole metric family: A, relative accuracy, relative gain, residual error,
convergence epochs, and the closed-form accuracy prediction.
"""

import numpy as np

from hierkit.hierarchy import parse_hierarchy
from hierkit.labelspace import (build_labelspace, parse_grouping, project_log,
                                random_isomorphic)
from hierkit.metrics import (accuracy_series, baseline, convergence_epoch,
                             relative_accuracy, relative_gain, residual_error,
                             theoretical_superclass_accuracy)
from hierkit.synth import gen_prediction_trajectory

SIZES = [20, 20, 20]
EPOCHS = 12
SEED = 0


def grouped_taxonomy(sizes):
    edges, classes, grouping = [], [], []
    ci = 0
    for gi, size in enumerate(sizes):
        edges.append(f"root\tg{gi}")
        grouping.append(f"g{gi}\tg{gi}")
        for _ in range(size):
            edges.append(f"g{gi}\tn{ci}")
            classes.append(f"{ci}\tn{ci}")
            ci += 1
    h = parse_hierarchy(edges, classes)
    space, _ = build_labelspace(h, parse_grouping(grouping), name="hypernyms")
    return h, space


h, space = grouped_taxonomy(SIZES)
control, _ = random_isomorphic(space, SEED + 100)

# hyponym accuracy ramps up; early wrong answers mostly stay in-superclass
accuracy = np.linspace(0.15, 0.92, EPOCHS)
within = np.linspace(0.9, 0.2, EPOCHS)
log = gen_prediction_trajectory(h, space, EPOCHS, accuracy, within,
                                examples=30_000, seed=SEED)

a_hypo = accuracy_series(log)
a_hyper = accuracy_series(project_log(log, space))
a_rand = accuracy_series(project_log(log, control))

b = baseline(space)
print(f"classes {h.class_count}, superclasses {space.sizes.tolist()}, "
      f"chance baseline {100 * b:.2f}%")
print()
print("epoch   A(hypo)  A(hyper)  A(rand)   A_R(hyper)  G_R(hyper)  G_R(rand)")
ar = relative_accuracy(a_hyper)
gh = relative_gain(a_hyper, b)
gr = relative_gain(a_rand, b)
for i, t in enumerate(a_hypo.epochs):
    print(f"{t:5d}   {a_hypo.values[i]:6.2f}   {a_hyper.values[i]:6.2f}   "
          f"{a_rand.values[i]:6.2f}      {ar.values[i]:6.3f}      "
          f"{gh.values[i]:6.3f}      {gr.values[i]:6.3f}")

print()
for name, series in (("hypernyms", a_hyper), ("random", a_rand)):
    t95 = convergence_epoch(series)
    print(f"{name:10s} reaches 95% of peak accuracy at epoch {t95}")

# residual error compares distance from the endpoint, signed
e_hyper = residual_error(a_hyper)
print(f"\nresidual error, hypernym space: starts {e_hyper.values[0]:+.2f}, "
      f"ends {e_hyper.values[-1]:+.2f}")

# the closed-form prediction from the final hyponym accuracy alone
p_h = a_hypo.values[-1] / 100
predicted = theoretical_superclass_accuracy(p_h, control)
print(f"\nfinal epoch: random-space accuracy {a_rand.values[-1]:.2f}% "
      f"vs closed form {100 * predicted:.2f}% (uniform errors assumed)")
