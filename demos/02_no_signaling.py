"""No-signaling from commuting local transformations, then the quantum case.

First the generic fact on a classical composite: once embedded local
transformations commute, a complete action on one side is invisible from
the other.  Then the quantum tensor product: measuring the singlet in the
z or x basis never moves the remote reduced state, even though each single
outcome steers the remote conditional state.
"""

import numpy as np

from optheory import (
    ClassicalBipartite,
    KrausOp,
    commutation_defect,
    no_signaling_check,
    quantum_no_signaling_check,
    singlet_state,
    steering_witness,
    x_instrument,
    z_instrument,
)
from optheory.sampling import trial_rng

# --- generic: commutation, then invisibility -------------------------------
bip = ClassicalBipartite(2, 2)
rng = trial_rng(2026)

worst = max(
    commutation_defect(
        bip, bip.left.random_transformation(rng), bip.right.random_transformation(rng)
    )
    for _ in range(20)
)
print("embedded classical ops commute up to", worst)

correlated = bip.joint.state([0.5, 0.0, 0.0, 0.5])
action = bip.left.random_action(rng, 3)
probes = [bip.right.random_transformation(rng) for _ in range(4)]
report = no_signaling_check(correlated, action, bip, probes, tol=1e-10)
print(report.summary())

# --- quantum: the singlet communication scheme fails ------------------------
rho = singlet_state()
for name, inst in (("z-basis", z_instrument()), ("x-basis", x_instrument())):
    rep = quantum_no_signaling_check(rho, inst, 2, 2, tol=1e-12)
    print(f"{name} instrument on the singlet: remote defect {rep.max_defect:.2e}")

# Each selective outcome DOES steer the remote conditional state; only the
# average over a complete instrument is constrained.
witness = steering_witness(rho, KrausOp([np.diag([1.0, 0.0])]), 2, 2)
print(
    "steering: conditional remote state moved by",
    witness.witness["conditional_distance"],
    "in trace norm, averaged instrument defect",
    witness.witness["average_defect"],
)
