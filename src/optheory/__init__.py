"""optheory: numerical verification of operational probabilistic theories.

The package provides a model-independent framework (states as probability
rules, transformations with occurrence probabilities, effects, Bayes
conditioning) with classical, quantum, and direct-sum instantiations, and
randomized verifiers for no-signaling, the trace-preservation equivalence,
local observability, and CHSH landmarks.
"""

from .framework import (
    Action,
    BipartiteModel,
    ClassicalBipartite,
    ClassicalModel,
    Effect,
    IncompleteAction,
    IndeterminateSpan,
    ModelMismatch,
    NotCoexistent,
    State,
    TheoryModel,
    Transformation,
    ZeroProbability,
    add_coexistent,
    commutation_defect,
    complement,
    compose,
    condition,
    dynamically_equivalent,
    effect_of,
    informationally_equivalent,
    model_invariant_suite,
    no_signaling_check,
    prob,
    scale,
    total_of_action,
)
from .boxes import (
    Box,
    OPTIMAL_CHSH_ANGLES,
    chsh_value,
    classical_chsh_max,
    is_nosignaling_box,
    pr_box,
    singlet_box,
)
from .directsum import (
    DSumBipartite,
    DSumLocalOp,
    DSumModel,
    DSumState,
    ds_commutation_defect,
    ds_condition,
    ds_joint_prob,
    ds_local_effect_span,
    ds_local_prob,
    ds_nosig_check,
)
from .linalg import (
    direct_sum,
    hermitian_coords,
    min_eig_herm,
    partial_trace,
    span_rank,
    tensor,
    trace_norm,
)
from .quantum import (
    Instrument,
    IncompleteInstrument,
    KrausOp,
    NotSelective,
    QuantumBipartite,
    QuantumModel,
    apply_quantum_op,
    local_embed,
    quantum_no_signaling_check,
    reduced_positivity_min_eig,
    singlet_state,
    steering_witness,
    trace_biconditional_check,
    x_instrument,
    z_instrument,
)
from .report import VerificationReport
from .tomography import (
    ICCertificate,
    NotInformationallyComplete,
    Observable,
    affine_dims,
    dimension_identity_check,
    expand_in_ic,
    ic_rank,
    local_observability_audit,
    minimal_ic_observable,
    product_observable,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
