"""Informational completeness, affine dimensions, and local observability.

An observable is informationally complete (IC) when every effect is a
linear combination of its outcomes; it is minimal when those outcomes are
linearly independent.  For a composite system, local observability asks
whether jointly measured local IC observables can be IC for the composite.
Tensor composites pass; the direct-sum composite cannot, because every
locally generated joint effect is block-diagonal.  Passing forces the
dimension identity adm(S12) = adm(S1) adm(S2) + adm(S1) + adm(S2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .framework import BipartiteModel, Effect, TheoryModel, TOL_EFFECT, unit_sum_defect
from .linalg import full_rank_bound, rank_of_rows
from .report import Check, VerificationReport


# Products per call of ``BipartiteModel.product_payloads`` in ``product_rows``:
# no temporary holds more joint payloads than this.  At (6, 6) one call covers
# six left outcomes of the 36 x 36 quantum products, 4.5 MB of payloads;
# chunks of 72 to 432 products build those rows equally fast, all 1296 at
# once a third slower.
PRODUCT_CHUNK = 216


class NotInformationallyComplete(ValueError):
    """Expansion coefficients requested in an observable that is not IC."""


def _require_unit_sum(defect: float) -> None:
    if not defect <= TOL_EFFECT:  # a NaN defect fails too
        raise ValueError(f"effects do not sum to the unit: defect {defect:.3e}")


@dataclass(frozen=True, eq=False)
class Observable:
    """A complete measurement: effects summing to the unit effect.

    The constructor is the effects' boundary: it computes every effect's
    coordinates, which checks each one (a quantum effect must be Hermitian
    within ``TOL_HERM``), and then their sum."""

    model: TheoryModel
    effects: tuple[Effect, ...]

    def __init__(self, effects):
        effs = tuple(effects)
        if not effs:
            raise ValueError("an observable needs at least one effect")
        model = effs[0].model
        if any(e.model != model for e in effs):
            raise ValueError("all effects must be bound to one model")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "effects", effs)
        try:
            self.coordinate_rows()
            defect = unit_sum_defect(model, effs)
        except NotImplementedError as exc:
            raise ValueError("model does not expose dual effect coordinates") from exc
        _require_unit_sum(defect)

    def __len__(self) -> int:
        return len(self.effects)

    def coordinate_rows(self) -> np.ndarray:
        stack = self.model.stack_effects([e.payload for e in self.effects])
        return self.model.effect_coords(Effect(self.model, stack))


@dataclass(frozen=True, eq=False)
class ICCertificate:
    """Rank audit of an observable against its model's effect space."""

    observable: Observable
    rank: int
    effect_space_dim: int

    @property
    def informationally_complete(self) -> bool:
        return self.rank == self.effect_space_dim

    @property
    def minimal(self) -> bool:
        return self.informationally_complete and self.rank == len(self.observable)


def ic_rank(obs: Observable) -> ICCertificate:
    """Rank of the observable's effects under real-linear combinations."""
    return ICCertificate(
        observable=obs,
        rank=rank_of_rows(obs.coordinate_rows()),
        effect_space_dim=obs.model.effect_dim,
    )


def expand_in_ic(effect: Effect, obs: Observable) -> np.ndarray:
    """Coefficients c with effect = sum_i c_i * obs.effects[i].

    Least squares against the effect coordinates; the reconstruction
    residual must not exceed ``TOL_EFFECT``.  Unique when the observable is
    minimal.
    """
    if effect.model != obs.model:
        raise ValueError("effect and observable belong to different models")
    rows = obs.coordinate_rows()
    rank, dim = rank_of_rows(rows), obs.model.effect_dim
    if rank != dim:
        raise NotInformationallyComplete(f"observable has rank {rank} < {dim}")
    target = obs.model.effect_coords(effect)
    coeffs, *_ = np.linalg.lstsq(rows.T, target, rcond=None)
    residual = float(np.abs(rows.T @ coeffs - target).max())
    if residual > TOL_EFFECT:
        raise ValueError(f"reconstruction residual {residual:.3e} exceeds {TOL_EFFECT:.1e}")
    return coeffs


def affine_dims(model: TheoryModel) -> tuple[int, int]:
    """(affine dimension of states, linear dimension of effects).

    The state count is one below the effect count: normalization eats one
    dimension of the duality.
    """
    return model.effect_dim - 1, model.effect_dim


def minimal_ic_observable(model: TheoryModel) -> Observable:
    return Observable(model.minimal_ic_effects())


def _require_components(o1: Observable, o2: Observable, bip: BipartiteModel) -> None:
    if o1.model != bip.left or o2.model != bip.right:
        raise ValueError("observables must be bound to the bipartite components")


def product_observable(o1: Observable, o2: Observable, bip: BipartiteModel) -> Observable:
    """All pairwise products of two local observables, jointly measured."""
    _require_components(o1, o2, bip)
    stack = bip.product_payloads(o1.effects, o2.effects)
    return Observable(Effect(bip.joint, bip.joint.take(stack, k)) for k in range(len(o1) * len(o2)))


def product_rows(o1: Observable, o2: Observable, bip: BipartiteModel) -> np.ndarray:
    """Ambient coordinates of the effects of ``product_observable(o1, o2, bip)``,
    the product of outcomes i and j in row ``i * len(o2) + j``.

    The rows come from ``bip.product_payloads`` and ``bip.ambient_rows``, at
    most ``PRODUCT_CHUNK`` products per call, without an ``Effect`` per
    product.  As for an ``Observable``, their sum must equal the coordinates
    of the unit effect within ``TOL_EFFECT``; ``ambient_rows`` does not
    re-validate the products, so this check is also what refuses a NaN.
    """
    _require_components(o1, o2, bip)
    lefts, rights = o1.effects, o2.effects
    cols = min(len(rights), PRODUCT_CHUNK)
    step = PRODUCT_CHUNK // cols
    rows = np.empty((len(lefts), len(rights), bip.ambient_effect_dim))
    for i in range(0, len(lefts), step):
        for j in range(0, len(rights), cols):
            block = rows[i : i + step, j : j + cols]
            stack = bip.product_payloads(lefts[i : i + step], rights[j : j + cols])
            block[...] = bip.ambient_rows(stack).reshape(block.shape)
    rows = rows.reshape(-1, bip.ambient_effect_dim)
    unit = bip.ambient_rows(bip.joint.stack_effects([bip.joint.unit_effect().payload]))[0]
    _require_unit_sum(float(np.abs(rows.sum(axis=0) - unit).max()))
    return rows


def local_observability_audit(
    bip: BipartiteModel, seed: int = 0, expect_failure: bool = False
) -> VerificationReport:
    """Can local outcomes tomograph the composite?

    Passes when the jointly measured product of the components' built-in
    minimal IC observables (its coordinates from :func:`product_rows`) spans
    the composite's ambient effect space.  When it falls short, the rows of
    ``ambient + 32`` random local product effects join them, drawn as one
    stack by ``bip.random_product_rows`` (row k that of
    ``bip.random_product_effect(trial_rng(seed, k))``), and the rank of the
    union decides.
    ``trials`` counts the rows audited.  The details record ``linalg.full_rank_bound``
    of each row set: above ``FULL_RANK_MARGIN * RANK_TOL`` it certified full rank
    without an SVD, up to the QR's own rounding, which it does not cover (Higham, ch. 19).
    """
    rows = product_rows(minimal_ic_observable(bip.left), minimal_ic_observable(bip.right), bip)
    outcomes = len(rows)
    ambient = bip.ambient_effect_dim
    product_bound = full_rank_bound(rows)
    product_rank = rank = rank_of_rows(rows, bound=product_bound)
    bounds = {"product_full_rank_bound": product_bound}
    if product_rank < ambient:
        rows = np.concatenate([rows, bip.random_product_rows(seed, ambient + 32)])
        bounds["union_full_rank_bound"] = union_bound = full_rank_bound(rows)
        rank = rank_of_rows(rows, bound=union_bound)
    return VerificationReport.from_checks(
        "local-observability",
        seed,
        len(rows),
        [Check("rank_deficit", float(ambient - rank), 0.0)],
        0.0,
        expected_failure=expect_failure,
        details={
            "rank": rank,
            "ambient_effect_dim": ambient,
            "product_observable_rank": product_rank,
            "product_outcomes": outcomes,
            **bounds,
        },
    )


def dimension_identity_check(
    bip: BipartiteModel,
    seed: int = 0,
    audit: VerificationReport | None = None,
) -> VerificationReport:
    """Integer identity between composite and component state dimensions.

    Checks adm(S12) = adm(S1) adm(S2) + adm(S1) + adm(S2) exactly, plus the
    joint product-observable outcome count (adm(S1)+1)(adm(S2)+1).  When the
    local observability audit fails the identity is not expected to hold and
    the report is flagged accordingly.  The outcome count is that of the
    product observable the ``audit`` built; without a given audit, the audit
    runs here.
    """
    if audit is None:
        audit = local_observability_audit(bip, seed=seed)
    a1, _ = affine_dims(bip.left)
    a2, _ = affine_dims(bip.right)
    a12, _ = affine_dims(bip.joint)
    formula = a1 * a2 + a1 + a2
    outcomes = audit.details["product_outcomes"]
    expected_outcomes = (a1 + 1) * (a2 + 1)
    checks = [
        Check("dimension_identity", float(abs(a12 - formula)), 0.0),
        Check("product_outcomes", float(abs(outcomes - expected_outcomes)), 0.0),
    ]
    return VerificationReport.from_checks(
        "dimension-identity",
        seed,
        1,
        checks,
        0.0,
        expected_failure=not audit.passed,
        details={
            "adm_joint": a12,
            "adm_left": a1,
            "adm_right": a2,
            "formula": formula,
            "product_outcomes": outcomes,
            "expected_outcomes": expected_outcomes,
        },
    )


def audit_rows(d1: int, d2: int, seed: int = 0) -> list[dict]:
    """Audit table over the three composition rules at component sizes (d1, d2).

    One row per composite: classical, tensor quantum, direct sum.  Each row
    records affine dimensions of the joint model, the local observability
    verdict, and the dimension identity verdict.
    """
    from .directsum import DSumBipartite
    from .framework import ClassicalBipartite
    from .quantum import QuantumBipartite

    composites: list[tuple[str, BipartiteModel, bool]] = [
        (f"classical {d1}x{d2}", ClassicalBipartite(d1, d2), False),
        (f"quantum {d1}x{d2}", QuantumBipartite(d1, d2), False),
        (f"dsum {d1}+{d2}", DSumBipartite(d1, d2), True),
    ]
    rows = []
    for name, bip, expect_failure in composites:
        lop = local_observability_audit(bip, seed=seed, expect_failure=expect_failure)
        identity = dimension_identity_check(bip, seed=seed, audit=lop)
        adm_states, adm_effects = affine_dims(bip.joint)
        rows.append(
            {
                "model": name,
                "adm_states": adm_states,
                "adm_effects": adm_effects,
                "lop_rank": lop.details["rank"],
                "lop_ambient": lop.details["ambient_effect_dim"],
                "lop_pass": lop.passed,
                "lop_ok": lop.ok,
                "identity_pass": identity.passed,
                "identity_ok": identity.ok,
                "expected_failure": expect_failure,
            }
        )
    return rows
