"""Kinematic coupling between the wearer and the worn limb.

The human configuration splits into a part driven through a closed
kinematic chain (q_h1, a function of the limb joints q_s1) and a part tied
one-to-one to limb joints by a design coupling matrix (q_h2 = K q_s2).
Differentiating gives a block-diagonal rate map

    [qd_h1]   [ J_hat   0 ] [qd_s1]
    [qd_h2] = [   0     K ] [qd_s2]

which this module stores as a ``CoupledJacobian`` (the closed-chain block
comes from a map with a ``jacobian`` method, such as ``PlantEndpointMap``),
inverts (exactly when square, minimum-norm when the limb has spare joints)
and guards against singularities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Singular, ValidationError
from .numerics import svd_pinv
from .plant import AXES, PlantModel

#: default bound for singularity_guard
DEFAULT_COND_MAX = 1e6


@dataclass(frozen=True)
class CoupledJacobian:
    """Rate map from limb joints to human DoFs, stored as its two diagonal
    blocks (closed-chain block j_hat, design coupling k_couple)."""

    j_hat: np.ndarray
    k_couple: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "j_hat", np.atleast_2d(np.asarray(self.j_hat, float)))
        object.__setattr__(
            self, "k_couple", np.atleast_2d(np.asarray(self.k_couple, float))
        )

    @property
    def block(self) -> np.ndarray:
        """The assembled block-diagonal matrix [[j_hat, 0], [0, k_couple]]."""
        h1, s1 = self.j_hat.shape
        h2, s2 = self.k_couple.shape
        b = np.zeros((h1 + h2, s1 + s2))
        b[:h1, :s1] = self.j_hat
        b[h1:, s1:] = self.k_couple
        return b


class PlantEndpointMap:
    """Closed-chain map backed by a plant chain: selected endpoint
    coordinates as a function of that chain's joint vector, with an analytic
    Jacobian.  Coordinates are picked from ``AXES``; the other chains rest
    at ``q0``."""

    def __init__(self, model: PlantModel, chain: str, components: tuple[str, ...] = AXES):
        self.model = model
        self.chain = chain
        for c in components:
            if c not in AXES:
                raise ValidationError(f"unknown component {c!r}")
        self.rows = [AXES.index(c) for c in components]
        self.q_rest = model.q0
        self.sl = model.chain_slice(chain)

    def _full_q(self, q_chain) -> np.ndarray:
        q = self.q_rest.copy()
        q[self.sl] = q_chain
        return q

    def __call__(self, q_chain) -> np.ndarray:
        pt = self.model.state(self._full_q(q_chain)).point(self.chain)
        return pt.pos[self.rows]

    def jacobian(self, q_chain) -> np.ndarray:
        pt = self.model.state(self._full_q(q_chain)).point(self.chain)
        return pt.jac[np.ix_(self.rows, range(self.sl.start, self.sl.stop))]


def singularity_guard(j: CoupledJacobian, cond_max: float = DEFAULT_COND_MAX) -> float:
    """Return the 2-norm condition number of the assembled block; raise
    Singular when it exceeds ``cond_max`` (or is not finite)."""
    block = j.block
    if block.size == 0:
        return 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float(np.linalg.cond(block, 2))
    if not np.isfinite(cond) or cond > cond_max:
        raise Singular(cond, cond_max)
    return cond


def desired_joint_rates(
    j: CoupledJacobian, qdot_h, cond_max: float = DEFAULT_COND_MAX
) -> np.ndarray:
    """Limb joint rates realizing the requested human rates.

    ``qdot_h`` and the result are ordered by block: [h1-rates, h2-rates]
    in, [s1-rates, s2-rates] out.  Square closed-chain blocks are solved
    exactly; wide blocks (spare limb joints) take the minimum-norm solution.
    """
    qdh = np.asarray(qdot_h, dtype=float)
    h1, s1 = j.j_hat.shape
    h2 = j.k_couple.shape[0]
    if qdh.shape != (h1 + h2,):
        raise DimensionMismatch(f"qdot_h must have shape ({h1 + h2},), got {qdh.shape}")
    if s1 < h1:
        raise DimensionMismatch(
            "closed-chain block has fewer limb joints than human DoFs"
        )
    singularity_guard(j, cond_max)
    if s1 == h1:
        qd_s1 = np.linalg.solve(j.j_hat, qdh[:h1]) if h1 else np.zeros(0)
    else:
        qd_s1 = svd_pinv(j.j_hat) @ qdh[:h1]
    qd_s2 = np.linalg.solve(j.k_couple, qdh[h1:]) if h2 else np.zeros(0)
    return np.concatenate([qd_s1, qd_s2])

