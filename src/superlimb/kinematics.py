"""Kinematic coupling between the wearer and the worn limb.

The human configuration splits into a part driven through a closed
kinematic chain (q_h1, a function of the limb joints q_s1) and a part tied
one-to-one to limb joints by a design coupling matrix (q_h2 = K q_s2).
Differentiating gives a block-diagonal rate map

    [qd_h1]   [ J_hat   0 ] [qd_s1]
    [qd_h2] = [   0     K ] [qd_s2]

which this module builds, inverts (exactly when square, minimum-norm when
the limb has spare joints) and guards against singularities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Singular, ValidationError
from .numerics import svd_pinv
from .plant import AXES, PlantModel

ROTATIONAL = "rotational"
TRANSLATIONAL = "translational"

#: default bound for singularity_guard
DEFAULT_COND_MAX = 1e6


@dataclass(frozen=True)
class DofPartition:
    """Index sets splitting the limb vector into (s1, s2) and the human
    vector into (h1, h2).  s1 drives h1 through the closed chain; s2 drives
    h2 through the coupling matrix."""

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    h1: tuple[int, ...]
    h2: tuple[int, ...]

    def __post_init__(self):
        for name in ("s1", "s2", "h1", "h2"):
            object.__setattr__(self, name, tuple(int(i) for i in getattr(self, name)))

    def validate(self, n_s: int, n_h: int):
        if sorted(self.s1 + self.s2) != list(range(n_s)):
            raise ValidationError(
                f"s1+s2 must partition 0..{n_s - 1}, got {self.s1} and {self.s2}"
            )
        if sorted(self.h1 + self.h2) != list(range(n_h)):
            raise ValidationError(
                f"h1+h2 must partition 0..{n_h - 1}, got {self.h1} and {self.h2}"
            )


@dataclass(frozen=True)
class CoupledConfig:
    """A configuration of the coupled human-limb system.

    ``s_types`` / ``h_types`` tag every DoF as rotational or translational;
    the design coupling may only tie DoFs of like type together.
    """

    q_s: np.ndarray
    q_h: np.ndarray
    partition: DofPartition
    k_couple: np.ndarray
    s_types: tuple[str, ...]
    h_types: tuple[str, ...]

    def __post_init__(self):
        qs = np.asarray(self.q_s, dtype=float)
        qh = np.asarray(self.q_h, dtype=float)
        object.__setattr__(self, "q_s", qs)
        object.__setattr__(self, "q_h", qh)
        if qs.ndim != 1 or qh.ndim != 1:
            raise DimensionMismatch("q_s and q_h must be 1-D")
        self.partition.validate(qs.size, qh.size)
        if len(self.s_types) != qs.size or len(self.h_types) != qh.size:
            raise ValidationError("need one type tag per DoF")
        for t in self.s_types + self.h_types:
            if t not in (ROTATIONAL, TRANSLATIONAL):
                raise ValidationError(f"unknown DoF type {t!r}")
        k = np.atleast_2d(np.asarray(self.k_couple, dtype=float))
        if k.size == 0:
            k = k.reshape(len(self.partition.h2), len(self.partition.s2))
        object.__setattr__(self, "k_couple", k)
        n_h2, n_s2 = len(self.partition.h2), len(self.partition.s2)
        if k.shape != (n_h2, n_s2):
            raise DimensionMismatch(
                f"k_couple must be {n_h2}x{n_s2}, got {k.shape}"
            )
        if n_h2 != n_s2:
            raise DimensionMismatch(
                "design coupling must pair human and limb DoFs one-to-one"
            )
        if n_h2 and np.linalg.cond(k) > 1e12:
            raise ValidationError("k_couple must be invertible")
        for i, hi in enumerate(self.partition.h2):
            for j, sj in enumerate(self.partition.s2):
                if k[i, j] != 0.0 and self.h_types[hi] != self.s_types[sj]:
                    raise ValidationError(
                        f"coupling ties {self.h_types[hi]} human DoF {hi} to "
                        f"{self.s_types[sj]} limb DoF {sj}"
                    )


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


def coupled_jacobian(config: CoupledConfig, fk_model: PlantEndpointMap) -> CoupledJacobian:
    """Build the coupled rate map at ``config``.

    ``fk_model`` maps the closed-chain limb joints q_s1 to the driven human
    coordinates q_h1; its ``jacobian`` method (a ``PlantEndpointMap`` has
    one) gives the closed-chain block.
    """
    q_s1 = config.q_s[list(config.partition.s1)]
    n_h1 = len(config.partition.h1)
    n_s1 = len(config.partition.s1)
    j_hat = np.atleast_2d(np.asarray(fk_model.jacobian(q_s1), dtype=float))
    if j_hat.shape != (n_h1, n_s1):
        raise DimensionMismatch(
            f"closed-chain Jacobian must be {n_h1}x{n_s1}, got {j_hat.shape}"
        )
    return CoupledJacobian(j_hat=j_hat, k_couple=config.k_couple)


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

    ``qdot_h`` and the result are ordered by partition: [h1-rates, h2-rates]
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


def desired_joint_positions(
    j: CoupledJacobian,
    qdot_h,
    q_s_actual,
    dt: float,
    cond_max: float = DEFAULT_COND_MAX,
) -> np.ndarray:
    """One explicit Euler step of the rate command: q_s_actual + rates * dt.

    ``q_s_actual`` uses the same partition ordering as the rates.  ``dt`` is
    the update interval of the outer loop.
    """
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValidationError(f"dt must be positive, got {dt}")
    q = np.asarray(q_s_actual, dtype=float)
    rates = desired_joint_rates(j, qdot_h, cond_max)
    if q.shape != rates.shape:
        raise DimensionMismatch(
            f"q_s_actual must have shape {rates.shape}, got {q.shape}"
        )
    return q + rates * dt
