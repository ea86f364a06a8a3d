"""Planar rigid-body plant: serial chains of revolute/prismatic joints.

The plant is a set of independent serial chains in a vertical plane
(x horizontal, z up).  Each joint carries one link described by its mass,
length, centre-of-mass offset, an optional rotational inertia about the
CoM and a reflected rotor inertia.  Generalized coordinates concatenate
the chains in declaration order; limb ("srl") chains must come before
human chains so q = [q_srl, q_human].

All kinematic quantities (positions, Jacobians, velocity products) are
computed from one analytic forward pass, so the inertia matrix, the
Coriolis/gravity bias and point Jacobians are exact up to roundoff.  The
CoM and tip Jacobians of all links are built as one stacked array right
after the pass.  The inertia matrix, gravity and bias vectors are
assembled from the CoM rows link by link, each at most once per state, in
the dense composite-rigid-body form
A = sum_l (m_l J_l^T J_l + I_l w_l w_l^T) + diag(rotor)
(Featherstone, Rigid Body Dynamics Algorithms, 2008, ch. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .errors import BadModel, DimensionMismatch

REVOLUTE = "revolute"
PRISMATIC = "prismatic"

ROLE_SRL = "srl"
ROLE_HUMAN = "human"

#: world axes of the plane; an axis's index is its row in point positions
#: and Jacobians
AXES = ("x", "z")

#: standard gravity (m/s^2), the default for plants and support postures
GRAVITY = 9.81


@dataclass(frozen=True)
class Joint:
    """One joint plus the link it carries.

    length   structural link length (revolute moment arm; prismatic offset)
    com      CoM offset along the link/axis measured from the joint origin
    inertia  rotational inertia about the link CoM
    rotor    reflected actuator inertia added to the joint's diagonal
    axis     prismatic only: direction angle relative to the carrying frame
    q0       rest/initial value of the joint coordinate
    """

    kind: str
    mass: float
    length: float
    com: float
    inertia: float = 0.0
    rotor: float = 0.0
    axis: float = 0.0
    q0: float = 0.0

    def __post_init__(self):
        if self.kind not in (REVOLUTE, PRISMATIC):
            raise BadModel(f"unknown joint kind {self.kind!r}")
        if not (self.mass > 0.0) or not np.isfinite(self.mass):
            raise BadModel(f"mass must be positive, got {self.mass}")
        if self.kind == REVOLUTE and not (self.length > 0.0):
            raise BadModel(f"revolute link length must be positive, got {self.length}")
        if self.kind == PRISMATIC and self.length < 0.0:
            raise BadModel(f"prismatic offset must be >= 0, got {self.length}")
        if self.inertia < 0.0 or self.rotor < 0.0:
            raise BadModel("inertia and rotor must be >= 0")
        for name in ("length", "com", "inertia", "rotor", "axis", "q0"):
            if not np.isfinite(getattr(self, name)):
                raise BadModel(f"{name} must be finite")


@dataclass(frozen=True)
class Chain:
    name: str
    joints: tuple[Joint, ...]
    base: tuple[float, float] = (0.0, 0.0)
    heading: float = 0.0
    role: str = ROLE_SRL

    def __post_init__(self):
        if self.role not in (ROLE_SRL, ROLE_HUMAN):
            raise BadModel(f"unknown chain role {self.role!r}")
        if not self.joints:
            raise BadModel(f"chain {self.name!r} has no joints")
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "base", (float(self.base[0]), float(self.base[1])))


@dataclass(frozen=True)
class PlantModel:
    chains: tuple[Chain, ...]
    gravity: float = GRAVITY

    def __post_init__(self):
        object.__setattr__(self, "chains", tuple(self.chains))
        if not self.chains:
            raise BadModel("plant needs at least one chain")
        names = [c.name for c in self.chains]
        if len(set(names)) != len(names):
            raise BadModel(f"duplicate chain names: {names}")
        seen_human = False
        for c in self.chains:
            if c.role == ROLE_HUMAN:
                seen_human = True
            elif seen_human:
                raise BadModel("limb chains must be declared before human chains")
        if self.gravity < 0.0 or not np.isfinite(self.gravity):
            raise BadModel(f"gravity must be >= 0, got {self.gravity}")
        self._derive_structure()

    def _derive_structure(self):
        """Static facts every state reuses: the DoF count, chain slices,
        the limb's links as (index, mass) pairs, and per-link ancestor and
        revolute masks (link l is moved by joint g iff ``ancestors[l, g]``;
        links and joints share indices)."""
        joints = tuple(j for c in self.chains for j in c.joints)
        n = len(joints)
        slices, off = {}, 0
        srl_links = []
        ancestors = np.zeros((n, n), dtype=bool)
        for c in self.chains:
            k = len(c.joints)
            slices[c.name] = slice(off, off + k)
            if c.role == ROLE_SRL:
                srl_links += [(off + i, j.mass) for i, j in enumerate(c.joints)]
            for local in range(k):
                ancestors[off + local, off: off + local + 1] = True
            off += k
        revolute = np.array([j.kind == REVOLUTE for j in joints])
        # rotational inertia about each link CoM, I_l w_l w_l^T, with w_l
        # the link's angular-velocity row (ones on revolute ancestors)
        spin = []
        for joint, mask in zip(joints, ancestors):
            w = (mask & revolute).astype(float)
            spin.append(joint.inertia * np.outer(w, w) if joint.inertia else None)
        # (2n, n, 1): joint g moves the CoM (rows < n) and tip of each link
        movers = np.concatenate((ancestors, ancestors))[:, :, None]
        object.__setattr__(self, "_joints", joints)
        object.__setattr__(self, "_n_dof", n)
        object.__setattr__(self, "_slices", slices)
        object.__setattr__(self, "_srl_links", tuple(srl_links))
        object.__setattr__(
            self, "_srl_chains", frozenset(c.name for c in self.chains if c.role == ROLE_SRL)
        )
        object.__setattr__(self, "_movers", movers)
        object.__setattr__(self, "_revolute", revolute)
        object.__setattr__(self, "_spin", tuple(spin))

    # --- DoF bookkeeping -------------------------------------------------

    @property
    def n_dof(self) -> int:
        return self._n_dof

    def chain_slice(self, name: str) -> slice:
        try:
            return self._slices[name]
        except KeyError:
            raise BadModel(f"no chain named {name!r}") from None

    def _role_indices(self, role: str) -> np.ndarray:
        idx, off = [], 0
        for c in self.chains:
            n = len(c.joints)
            if c.role == role:
                idx.extend(range(off, off + n))
            off += n
        return np.array(idx, dtype=int)

    @property
    def srl_indices(self) -> np.ndarray:
        return self._role_indices(ROLE_SRL)

    @property
    def human_indices(self) -> np.ndarray:
        return self._role_indices(ROLE_HUMAN)

    @property
    def q0(self) -> np.ndarray:
        return np.array([j.q0 for c in self.chains for j in c.joints])

    def state(self, q, qd=None) -> "PlantState":
        return PlantState(self, q, qd)


@dataclass(frozen=True)
class PointKinematics:
    """Kinematics of one material point: position, Jacobian and, when the
    plant state carries velocities, the point velocity and the velocity-
    product acceleration (the acceleration the point would have with
    qdd = 0)."""

    pos: np.ndarray
    jac: np.ndarray
    vel: np.ndarray | None = None
    acc_bias: np.ndarray | None = None


class PlantState:
    """One forward pass over all chains at a given (q, qd).

    Per-link frames live in one array (row l = link l) so the inertia
    matrix, bias vector, energies and point Jacobians share a single
    kinematic evaluation.  The inertia matrix, gravity and bias vectors are
    computed at most once per state; every call returns a fresh copy.
    """

    def __init__(self, model: PlantModel, q, qd=None):
        n = model.n_dof
        self.model = model
        self.q = np.asarray(q, dtype=float)
        if self.q.shape != (n,):
            raise DimensionMismatch(f"q must have shape ({n},), got {self.q.shape}")
        self.has_vel = qd is not None
        self.qd = np.asarray(qd, dtype=float) if qd is not None else np.zeros(n)
        if self.qd.shape != (n,):
            raise DimensionMismatch(f"qd must have shape ({n},), got {self.qd.shape}")
        self._forward()
        self._jac_com, self._jac_tip = self._jacobians()
        self._mass: np.ndarray | None = None
        self._gravity: np.ndarray | None = None
        self._bias: np.ndarray | None = None

    # --- forward pass ------------------------------------------------------

    def _forward(self):
        rows = []
        q, qd = self.q.tolist(), self.qd.tolist()
        off = 0
        for chain in self.model.chains:
            ox, oz = chain.base
            vox = voz = aox = aoz = 0.0
            phi = chain.heading
            phid = 0.0
            for local, joint in enumerate(chain.joints):
                qj = q[off + local]
                qdj = qd[off + local]
                pivot = (ox, oz)
                if joint.kind == REVOLUTE:
                    phi += qj
                    phid += qdj
                    ux, uz = cos(phi), sin(phi)
                    px, pz = -uz, ux  # perp(u)
                    direction = (0.0, 0.0)
                    c = joint.com
                    com = (ox + c * ux, oz + c * uz)
                    com_vel = (vox + c * phid * px, voz + c * phid * pz)
                    com_acc = (aox - c * phid * phid * ux,
                               aoz - c * phid * phid * uz)
                    L = joint.length
                    ox, oz = ox + L * ux, oz + L * uz
                    vox, voz = vox + L * phid * px, voz + L * phid * pz
                    aox, aoz = aox - L * phid * phid * ux, aoz - L * phid * phid * uz
                else:  # prismatic
                    a = phi + joint.axis
                    dx, dz = cos(a), sin(a)
                    pdx, pdz = -dz, dx
                    direction = (dx, dz)
                    r = joint.com + qj
                    com = (ox + r * dx, oz + r * dz)
                    com_vel = (
                        vox + qdj * dx + r * phid * pdx,
                        voz + qdj * dz + r * phid * pdz,
                    )
                    com_acc = (
                        aox + 2.0 * qdj * phid * pdx - r * phid * phid * dx,
                        aoz + 2.0 * qdj * phid * pdz - r * phid * phid * dz,
                    )
                    s = joint.length + qj
                    ox, oz = ox + s * dx, oz + s * dz
                    vox, voz = (
                        vox + qdj * dx + s * phid * pdx,
                        voz + qdj * dz + s * phid * pdz,
                    )
                    aox, aoz = (
                        aox + 2.0 * qdj * phid * pdx - s * phid * phid * dx,
                        aoz + 2.0 * qdj * phid * pdz - s * phid * phid * dz,
                    )
                rows.append(pivot + direction + com + com_vel + com_acc
                            + (ox, oz, vox, voz, aox, aoz, phid))
            off += len(chain.joints)
        frames = np.array(rows)
        self._pivot = frames[:, 0:2]
        self._direction = frames[:, 2:4]  # prismatic axis; unused for revolute
        self._com = frames[:, 4:6]
        self._com_vel = frames[:, 6:8]
        self._com_acc = frames[:, 8:10]
        self._tip = frames[:, 10:12]
        self._tip_vel = frames[:, 12:14]
        self._tip_acc = frames[:, 14:16]
        self._ang_vel = frames[:, 16]

    # --- Jacobians ----------------------------------------------------------

    def _jacobians(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (n_links, 2, n) Jacobians of every link CoM and tip.

        Column g of a point on link l is zero unless joint g moves link l;
        a revolute column is the lever arm from the joint's pivot rotated
        by +90 degrees, a prismatic column the sliding axis."""
        points = np.concatenate((self._com, self._tip))
        arm = points[:, None, :] - self._pivot
        perp = arm[:, :, ::-1] * (-1.0, 1.0)  # (-dz, dx)
        model = self.model
        cols = np.where(model._revolute[:, None], perp, self._direction)
        cols = np.where(model._movers, cols, 0.0)
        jac = np.ascontiguousarray(cols.transpose(0, 2, 1))
        n = self.q.size
        return jac[:n], jac[n:]

    def _link_index(self, chain: str, joint: int | None) -> int:
        sl = self.model.chain_slice(chain)
        n = sl.stop - sl.start
        local = n - 1 if joint is None else joint
        if not (0 <= local < n):
            raise BadModel(f"chain {chain!r} has no joint index {local}")
        return sl.start + local

    def point(self, chain: str, joint: int | None = None, at: str = "tip") -> PointKinematics:
        """Kinematics of a link tip or CoM.  ``joint=None`` means the last
        link of the chain (the end effector)."""
        lk = self._link_index(chain, joint)
        if at == "tip":
            pos, vel, acc = self._tip[lk], self._tip_vel[lk], self._tip_acc[lk]
            jac = self._jac_tip[lk].copy()
        elif at == "com":
            pos, vel, acc = self._com[lk], self._com_vel[lk], self._com_acc[lk]
            jac = self._jac_com[lk].copy()
        else:
            raise BadModel(f"unknown point spec {at!r}")
        return PointKinematics(
            pos=pos.copy(),
            jac=jac,
            vel=vel.copy() if self.has_vel else None,
            acc_bias=acc.copy() if self.has_vel else None,
        )

    # --- dynamics -------------------------------------------------------------
    # Accumulated link by link in declaration order: a single stacked
    # J^T diag(m) J product would round differently.

    def mass_matrix(self) -> np.ndarray:
        if self._mass is None:
            n = self.q.size
            a = np.zeros((n, n))
            for lk, joint in enumerate(self.model._joints):
                j = self._jac_com[lk]
                a += joint.mass * (j.T @ j)
                spin = self.model._spin[lk]
                if spin is not None:
                    a += spin
                if joint.rotor:
                    a[lk, lk] += joint.rotor
            self._mass = 0.5 * (a + a.T)
        return self._mass.copy()

    def _gravity_vector(self) -> np.ndarray:
        if self._gravity is None:
            g = np.zeros(self.q.size)
            gz = self.model.gravity
            for lk, joint in enumerate(self.model._joints):
                g += joint.mass * gz * self._jac_com[lk, 1]
            self._gravity = g
        return self._gravity

    def gravity_vector(self) -> np.ndarray:
        """Generalized gravity force dV/dq (V = sum of m g z_com)."""
        return self._gravity_vector().copy()

    def bias(self) -> np.ndarray:
        """Coriolis/centrifugal plus gravity bias h(q, qd).

        Equals the generalized force required to hold qdd = 0, so
        A qdd + h = tau is the full equation of motion.
        """
        if self._bias is None:
            h = self._gravity_vector().copy()
            if self.has_vel:
                for lk, joint in enumerate(self.model._joints):
                    h += joint.mass * (self._jac_com[lk].T @ self._com_acc[lk])
            self._bias = h
        return self._bias.copy()

    # --- energies (link-wise, independent of mass_matrix) ---------------------

    def kinetic_energy(self) -> float:
        t = 0.0
        com_vel, ang_vel = self._com_vel.tolist(), self._ang_vel.tolist()
        qd = self.qd.tolist()
        for lk, joint in enumerate(self.model._joints):
            vx, vz = com_vel[lk]
            t += 0.5 * joint.mass * (vx * vx + vz * vz)
            t += 0.5 * joint.inertia * ang_vel[lk] * ang_vel[lk]
            t += 0.5 * joint.rotor * qd[lk] ** 2
        return t

    def potential_energy(self) -> float:
        z_com = self._com[:, 1].tolist()
        return sum(
            joint.mass * self.model.gravity * z
            for joint, z in zip(self.model._joints, z_com)
        )
