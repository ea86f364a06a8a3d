"""Planar rigid-body plant: serial chains of revolute/prismatic joints.

The plant is a set of independent serial chains in a vertical plane
(x horizontal, z up).  Each joint carries one link described by its mass,
length, centre-of-mass offset, an optional rotational inertia about the
CoM and a reflected rotor inertia.  Generalized coordinates concatenate
the chains in declaration order; limb ("srl") chains must come before
human chains so q = [q_srl, q_human].

All kinematic quantities (positions, Jacobians, velocity products) are
computed from one analytic forward pass, so the inertia matrix, the
Coriolis/gravity bias and point Jacobians are exact up to roundoff.  Each
``PlantModel`` builds, once, a step kernel for its topology: one function
over plain Python float lists that runs the forward pass, the CoM
Jacobian columns and the inertia matrix, gravity and bias vectors,
assembled link by link in the dense composite-rigid-body form
A = sum_l (m_l J_l^T J_l + I_l w_l w_l^T) + diag(rotor)
(Featherstone, Rigid Body Dynamics Algorithms, 2008, ch. 6).  For the few
degrees of freedom this package targets, Python floats cost less than
numpy calls on 3-4 element arrays.  ``PlantState`` is the checked,
array-valued view of one kernel call; the link-wise energies stay an
independent oracle for ``A`` and ``h``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .errors import BadModel, DimensionMismatch, NonFinite

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
        the limb's links as (index, mass) pairs, and the step kernel of
        this topology (links and joints share indices)."""
        joints = tuple(j for c in self.chains for j in c.joints)
        n = len(joints)
        slices, srl_links, ancestors, off = {}, [], [], 0
        for c in self.chains:
            k = len(c.joints)
            slices[c.name] = slice(off, off + k)
            if c.role == ROLE_SRL:
                srl_links += [(off + i, j.mass) for i, j in enumerate(c.joints)]
            ancestors += [tuple(range(off, off + i + 1)) for i in range(k)]
            off += k
        revolute = tuple(j.kind == REVOLUTE for j in joints)
        object.__setattr__(self, "_joints", joints)
        object.__setattr__(self, "_n_dof", n)
        object.__setattr__(self, "_slices", slices)
        object.__setattr__(self, "_srl_links", tuple(srl_links))
        object.__setattr__(
            self, "_srl_chains", frozenset(c.name for c in self.chains if c.role == ROLE_SRL)
        )
        object.__setattr__(self, "_ancestors", tuple(ancestors))
        object.__setattr__(self, "_revolute", revolute)
        object.__setattr__(
            self, "_kernel", _step_kernel(self.chains, n, self.gravity, ancestors, revolute)
        )

    # --- DoF bookkeeping -------------------------------------------------

    @property
    def n_dof(self) -> int:
        return self._n_dof

    def chain_slice(self, name: str) -> slice:
        try:
            return self._slices[name]
        except KeyError:
            raise BadModel(f"no chain named {name!r}") from None

    # limb chains come first: q = [q_srl, q_human]
    @property
    def srl_indices(self) -> np.ndarray:
        return np.arange(len(self._srl_links))

    @property
    def human_indices(self) -> np.ndarray:
        return np.arange(len(self._srl_links), self._n_dof)

    @property
    def q0(self) -> np.ndarray:
        return np.array([j.q0 for c in self.chains for j in c.joints])

    def state(self, q, qd=None) -> "PlantState":
        return PlantState(self, q, qd)

    def tip_jacobian(self, kin: Kinematics, link: int) -> tuple[list, list]:
        """Jacobian of a link's tip in the state ``kin`` as two dense float
        rows (x, z)."""
        return _point_jacobian(
            kin.tip[link], self._ancestors[link], self._revolute, kin.pivot, kin.direction,
            self._n_dof,
        )

    def link_index(self, chain: str, joint: int | None = None) -> int:
        """Index of a chain's link (and of the joint carrying it);
        ``joint=None`` means the chain's last link."""
        sl = self.chain_slice(chain)
        n = sl.stop - sl.start
        local = n - 1 if joint is None else joint
        if not (0 <= local < n):
            raise BadModel(f"chain {chain!r} has no joint index {local}")
        return sl.start + local


#: One plant state in Python floats, as a step kernel returns it: per link,
#: (x, z) pairs of the joint pivot, the sliding direction ((0, 0) if
#: revolute), the CoM and the tip with their velocities and velocity-product
#: accelerations (qdd = 0), the angular velocity and the CoM Jacobian as two
#: dense rows; then A (rows), g and h.
Kinematics = namedtuple(
    "Kinematics",
    "pivot direction com com_vel com_acc tip tip_vel tip_acc ang_vel jcom a g h",
)


def _upper(idx: tuple) -> tuple:
    """(r, (c >= r ...)) pairs of an index set: one triangle of its block."""
    return tuple((r, idx[k:]) for k, r in enumerate(idx))


def _step_kernel(chains: tuple[Chain, ...], n: int, gravity: float, ancestors, revolute):
    """Build the step kernel of one plant topology: ``kernel(q, qd)`` maps
    two lists of n floats to the state's ``Kinematics`` in one pass.

    A point at distance r along a joint's unit axis e (turning at the link
    rate phid, r changing at rate rd) moves at rd e + r phid perp(e) with
    acceleration bias 2 rd phid perp(e) - r phid^2 e relative to the
    joint's origin.  A, g = sum_l m_l g J_l,z and h = g + sum_l m_l J_l^T
    acc_l are accumulated link by link over each link's ancestors."""
    layout, links, off = [], [], 0
    for c in chains:
        joints = []
        for i, joint in enumerate(c.joints, off):
            joints.append((i, revolute[i], joint.length, joint.com, joint.axis))
            spin = tuple(j for j in ancestors[i] if revolute[j])
            links.append((i, ancestors[i], _upper(ancestors[i]), joint.mass,
                          joint.mass * gravity, joint.inertia, _upper(spin), joint.rotor))
        layout.append((c.base, c.heading, joints))
        off += len(c.joints)
    upper = tuple((r, c) for r in range(n) for c in range(r + 1, n))

    def kernel(q: list, qd: list) -> Kinematics:
        pivot, direction, com, com_vel, com_acc = [], [], [], [], []
        tip, tip_vel, tip_acc, ang_vel, jcom = [], [], [], [], []
        for (ox, oz), phi, joints in layout:
            vox = voz = aox = aoz = phid = 0.0
            for i, is_rev, length, c, axis in joints:
                pivot.append((ox, oz))
                if is_rev:
                    phi += q[i]
                    phid += qd[i]
                    ex, ez = cos(phi), sin(phi)
                    direction.append((0.0, 0.0))
                    rate, r_com, r_tip = 0.0, c, length
                else:
                    ex, ez = cos(phi + axis), sin(phi + axis)
                    direction.append((ex, ez))
                    rate, r_com, r_tip = qd[i], c + q[i], length + q[i]
                px, pz = -ez, ex  # perp(e)
                com.append((ox + r_com * ex, oz + r_com * ez))
                com_vel.append((vox + rate * ex + r_com * phid * px,
                                voz + rate * ez + r_com * phid * pz))
                com_acc.append((aox + 2.0 * rate * phid * px - r_com * phid * phid * ex,
                                aoz + 2.0 * rate * phid * pz - r_com * phid * phid * ez))
                ox, oz = ox + r_tip * ex, oz + r_tip * ez
                vox, voz = (vox + rate * ex + r_tip * phid * px,
                            voz + rate * ez + r_tip * phid * pz)
                aox, aoz = (aox + 2.0 * rate * phid * px - r_tip * phid * phid * ex,
                            aoz + 2.0 * rate * phid * pz - r_tip * phid * phid * ez)
                tip.append((ox, oz))
                tip_vel.append((vox, voz))
                tip_acc.append((aox, aoz))
                ang_vel.append(phid)
                jcom.append(_point_jacobian(com[i], ancestors[i], revolute, pivot, direction, n))

        a = [[0.0] * n for _ in range(n)]
        g = [0.0] * n
        for lk, _, pairs, mass, weight, inertia, spin, rotor in links:
            jx, jz = jcom[lk]
            for r, cols in pairs:
                xr, zr = jx[r], jz[r]
                row = a[r]
                for c in cols:
                    row[c] += mass * (xr * jx[c] + zr * jz[c])
                g[r] += weight * zr
            if inertia:
                for r, cols in spin:
                    row = a[r]
                    for c in cols:
                        row[c] += inertia
            if rotor:
                a[lk][lk] += rotor
        for r, c in upper:
            a[c][r] = a[r][c]
        h = g[:]
        for lk, anc, _, mass, *_ in links:
            jx, jz = jcom[lk]
            ax, az = com_acc[lk]
            for c in anc:
                h[c] += mass * (jx[c] * ax + jz[c] * az)
        return Kinematics(pivot, direction, com, com_vel, com_acc, tip, tip_vel,
                          tip_acc, ang_vel, jcom, a, g, h)

    return kernel


def _point_jacobian(point, ancestors, revolute, pivot, direction, n: int):
    """Jacobian of a point on a link as two dense rows (x, z): a revolute
    column is the lever arm from the joint's pivot rotated by +90 degrees,
    a prismatic column the sliding axis."""
    px, pz = point
    jx, jz = [0.0] * n, [0.0] * n
    for j in ancestors:
        if revolute[j]:
            bx, bz = pivot[j]
            jx[j], jz[j] = bz - pz, px - bx
        else:
            jx[j], jz[j] = direction[j]
    return jx, jz


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
    """The plant at a given (q, qd): the checked, array-valued view of one
    step-kernel call (``kin``).  Raises NonFinite for a NaN or Inf
    coordinate.  Every call returns fresh arrays."""

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
        for name, v in (("q", self.q), ("qd", self.qd)):
            if not np.isfinite(v).all():
                raise NonFinite(f"{name} contains NaN or Inf")
        self.kin = model._kernel(self.q.tolist(), self.qd.tolist())

    def point(self, chain: str, joint: int | None = None, at: str = "tip") -> PointKinematics:
        """Kinematics of a link tip or CoM.  ``joint=None`` means the last
        link of the chain (the end effector)."""
        lk = self.model.link_index(chain, joint)
        kin = self.kin
        if at == "tip":
            pos, vel, acc, jac = kin.tip[lk], kin.tip_vel[lk], kin.tip_acc[lk], self.model.tip_jacobian(kin, lk)
        elif at == "com":
            pos, vel, acc, jac = kin.com[lk], kin.com_vel[lk], kin.com_acc[lk], kin.jcom[lk]
        else:
            raise BadModel(f"unknown point spec {at!r}")
        return PointKinematics(
            pos=np.array(pos),
            jac=np.array(jac),
            vel=np.array(vel) if self.has_vel else None,
            acc_bias=np.array(acc) if self.has_vel else None,
        )

    # --- dynamics -------------------------------------------------------------

    def mass_matrix(self) -> np.ndarray:
        return np.array(self.kin.a)

    def gravity_vector(self) -> np.ndarray:
        """Generalized gravity force dV/dq (V = sum of m g z_com)."""
        return np.array(self.kin.g)

    def bias(self) -> np.ndarray:
        """Coriolis/centrifugal plus gravity bias h(q, qd).

        Equals the generalized force required to hold qdd = 0, so
        A qdd + h = tau is the full equation of motion.
        """
        return np.array(self.kin.h)

    # --- energies (link-wise, independent of mass_matrix) ---------------------

    def kinetic_energy(self) -> float:
        t = 0.0
        com_vel, ang_vel = self.kin.com_vel, self.kin.ang_vel
        qd = self.qd.tolist()
        for lk, joint in enumerate(self.model._joints):
            vx, vz = com_vel[lk]
            t += 0.5 * joint.mass * (vx * vx + vz * vz)
            t += 0.5 * joint.inertia * ang_vel[lk] * ang_vel[lk]
            t += 0.5 * joint.rotor * qd[lk] ** 2
        return t

    def potential_energy(self) -> float:
        return sum(
            joint.mass * self.model.gravity * z
            for joint, (_, z) in zip(self.model._joints, self.kin.com)
        )
