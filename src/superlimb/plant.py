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
``PlantModel`` generates the step kernel of its topology with
``numerics``' emitters, constants inlined (the code-generation
approach of RobCoGen, Frigerio et al., JOSER 2016): one function over
plain Python float lists that runs the forward pass, every link's CoM and
tip Jacobians and the inertia matrix, gravity and bias vectors, assembled
link by link in the dense composite-rigid-body form
A = sum_l (m_l J_l^T J_l + I_l w_l w_l^T) + diag(rotor)
(Featherstone, Rigid Body Dynamics Algorithms, 2008, ch. 6).  For the few
degrees of freedom this package targets, Python floats cost less than
numpy calls on 3-4 element arrays.  The kernel's lines come in two sets:
the full kernel's, which return all of ``Kinematics``, and the run
kernel's, the subset that returns only the ``RunKinematics`` fields a
scenario run reads.  The run kernel's lines are generated with the model
and kept as its ``KernelSource``, for three uses: compiled as the run
kernel, at load; inlined, by the names of their values, into the tracking
block that ``harness`` generates on the first tracking run of its shape;
and compiled over per-step float64 arrays as the batch kernel, a block of
steps per call, on the first inverse-dynamics run.  The full kernel is
compiled on the first ``PlantState``, the
checked, array-valued view of one full-kernel call; the link-wise energies
stay an independent oracle for ``A`` and ``h``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from math import cos, sin

import numpy as np

from .errors import BadModel, DimensionMismatch, NonFinite
from .numerics import _function, _live, _sum, _unpack

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
             (default: the link midpoint, length / 2)
    inertia  rotational inertia about the link CoM
    rotor    reflected actuator inertia added to the joint's diagonal
    axis     prismatic only: direction angle relative to the carrying frame
    q0       rest/initial value of the joint coordinate
    """

    kind: str
    mass: float
    length: float
    com: float | None = None
    inertia: float = 0.0
    rotor: float = 0.0
    axis: float = 0.0
    q0: float = 0.0

    def __post_init__(self):
        if self.com is None:
            object.__setattr__(self, "com", self.length / 2.0)
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
        for name, value in (("base", self.base), ("heading", self.heading)):
            if not np.isfinite(value).all():
                raise BadModel(f"must be finite in chain {self.name!r}, got {value}", name)


@dataclass(frozen=True)
class PlantModel:
    """The plant's chains and gravity, checked, with the step kernels of
    their topology: ``_kernel``, the run kernel, compiled at load from
    ``_kernel_source``, which the tracking block inlines; ``_full_kernel``,
    compiled on the first ``PlantState``; and ``_batch_kernel``, the run
    kernel over blocks of steps, compiled on the first inverse-dynamics run."""

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
        for ci, c in enumerate(self.chains):
            for ji, joint in enumerate(c.joints):
                if not np.isfinite(joint.mass * self.gravity):
                    raise BadModel(f"weight {joint.mass:g} kg * {self.gravity:g} m/s^2 is not "
                                   "finite", f"chains[{ci}].joints[{ji}].mass")
        self._derive_structure()

    def _derive_structure(self):
        """Static facts every state reuses: the DoF count, chain slices,
        the limb's links as (index, mass) pairs, and the run kernel of this
        topology, as source and compiled (links and joints share indices)."""
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
        topology = (self.chains, n, self.gravity, tuple(ancestors), revolute)
        source = _step_source(*topology, RunKinematics)
        object.__setattr__(self, "_topology", topology)
        object.__setattr__(self, "_kernel_source", source)
        object.__setattr__(self, "_kernel", _step_kernel(source, self.chains))

    @cached_property
    def _full_kernel(self):
        """The step kernel returning every ``Kinematics`` field, which
        ``PlantState`` reads.  It is generated on the first state, so that a
        scenario run, which calls only the run kernel, compiles one kernel."""
        return _step_kernel(_step_source(*self._topology), self.chains)

    @cached_property
    def _batch_kernel(self):
        """The run kernel's lines compiled over per-step arrays, which
        ``run_scenario``'s inverse-dynamics branch calls once per block of
        steps.  It is generated on the first such run, never at load."""
        return _step_kernel(self._kernel_source, self.chains, batch=True)

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
#: (x, z) pairs of the CoM and the tip with their velocities and
#: velocity-product accelerations (qdd = 0), the angular velocity, and the
#: CoM and tip Jacobians, each as two dense rows (x, z); then A (rows), g
#: and h; and last ``mount``, what the mount force reads of the limb's links
#: as one flat tuple: their CoM Jacobians' x and z rows, link by link, then
#: their CoM accelerations' (x, z) pairs.
Kinematics = namedtuple(
    "Kinematics",
    "com com_vel com_acc tip tip_vel tip_acc ang_vel jcom tip_jac a g h mount",
)

#: The ``Kinematics`` fields that ``run_scenario`` reads, and all that the
#: plant's run kernel (``PlantModel._kernel``) returns.
RunKinematics = namedtuple("RunKinematics", "tip tip_vel tip_jac a g h mount")


def _each(f):
    """``f`` of a float, or of each element of a float64 array (of a 0-d
    array's element as a numpy scalar).  It is ``float``, or ``math.cos``,
    ``math.sin`` or numpy's scalar ``x ** 2``, which round as libm does one
    element at a time: ``np.cos``, ``np.sin`` and an array's ``** 2`` need
    not."""
    def each(x):
        if type(x) is not np.ndarray:
            return f(x)
        return np.fromiter(map(f, x.tolist()), float, x.size) if x.ndim else f(x[()])
    return each


#: A step kernel as source.  ``lines`` are straight-line statements that read
#: the joints' coordinates and velocities as the names ``q<i>`` and ``qd<i>``
#: and end in the kernel's return; ``names`` is the returned namedtuple with
#: each entry replaced by the name or float literal that holds it (its lists
#: as tuples), so that generated code that inlines the lines but the return
#: reads the entries it needs by name.
KernelSource = namedtuple("KernelSource", "lines names")


def _frozen(v):
    """A nest of lists and tuples of names as tuples alone."""
    return v if isinstance(v, str) else tuple(map(_frozen, v))


def _step_source(chains: tuple[Chain, ...], n: int, gravity: float, ancestors, revolute,
                 returns=Kinematics) -> KernelSource:
    """Generate the step kernel of one plant topology as source: its lines
    map the names ``q<i>``, ``qd<i>`` to the state's ``Kinematics`` in one
    pass, or to the fields of ``returns``, a namedtuple of some of them.

    A point at distance r along a joint's unit axis e (turning at the link
    rate phid, r changing at rate rd) moves at rd e + r phid perp(e) with
    acceleration bias 2 rd phid perp(e) - r phid^2 e relative to the
    joint's origin.  A, g = sum_l m_l g J_l,z and h = g + sum_l m_l J_l^T
    acc_l are accumulated link by link over each link's ancestors.

    The kernel is straight-line source, compiled once: the chain, joint,
    link and ancestor loops are unrolled and every joint constant is a float
    literal.  Each operation keeps the order of the link-by-link loop, zero
    terms and ``0.0 +`` starts included, so the result is the same to the
    bit.  A sum grows by one statement per term, so no expression nests
    deeper as the DoF count grows.  ``numerics._live`` then drops each
    statement that no returned field reads; the lines left are the full
    kernel's, so the fields that stay are the same to the bit.  Its only
    calls, ``cos`` and ``sin``, feed every link's tip, so no statement that
    could raise goes.  Code that inlines the lines must store none of the
    names they store while it still reads one of their values."""
    def lit(x) -> str:
        return repr(float(x))

    body = []
    out = {name: [] for name in Kinematics._fields}
    pivot, direction = [], []  # each joint's origin and sliding axis ((0, 0) if revolute)
    sums, h_sums = {}, {}  # each sum's terms in the loop's order: link by link
    for c in chains:
        ox, oz = map(lit, c.base)
        phi, phid, vx, vz, ax, az = lit(c.heading), "0.0", "0.0", "0.0", "0.0", "0.0"
        for i, joint in enumerate(c.joints, len(pivot)):
            pivot.append((ox, oz))
            if revolute[i]:
                body += [f"p{i} = {phi} + q{i}", f"w{i} = {phid} + qd{i}",
                         f"ex{i}, ez{i} = cos(p{i}), sin(p{i})"]
                phi, phid = f"p{i}", f"w{i}"
                direction.append(("0.0", "0.0"))
                rate, r_com, r_tip = "0.0", lit(joint.com), lit(joint.length)
            else:
                e = f"{phi} + {lit(joint.axis)}"
                body += [f"ex{i}, ez{i} = cos({e}), sin({e})",
                         f"rc{i}, rt{i} = {lit(joint.com)} + q{i}, {lit(joint.length)} + q{i}"]
                direction.append((f"ex{i}", f"ez{i}"))
                rate, r_com, r_tip = f"qd{i}", f"rc{i}", f"rt{i}"
            for p, r in (("c", r_com), ("", r_tip)):  # CoM, then tip; perp(e) = (-ez, ex)
                body += [
                    f"{p}x{i}, {p}z{i} = {ox} + {r} * ex{i}, {oz} + {r} * ez{i}",
                    f"{p}vx{i}, {p}vz{i} = {vx} + {rate} * ex{i} + {r} * {phid} * -ez{i}, "
                    f"{vz} + {rate} * ez{i} + {r} * {phid} * ex{i}",
                    f"{p}ax{i}, {p}az{i} = {ax} + 2.0 * {rate} * {phid} * -ez{i} - "
                    f"{r} * {phid} * {phid} * ex{i}, {az} + 2.0 * {rate} * {phid} * ex{i} - "
                    f"{r} * {phid} * {phid} * ez{i}",
                ]
            ox, oz, vx, vz, ax, az = (f"{v}{i}" for v in ("x", "z", "vx", "vz", "ax", "az"))
            out["ang_vel"].append(phid)
            anc = ancestors[i]
            jx, jz, tx, tz = (["0.0"] * n for _ in range(4))
            for j in anc:
                if revolute[j]:  # the lever arm from the pivot turned +90 degrees
                    bx, bz = pivot[j]
                    for p, t, rx, rz in (("c", "j", jx, jz), ("", "t", tx, tz)):  # CoM, then tip
                        rx[j], rz[j] = f"{t}x{i}_{j}", f"{t}z{i}_{j}"
                        body.append(f"{rx[j]}, {rz[j]} = {bz} - {p}z{i}, {p}x{i} - {bx}")
                else:  # the sliding axis
                    jx[j], jz[j] = tx[j], tz[j] = direction[j]
            out["jcom"].append((jx, jz))
            out["tip_jac"].append((tx, tz))
            m, spin = lit(joint.mass), [j for j in anc if revolute[j] and joint.inertia]
            for k, r in enumerate(anc):
                for s in anc[k:]:
                    sums.setdefault(f"a{r}_{s}", []).append(
                        f"{m} * ({jx[r]} * {jx[s]} + {jz[r]} * {jz[s]})")
                sums.setdefault(f"g{r}", []).append(f"{lit(joint.mass * gravity)} * {jz[r]}")
                h_sums.setdefault(f"h{r}", []).append(
                    f"{m} * ({jx[r]} * cax{i} + {jz[r]} * caz{i})")
            for k, r in enumerate(spin):
                for s in spin[k:]:
                    sums[f"a{r}_{s}"].append(lit(joint.inertia))
            if joint.rotor:
                sums[f"a{i}_{i}"].append(lit(joint.rotor))
    for name, x in (("com", "cx"), ("com_vel", "cvx"), ("com_acc", "cax"),
                    ("tip", "x"), ("tip_vel", "vx"), ("tip_acc", "ax")):
        out[name] = [(f"{x}{i}", f"{x[:-1]}z{i}") for i in range(n)]
    for key, terms in (sums | h_sums).items():  # h starts from the finished g
        _sum(body, terms, key, f"g{key[1:]}" if key[0] == "h" else "0.0")
    out["a"] = [[k if (k := f"a{min(r, s)}_{max(r, s)}") in sums else "0.0" for s in range(n)]
                for r in range(n)]
    out["g"], out["h"] = [f"g{r}" for r in range(n)], [f"h{r}" for r in range(n)]
    limb = range(sum(len(c.joints) for c in chains if c.role == ROLE_SRL))
    out["mount"] = tuple([v for i in limb for row in out["jcom"][i] for v in row]
                         + [v for i in limb for v in out["com_acc"][i]])

    def expr(v) -> str:
        return v if isinstance(v, str) else (
            f"[{', '.join(map(expr, v))}]" if isinstance(v, list) else f"({', '.join(map(expr, v))})")

    fields = [out[f] for f in returns._fields]
    body.append(f"return {returns.__name__}({', '.join(map(expr, fields))})")
    return KernelSource(tuple(_live(body)), returns(*map(_frozen, fields)))


def _step_kernel(source: KernelSource, chains: tuple[Chain, ...], batch: bool = False):
    """Compile ``source`` as a step kernel of ``chains``: ``kernel(q, qd)``
    maps two lists of n floats to the namedtuple of ``source.names``.

    With ``batch`` the same lines are compiled as the batch kernel, over a
    block of steps: ``q`` and ``qd`` hold one float64 array per joint,
    ``cos`` and ``sin`` apply ``math.cos`` and ``math.sin`` element by
    element, and every other operation is ``+``, ``-``, ``*`` or unary minus
    on arrays and float literals, which numpy rounds as Python floats round.
    So each entry is the array of the scalar kernel's values at those steps,
    or, where it is a constant, that float."""
    returns, n = type(source.names), len(source.names.g)
    body = []
    _unpack(body, "q", "q", n)
    _unpack(body, "qd", "qd", n)
    body += source.lines
    label = ", ".join(c.name for c in chains)
    label += "" if returns is RunKinematics else " (all fields)"
    names = {returns.__name__: returns}
    if batch:
        names.update(cos=_each(cos), sin=_each(sin))
    kind = "batch" if batch else "step"
    return _function("kernel(q, qd)", body, f"{kind} kernel: {label}", **names)


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
    full step-kernel call (``kin``, all of ``Kinematics``).  Raises
    NonFinite for a NaN or Inf coordinate.  Every call returns fresh arrays."""

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
        self.kin = model._full_kernel(self.q.tolist(), self.qd.tolist())

    def point(self, chain: str, joint: int | None = None, at: str = "tip") -> PointKinematics:
        """Kinematics of a link tip or CoM.  ``joint=None`` means the last
        link of the chain (the end effector)."""
        lk = self.model.link_index(chain, joint)
        kin = self.kin
        if at == "tip":
            pos, vel, acc, jac = kin.tip[lk], kin.tip_vel[lk], kin.tip_acc[lk], kin.tip_jac[lk]
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
        u = 0.0  # added left to right, whatever the interpreter's sum() does
        for joint, (_, z) in zip(self.model._joints, self.kin.com):
            u += joint.mass * self.model.gravity * z
        return u
