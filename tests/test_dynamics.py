"""Tests for the torque / support-force decoupling."""

import dataclasses
import math
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from conftest import _back_substitute, _contact_qr, reference_decouple
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_acceptance import decoupling_instances

from superlimb import dynamics
from superlimb.dynamics import (
    ContactSpec,
    DynamicsSnapshot,
    constraint_force,
    contact_jacobian,
    decouple,
    null_projection,
    selection_matrices,
)
from superlimb.errors import (
    DimensionMismatch,
    NonFinite,
    RankDeficient,
    SingularWeight,
    SuperlimbError,
)
from superlimb.numerics import QR_RANK_ATOL, qr_full


def random_snapshot(rng, n, k):
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    j_c = rng.standard_normal((k, n))
    return DynamicsSnapshot(
        a=a, h_bias=rng.standard_normal(n), j_c=j_c, qdd=rng.standard_normal(n)
    )


def test_snapshot_validation(rng):
    a = np.eye(3)
    with pytest.raises(DimensionMismatch):
        DynamicsSnapshot(a=a, h_bias=np.zeros(2), j_c=np.ones((1, 3)), qdd=np.zeros(3))
    asym = np.eye(3)
    asym[0, 1] = 0.1
    with pytest.raises(DimensionMismatch):
        DynamicsSnapshot(a=asym, h_bias=np.zeros(3), j_c=np.ones((1, 3)), qdd=np.zeros(3))
    with pytest.raises(NonFinite):
        DynamicsSnapshot(a=a, h_bias=np.array([np.inf, 0, 0]),
                         j_c=np.ones((1, 3)), qdd=np.zeros(3))
    with pytest.raises(DimensionMismatch):
        DynamicsSnapshot(a=a, h_bias=np.zeros(3), j_c=np.ones((4, 3)), qdd=np.zeros(3))


@pytest.mark.parametrize("a,error", [
    (np.diag([1.0, -1.0, 1.0]), SingularWeight),  # indefinite
    (np.diag([1.0, 1.0, 0.0]), SingularWeight),  # singular
    (np.diag([1.7e308, 1.0, 1.0]), NonFinite),  # a + a^T overflows
])
def test_snapshot_rejects_weight_that_is_not_positive_definite(a, error):
    with pytest.raises(error):
        DynamicsSnapshot(a=a, h_bias=np.zeros(3), j_c=np.ones((1, 3)), qdd=np.zeros(3))


def test_selection_matrices():
    s_k, s_kc = selection_matrices(2, 5)
    assert s_k.shape == (2, 5) and s_kc.shape == (3, 5)
    np.testing.assert_array_equal(s_k @ np.arange(5.0), [0.0, 1.0])
    np.testing.assert_array_equal(s_kc @ np.arange(5.0), [2.0, 3.0, 4.0])


@pytest.mark.parametrize("n,k", [(2, 1), (4, 1), (4, 3), (6, 2), (5, 5)])
def test_decouple_reconstruction(rng, n, k):
    snap = random_snapshot(rng, n, k)
    sol = decouple(snap)
    b = snap.a @ snap.qdd + snap.h_bias
    resid = b - sol.tau - snap.j_c.T @ sol.lam
    bound = 1e-8 * (1.0 + np.max(np.abs(b)))
    assert np.max(np.abs(resid)) <= bound
    assert sol.residual_inf <= bound
    assert sol.lam.shape == (k,)


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (6, 3)])
def test_decouple_constraint_split(rng, n, k):
    # the torque carries the entire unconstrained block of the equation
    snap = random_snapshot(rng, n, k)
    sol = decouple(snap)
    fact = qr_full(snap.j_c.T)
    _, s_kc = selection_matrices(k, n)
    w = s_kc @ fact.q.T
    b = snap.a @ snap.qdd + snap.h_bias
    assert np.max(np.abs(w @ sol.tau - w @ b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (6, 3), (4, 4)])
def test_null_projection_properties(rng, n, k):
    snap = random_snapshot(rng, n, k)
    fact = qr_full(snap.j_c.T)
    _, s_kc = selection_matrices(k, n)
    w = s_kc @ fact.q.T
    n_kc = null_projection(w, snap.a)
    assert np.max(np.abs(n_kc @ n_kc - n_kc)) <= 1e-9
    if w.size:
        assert np.max(np.abs(w @ n_kc)) <= 1e-9
    else:
        np.testing.assert_array_equal(n_kc, np.eye(n))


def test_decouple_fully_constrained_puts_all_force_on_contact(rng):
    snap = random_snapshot(rng, 3, 3)
    sol = decouple(snap)
    np.testing.assert_array_equal(sol.tau, np.zeros(3))
    np.testing.assert_array_equal(sol.n_kc, np.eye(3))


def test_constraint_force_coincides_with_decouple(rng):
    # applying the torque decouple() chose must measure the same support
    # force it reported: the two expressions are algebraically identical
    for n, k in [(3, 1), (5, 2), (6, 3)]:
        snap = random_snapshot(rng, n, k)
        sol = decouple(snap)
        lam = constraint_force(snap, sol.tau)
        np.testing.assert_allclose(lam, sol.lam, atol=1e-9 * (1 + np.max(np.abs(sol.lam))))


def test_constraint_force_zero_torque(rng):
    # numpy's QR and solve on R agree with the list oracle's Gram-Schmidt
    # and back-substitution to 1e-12 of the force (well-conditioned rows)
    snap = random_snapshot(rng, 4, 2)
    lam = constraint_force(snap, np.zeros(4))
    q1, r = _contact_qr(snap.j_c.tolist())
    b = (snap.a @ snap.qdd + snap.h_bias).tolist()
    expected = np.array(_back_substitute(r, [sum(map(mul, qi, b)) for qi in q1]))
    assert np.abs(lam - expected).max() <= 1e-12 * np.abs(expected).max()


def textbook_decouple(snap):
    """The decoupling in its textbook form: numpy's complete QR with the
    sign fix, the explicit inverse of the weighted Gram matrix and a
    general solve on R."""
    n, k = snap.n, snap.k
    q, r_full = np.linalg.qr(snap.j_c.T, mode="complete")
    flip = np.where(np.diag(r_full[:k]) < 0.0, -1.0, 1.0)
    q[:, :k] *= flip
    r = r_full[:k, :k] * flip[:, np.newaxis]
    _, s_kc = selection_matrices(k, n)
    b = snap.a @ snap.qdd + snap.h_bias
    if k == n:
        n_kc, tau = np.eye(n), np.zeros(n)
    else:
        w = s_kc @ q.T
        x = np.linalg.solve(snap.a, w.T)
        gram = w @ x
        w_pinv = x @ np.linalg.inv(0.5 * (gram + gram.T))
        n_kc = np.eye(n) - w_pinv @ w
        tau = w_pinv @ (w @ b)
    lam = np.linalg.solve(r, q[:, :k].T @ (n_kc @ b))
    residual = b - tau - snap.j_c.T @ lam
    return tau, lam, n_kc, float(np.max(np.abs(residual)))


def contact_rows(model, q, spec):
    """``contact_jacobian`` of ``spec``'s point at ``q``, as an array."""
    st = model.state(q)
    jac = st.kin.tip_jac[model.link_index(spec.chain, spec.joint)]
    return np.array(contact_jacobian(jac, spec))


def desk_snapshot(model):
    q = model.q0
    qd = np.array([0.1, -0.2, 0.05, 0.02])
    st = model.state(q, qd)
    a, h = st.mass_matrix(), st.bias()
    j_c = contact_rows(model, q, ContactSpec(chain="arm", directions=("z",)))
    return DynamicsSnapshot(a=a, h_bias=h, j_c=j_c, qdd=np.array([0.3, 0.1, -0.4, 0.0]))


def test_decouple_matches_reference_formulas(desk_model, rng):
    snaps = list(decoupling_instances())
    snaps += [desk_snapshot(desk_model), random_snapshot(rng, 4, 4)]
    for snap in snaps:
        sol = decouple(snap)
        got = (sol.tau, sol.lam, sol.n_kc, sol.residual_inf)
        for value, ref in zip(got, textbook_decouple(snap)):
            bound = 1e-12 * (1.0 + np.max(np.abs(ref)))
            assert np.max(np.abs(value - ref)) <= bound


def exact_decouple(snap):
    """(lambda, tau, b) of ``decouple`` in exact rationals, from the normal
    equations lambda = (J_c A J_c^T)^-1 J_c A b and tau = b - J_c^T lambda:
    the same split, whose squared condition exact arithmetic absorbs."""
    def mat(m):  # a vector becomes a column
        return [[Fraction(v) for v in row] for row in np.asarray(m).reshape(len(m), -1).tolist()]

    def mul(x, y):
        return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]

    def add(x, y, sign=1):
        return [[u + sign * v for u, v in zip(r, s)] for r, s in zip(x, y)]

    a, jc = mat(snap.a), mat(snap.j_c)
    jct = [list(col) for col in zip(*jc)]
    b = add(mul(a, mat(snap.qdd)), mat(snap.h_bias))
    # Gauss-Jordan on [J_c A J_c^T | J_c A b]; exact, so any nonzero pivot does
    ja = mul(jc, a)
    rows = [g + r for g, r in zip(mul(ja, jct), mul(ja, b))]
    k = len(rows)
    for i in range(k):
        piv = next(r for r in range(i, k) if rows[r][i] != 0)
        rows[i], rows[piv] = rows[piv], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(k):
            if r != i:
                rows[r] = [u - rows[r][i] * v for u, v in zip(rows[r], rows[i])]
    lam = [row[k:] for row in rows]
    tau = add(b, mul(jct, lam), -1)
    return tuple(np.array([float(v) for (v,) in m]) for m in (lam, tau, b))


A_REF = np.array([[2.0, 0.3, 0.1, 0.2], [0.3, 1.0, 0.2, -0.1],
                  [0.1, 0.2, 0.5, 0.05], [0.2, -0.1, 0.05, 3.0]])
QDD_REF = np.array([0.3, -0.2, 0.5, 0.1])


def reference_snapshot(j_c, h_bias=(0.4, -1.1, 0.7, 2.0)):
    return DynamicsSnapshot(a=A_REF, h_bias=np.array(h_bias), j_c=np.array(j_c), qdd=QDD_REF)


def test_decouple_nearly_parallel_contact_rows_keep_qr_accuracy():
    # two rows 1e-6 rad apart: cond(J_c) ~ 1e6, so the normal equations
    # (J_c A J_c^T) lambda = J_c A b, whose condition is its square, lose
    # 8e-4 of lambda here; the QR form loses 1e-10
    theta = 1e-6
    snap = reference_snapshot([[1.0, 0.0, 0.5, -0.2],
                               [math.cos(theta), math.sin(theta), 0.5, -0.2]])
    lam_ref, _, _ = exact_decouple(snap)
    lam = decouple(snap).lam
    assert np.abs(lam - lam_ref).max() <= 1e-6 * np.abs(lam_ref).max()


def test_contact_qr_keeps_nearly_parallel_rows_orthonormal():
    # rows 1e-6 rad apart: one Gram-Schmidt pass leaves Q1 orthogonal only
    # to 1e-10, the reorthogonalization restores it to roundoff
    theta = 1e-6
    j_c = [[1.0, 0.0, 0.5, -0.2], [math.cos(theta), math.sin(theta), 0.5, -0.2]]
    q1, r = _contact_qr(j_c)
    q1, r = np.array(q1).T, np.array(r)
    assert np.abs(q1.T @ q1 - np.eye(2)).max() <= 1e-14
    assert r[1, 0] == 0.0 and (np.diag(r) > 0.0).all()
    assert np.abs(q1 @ r - np.array(j_c).T).max() <= 1e-15
    # constraint_force, on numpy's QR, measures under decouple's torque the
    # force decouple's split reports, to cond(J_c) ~ 1e6 times roundoff
    snap = reference_snapshot(j_c)
    sol = decouple(snap)
    lam = constraint_force(snap, sol.tau)
    assert np.abs(lam - sol.lam).max() <= 1e-9 * np.abs(sol.lam).max()


def test_decouple_rejects_a_lone_contact_row_below_the_absolute_floor():
    # a lone contact row at the smallest normal float passes the relative
    # rank rule, and lambda = y / r_11 would overflow to inf with a NaN
    # residual: both library entry points raise RankDeficient instead
    snap = DynamicsSnapshot(a=np.eye(2), h_bias=np.zeros(2), j_c=np.array([[2.0 ** -1022, 0.0]]),
                            qdd=np.array([4.0, 0.0]))
    with pytest.raises(RankDeficient):
        decouple(snap)
    with pytest.raises(RankDeficient):
        constraint_force(snap, np.zeros(2))


@settings(max_examples=200, deadline=None)
@given(st.integers(-1074, 0), st.floats(0.0, 2.0 * math.pi))
def test_lone_contact_row_floor_is_absolute(exponent, angle):
    # a lone row of any length and direction: below QR_RANK_ATOL both entry
    # points raise RankDeficient; at or above it they give a finite force
    row = 2.0**exponent * np.array([math.cos(angle), math.sin(angle)])
    length = math.hypot(*row)
    assume(not 0.5 * QR_RANK_ATOL < length < 2.0 * QR_RANK_ATOL)  # numpy's QR and hypot may differ by an ulp
    snap = DynamicsSnapshot(a=np.eye(2), h_bias=np.zeros(2), j_c=row[None, :], qdd=np.array([4.0, -1.0]))
    if length < QR_RANK_ATOL:
        with pytest.raises(RankDeficient):
            decouple(snap)
        with pytest.raises(RankDeficient):
            constraint_force(snap, np.zeros(2))
    else:
        sol = decouple(snap)
        assert np.isfinite(sol.lam).all() and math.isfinite(sol.residual_inf)
        assert np.isfinite(constraint_force(snap, sol.tau)).all()


def test_decouple_contact_carrying_almost_all_of_b():
    # tau = b - Q1 y cancels when the contact carries the force: with
    # 99.9 % of b on the contact, tau still holds to roundoff of |b|
    j_c = np.array([[0.2, -1.0, 0.4, 0.1]])
    h = 1e6 * j_c[0] + np.array([1.0, -2.0, 0.5, 3.0]) - A_REF @ QDD_REF
    snap = reference_snapshot(j_c, h_bias=h)
    lam_ref, tau_ref, b = exact_decouple(snap)
    assert np.abs(j_c.T @ lam_ref).max() >= 0.999 * np.abs(b).max()
    tau = decouple(snap).tau
    assert np.abs(tau - tau_ref).max() <= 1e-14 * np.abs(b).max()


def test_decouple_heavy_trunk_decoupled_from_the_contact(desk_model):
    # a 1e12 trunk the contact does not touch: the A^-1-weighted Gram
    # matrix of the complement spans 1e12 in eigenvalue and was rejected
    # as singular, while Q1^T A Q1 never sees the trunk
    snap = desk_snapshot(desk_model)
    a = np.zeros((4, 4))
    a[:3, :3] = snap.a[:3, :3]
    a[3, 3] = 1e12
    assert not snap.j_c[:, 3].any()
    heavy = DynamicsSnapshot(a=a, h_bias=snap.h_bias, j_c=snap.j_c, qdd=snap.qdd)
    lam_ref, tau_ref, _ = exact_decouple(heavy)
    sol = decouple(heavy)
    assert np.abs(sol.lam - lam_ref).max() <= 1e-12 * np.abs(lam_ref).max()
    for block in (slice(0, 3), slice(3, 4)):
        err = np.abs(sol.tau[block] - tau_ref[block]).max()
        assert err <= 1e-12 * np.abs(tau_ref[block]).max()


@pytest.mark.parametrize("j_c", [
    [[0.0, 0.0, 0.0, 0.0]],
    [[1.0, -2.0, 0.5, 0.3], [0.0, 0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0, 0.0], [1.0, -2.0, 0.5, 0.3]],
])
def test_zero_contact_row_is_rank_deficient(rng, j_c):
    g = rng.standard_normal((4, 4))
    snap = DynamicsSnapshot(
        a=g @ g.T + 4.0 * np.eye(4), h_bias=rng.standard_normal(4),
        j_c=np.array(j_c), qdd=rng.standard_normal(4),
    )
    with pytest.raises(RankDeficient):
        decouple(snap)
    with pytest.raises(RankDeficient):
        constraint_force(snap, np.zeros(4))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_list_core_matches_exact_reference(data):
    # SPD A, n = 2..6 and 1 <= k <= n (k = n included), with well-conditioned
    # contact rows U diag(s) V^T, s in [0.5, 2]: decouple() on float lists
    # agrees with exact rational elimination, and on the snapshot returns
    # the same tau and lambda
    n = data.draw(st.integers(2, 6), label="n")
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = rng.standard_normal((n, n))
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    snap = DynamicsSnapshot(
        a=g @ g.T + n * np.eye(n), h_bias=rng.standard_normal(n),
        j_c=u @ np.diag(rng.uniform(0.5, 2.0, k)) @ v.T, qdd=rng.standard_normal(n),
    )
    tau, lam = decouple(
        (snap.a.tolist(), snap.h_bias.tolist(), snap.j_c.tolist(), snap.qdd.tolist())
    )
    lam_ref, tau_ref, _ = exact_decouple(snap)
    for got, ref in ((lam, lam_ref), (tau, tau_ref)):
        assert np.all(np.abs(np.array(got) - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
    if k == n:
        assert tau == [0.0] * n
    sol = decouple(snap)
    assert np.array_equal(sol.tau, tau) and np.array_equal(sol.lam, lam)


# --- generated split ------------------------------------------------------------


def split_outcome(split, rows, projector=False):
    """What one split of fresh copies of ``rows`` = (a, h, j_c, qdd) returns,
    as ``float.hex``, or the error's class and message."""
    a, h, j_c, qdd = rows
    try:
        out = split(([list(r) for r in a], list(h), [list(r) for r in j_c], list(qdd)),
                    projector)
    except SuperlimbError as exc:
        return type(exc), str(exc)
    vectors = list(out[:2]) + (list(out[2]) if projector else [])  # tau, lam, rows of n_kc
    return [[float.hex(x) for x in v] for v in vectors]


def generated_decouple(rows, projector):
    """``decouple`` in the tuple form, or with ``projector`` in the snapshot
    form (``(tau, lam, n_kc)`` as lists), errors at construction included."""
    if not projector:
        return decouple(rows)
    sol = decouple(DynamicsSnapshot(*(np.array(m, dtype=float) for m in rows)))
    return sol.tau.tolist(), sol.lam.tolist(), sol.n_kc.tolist()


# every value reaches the split with either sign of zero
signed = st.sampled_from([0.0, -0.0]) | st.floats(-8.0, 8.0)


@st.composite
def split_rows(draw):
    """(a, h, j_c, qdd) for n = 1-5 and k = 1..n: a symmetric, diagonally
    dominant a (or one with a zero row and column, as a massless tip gives,
    or one that need not be positive definite), contact rows that may be
    zero or (nearly) parallel to the one before, and NaN or Inf entries in
    any of the four inputs."""
    n = draw(st.integers(1, 5), label="n")
    k = draw(st.integers(1, n), label="k")

    def vec(size):
        return draw(st.lists(signed, min_size=size, max_size=size))

    off = [vec(n) for _ in range(n)]
    a = [[off[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
    kind = draw(st.sampled_from(["spd"] * 4 + ["zero", "any"]), label="a")
    if kind != "any":
        for r in range(n):
            a[r][r] = sum(abs(x) for c, x in enumerate(a[r]) if c != r) + draw(st.floats(0.05, 4.0))
    if kind == "zero":
        z = draw(st.integers(0, n - 1), label="zero index")
        for r in range(n):
            a[r][z] = a[z][r] = 0.0
    j_c = []
    for _ in range(k):
        kinds = ["random"] * 8 + ["zero"] + (["parallel", "near"] if j_c else [])
        row = draw(st.sampled_from(kinds), label="row")
        if row == "random":
            j_c.append(vec(n))
        elif row == "zero":
            j_c.append([draw(st.sampled_from([0.0, -0.0])) for _ in range(n)])
        else:
            scale = draw(st.floats(-4.0, 4.0))
            tilt = draw(st.floats(1e-9, 1e-5)) if row == "near" else 0.0
            j_c.append([scale * x + tilt * (i + 1) for i, x in enumerate(j_c[-1])])
    rows = [a, vec(n), j_c, vec(n)]
    if draw(st.sampled_from([False] * 3 + [True]), label="non-finite"):
        for target in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
            vector = rows[target]
            if target in (0, 2):  # a row of a matrix
                vector = vector[draw(st.integers(0, len(vector) - 1))]
            vector[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
    return rows


@settings(max_examples=600, deadline=None)
@given(split_rows(), st.booleans())
def test_generated_split_matches_reference(rows, projector):
    # tau, lambda and (in the snapshot form) n_kc to the bit for every
    # (n, k) shape, or the same error class and message: a NaN or Inf
    # (the first input named wins), a weight that is not positive definite,
    # or contact rows that lose rank
    got = split_outcome(generated_decouple, rows, projector)
    assert got == split_outcome(reference_decouple, rows, projector)


def test_split_is_generated_once_per_shape():
    split = dynamics._split(4, 1, False)
    assert dynamics._split(4, 1, False) is split
    assert split.__code__.co_filename == "<inverse split: n=4, k=1>"


def test_constraint_force_shape_check(rng):
    snap = random_snapshot(rng, 4, 2)
    with pytest.raises(DimensionMismatch):
        constraint_force(snap, np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 99999))
def test_decouple_reconstruction_property(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(3, n - 1) + 1))
    snap = random_snapshot(rng, n, k)
    sol = decouple(snap)
    b = snap.a @ snap.qdd + snap.h_bias
    resid = b - sol.tau - snap.j_c.T @ sol.lam
    assert np.max(np.abs(resid)) <= 1e-8 * (1.0 + np.max(np.abs(b)))


# --- plant-facing helpers -------------------------------------------------------


def test_contact_spec_validation():
    with pytest.raises(DimensionMismatch):
        ContactSpec(chain="arm", directions=("x", "x"))
    with pytest.raises(DimensionMismatch):
        ContactSpec(chain="arm", directions=("y",))
    with pytest.raises(DimensionMismatch):
        ContactSpec(chain="arm", directions=())
    spec = ContactSpec(chain="arm", directions=("z", "x"))
    assert spec.rows == [1, 0]


def test_contact_jacobian_rows(desk_model):
    spec = ContactSpec(chain="arm", directions=("z",))
    j = contact_rows(desk_model, desk_model.q0, spec)
    pk = desk_model.state(desk_model.q0).point("arm")
    np.testing.assert_array_equal(j, pk.jac[[1], :])


def test_contact_jacobian_vanishing_direction_is_rank_deficient(desk_model):
    # arm straight up: no joint moves the tip vertically (|J_z| ~ 1e-16),
    # while the horizontal row keeps the arm's full reach
    arm = desk_model.chains[0]
    upright = dataclasses.replace(
        arm, heading=math.pi / 2.0,
        joints=tuple(dataclasses.replace(j, q0=0.0) for j in arm.joints),
    )
    model = dataclasses.replace(desk_model, chains=(upright, desk_model.chains[1]))
    horizontal = contact_rows(model, model.q0, ContactSpec(chain="arm", directions=("x",)))
    assert np.abs(horizontal).max() == pytest.approx(0.9)
    for dirs in (("z",), ("x", "z")):
        with pytest.raises(RankDeficient, match="rank"):
            contact_rows(model, model.q0, ContactSpec(chain="arm", directions=dirs))


def test_decouple_on_the_desk_plant(desk_model):
    # equation of motion at a real configuration with a vertical support
    q = desk_model.q0
    qd = np.array([0.1, -0.2, 0.05, 0.02])
    st = desk_model.state(q, qd)
    a, h = st.mass_matrix(), st.bias()
    spec = ContactSpec(chain="arm", directions=("z",))
    j_c = contact_rows(desk_model, q, spec)
    qdd = np.array([0.3, 0.1, -0.4, 0.0])
    snap = DynamicsSnapshot(a=a, h_bias=h, j_c=j_c, qdd=qdd)
    sol = decouple(snap)
    b = a @ qdd + h
    assert np.max(np.abs(b - sol.tau - j_c.T @ sol.lam)) <= 1e-8 * (1 + np.max(np.abs(b)))
