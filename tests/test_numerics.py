"""Tests for the dense linear-algebra kernels."""

import ast
import math
import re
import warnings
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from conftest import reference_fd_hessian, reference_fd_jacobian, reference_spd_solve
from superlimb import dynamics, harness, numerics
from superlimb.dynamics import DEPENDENT_CONTACTS, decouple
from superlimb.errors import (
    DimensionMismatch,
    NonFinite,
    NotSymmetric,
    NumericError,
    RankDeficient,
    SingularWeight,
)
from superlimb.numerics import (
    GRAM_COND_MAX,
    GRAM_PIVOT_RTOL,
    QR_RANK_RTOL,
    dyn_consistent_pinv,
    finite_diff_hessian,
    finite_diff_jacobian,
    psd_check,
    qr_full,
    spd_solve,
    svd_pinv,
)


def random_spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


# --- qr_full -------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (4, 2), (6, 3), (8, 8)])
def test_qr_full_reconstructs(rng, n, k):
    m = rng.standard_normal((n, k))
    fact = qr_full(m)
    assert fact.q.shape == (n, n)
    assert fact.r.shape == (k, k)
    assert np.max(np.abs(fact.q.T @ fact.q - np.eye(n))) <= 1e-10
    rebuilt = fact.q[:, :k] @ fact.r
    assert np.max(np.abs(rebuilt - m)) <= 1e-10 * (1.0 + np.max(np.abs(m)))


def test_qr_full_sign_convention_makes_factorization_unique(rng):
    m = rng.standard_normal((5, 3))
    f1 = qr_full(m)
    f2 = qr_full(m.copy())
    assert np.all(np.diag(f1.r) >= 0.0)
    np.testing.assert_array_equal(f1.q, f2.q)
    np.testing.assert_array_equal(f1.r, f2.r)
    # strictly triangular below the diagonal
    assert np.max(np.abs(np.tril(f1.r, -1))) <= 1e-12


def reference_qr_full(m):
    """numpy's complete QR with the non-negative-diagonal sign fix."""
    k = m.shape[1]
    q, r_full = np.linalg.qr(m, mode="complete")
    flip = np.where(np.diag(r_full[:k]) < 0.0, -1.0, 1.0)
    q[:, :k] *= flip
    return q, r_full[:k] * flip[:, np.newaxis]


@pytest.mark.parametrize("n,k", [(1, 1), (3, 3), (8, 8), (4, 1), (7, 1), (5, 3), (8, 2)])
def test_qr_full_matches_numpy_reference(rng, n, k):
    for _ in range(20):
        m = rng.standard_normal((n, k))
        fact = qr_full(m)
        q_ref, r_ref = reference_qr_full(m)
        assert np.abs(fact.q - q_ref).max() <= 1e-12 * (1.0 + np.abs(q_ref).max())
        assert np.abs(fact.r - r_ref).max() <= 1e-12 * (1.0 + np.abs(r_ref).max())


def test_qr_full_rejects_rank_deficient():
    m = np.ones((4, 2))  # two identical columns
    with pytest.raises(RankDeficient):
        qr_full(m)


def test_qr_full_rejects_wide_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        qr_full(np.ones((2, 3)))
    with pytest.raises(NonFinite):
        qr_full(np.array([[1.0], [np.nan]]))


# --- svd_pinv ------------------------------------------------------------


def random_fixed_rank(rng, n, k, rank):
    if rank == 0:
        return np.zeros((n, k))
    u = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((k, rank)))[0]
    s = rng.uniform(0.5, 3.0, rank)
    return u @ np.diag(s) @ v.T


def penrose_max_err(m, p):
    scale = 1.0 + np.max(np.abs(m))
    return max(
        np.max(np.abs(m @ p @ m - m)) / scale,
        np.max(np.abs(p @ m @ p - p)) / scale,
        np.max(np.abs((m @ p) - (m @ p).T)) / scale,
        np.max(np.abs((p @ m) - (p @ m).T)) / scale,
    )


@pytest.mark.parametrize("n,k", [(3, 3), (5, 2), (2, 5), (6, 6), (4, 7)])
def test_svd_pinv_penrose_all_ranks(rng, n, k):
    for rank in range(min(n, k) + 1):
        m = random_fixed_rank(rng, n, k, rank)
        p = svd_pinv(m)
        assert p.shape == (k, n)
        assert penrose_max_err(m, p) <= 1e-9


def test_svd_pinv_zero_matrix_maps_to_zero():
    p = svd_pinv(np.zeros((3, 5)))
    np.testing.assert_array_equal(p, np.zeros((5, 3)))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 12345))
def test_svd_pinv_penrose_property(n, k, seed):
    rng = np.random.default_rng(seed)
    m = random_fixed_rank(rng, n, k, rng.integers(0, min(n, k) + 1))
    assert penrose_max_err(m, svd_pinv(m)) <= 1e-9


# --- dyn_consistent_pinv --------------------------------------------------


@pytest.mark.parametrize("k,n", [(1, 2), (2, 4), (3, 6), (5, 5)])
def test_dyn_consistent_pinv_is_right_inverse(rng, k, n):
    w = rng.standard_normal((k, n))
    a = random_spd(rng, n)
    x = dyn_consistent_pinv(w, a)
    assert np.max(np.abs(w @ x - np.eye(k))) <= 1e-9


def test_dyn_consistent_pinv_range_a_orthogonal_to_nullspace(rng):
    # among all right inverses, the weighted one maps onto the A-orthogonal
    # complement of null(w): columns of X satisfy z' A x = 0 for w z = 0
    w = rng.standard_normal((2, 5))
    a = random_spd(rng, 5)
    x = dyn_consistent_pinv(w, a)
    _, _, vt = np.linalg.svd(w)
    null_basis = vt[2:, :].T  # 3 null directions
    assert np.max(np.abs(null_basis.T @ a @ x)) <= 1e-9


def test_dyn_consistent_pinv_rejects_bad_weight(rng):
    w = rng.standard_normal((2, 3))
    with pytest.raises(SingularWeight):
        dyn_consistent_pinv(w, -np.eye(3))  # negative definite
    asym = np.eye(3)
    asym[0, 1] = 0.5
    with pytest.raises(SingularWeight):
        dyn_consistent_pinv(w, asym)


@pytest.mark.parametrize("a, error", [
    ([[1e308, 1e308], [1e308, 1e308]], NonFinite),  # symmetric, but a + a^T overflows
    ([[1e308, -1e308], [1e308, 1e308]], SingularWeight),  # its asymmetry overflows
])
def test_dyn_consistent_pinv_overflowing_weight(a, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(error):
            dyn_consistent_pinv(np.eye(2)[:1], np.array(a))


def test_qr_rank_rule_is_shared_by_the_contact_qr():
    # qr_full and the Gram-Schmidt QR of decouple's generated split draw the
    # rank boundary in one place, check_rank: rows whose |r22| / |r11| is
    # eps, clearly above and clearly below QR_RANK_RTOL
    a, h, qdd = np.eye(3).tolist(), [0.5, -1.0, 2.0], [0.1, 0.2, -0.3]
    for eps, full_rank in [(1e2 * QR_RANK_RTOL, True), (1e-2 * QR_RANK_RTOL, False)]:
        j_c = [[1.0, 0.0, 0.0], [1.0, eps, 0.0]]
        if full_rank:
            assert qr_full(np.array(j_c).T).r[1, 1] == pytest.approx(eps, rel=1e-6)
            decouple((a, h, j_c, qdd))
            continue
        with pytest.raises(RankDeficient, match="matrix rank < 2: "):
            qr_full(np.array(j_c).T)
        with pytest.raises(RankDeficient, match=DEPENDENT_CONTACTS):
            decouple((a, h, j_c, qdd))


def test_dyn_consistent_pinv_rejects_row_rank_loss():
    w = np.array([[1.0, 0.0], [2.0, 0.0]])  # dependent rows
    with pytest.raises(RankDeficient):
        dyn_consistent_pinv(w, np.eye(2))


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 10**-5.5, 1e-6, 10**-6.5, 1e-8, 0.0])
def test_dyn_consistent_pinv_gram_bound_is_the_2norm_condition(eps):
    # two rows at an angle ~eps: cond(w w^T) ~ 4 / eps^2 crosses the bound
    w = np.array([[1.0, 0.0, 0.0], [1.0, eps, 0.0]])
    singular = np.linalg.cond(w @ w.T) > GRAM_COND_MAX
    if singular:
        with pytest.raises(RankDeficient):
            dyn_consistent_pinv(w, np.eye(3))
    else:
        x = dyn_consistent_pinv(w, np.eye(3))
        assert np.abs(w @ x - np.eye(2)).max() <= 1e-6


def test_gram_eigenvalue_failure_is_a_numeric_error(monkeypatch, rng):
    # the Gram condition check goes through numpy; its LinAlgError surfaces
    # as a NumericError, never raw
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(numerics.np.linalg, "eigvalsh", failing)
    with pytest.raises(NumericError, match="did not converge"):
        dyn_consistent_pinv(rng.standard_normal((2, 4)), random_spd(rng, 4))


def test_dyn_consistent_pinv_rejects_indefinite_weight(rng):
    a = random_spd(rng, 4)
    a[3, 3] = -1.0
    with pytest.raises(SingularWeight, match="leading minor 4"):
        dyn_consistent_pinv(rng.standard_normal((2, 4)), a)


# --- spd_solve ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spd_solve_matches_lapack_cholesky(rng, n):
    # the step loop's float-list solve agrees with dpotrf/dpotrs to roundoff
    for _ in range(20):
        m = random_spd(rng, n)
        rhs = rng.standard_normal((3, n))
        got = np.array(spd_solve(m.tolist(), rhs.tolist(), RankDeficient, "m"))
        ref = cho_solve(cho_factor(m), rhs.T).T
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan])
def test_spd_solve_rejects_matrix_that_is_not_positive_definite(rng, bad):
    m = random_spd(rng, 3)
    m[2, 2] = bad
    with pytest.raises(SingularWeight, match="m is singular .leading minor 3"):
        spd_solve(m.tolist(), [[1.0, 2.0, 3.0]], SingularWeight, "m is singular")


@pytest.mark.parametrize("angle, passes", [(1e-6, False), (1e-4, True)])
def test_spd_solve_relative_pivot_floor(angle, passes):
    # the Gram matrix of two unit rows ``angle`` apart: its second pivot,
    # sin(angle)^2, is positive either way, but below the relative floor at
    # 1e-6 rad; with no floor both solve
    c = math.cos(angle)
    gram = [[1.0, c], [c, 1.0]]
    spd_solve(gram, [[1.0, 0.0]], RankDeficient, "rows")
    if passes:
        spd_solve(gram, [[1.0, 0.0]], RankDeficient, "rows", GRAM_PIVOT_RTOL)
    else:
        with pytest.raises(RankDeficient, match="rows .leading minor 2"):
            spd_solve(gram, [[1.0, 0.0]], RankDeficient, "rows", GRAM_PIVOT_RTOL)


@st.composite
def spd_problems(draw):
    """``spd_solve`` arguments: the Gram matrix of 1-5 rows, which a
    repeated, scaled or barely tilted row makes singular or nearly so, with
    a zero, negative or NaN entry sometimes put in; 0-3 right-hand sides;
    either error class, a reason (one with braces), and no pivot floor or
    the Gram floor."""
    n = draw(st.integers(1, 5), label="n")
    signed = st.floats(-4.0, 4.0)
    g = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random"] * 4 + (["scaled", "near"] if g else [])))
        if kind == "random":
            g.append(draw(st.lists(signed, min_size=n, max_size=n)))
        else:
            scale, tilt = draw(signed), draw(st.floats(1e-9, 1e-4)) if kind == "near" else 0.0
            g.append([scale * x + tilt * (i + 1) for i, x in enumerate(g[-1])])
    m = [[sum(map(mul, gi, gj)) for gj in g] for gi in g]
    for _ in range(draw(st.integers(0, 2), label="edits")):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[r][c] = m[c][r] = draw(st.sampled_from([0.0, -0.0, -1.0, math.nan]))
    rhs = draw(st.lists(st.lists(signed, min_size=n, max_size=n), max_size=3), label="rhs")
    return (m, rhs, draw(st.sampled_from([RankDeficient, SingularWeight])),
            draw(st.sampled_from(["m is singular", "rows {i} and {j}"])),
            draw(st.sampled_from([0.0, GRAM_PIVOT_RTOL])))


def solve_outcome(solve, args):
    """Every solution float as ``float.hex``, or the error's class and text."""
    try:
        return [[x.hex() for x in row] for row in solve(*args)]
    except NumericError as exc:
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(spd_problems())
def test_generated_spd_solve_matches_reference(args):
    # the solution to the bit, or the same error class and message, at
    # zero, negative, NaN and floored pivots
    assert solve_outcome(spd_solve, args) == solve_outcome(reference_spd_solve, args)


def test_generated_code_is_compiled_in_one_place():
    # exec and compile run only in numerics._function, so every generator
    # gets the same globals through the one compile path
    sites = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id in ("exec", "compile"):
                sites.append((".".join(self.scope), node.func.id))
            self.generic_visit(node)

    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        Visitor(path.stem).visit(ast.parse(path.read_text(), str(path)))
    assert sorted(sites) == [("numerics._function", "compile"), ("numerics._function", "exec")]


def test_liveness_pass_drops_only_dead_arithmetic():
    # stores and updates of +, - and * go when nothing later reads them;
    # calls, divisions, unpackings, subscript stores and control flow stay
    body = [
        "q0, q1, = q",             # an unpacking: it can raise
        "a = 0.0 + q0 * 2.0",      # read by b
        "dead = a * q1",           # read by nothing: dropped
        "dead += 1e-05 * a",       # an update of a dead name: dropped
        "e = cos(q0)",             # a call: it can raise
        "f = 1.0 / q1",            # a division: it can raise
        "b, c = a - 1.5, (a + q1) * -a",
        "c = 2.0 * q1",            # this c is the one the return reads
        "dead = 3.0 * q0",         # stored again before anything reads it: dropped
        "dead = 3.0 * q1",
        "out[0] = q0 + dead",      # a subscript store
        "if not b > 0.0:",
        "    raise NonFinite('b')",
        "return b, c",
    ]
    kept = numerics._live(body)
    assert kept == [line for i, line in enumerate(body) if i not in (2, 3, 8)]
    assert numerics._live(kept) == kept
    # a power may overflow, so it stays as well
    assert numerics._live(["x = q ** 2.0", "return 0.0"]) == ["x = q ** 2.0", "return 0.0"]
    assert numerics._live(["x = q * 2.0", "return 0.0"]) == ["return 0.0"]


def generated_bodies(monkeypatch, module, generate, shapes) -> list[list[str]]:
    """The body of each shape's generated function, generated anew (past
    the generator's cache) through ``module``'s ``_function``."""
    bodies, compile_body = [], module._function

    def capture(signature, body, label, **names):
        bodies.append(body)
        return compile_body(signature, body, label, **names)

    monkeypatch.setattr(module, "_function", capture)
    for shape in shapes:
        generate.__wrapped__(*shape)
    return bodies


def test_liveness_pass_leaves_the_generated_solves_alone(monkeypatch):
    # every statement of the contact solve and of the inverse-dynamics
    # split is read: the pass is a no-op on them, for every shape up to
    # n = 5 (the split's check-only factorization included)
    shapes = [(n, m, k) for n in range(1, 6) for m in range(n + 1) for k in range(3)]
    bodies = generated_bodies(monkeypatch, harness, harness._contact_step, shapes)
    shapes = [(n, k, p) for n in range(1, 6) for k in range(1, min(n, 3) + 1)
              for p in (None, False, True)]
    bodies += generated_bodies(monkeypatch, dynamics, dynamics._split, shapes)
    for body in bodies:
        assert numerics._live(body) == body


def test_split_factor_of_a_computes_no_unread_pivot(monkeypatch):
    # the check-only Cholesky of A keeps its n pivot checks, and every
    # reciprocal pivot it assigns is read later (the last one used to be
    # assigned and never read)
    shapes = [(n, k, False) for n in range(1, 6) for k in range(1, min(n, 3) + 1)]
    for (n, _, _), body in zip(shapes, generated_bodies(monkeypatch, dynamics, dynamics._split,
                                                        shapes)):
        assert sum("a is not positive definite" in line for line in body) == n
        for i, line in enumerate(body):
            if assigned := re.match(r"(ia\d+) = ", line):
                name = re.compile(rf"\b{assigned[1]}\b")
                assert any(name.search(later) for later in body[i + 1 :]), line


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(0, 99999))
def test_dyn_consistent_pinv_property(k, seed):
    rng = np.random.default_rng(seed)
    n = k + int(rng.integers(0, 4))
    w = rng.standard_normal((k, n))
    a = random_spd(rng, n)
    x = dyn_consistent_pinv(w, a)
    assert np.max(np.abs(w @ x - np.eye(k))) <= 1e-9


# --- finite differences -----------------------------------------------------


def test_finite_diff_jacobian_matches_linear_map(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    jac = finite_diff_jacobian(lambda p: a @ p + b, rng.standard_normal(4))
    assert np.max(np.abs(jac - a)) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_finite_diff_hessian_matches_quadratic(seed):
    rng = np.random.default_rng(seed)
    n = 4
    h = random_spd(rng, n)
    g = rng.standard_normal(n)

    def f(p):
        return 0.5 * p @ h @ p + g @ p - 1.7

    hess = finite_diff_hessian(f, rng.standard_normal(n))
    assert np.max(np.abs(hess - h)) <= 1e-6 * (1.0 + np.max(np.abs(h)))


def test_finite_diff_hessian_is_symmetric(rng):
    def f(p):
        return float(np.sin(p[0]) * np.exp(p[1]) + p[0] * p[1] ** 2)

    hess = finite_diff_hessian(f, np.array([0.3, -0.2]))
    np.testing.assert_array_equal(hess, hess.T)


def test_finite_diff_nonfinite_function_raises():
    with pytest.raises(NonFinite):
        finite_diff_hessian(lambda p: float("nan"), np.zeros(2))


def fd_closures(rng, n):
    """Seeded scalar and vector maps of an n-D point: a quadratic, a
    trigonometric one, and one that tells -0.0 from +0.0 (atan2), so
    that a point built with another zero's sign shows."""
    h, g = random_spd(rng, n), rng.standard_normal(n)
    a, w = rng.standard_normal((3, n)), rng.standard_normal(n)
    scalar = [lambda p: 0.5 * p @ h @ p + g @ p - 1.7,
              lambda p: float(np.sin(w @ p) * np.exp(np.cos(p).sum())),
              lambda p: float(np.arctan2(p, -1.0) @ w)]
    vector = [lambda p: h @ p + g,
              lambda p: np.sin(a @ p) * np.cos(p[0]),
              lambda p: np.arctan2(p, -1.0)]
    return scalar, vector


def fd_points(rng, n):
    p0 = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 50.0], n)
    zeros = p0.copy()
    zeros[::2] = -0.0
    zeros[1::2] = 0.0
    return [p0, zeros]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 6])
def test_finite_diff_stencil_matches_reference_bitwise(seed, n):
    rng = np.random.default_rng(seed)
    scalar, vector = fd_closures(rng, n)
    for p0 in fd_points(rng, n):
        for f in scalar:
            assert finite_diff_hessian(f, p0).tobytes() == reference_fd_hessian(f, p0).tobytes()
        for f in vector:
            assert finite_diff_jacobian(f, p0).tobytes() == reference_fd_jacobian(f, p0).tobytes()


def scribbling(f):
    """f, then overwrite the point it was given."""

    def g(p):
        value = f(p)
        p[:] = 1e3
        return value

    return g


@pytest.mark.parametrize("seed", [0, 1])
def test_finite_diff_map_writing_into_its_argument_moves_no_point(seed):
    rng = np.random.default_rng(seed)
    scalar, vector = fd_closures(rng, 4)
    p0 = rng.standard_normal(4)
    kept = p0.copy()
    for diff, maps in ((finite_diff_hessian, scalar), (finite_diff_jacobian, vector)):
        for f in maps:
            assert diff(scribbling(f), p0).tobytes() == diff(f, p0).tobytes()
            assert p0.tobytes() == kept.tobytes()


# --- psd_check ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_psd_check_agrees_with_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = 5
    # random symmetric with mixed spectrum
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = rng.uniform(-1.0, 2.0, n)
    m = q @ np.diag(eigs) @ q.T
    tol = 1e-9 * max(1.0, np.max(np.abs(m)))
    verdict, min_eig = psd_check(m, tol)
    vs = rng.standard_normal((1000, n))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    brute = np.min(np.einsum("ij,jk,ik->i", vs, m, vs))
    # sampled minimum upper-bounds the true min eigenvalue
    assert brute >= min_eig - 1e-12
    if not verdict:
        assert min_eig < -tol


def test_psd_check_rejects_asymmetric():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        psd_check(m, 1e-9)


def test_psd_check_rejects_an_overflowing_asymmetry_without_warning():
    m = np.array([[1.0, 1e308], [-1e308, 1.0]])
    with pytest.raises(NotSymmetric):
        psd_check(m, 1e-9)


def test_psd_check_identity():
    ok, min_eig = psd_check(np.eye(3), 0.0)
    assert ok and min_eig == pytest.approx(1.0)
