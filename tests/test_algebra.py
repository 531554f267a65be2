import numpy as np
import pytest

from ymlab import algebra as alg


def quat_exp_series(x, terms=12):
    """Power-series oracle for the su(2) exponential: sum q^n / n! with
    q the pure quaternion x/2."""
    q = np.zeros(4)
    q[1:] = 0.5 * x
    out = np.array([1.0, 0.0, 0.0, 0.0])
    power = np.array([1.0, 0.0, 0.0, 0.0])
    fact = 1.0
    for n in range(1, terms + 1):
        power = alg.quat_mul(power, q)
        fact *= n
        out = out + power / fact
    return out


def test_structure_constants_antisymmetric_and_cyclic(s2):
    f = s2.structure_constants
    assert np.allclose(f, -np.swapaxes(f, 0, 1))
    # ad-invariance of the inner product, exhaustively over basis triples
    basis = np.eye(3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                lhs = alg.inner(alg.bracket(basis[a], basis[b], s2), basis[c], s2)
                rhs = alg.inner(basis[a], alg.bracket(basis[b], basis[c], s2), s2)
                assert abs(lhs - rhs) < 1e-14


def test_bracket_basis_and_antisymmetry(s2, rng):
    e = np.eye(3)
    assert np.allclose(alg.bracket(e[0], e[1], s2), e[2])
    x = rng.standard_normal(3)
    assert np.allclose(alg.bracket(x, x, s2), 0.0)
    y = rng.standard_normal(3)
    assert np.allclose(alg.bracket(x, y, s2), -alg.bracket(y, x, s2))


def test_bracket_dimension_mismatch(s2):
    with pytest.raises(ValueError):
        alg.bracket(np.zeros(2), np.zeros(2), s2)


def test_jacobi_identity(s2, rng):
    for _ in range(50):
        x, y, z = rng.standard_normal((3, 3))
        j = (alg.bracket(x, alg.bracket(y, z, s2), s2)
             + alg.bracket(y, alg.bracket(z, x, s2), s2)
             + alg.bracket(z, alg.bracket(x, y, s2), s2))
        assert np.max(np.abs(j)) < 1e-13


def test_inner_orthonormal(s2):
    e = np.eye(3)
    assert alg.inner(e[0], e[0], s2) == s2.metric_normalization
    assert alg.inner(e[0], e[1], s2) == 0.0


def test_exp_identity_and_inverse(s2, rng):
    assert np.allclose(alg.exp_map(np.zeros(3), s2), [1, 0, 0, 0])
    for _ in range(20):
        x = rng.standard_normal(3)
        u = alg.quat_mul(alg.exp_map(x, s2), alg.exp_map(-x, s2))
        assert np.max(np.abs(u - np.array([1, 0, 0, 0]))) < 1e-13


def test_exp_matches_series_oracle(s2, rng):
    x = 0.3 * np.array([0.0, 1.0, 0.0])
    assert np.max(np.abs(alg.exp_map(x, s2) - quat_exp_series(x))) < 1e-12
    for _ in range(20):
        x = rng.standard_normal(3)
        x *= min(1.0, 1.0 / np.linalg.norm(x))  # |x| <= 1
        assert np.max(np.abs(alg.exp_map(x, s2) - quat_exp_series(x))) < 1e-12


def test_log_inverts_exp(s2, rng):
    for _ in range(20):
        x = 0.8 * rng.standard_normal(3)
        assert np.allclose(alg.log_map(alg.exp_map(x, s2), s2), x, atol=1e-12)


def test_adjoint_identity_isometry_homomorphism(s2, rng):
    ident = alg.identity_group(s2)
    x = rng.standard_normal(3)
    assert np.allclose(alg.adjoint(ident, x, s2), x)
    for _ in range(20):
        u = alg.exp_map(rng.standard_normal(3), s2)
        x, y = rng.standard_normal((2, 3))
        ax, ay = alg.adjoint(u, x, s2), alg.adjoint(u, y, s2)
        assert abs(alg.inner(ax, ay, s2) - alg.inner(x, y, s2)) < 1e-12
        hom = alg.adjoint(u, alg.bracket(x, y, s2), s2) - alg.bracket(ax, ay, s2)
        assert np.max(np.abs(hom)) < 1e-12


def test_ad_invariance_random(s2, rng):
    for _ in range(20):
        u = alg.exp_map(rng.standard_normal(3), s2)
        x, y = rng.standard_normal((2, 3))
        ax, ay = alg.adjoint(u, x, s2), alg.adjoint(u, y, s2)
        assert abs(alg.inner(ax, ay, s2) - alg.inner(x, y, s2)) < 1e-12


def test_maurer_cartan_at_identity(s2, rng):
    x = rng.standard_normal(3)
    du = np.zeros(4)
    du[1:] = 0.5 * x  # algebra direction as a quaternion increment
    coeff, resid = alg.maurer_cartan_coeff(
        alg.identity_group(s2), du, s2, return_residual=True)
    assert np.allclose(coeff, x)
    assert resid < 1e-15
    zero, _ = alg.maurer_cartan_coeff(alg.identity_group(s2), np.zeros(4), s2,
                                      return_residual=True)
    assert np.allclose(zero, 0.0)


def test_maurer_cartan_path_derivative(s2, rng):
    """Finite-difference path oracle: U(t) = exp(tX) has dU U^{-1} = X."""
    x = rng.standard_normal(3)
    h = 1e-6
    du = (alg.exp_map((1 + h) * x, s2) - alg.exp_map((1 - h) * x, s2)) / (2 * h)
    coeff = alg.maurer_cartan_coeff(alg.exp_map(x, s2), du, s2)
    assert np.max(np.abs(coeff - x)) < 1e-10


def test_dexp_right_closed_form(s2, rng):
    for _ in range(10):
        x, v = rng.standard_normal((2, 3))
        h = 1e-6
        du = (alg.exp_map(x + h * v, s2) - alg.exp_map(x - h * v, s2)) / (2 * h)
        fd = alg.maurer_cartan_coeff(alg.exp_map(x, s2), du, s2)
        assert np.max(np.abs(fd - alg.dexp_right(x, v, s2))) < 1e-9


def test_group_mul_renormalizes(s2, rng):
    u = alg.exp_map(rng.standard_normal(3), s2)
    v = alg.exp_map(rng.standard_normal(3), s2)
    w = alg.group_mul(u, v, s2)
    assert abs(np.sum(w * w) - 1.0) < 1e-12


def test_abelian_bracket_vanishes(ab, rng):
    x = rng.standard_normal((1, 4, 4))
    y = rng.standard_normal((1, 4, 4))
    assert np.all(alg.bracket(x, y, ab) == 0.0)


def test_abelian_exp_is_phase(ab):
    x = np.array([0.7])
    u = alg.exp_map(x, ab)
    assert np.allclose(u, x)
    assert np.allclose(alg.adjoint(u, x, ab), x)


@pytest.mark.parametrize("group", ["su2", "u1"])
@pytest.mark.parametrize("xshape, yshape", [
    ((), ()),                      # 1-D basis vectors: out[c] would be a scalar copy
    ((5, 4), (5, 4)),
    ((5, 4), (1, 4)),              # broadcast
    ((1, 1), (2, 3)),
])
def test_bracket_out_matches_allocating_form(group, xshape, yshape, rng):
    spec = alg.su2() if group == "su2" else alg.u1()
    x = rng.standard_normal((spec.dim,) + xshape)
    y = rng.standard_normal((spec.dim,) + yshape)
    want = alg.bracket(x, y, spec)
    out = np.full(want.shape, np.nan)
    got = alg.bracket(x, y, spec, out=out)
    assert got is out
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if group == "su2" and not xshape:
        e = np.eye(3)
        assert np.array_equal(alg.bracket(e[0], e[1], spec, out=np.empty(3)), e[2])


def test_bracket_out_rejects_shared_memory(s2, rng):
    buf = rng.standard_normal((3, 3, 8))
    x, y = buf[0], buf[1]
    for out in (x, y, buf[:, 0]):               # buf[:, 0] overlaps x and y
        with pytest.raises(ValueError):
            alg.bracket(x, y, s2, out=out)
    want = alg.bracket(x, y, s2)
    assert alg.bracket(x, y, s2, out=buf[2]).tobytes() == want.tobytes()


def test_tangent_bracket_block_structure_and_jacobi(s2, ab, rng):
    """The tangent bracket's three base brackets equal the einsum with the
    block structure constants, and the tangent algebra satisfies Jacobi."""
    for spec in (s2, ab):
        t = alg.tangent(spec)
        assert t.dim == 2 * spec.dim and t.base is spec
        # the same constants without `base` take the einsum branch
        plain = alg.StructureSpec("plain", t.dim, t.structure_constants)
        x, y, z = rng.standard_normal((3, t.dim, 4, 5))
        ref = np.einsum("abc,a...,b...->c...", t.structure_constants, x, y)
        assert np.max(np.abs(alg.bracket(x, y, t) - ref)) < 1e-14
        assert np.max(np.abs(alg.bracket(x, y, plain) - ref)) < 1e-14
        d = spec.dim
        assert np.array_equal(alg.bracket(x, y, t)[:d], alg.bracket(x[:d], y[:d], spec))
        j = (alg.bracket(x, alg.bracket(y, z, t), t)
             + alg.bracket(y, alg.bracket(z, x, t), t)
             + alg.bracket(z, alg.bracket(x, y, t), t))
        assert np.max(np.abs(j)) < 1e-13
