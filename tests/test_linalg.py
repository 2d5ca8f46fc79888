import ast
from pathlib import Path

import numpy as np
import pytest

import sospcheck
from sospcheck.errors import NonFiniteError, NonSymmetricError
from sospcheck.linalg import matrix_rank, nullspace_basis, sym_eig


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        dec = sym_eig(np.diag([2.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [-1.0, 2.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        m = m + m.T
        dec = sym_eig(m)
        assert np.abs(dec.reconstruct() - m).max() <= 1e-10 * np.abs(m).max()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_sign_canonicalization_deterministic(self):
        m = np.diag([1.0, 2.0, 3.0])
        dec = sym_eig(m)
        # largest-magnitude entry of every eigenvector is positive
        idx = np.abs(dec.eigenvectors).argmax(axis=0)
        assert (dec.eigenvectors[idx, np.arange(3)] > 0).all()

    def test_property_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 31))
            m = rng.standard_normal((n, n))
            m = m + m.T
            dec = sym_eig(m)
            v = dec.eigenvectors
            assert np.linalg.norm(dec.reconstruct() - m) <= 1e-9 * np.linalg.norm(m)
            assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10


class TestNullspaceBasis:
    def test_full_rank_empty(self):
        assert nullspace_basis(np.eye(2)).shape == (2, 0)

    def test_one_by_two(self):
        n = nullspace_basis(np.array([[1.0, 0.0]]))
        assert n.shape == (2, 1)
        assert np.allclose(np.abs(n[:, 0]), [0.0, 1.0])

    def test_row_of_ones(self):
        n = nullspace_basis(np.array([[1.0, 1.0, 1.0]]))
        assert n.shape == (3, 2)
        assert np.abs(n.sum(axis=0)).max() <= 1e-12
        assert np.abs(n.T @ n - np.eye(2)).max() <= 1e-12

    def test_complement_of_row_space(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 7))
        n = nullspace_basis(a)
        r = np.linalg.qr(a.T)[0]  # orthonormal basis of the row space of a
        combined = np.hstack([n, r])
        assert combined.shape == (7, 7)
        assert np.linalg.norm(combined.T @ combined - np.eye(7)) <= 1e-10


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(sym_eig(np.eye(3)).pseudoinverse(1e-10), np.eye(3))

    def test_diagonal(self):
        dec = sym_eig(np.diag([2.0, 0.0]))
        assert np.allclose(dec.pseudoinverse(1e-10), np.diag([0.5, 0.0]))
        # the cutoff is absolute and two-sided
        dec = sym_eig(np.diag([1e-6, 1e-9, -2.0]))
        assert np.allclose(dec.pseudoinverse(1e-8), np.diag([1e6, 0.0, -0.5]))

    def test_moore_penrose_identity(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 2))
        m = g @ g.T  # PSD, rank 2
        mp = sym_eig(m).pseudoinverse(1e-10)
        assert np.linalg.norm(m @ mp @ m - m) <= 1e-9 * np.linalg.norm(m)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            sym_eig(np.eye(2)).pseudoinverse(tol=0.0)

    def test_from_a_decomposition_is_bit_equal(self):
        # inverting the decomposition's eigenvalues with |lambda| above tol
        rng = np.random.default_rng(6)
        for n, rank in ((1, 1), (3, 2), (5, 5), (6, 3)):
            g = rng.standard_normal((n, rank))
            dec = sym_eig(g @ g.T)
            w, v = dec.eigenvalues, dec.eigenvectors
            for tol in (1e-10, 1e-8, 1e-1):
                keep = np.abs(w) > tol
                want = (v * np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)) @ v.T
                assert np.array_equal(dec.pseudoinverse(tol), want)

    def test_factor(self):
        # L diag(s) L^T is the pseudo-inverse, on indefinite matrices too
        rng = np.random.default_rng(7)
        for n in (1, 3, 6):
            g = rng.standard_normal((n, n))
            w = np.array([-2.0, 1e-12, 3.0, -1e-3, 5e-9, 1.0])[:n]
            q = np.linalg.qr(g)[0]
            dec = sym_eig((q * w) @ q.T)
            for tol in (1e-10, 1e-8, 1e-1):
                root, sign = dec.pseudoinverse_factor(tol)
                assert root.shape[1] == sign.size == np.count_nonzero(np.abs(dec.eigenvalues) > tol)
                assert set(sign.tolist()) <= {-1.0, 1.0}
                want = dec.pseudoinverse(tol)
                assert np.abs((root * sign) @ root.T - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        with pytest.raises(ValueError):
            sym_eig(np.eye(2)).pseudoinverse_factor(tol=0.0)


def test_matrix_rank_threshold():
    assert matrix_rank(np.diag([1.0, 1e-14])) == 1
    assert matrix_rank(np.zeros((2, 3))) == 0


def test_every_small_threshold_lives_in_the_tolerance_table():
    """A float literal in (0, 1e-4] in a module that decides a check is a
    threshold, so it belongs in ``Tolerances``; only the PGD cross-check,
    which decides no verdict, keeps its own budget."""
    package = Path(sospcheck.__file__).parent
    found = []
    for name in ("linalg", "network", "first_order", "second_order", "checker"):
        tree = ast.parse((package / f"{name}.py").read_text())
        allowed = [
            node for node in ast.walk(tree)
            if (isinstance(node, ast.ClassDef) and node.name == "Tolerances")
            or (isinstance(node, ast.FunctionDef) and node.name == "solve_ecqp_pgd")
            or (isinstance(node, ast.Assign)
                and all(isinstance(t, ast.Name) and t.id.startswith("PGD_") for t in node.targets))
        ]
        spans = [(node.lineno, node.end_lineno) for node in allowed]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < node.value <= 1e-4
                    and not any(lo <= node.lineno <= hi for lo, hi in spans)):
                found.append(f"{name}.py:{node.lineno}: {node.value!r}")
    assert not found, found
