"""A floating-point oracle of the Lemma-7 compatibility clauses (numpy).

Per archimedean place the Lie algebra gl_n over R or C is flattened to a real
coordinate space (complex places contribute real and imaginary parts).  In
that basis the Cartan involution is X -> -X^T (resp. X -> -conj(X)^T), the
trace form <X,Y> = Tr XY (resp. Re Tr XY) plays the role of H_K, and the
canonical positive form -<X, theta_K Y> is exactly the identity matrix.

The library reads a metric as its Gram matrix G = g^H g and never forms the
Lie-algebra form Ad(g)^T H_can Ad(g), which is compatible by construction;
`verify_compatibility` checks that claim on any form, clause by clause, with
residuals relative to the operand scale, at 1e-9.
"""

import math
from typing import NamedTuple

import numpy as np

TOL = 1e-9


class CartanData(NamedTuple):
    n: int
    place: str                     # "real" | "complex"
    theta_K: np.ndarray            # involution on the flattened Lie algebra
    H_K: np.ndarray                # trace form as a symmetric matrix
    H_can: np.ndarray              # canonical positive form -H_K theta_K (identity)

    @property
    def dim(self) -> int:
        return self.theta_K.shape[0]


def canonical_form(n: int, place: str = "real") -> CartanData:
    """theta_K, H_K and the canonical positive form on gl_n at one place."""
    p = np.zeros((n * n, n * n))              # X -> X^T on the flattened coordinates
    for i in range(n):
        for j in range(n):
            p[i * n + j, j * n + i] = 1.0
    if place == "real":
        theta, hk = -p, p
    else:
        z = np.zeros_like(p)
        theta = np.block([[-p, z], [z, p]])
        hk = np.block([[p, z], [z, -p]])
    return CartanData(n=n, place=place, theta_K=theta, H_K=hk, H_can=-hk @ theta)


def ad_matrix(cd: CartanData, g) -> np.ndarray:
    """Matrix of X -> g X g^{-1} on the flattened coordinates; LinAlgError if g is singular."""
    g = np.asarray(g, dtype=complex if cd.place == "complex" else float)
    m = np.kron(g, np.linalg.inv(g).T)
    if cd.place == "real":
        return m.real
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def witnessed_form(cd: CartanData, g) -> np.ndarray:
    """Ad(g)^T H_can Ad(g): the form of the metric whose Gram matrix is g^H g."""
    return act(cd, g, cd.H_can)


def act(cd: CartanData, g, H) -> np.ndarray:
    """Right action (H, g) -> Ad(g)^T H Ad(g)."""
    ad = ad_matrix(cd, g)
    return ad.T @ H @ ad


def _rel(defect: np.ndarray, reference: np.ndarray) -> float:
    return float(np.abs(defect).max() / (1.0 + np.abs(reference).max()))


def center_basis(cd: CartanData) -> np.ndarray:
    """Orthonormal basis of the flattened center (scalar matrices)."""
    u = np.eye(cd.n).reshape(-1) / math.sqrt(cd.n)
    if cd.place == "real":
        return u[:, None]
    z = np.zeros_like(u)
    return np.stack([np.concatenate([u, z]), np.concatenate([z, u])], axis=1)


def _range_basis(projector: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a projector's range (its nonzero singular values are >= 1)."""
    vecs, vals, _ = np.linalg.svd(projector)
    return vecs[:, vals > 0.5]


def semisimple_basis(cd: CartanData) -> np.ndarray:
    """Orthonormal basis of the trace-zero block (complement of the center)."""
    u = center_basis(cd)
    return _range_basis(np.eye(cd.dim) - u @ u.T)


class CompatibilityReport(NamedTuple):
    """Lemma-7 clauses on the trace-zero block plus the center-splitting checks.

    A compatible metric splits as (trace-zero block) + (any positive metric on
    the center); the fine involution is checked on the trace-zero block, where
    the determinant-free part of the group acts, and the center only has to
    stay positive and uncoupled.
    """

    involution_residual: float        # theta_H^2 vs identity on the trace-zero block
    reflection_residual: float        # H_K H^{-1} H_K vs H on the trace-zero block
    plus_max_eig: float               # H_K on the +1 eigenspace (must be < 0)
    minus_min_eig: float              # H_K on the -1 eigenspace (must be > 0)
    cross_residual: float             # H_K-orthogonality of the eigenspaces
    block_residual: float             # coupling between trace-zero block and center
    center_min_eig: float             # center block must stay positive definite
    tol: float = TOL

    @property
    def involution_ok(self) -> bool:
        return self.involution_residual < self.tol

    @property
    def reflection_ok(self) -> bool:
        return self.reflection_residual < self.tol

    @property
    def eigenspace_ok(self) -> bool:
        return bool(self.plus_max_eig < -self.tol and self.minus_min_eig > self.tol
                    and self.cross_residual < self.tol)

    @property
    def splitting_ok(self) -> bool:
        return bool(self.block_residual < self.tol and self.center_min_eig > self.tol)

    @property
    def ok(self) -> bool:
        return (self.involution_ok and self.reflection_ok and self.eigenspace_ok
                and self.splitting_ok)


def verify_compatibility(cd: CartanData, H, tol: float = TOL) -> CompatibilityReport:
    """Clause-by-clause compatibility check of a positive definite form on the Lie algebra."""
    H = np.asarray(H, dtype=float)
    if H.shape != (cd.dim, cd.dim) or not np.isfinite(H).all():
        raise ValueError(f"form must be a finite {cd.dim} x {cd.dim} matrix")
    u = center_basis(cd)
    vs = semisimple_basis(cd)
    hz = u.T @ H @ u
    center_min = float(np.linalg.eigvalsh((hz + hz.T) / 2).min())
    if vs.shape[1] == 0:
        return CompatibilityReport(0.0, 0.0, -math.inf, math.inf, 0.0, 0.0, center_min, tol)
    block = _rel(vs.T @ H @ u, H)

    hss = vs.T @ H @ vs
    hkss = vs.T @ cd.H_K @ vs
    theta = -np.linalg.solve(hkss, hss)
    eye = np.eye(hss.shape[0])
    r_inv = _rel(theta @ theta - eye, eye)
    r_refl = _rel(hkss @ np.linalg.solve(hss, hkss) - hss, hss)

    vp = _range_basis((eye + theta) / 2.0)
    vm = _range_basis((eye - theta) / 2.0)
    bp = vp.T @ hkss @ vp
    bm = vm.T @ hkss @ vm
    plus_max = float(np.linalg.eigvalsh((bp + bp.T) / 2).max()) if vp.size else -math.inf
    minus_min = float(np.linalg.eigvalsh((bm + bm.T) / 2).min()) if vm.size else math.inf
    cross = float(np.abs(vp.T @ hkss @ vm).max()) if vp.size and vm.size else 0.0

    return CompatibilityReport(involution_residual=r_inv, reflection_residual=r_refl,
                               plus_max_eig=plus_max, minus_min_eig=minus_min,
                               cross_residual=cross / (1.0 + np.abs(hkss).max()),
                               block_residual=block, center_min_eig=center_min, tol=tol)
