"""Dense complex linear algebra for few-qubit states and operators.

Everything works on plain numpy arrays in complex128.  Validation lives in
check_density; hot loops elsewhere deliberately skip it and re-validate at
API boundaries.
"""

from __future__ import annotations

import numpy as np

# Pauli matrices and friends.
SI = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def dag(a):
    return np.asarray(a).conj().T


def tensor_product(a, b, *rest):
    """Kronecker product; the first factor is the most significant subsystem."""
    out = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    for m in rest:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


_DENSITY_TOL = 1e-9  # trace, Hermiticity and negative-eigenvalue tolerance
_ENTROPY_CUTOFF = 1e-12  # eigenvalues at or below this are left out of the entropy


def check_density(rho, raw=False):
    """Validate a density matrix and return it as a complex array.

    The trace must be 1, rho Hermitian and its eigenvalues non-negative,
    each to within 1e-9.  raw=True skips the Hermiticity and positivity
    checks.  It exists for one deliberately asymmetric benchmark input of
    the purification-cycle demo (chaos.PERTURBED_BELL) and should not be
    used for anything else.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > _DENSITY_TOL:
        raise ValueError(f"trace {tr} deviates from 1 beyond {_DENSITY_TOL}")
    if not raw:
        if np.max(np.abs(rho - rho.conj().T)) > _DENSITY_TOL:
            raise ValueError(f"matrix not Hermitian within {_DENSITY_TOL}")
        lo = np.linalg.eigvalsh(rho).min()
        if lo < -_DENSITY_TOL:
            raise ValueError(f"negative eigenvalue {lo} below -{_DENSITY_TOL}")
    return rho


def pure_state(amplitudes):
    """Return a normalized amplitude vector, rejecting unnormalized input."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = np.vdot(psi, psi).real
    if abs(n - 1.0) > 1e-12:
        raise ValueError(f"squared norm {n} deviates from 1 beyond 1e-12")
    return psi


def density(psi):
    """|psi><psi| for an amplitude vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def bell_state(which):
    """Amplitudes of 'phi+', 'phi-', 'psi+' or 'psi-' on |00>,|01>,|10>,|11>."""
    s = 1.0 / np.sqrt(2.0)
    table = {
        "phi+": (s, 0.0, 0.0, s),
        "phi-": (s, 0.0, 0.0, -s),
        "psi+": (0.0, s, s, 0.0),
        "psi-": (0.0, s, -s, 0.0),
    }
    try:
        return np.array(table[which], dtype=complex)
    except KeyError:
        raise ValueError(f"unknown Bell state {which!r}") from None


def partial_trace(rho, dims, keep):
    """Trace out all subsystems except dims[keep].

    dims lists the subsystem dimensions in tensor order (first factor most
    significant, matching tensor_product).
    """
    dims = [int(d) for d in dims]
    d = int(np.prod(dims))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"dims {dims} do not match matrix of shape {rho.shape}")
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep index {keep} out of range for {len(dims)} subsystems")
    t = rho.reshape(dims + dims)
    n = len(dims)
    for ax in reversed(range(len(dims))):
        if ax == keep:
            continue
        t = np.trace(t, axis1=ax, axis2=ax + n)
        n -= 1
    return t


def fidelity_trace(a, b):
    """Re Tr(a b), clamped to [0, 1 + 1e-9].

    Equals |<psi_a|psi_b>|^2 when either argument is pure; used throughout as
    the overlap figure of merit.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    f = np.trace(a @ b).real
    return float(min(max(f, 0.0), 1.0 + 1e-9))


def purity(rho):
    rho = np.asarray(rho)
    return float(np.trace(rho @ rho).real)


def von_neumann_entropy(rho):
    """Entropy in nats; eigenvalues at or below 1e-12 are dropped."""
    evals = np.linalg.eigvalsh(np.asarray(rho))
    evals = evals[evals > _ENTROPY_CUTOFF]
    return float(-(evals * np.log(evals)).sum())


def bloch_from_density(rho):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {rho.shape}")
    return np.array(
        [
            2.0 * rho[0, 1].real,
            -2.0 * rho[0, 1].imag,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )


def density_from_bloch(v, tol=1e-9):
    v = np.asarray(v, dtype=float).reshape(3)
    n2 = float(v @ v)
    if n2 > 1.0 + tol:
        raise ValueError(f"Bloch vector squared length {n2} exceeds 1")
    return 0.5 * (SI + v[0] * SX + v[1] * SY + v[2] * SZ)


def angular_momentum_ops(two_j):
    """(F_x, F_y, F_z) for spin j = two_j / 2, basis ordered m = j .. -j."""
    two_j = int(two_j)
    if two_j < 1:
        raise ValueError("two_j must be a positive integer")
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    fz = np.diag(m).astype(complex)
    lower = m[1:]
    raise_amp = np.sqrt(j * (j + 1) - lower * (lower + 1))
    fp = np.diag(raise_amp, 1).astype(complex)
    fx = 0.5 * (fp + fp.conj().T)
    fy = (fp - fp.conj().T) / 2j
    return fx, fy, fz
