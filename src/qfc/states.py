"""Dense complex linear algebra for few-qubit states and operators.

Everything works on plain numpy arrays in complex128.  Validation lives in
check_density; hot loops elsewhere deliberately skip it and re-validate at
API boundaries.
"""

from __future__ import annotations

import numpy as np

# The identity and the Pauli matrices.
SI = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


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


def von_neumann_entropy(rho):
    """Entropy in nats; eigenvalues at or below 1e-12 are dropped."""
    evals = np.linalg.eigvalsh(np.asarray(rho))
    evals = evals[evals > _ENTROPY_CUTOFF]
    return float(-(evals * np.log(evals)).sum())
