"""Shared helpers: randomized state and operator inputs, and the reference
operators that several test files check the package against."""

import numpy as np


def random_density(rng, d, rank=None):
    """Ginibre-style random mixed state of dimension d."""
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def partial_trace(rho, dims, keep):
    """Trace out all subsystems except dims[keep].

    dims lists the subsystem dimensions in tensor order (first factor most
    significant, matching states.tensor_product).
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


def bloch_from_density(rho):
    """Bloch vector (<X>, <Y>, <Z>) of a qubit density matrix."""
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
