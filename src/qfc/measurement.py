"""Generalized measurements: operator sets, sampling, weak Gaussian Kraus forms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import dag


@dataclass
class MeasurementOperatorSet:
    """Kraus operators {M_m} with sum_m M_m^dag M_m = 1.

    Completeness is enforced at construction (max-norm deviation at most
    completeness_tol).
    """

    operators: list
    labels: list = field(default_factory=list)
    completeness_tol: float = 1e-9

    def __post_init__(self):
        self.operators = [np.asarray(m, dtype=complex) for m in self.operators]
        if not self.operators:
            raise ValueError("operator set is empty")
        d = self.operators[0].shape[0]
        for m in self.operators:
            if m.shape != (d, d):
                raise ValueError("operators must share one square shape")
        if not self.labels:
            self.labels = list(range(len(self.operators)))
        if len(self.labels) != len(self.operators):
            raise ValueError("labels and operators differ in length")
        total = sum(dag(m) @ m for m in self.operators)
        err = np.max(np.abs(total - np.eye(d)))
        if err > self.completeness_tol:
            raise ValueError(f"completeness violated by {err:.3e}")

    @property
    def dim(self):
        return self.operators[0].shape[0]


def gaussian_weak_set(k_strength, eigenvalues, outcome_range=None):
    """Gaussian-weighted weak measurement of a diagonal observable.

    Operator for integer outcome m is diagonal with weights proportional to
    exp(-k (n - m)^2 / 4) over the observable eigenvalues n.  The outcome
    range defaults to the eigenvalue span padded by ceil(6 / sqrt(k)) on each
    side; weights are normalized per eigenvalue so completeness is exact even
    on the truncated range.  Raises if the range is too narrow for the
    truncation to be negligible (relative tail mass above 1e-6).
    """
    k = float(k_strength)
    if k <= 0:
        raise ValueError("k_strength must be positive")
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ValueError("eigenvalues must be a non-empty 1-d sequence")
    if outcome_range is None:
        pad = int(np.ceil(6.0 / np.sqrt(k)))
        outcomes = np.arange(int(np.floor(eigs.min())) - pad,
                             int(np.ceil(eigs.max())) + pad + 1)
    else:
        outcomes = np.asarray(outcome_range, dtype=int)
        if outcomes.ndim != 1 or outcomes.size == 0:
            raise ValueError("outcome_range must be a non-empty 1-d sequence")

    # w[m, n]; per-eigenvalue denominator D[n] = sum_m w^2.
    w = np.exp(-k * (outcomes[:, None] - eigs[None, :]) ** 2 / 4.0)
    d_per_eig = (w * w).sum(axis=0)

    # Tail estimate: compare against a range padded twice as far.
    wide_pad = 2 * int(np.ceil(6.0 / np.sqrt(k))) + 2
    wide = np.arange(int(np.floor(eigs.min())) - wide_pad,
                     int(np.ceil(eigs.max())) + wide_pad + 1)
    w_wide = np.exp(-k * (wide[:, None] - eigs[None, :]) ** 2 / 4.0)
    d_wide = (w_wide * w_wide).sum(axis=0)
    tail = np.max((d_wide - d_per_eig) / d_wide)
    if tail > 1e-6:
        raise ValueError(
            f"outcome range too narrow: relative truncation error {tail:.3e}"
        )

    weights = w / np.sqrt(d_per_eig)[None, :]
    ops = [np.diag(weights[i].astype(complex)) for i in range(len(outcomes))]
    return MeasurementOperatorSet(operators=ops, labels=list(map(int, outcomes)))


def outcome_probabilities(rho, mset):
    """p_m = Re Tr(M_m rho M_m^dag), tiny negatives clipped to zero."""
    rho = np.asarray(rho, dtype=complex)
    probs = np.array(
        [np.trace(m @ rho @ dag(m)).real for m in mset.operators]
    )
    if probs.min() < -1e-10:
        raise ValueError(f"outcome probability {probs.min()} is negative")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return probs / total


def apply_measurement(rho, mset, rng):
    """Sample one outcome; return (label, post_state, probability).

    Outcomes with probability below 1e-12 are never selected.
    """
    probs = outcome_probabilities(rho, mset)
    sample = probs.copy()
    sample[sample < 1e-12] = 0.0
    sample = sample / sample.sum()
    u = float(rng.uniform())
    idx = int(np.searchsorted(np.cumsum(sample), u, side="right"))
    idx = min(idx, len(sample) - 1)
    m = mset.operators[idx]
    p = float(probs[idx])
    post = (m @ np.asarray(rho, dtype=complex) @ dag(m)) / p
    return mset.labels[idx], post, p


def nonselective_channel(rho, mset):
    """sum_m M_m rho M_m^dag (the outcome-averaged map)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for m in mset.operators:
        out += m @ rho @ dag(m)
    return out


def continuous_meas_kraus(k_strength, dt, observable, mu):
    """Kraus operator of one continuous-monitoring readout sample.

    M(mu) = (4 k dt / pi)^(1/4) exp(-2 k dt (X - mu)^2), built spectrally, so
    that integrating M(mu)^dag M(mu) over mu recovers the identity.
    """
    k = float(k_strength)
    if k <= 0 or dt <= 0:
        raise ValueError("k_strength and dt must be positive")
    x = np.asarray(observable, dtype=complex)
    evals, vecs = np.linalg.eigh(x)
    amp = (4.0 * k * dt / np.pi) ** 0.25
    weights = amp * np.exp(-2.0 * k * dt * (evals - float(mu)) ** 2)
    return (vecs * weights[None, :]) @ vecs.conj().T

