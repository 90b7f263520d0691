"""Conversions between complex vectors/operators and their real forms.

Fixed coordinate convention on the realified space: a complex vector
v in C^n becomes (Re v_1 .. Re v_n, Im v_1 .. Im v_n) in R^{2n}.  The vector
conversions act on the last axis, so a batch of rows converts at once.
"""
import numpy as np


def cx_to_re(v):
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag], axis=-1)


def re_to_cx(w):
    w = np.asarray(w, dtype=float)
    n = w.shape[-1] // 2
    return w[..., :n] + 1j * w[..., n:]


def pairs(values):
    """[Re, Im] float pairs of a complex vector (or scalar), for JSON reports."""
    return [[float(v.real), float(v.imag)] for v in np.atleast_1d(np.asarray(values, dtype=complex))]


def realify(a):
    """Real 2n x 2n matrix of the C-linear operator a, or of each one in a stack."""
    a = np.asarray(a, dtype=complex)
    rows, cols = a.shape[-2:]
    out = np.empty(a.shape[:-2] + (2 * rows, 2 * cols))
    out[..., :rows, :cols] = a.real
    np.negative(a.imag, out=out[..., :rows, cols:])
    out[..., rows:, :cols] = a.imag
    out[..., rows:, cols:] = a.real
    return out


def complexify(m, tol=1e-9):
    """Inverse of realify; raises if m does not commute with j."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0] // 2
    a = m[:n, :n] + 1j * m[n:, :n]
    err = np.linalg.norm(m - realify(a))
    if err > tol * max(1.0, np.linalg.norm(m)):
        raise ValueError(f"matrix is not complex-linear (defect {err:.2e})")
    return a


def j_matrix(n):
    """Multiplication by i on R^{2n}."""
    out = np.zeros((2 * n, 2 * n))
    out[n:, :n] = np.eye(n)
    np.negative(out[n:, :n], out=out[:n, n:])
    return out
