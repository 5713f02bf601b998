"""The paper's Vandermonde-like matrix ``A(k, n)`` (Definition 2).

``A(k, n)_{p,i} = i^p`` for ``p = 1..k`` and ``i = 1..n``.  Node ``x``'s
message body is ``b(x) = A(k, n) · x`` with ``x`` the incidence vector of
its neighbourhood — which equals the power-sum vector computed directly
in :mod:`repro.encoding.power_sums`.  This module exists to mirror the
paper's linear-algebra presentation and to cross-check both views of the
encoding; entries grow like ``n^k`` so the matrix uses exact Python
integers (``object`` dtype) whenever int64 could overflow.  numpy is
imported on first call, so importing the encoding layer never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["vandermonde_matrix", "encode_incidence", "max_entry_bits"]


def vandermonde_matrix(k: int, n: int) -> np.ndarray:
    """The ``k x n`` matrix ``A(k, n)`` with ``A[p-1, i-1] = i ** p``.

    Uses int64 when every entry fits, otherwise exact Python integers.
    """
    import numpy as np

    if k < 0 or n < 0:
        raise ValueError("k and n must be non-negative")
    exact = n > 1 and k * n.bit_length() >= 62
    dtype = object if exact else np.int64
    a = np.empty((k, n), dtype=dtype)
    for i in range(1, n + 1):
        v = 1 if not exact else int(1)
        for p in range(1, k + 1):
            v = v * i
            a[p - 1, i - 1] = v
    return a


def encode_incidence(incidence: np.ndarray, k: int) -> tuple[int, ...]:
    """``b = A(k, n) · x`` for a 0/1 incidence vector ``x`` of length ``n``.

    Equivalent to ``power_sums(S, k)`` where ``S = {i : x[i-1] = 1}``;
    the equality is asserted by property tests.
    """
    import numpy as np

    x = np.asarray(incidence)
    if x.ndim != 1:
        raise ValueError(f"incidence vector must be 1-D, got shape {x.shape}")
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("incidence vector must be 0/1")
    n = x.shape[0]
    a = vandermonde_matrix(k, n)
    if a.dtype == object:
        xs = [int(v) for v in x]
        return tuple(sum(int(a[p, i]) * xs[i] for i in range(n)) for p in range(k))
    return tuple(int(v) for v in (a @ x.astype(np.int64)))


def max_entry_bits(k: int, n: int) -> int:
    """Upper bound on the bit length of any entry of ``b(x)``.

    Lemma 1: coefficients are at most ``n^k`` and a sum of at most ``n``
    of them is at most ``n^(k+1)``, i.e. ``(k+1) log2 n`` bits.
    """
    if n <= 1:
        return 1
    return (k + 1) * max(1, n).bit_length()
