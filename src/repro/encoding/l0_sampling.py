"""Linear ℓ₀-sampling sketches (Ahn–Guibas–McGregor style).

Substrate for the randomized-extension protocols (the paper's Section 7
directions): a *linear* sketch of an integer-weighted vector from which
one nonzero coordinate can be recovered with constant probability, built
from

* :class:`OneSparseRecovery` — exact recovery of a vector with exactly
  one nonzero entry from three aggregates: the weight sum, the
  id-weighted sum, and a random-evaluation fingerprint over a prime
  field (false positives with probability ``<= D / p`` for id-domain
  size ``D``);
* :class:`L0Sampler` — geometric subsampling by a shared-seed hash into
  levels; a vector with ``k`` nonzeros is 1-sparse at level ``~log2 k``
  with constant probability.

Everything is **linear**: sketches of two vectors add component-wise to
the sketch of the sum.  That is the property graph sketching needs —
adding the sketches of a node set yields the sketch of its *boundary*
(interior edges cancel by the ±1 incidence convention) — and it is
asserted by property tests.

Randomness is *public-coin*: all hash functions derive deterministically
from a shared integer seed, matching the model used for the randomized
2-CLIQUES protocol.

Performance architecture.  The public coins are *deterministic in the
seed*, so every derived quantity is cached at module level and shared
across sketch instances, protocol rounds, nodes, and repeated runs:

* ``_z_of(seed)`` — the fingerprint evaluation point (previously
  re-hashed on every single update);
* ``_pow_z(z, item)`` — the modular power table ``z^item mod p`` used by
  both the update and recovery paths;
* ``_geom(seed, item)`` — the geometric level hash behind
  :func:`level_of`;
* ``_cell_seeds(seed, levels)`` — per-level cell seeds of a sampler.

:class:`L0Sampler` stores its cells as three flat parallel arrays
(``c0``/``c1``/``fingerprint`` per level) instead of a list of
per-cell objects, and offers :meth:`L0Sampler.batch_update` which
sketches a whole ``(items, deltas)`` stream in one pass.  The numbers
produced are bit-for-bit identical to the original per-cell
implementation — the caches only eliminate recomputation.

The *stored* aggregates hold Python ints on purpose: fingerprint
arithmetic multiplies 61-bit residues by signed weights, which would
overflow fixed-width lanes, and the scalar update loop is the semantic
authority.  Long update streams, however, take a numpy fast path when
it is exactly representable: :func:`mulmod61` and :func:`powmod61` do
the ``mod 2^61 - 1`` arithmetic on paired-uint64 half-products (every
partial fits 64 bits), and :meth:`L0Sampler.batch_update` falls back to
the scalar loop whenever the stream's weights exceed the guarded int64
headroom — so the fast path is an accelerator, never a semantics
change.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

try:  # optional accelerator: the scalar path below is the authority
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

__all__ = [
    "FIELD_PRIME",
    "OneSparseRecovery",
    "L0Sampler",
    "level_of",
    "mulmod61",
    "powmod61",
]

#: Field for fingerprints: the Mersenne prime 2^61 - 1.
FIELD_PRIME = (1 << 61) - 1


def _hash64(seed: int, *key: int) -> int:
    """Deterministic 64-bit hash of (seed, key) — the public coin."""
    data = seed.to_bytes(8, "little", signed=False)
    for k in key:
        data += int(k).to_bytes(8, "little", signed=True)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


@lru_cache(maxsize=1 << 16)
def _z_of(seed: int) -> int:
    """Fingerprint evaluation point for ``seed`` (cached per seed)."""
    return _hash64(seed, 0x5EED) % (FIELD_PRIME - 2) + 2


@lru_cache(maxsize=1 << 20)
def _pow_z(z: int, item: int) -> int:
    """Memoized ``z^item mod p`` — shared across updates and recoveries."""
    return pow(z, item, FIELD_PRIME)


@lru_cache(maxsize=1 << 20)
def _geom(seed: int, item: int) -> int:
    """Uncapped geometric level of ``item``: trailing ones of its hash."""
    h = _hash64(seed, item)
    level = 0
    while h & 1:
        h >>= 1
        level += 1
    return level


@lru_cache(maxsize=1 << 16)
def _cell_seeds(seed: int, levels: int) -> tuple[int, ...]:
    """Per-level cell seeds of an ``L0Sampler(seed, levels)``."""
    return tuple(_hash64(seed, 0xCE11, l) for l in range(levels + 1))


@lru_cache(maxsize=1 << 16)
def _cell_zs(seed: int, levels: int) -> tuple[int, ...]:
    """Per-level fingerprint evaluation points of a sampler."""
    return tuple(_z_of(s) for s in _cell_seeds(seed, levels))


@lru_cache(maxsize=1 << 19)
def _column(seed: int, levels: int, item: int) -> tuple[int, ...]:
    """The fingerprint powers a unit update of ``item`` adds to cells
    ``0..level_of(item)`` of a ``L0Sampler(seed, levels)``.  One cache
    hit replaces a level hash plus per-cell power lookups on every later
    update of the same coordinate — by any node, round, or run."""
    top = min(_geom(seed, item), levels)
    zs = _cell_zs(seed, levels)
    return tuple(_pow_z(zs[l], item) for l in range(top + 1))


#: Streams shorter than this stay on the scalar loop: binding the numpy
#: lanes costs more than it saves below a few dozen updates.
_FAST_MIN_ITEMS = 32
_MASK31 = (1 << 31) - 1
_MASK30 = (1 << 30) - 1


def mulmod61(a, b):
    """``(a * b) % FIELD_PRIME`` on uint64 lanes (vectorized, exact).

    Operands must be reduced residues (``< 2^61``).  Each is split into
    a 31-bit low and 30-bit high half so every partial product fits a
    uint64, then the pieces fold with ``2^61 ≡ 1 (mod p)`` (so
    ``2^62 ≡ 2``).  The property tests pin this lane-for-lane against
    Python's arbitrary-precision ``(a * b) % FIELD_PRIME``.
    """
    a = _np.asarray(a, dtype=_np.uint64)
    b = _np.asarray(b, dtype=_np.uint64)
    a0 = a & _np.uint64(_MASK31)
    a1 = a >> _np.uint64(31)
    b0 = b & _np.uint64(_MASK31)
    b1 = b >> _np.uint64(31)
    mid = a1 * b0 + a0 * b1
    # a*b = a1·b1·2^62 + mid·2^31 + a0·b0; reduce the mid term through a
    # 30/34 split so its shifted halves stay below 2^61 as well.
    t = (
        ((a1 * b1) << _np.uint64(1))
        + (mid >> _np.uint64(30))
        + ((mid & _np.uint64(_MASK30)) << _np.uint64(31))
        + a0 * b0
    )
    p = _np.uint64(FIELD_PRIME)
    t = (t >> _np.uint64(61)) + (t & p)
    t = (t >> _np.uint64(61)) + (t & p)
    return t - _np.where(t >= p, p, _np.uint64(0))


def powmod61(base, exp):
    """``(base ** exp) % FIELD_PRIME`` on uint64 lanes.

    Vectorized square-and-multiply over the exponent bits; ``base``
    must hold reduced residues.  Broadcasts like numpy ufuncs do.
    """
    base, exp = _np.broadcast_arrays(
        _np.asarray(base, dtype=_np.uint64), _np.asarray(exp, dtype=_np.uint64)
    )
    base = base.copy()
    exp = exp.copy()
    out = _np.ones(base.shape, dtype=_np.uint64)
    while True:
        odd = (exp & _np.uint64(1)).astype(bool)
        if odd.any():
            out[odd] = mulmod61(out[odd], base[odd])
        exp = exp >> _np.uint64(1)
        if not exp.any():
            return out
        base = mulmod61(base, base)


def _sum_mod61(v):
    """Exact mod-p sum of a uint64 residue array (entries ``< p``).

    Folds in chunks of eight — ``8 * (p - 1) < 2^64``, so the chunk
    sums cannot wrap — reducing 8x per pass.
    """
    p = _np.uint64(FIELD_PRIME)
    while v.size > 1:
        pad = (-v.size) % 8
        if pad:
            v = _np.concatenate([v, _np.zeros(pad, dtype=_np.uint64)])
        v = v.reshape(-1, 8).sum(axis=1, dtype=_np.uint64)
        v = (v >> _np.uint64(61)) + (v & p)
        v = (v >> _np.uint64(61)) + (v & p)
        v = v - _np.where(v >= p, p, _np.uint64(0))
    return int(v[0]) if v.size else 0


def level_of(seed: int, item: int, max_level: int) -> int:
    """Geometric level of ``item``: number of trailing ones of its hash,
    capped at ``max_level``.  ``P(level >= l) = 2^-l``."""
    return min(_geom(seed, item), max_level)


@dataclass
class OneSparseRecovery:
    """Exact recovery for (at most) 1-sparse integer vectors.

    Maintains ``c0 = Σ w_i``, ``c1 = Σ w_i · i`` over ℤ and the
    fingerprint ``f = Σ w_i · z^i mod p`` for a seed-derived evaluation
    point ``z``.  A vector with a single nonzero ``(i, w)`` satisfies
    ``c1 = w·i`` and ``f = w·z^i``; any other vector passes the check
    with probability at most ``D/p`` over ``z``.
    """

    seed: int
    c0: int = 0
    c1: int = 0
    fingerprint: int = 0

    def _z(self) -> int:
        return _z_of(self.seed)

    def update(self, item: int, delta: int) -> None:
        """Add ``delta`` to coordinate ``item`` (items are >= 1)."""
        if item < 1:
            raise ValueError("items must be positive integers")
        self.c0 += delta
        self.c1 += delta * item
        self.fingerprint = (
            self.fingerprint + delta * _pow_z(_z_of(self.seed), item)
        ) % FIELD_PRIME

    def combine(self, other: "OneSparseRecovery") -> "OneSparseRecovery":
        """Linear combination: sketch of the coordinate-wise sum."""
        if other.seed != self.seed:
            raise ValueError("cannot combine sketches with different seeds")
        return OneSparseRecovery(
            self.seed,
            self.c0 + other.c0,
            self.c1 + other.c1,
            (self.fingerprint + other.fingerprint) % FIELD_PRIME,
        )

    @property
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.fingerprint == 0

    def recover(self) -> Optional[tuple[int, int]]:
        """Return ``(item, weight)`` if the vector is verified 1-sparse,
        else ``None`` (always ``None`` for the zero vector)."""
        return _recover(self.seed, self.c0, self.c1, self.fingerprint)

    def state(self) -> tuple[int, int, int]:
        """Serializable aggregates (whiteboard payload form)."""
        return (self.c0, self.c1, self.fingerprint)

    @classmethod
    def from_state(cls, seed: int, state: tuple[int, int, int]) -> "OneSparseRecovery":
        return cls(seed, state[0], state[1], state[2])


def _recover(seed: int, c0: int, c1: int, fingerprint: int) -> Optional[tuple[int, int]]:
    """Shared 1-sparse verification for object cells and flat arrays."""
    if c0 == 0:
        return None
    if c1 % c0 != 0:
        return None
    item = c1 // c0
    if item < 1:
        return None
    if c0 * _pow_z(_z_of(seed), item) % FIELD_PRIME != fingerprint:
        return None
    return item, c0


class L0Sampler:
    """Sample one nonzero coordinate of an integer vector from a linear
    sketch.

    ``levels + 1`` one-sparse structures; coordinate ``i`` contributes to
    levels ``0 .. level_of(i)``.  For a vector with ``k`` nonzeros, level
    ``≈ log2 k`` retains a single survivor with constant probability, so
    scanning levels sparse-to-dense finds it.

    The per-level aggregates live in three flat parallel arrays; the
    :attr:`cells` view materializes :class:`OneSparseRecovery` objects on
    demand for callers that want the object form.
    """

    __slots__ = ("seed", "levels", "_c0", "_c1", "_fp")

    def __init__(
        self,
        seed: int,
        levels: int,
        cells: Optional[Sequence[OneSparseRecovery]] = None,
    ) -> None:
        self.seed = seed
        self.levels = levels
        k = levels + 1
        if cells:
            if len(cells) != k:
                raise ValueError(f"expected {k} cells, got {len(cells)}")
            expected_seeds = _cell_seeds(seed, levels)
            for cell, expected in zip(cells, expected_seeds):
                if cell.seed != expected:
                    raise ValueError(
                        "cell seeds do not match the sampler's derived seeds"
                    )
            self._c0 = [c.c0 for c in cells]
            self._c1 = [c.c1 for c in cells]
            self._fp = [c.fingerprint for c in cells]
        else:
            self._c0 = [0] * k
            self._c1 = [0] * k
            self._fp = [0] * k

    @property
    def cells(self) -> list[OneSparseRecovery]:
        """Object view of the flat per-level aggregates."""
        return [
            OneSparseRecovery(s, c0, c1, fp)
            for s, c0, c1, fp in zip(
                _cell_seeds(self.seed, self.levels), self._c0, self._c1, self._fp
            )
        ]

    def update(self, item: int, delta: int) -> None:
        if item < 1:
            raise ValueError("items must be positive integers")
        top = min(_geom(self.seed, item), self.levels)
        zs = _cell_zs(self.seed, self.levels)
        c0, c1, fp = self._c0, self._c1, self._fp
        weighted = delta * item
        for l in range(top + 1):
            c0[l] += delta
            c1[l] += weighted
            fp[l] = (fp[l] + delta * _pow_z(zs[l], item)) % FIELD_PRIME

    def batch_update(self, items: Iterable[int], deltas: Iterable[int]) -> None:
        """Apply a whole update stream in one pass.

        Equivalent to ``for i, d in zip(items, deltas): self.update(i, d)``
        (linearity makes the order irrelevant), with the seed-derived
        tables bound once for the entire stream.

        Long streams run the fingerprint arithmetic on paired-uint64
        numpy lanes (:func:`mulmod61` / :func:`powmod61`) when every
        intermediate provably fits; otherwise — short streams, missing
        numpy, or weights past the int64 headroom — the exact scalar
        loop below runs.  Both paths produce identical aggregates.
        """
        seed, levels = self.seed, self.levels
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if not isinstance(deltas, (list, tuple)):
            deltas = list(deltas)
        if (
            _np is not None
            and len(items) == len(deltas)
            and len(items) >= _FAST_MIN_ITEMS
            and self._batch_update_fast(items, deltas)
        ):
            return
        c0, c1, fp = self._c0, self._c1, self._fp
        column = _column
        for item, delta in zip(items, deltas):
            if item < 1:
                raise ValueError("items must be positive integers")
            weighted = delta * item
            for l, power in enumerate(column(seed, levels, item)):
                c0[l] += delta
                c1[l] += weighted
                fp[l] = (fp[l] + delta * power) % FIELD_PRIME

    def _batch_update_fast(self, items: Sequence[int], deltas: Sequence[int]) -> bool:
        """Vectorized twin of the scalar ``batch_update`` loop.

        Returns ``False`` without touching any state when the stream
        needs arbitrary precision (an item or weight past the guarded
        int64 headroom) or contains an invalid item — the scalar loop
        then reproduces the exact semantics, including which updates
        land before a ``ValueError``.  On ``True`` every aggregate has
        been advanced to exactly what the scalar loop would produce.
        """
        seed, levels = self.seed, self.levels
        try:
            it = _np.array(items, dtype=_np.int64)
            de = _np.array(deltas, dtype=_np.int64)
        except (OverflowError, TypeError, ValueError):
            return False
        if (it < 1).any():
            return False  # scalar loop raises at the offending update
        max_item = int(it.max())
        max_delta = int(_np.abs(de).max()) if de.size else 0
        # cumsum(de * it) must stay inside int64: guard the worst case
        # with exact Python-int arithmetic before trusting the lanes.
        if (
            max_item > _MASK31
            or max_delta > _MASK31
            or it.size * max_delta * max_item >= (1 << 62)
        ):
            return False
        top = _np.array(
            [min(_geom(seed, int(i)), levels) for i in items], dtype=_np.int64
        )
        order = _np.argsort(-top, kind="stable")
        it_s = it[order]
        de_s = de[order]
        top_s = top[order]
        cum_d = _np.cumsum(de_s)
        cum_di = _np.cumsum(de_s * it_s)
        items_u = it_s.astype(_np.uint64)
        deltas_u = (de_s % _np.int64(FIELD_PRIME)).astype(_np.uint64)
        zs = _cell_zs(seed, levels)
        c0, c1, fp = self._c0, self._c1, self._fp
        for l in range(levels + 1):
            # Levels contribute to prefixes of the top-descending order:
            # item i updates cells 0..top_i, so level l sees every item
            # with top >= l.
            k = int(_np.searchsorted(-top_s, -l, side="right"))
            if k == 0:
                break
            c0[l] += int(cum_d[k - 1])
            c1[l] += int(cum_di[k - 1])
            powers = powmod61(_np.uint64(zs[l]), items_u[:k])
            terms = mulmod61(deltas_u[:k], powers)
            fp[l] = (fp[l] + _sum_mod61(terms)) % FIELD_PRIME
        return True

    def combine(self, other: "L0Sampler") -> "L0Sampler":
        if (other.seed, other.levels) != (self.seed, self.levels):
            raise ValueError("incompatible samplers")
        out = L0Sampler(self.seed, self.levels)
        out._c0 = [a + b for a, b in zip(self._c0, other._c0)]
        out._c1 = [a + b for a, b in zip(self._c1, other._c1)]
        out._fp = [(a + b) % FIELD_PRIME for a, b in zip(self._fp, other._fp)]
        return out

    @property
    def is_zero(self) -> bool:
        return (
            not any(self._c0) and not any(self._c1) and not any(self._fp)
        )

    def sample(self) -> Optional[tuple[int, int]]:
        """A verified nonzero ``(item, weight)``, or ``None``."""
        seeds = _cell_seeds(self.seed, self.levels)
        for l in range(self.levels, -1, -1):  # sparsest level first
            got = _recover(seeds[l], self._c0[l], self._c1[l], self._fp[l])
            if got is not None:
                return got
        return None

    def state(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self._c0, self._c1, self._fp))

    @classmethod
    def from_state(
        cls, seed: int, levels: int, state: tuple[tuple[int, int, int], ...]
    ) -> "L0Sampler":
        out = cls(seed, levels)
        if len(state) != levels + 1:
            raise ValueError(f"expected {levels + 1} cell states, got {len(state)}")
        out._c0 = [s[0] for s in state]
        out._c1 = [s[1] for s in state]
        out._fp = [s[2] for s in state]
        return out
