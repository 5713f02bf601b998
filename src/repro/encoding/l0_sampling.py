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
* ``_cell_seeds(seed, levels)`` / ``_cell_zs(seed, levels)`` — per-level
  cell seeds and evaluation points of a sampler;
* ``_column(seed, levels, item)`` — every fingerprint power one unit
  update of ``item`` adds, level by level.

:class:`L0Sampler` stores its cells as three flat parallel arrays
(``c0``/``c1``/``fingerprint`` per level) instead of a list of
per-cell objects, and offers :meth:`L0Sampler.batch_update` which
sketches a whole ``(items, deltas)`` stream in one pass over
``_column``.  The numbers produced are bit-for-bit identical to
the original per-cell implementation — the caches only eliminate
recomputation.

The aggregates hold Python ints on purpose: fingerprint arithmetic
multiplies 61-bit residues by signed weights, which would overflow
fixed-width lanes.  There is one update path: vectorising it on paired
uint64 lanes measured 5–10× slower on streams of 32 or more updates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

__all__ = [
    "FIELD_PRIME",
    "OneSparseRecovery",
    "L0Sampler",
    "level_of",
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

    The per-level aggregates live in three flat parallel arrays.
    """

    __slots__ = ("seed", "levels", "_c0", "_c1", "_fp")

    def __init__(self, seed: int, levels: int) -> None:
        self.seed = seed
        self.levels = levels
        k = levels + 1
        self._c0 = [0] * k
        self._c1 = [0] * k
        self._fp = [0] * k

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
        tables bound once for the entire stream.  A bad item raises
        ``ValueError`` after the updates before it have landed, exactly
        as the per-update loop would.
        """
        seed, levels = self.seed, self.levels
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
