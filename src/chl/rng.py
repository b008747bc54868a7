"""Deterministic random numbers for reproducible event sampling.

A self-contained SplitMix64 generator is used instead of a library RNG so
that event logs regenerate bit-identically from ``(params, horizon, seed)``
across platforms and library versions.  Replica streams are derived with the
same avalanche function, so Monte Carlo runs are order-independent and safe
to parallelize.

SplitMix64 is a Weyl sequence: draw ``i`` (counted from 1) of the stream
seeded ``s`` is ``avalanche(s + i * golden)``.  :func:`uniform_at` computes
any set of draws of any set of streams at once in numpy ``uint64``, bit for
bit what :class:`SplitMix64` yields one by one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["SplitMix64", "mix_seed", "uniform_at", "poisson_many"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# The stream's constants as numpy scalars, converted once.
_U64 = {c: np.uint64(c) for c in (_GOLDEN, _MIX1, _MIX2, 11, 27, 30, 31)}

# Inversion accumulates Poisson probabilities from exp(-mu); keep mu small
# enough that the starting term stays comfortably above the underflow floor.
_POISSON_CHUNK = 500.0

# Largest mean poisson_many accepts: its chunk list grows as mu / 500 and far
# above this exhausts memory, or never ends once mu - 500 == mu.
_MAX_MEAN = 1e9


def _avalanche(z: int) -> int:
    """SplitMix64 finalizer: bijective 64-bit mix with full avalanche."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def mix_seed(seed: int, replica: int) -> int:
    """64-bit seed for a numbered replica stream.

    Defined as ``avalanche(seed + (replica + 1) * golden)`` so that replica
    streams are decorrelated from each other and from the base stream.
    """
    return _avalanche((seed + (replica + 1) * _GOLDEN) & _MASK)


class SplitMix64:
    """Minimal SplitMix64 stream: 64-bit states, uniform doubles in [0, 1)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _avalanche(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def uniform_at(seeds: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Draw number ``draws`` of each stream ``SplitMix64(seeds)`` as a double.

    ``seeds`` and ``draws`` are ``uint64`` arrays that broadcast together;
    draws count from 1, so ``uniform_at(s, 1)`` is the first ``next_float()``.
    The 64-bit sums and products wrap, as the scalar stream's masks do.
    """
    z = seeds + draws * _U64[_GOLDEN]
    z ^= z >> _U64[30]
    z *= _U64[_MIX1]
    z ^= z >> _U64[27]
    z *= _U64[_MIX2]
    z ^= z >> _U64[31]
    z >>= _U64[11]
    return z.astype(np.float64) * 2.0**-53


@functools.lru_cache(maxsize=16)
def _poisson_cdf(mu: float) -> np.ndarray:
    """Partial sums ``c_0 .. c_K`` of Poisson(mu) inversion, up to the first ``p_K == 0``.

    The recurrence is the inversion loop's own (``p *= mu / k; c += p``), so
    the first ``k`` with ``u <= c_k`` is the loop's sample; past ``c_K`` the
    loop gives up at ``K``, as a ``u`` beyond the representable tail mass.
    """
    p = math.exp(-mu)
    c = p
    sums = [c]
    k = 0
    while p != 0.0:
        k += 1
        p *= mu / k
        c += p
        sums.append(c)
    table = np.array(sums)
    table.flags.writeable = False
    return table


def poisson_many(seeds: np.ndarray, mu: float) -> tuple[np.ndarray, int]:
    """Poisson(mu) counts by inversion from the leading draws of each stream.

    A mean above 500 is split into chunks of 500 (``mu -= 500`` while
    ``mu > 500``) so ``exp(-chunk)`` never underflows; each chunk takes one
    draw and the counts add, which leaves the law unchanged.  Returns the
    counts (``int64``, one per seed) and the number of draws taken per stream.
    A mean above ``_MAX_MEAN`` raises ``ValueError``.
    """
    if not 0.0 <= mu <= _MAX_MEAN:
        raise ValueError(f"Poisson mean must be in [0, {_MAX_MEAN:g}], got {mu}")
    chunks = []
    while mu > _POISSON_CHUNK:
        chunks.append(_POISSON_CHUNK)
        mu -= _POISSON_CHUNK
    chunks.append(mu)
    u = uniform_at(seeds[:, None], np.arange(1, len(chunks) + 1, dtype=np.uint64))
    counts = np.zeros(len(seeds), dtype=np.int64)
    for j, chunk in enumerate(chunks):
        table = _poisson_cdf(chunk)
        counts += np.minimum(np.searchsorted(table, u[:, j], side="left"), len(table) - 1)
    return counts, len(chunks)
