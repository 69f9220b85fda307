"""Deterministic 64-bit PRNG used for weight initialization.

Two cooperating generators, both fully specified so that any
reimplementation can reproduce the parameter tensors bit for bit:

* ``Xorshift64Star`` -- the classic xorshift64* recurrence
  (shifts 12/25/27, output multiplier 0x2545F4914F6CDD1D).  Used as the
  master stream that hands one 64-bit sub-seed to each parameter tensor.
* ``splitmix64_fill`` -- the SplitMix64 counter generator
  (increment 0x9E3779B97F4A7C15, mix multipliers 0xBF58476D1CE4E5B9 and
  0x94D049BB133111EB).  Counter-indexed, therefore vectorizable; used to
  fill each tensor from its sub-seed.

Doubles are formed from the top 53 bits: ``(x >> 11) * 2**-53``.

Both array fills work in place over blocks of :data:`BLOCK` elements, so
each mixing step runs on data that stays in the L2 cache instead of
streaming a full-size temporary through memory.  Both take an optional
``out=`` array to fill instead of allocating their own, so a caller can
place every tensor in one allocation.  Element ``i`` of a SplitMix64 fill
depends only on ``seed`` and ``i``, and each tensor has its own sub-seed,
so ``model.init_weights`` fills its tensors on a thread pool: the bits
depend on neither the block size nor the thread count.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

_SPLITMIX_INC = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB
_XORSHIFT_MUL = 0x2545F4914F6CDD1D

BLOCK = 1 << 15
"""Elements per block of the in-place fills (256 KiB of u64)."""


def _splitmix64_scalar(state: int) -> int:
    z = (state + _SPLITMIX_INC) & _MASK
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & _MASK
    return z ^ (z >> 31)


class Xorshift64Star:
    """xorshift64* stream; the zero state is avoided by seed mixing."""

    def __init__(self, seed: int):
        state = _splitmix64_scalar(seed & _MASK)
        self._state = state if state != 0 else _SPLITMIX_INC

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * _XORSHIFT_MUL) & _MASK


def splitmix64_fill(seed: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Return ``n`` u64 outputs of SplitMix64 seeded at ``seed``.

    Output ``i`` mixes the state ``seed + INC * (i + 1) mod 2**64``; block
    ``b`` therefore starts from ``seed + INC * b * BLOCK`` and every block
    is filled independently with preallocated scratch and ``out=`` ufuncs.
    ``out``, if given, is a u64 array of shape ``(n,)`` that is filled and
    returned; otherwise a new one is allocated.
    """
    if out is None:
        out = np.empty(n, dtype=np.uint64)
    elif out.shape != (n,) or out.dtype != np.uint64:
        raise ValueError(f"out must be a u64 array of shape ({n},)")
    steps = np.arange(1, min(n, BLOCK) + 1, dtype=np.uint64)
    steps *= np.uint64(_SPLITMIX_INC)
    tmp = np.empty_like(steps)
    for start in range(0, n, BLOCK):
        z = out[start:start + BLOCK]
        t = tmp[:z.size]
        base = (seed + _SPLITMIX_INC * start) & _MASK
        np.add(steps[:z.size], np.uint64(base), out=z)
        for shift, mul in ((30, _SPLITMIX_MUL1), (27, _SPLITMIX_MUL2)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(mul)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return out


def uniform(seed: int, shape, low: float, high: float,
            out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic uniform [low, high) tensor from a SplitMix64 stream.

    The value is ``low + (high - low) * u`` with ``u = (x >> 11) * 2**-53``,
    computed as ``t * ((high - low) * 2**-53) + low`` with ``t = x >> 11``:
    ``t < 2**53`` converts to a double exactly (read through an int64 view,
    which numpy converts faster than a u64 one) and scaling by a power of
    two does not round (for ``high - low`` above ``2**-969``), so the
    product is rounded once either way.  The doubles overwrite the u64
    draws block by block: in ``out`` if given (a contiguous float64 array
    of ``shape``, filled and returned), else in a new array.  Safe to call
    from several threads at once: it touches no shared state.
    """
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if out is None:
        values = np.empty(shape)
    elif out.shape == tuple(shape) and out.dtype == np.float64 and out.flags.c_contiguous:
        values = out
    else:
        raise ValueError(f"out must be a contiguous float64 array of shape {tuple(shape)}")
    bits = splitmix64_fill(seed, n, out=values.reshape(-1).view(np.uint64))
    flat = bits.view(np.float64)
    scale = (high - low) * 2.0**-53
    tmp = np.empty(min(n, BLOCK), dtype=np.uint64)
    shifted = tmp.view(np.int64)
    for start in range(0, n, BLOCK):
        u = flat[start:start + BLOCK]
        np.right_shift(bits[start:start + BLOCK], np.uint64(11), out=tmp[:u.size])
        np.multiply(shifted[:u.size], scale, out=u)
        u += low
    return values
