"""Ring-width bit packing: ``count`` elements of Z_{2^b} in ⌈count·b/8⌉ bytes.

A masked SecAgg vector lives in Z_{2^b}; shipping each element as an
8-byte integer costs 64/b times the bytes the protocol needs (3.2× at
the paper's b = 20).  This module packs a vector at exactly ``bits``
bits per element.

Layout
------
The packed bytes are the little-endian encoding of the integer
``Σ_i v_i · 2^(i·b)``: element ``i``'s bit ``j`` is stream bit
``i·b + j``, and stream bit ``k`` is bit ``k mod 8`` of byte ``k // 8``.
The final byte's bits past ``count·b`` (the pad bits) are zero.  The
element count and ``bits`` travel outside the packed bytes (in the
message header), so the byte length is implied, not encoded.

Strictness: :func:`encode_packed` refuses values outside ``[0, 2^b)``
(it never truncates), and :func:`decode_packed` refuses a buffer whose
length is not exactly :func:`packed_nbytes`, set pad bits, and ``bits``
outside ``[1, 62]`` — each with a ``ValueError`` (which the payload
decoder reports as a :class:`~repro.wire.codecs.CodecError`).

:func:`encode_packed_reference` / :func:`decode_packed_reference` are
the executable specification (one bit string, built element by
element); the vectorized pair is pinned bit-identical to them by test.
"""

from __future__ import annotations

import math

import numpy as np

#: Widest ring the packer accepts — the widest ``SecAggConfig.bits``.
#: Every element then fits an int64 as a non-negative value.
MAX_BITS = 62


def packed_nbytes(count: int, bits: int) -> int:
    """Byte length of ``count`` packed ``bits``-bit elements: ⌈count·b/8⌉."""
    return (count * bits + 7) // 8


def _check_bits(bits: int) -> None:
    if isinstance(bits, bool) or not isinstance(bits, (int, np.integer)):
        raise ValueError(f"bits must be an int, got {type(bits).__name__}")
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits {bits} outside [1, {MAX_BITS}]")


def _ring_vector(values, bits: int) -> np.ndarray:
    """``values`` as a 1-D int64 array, every element checked in [0, 2^b)."""
    _check_bits(bits)
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"packed vectors are 1-D, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"packed vectors hold integers, got dtype {arr.dtype}")
    if arr.size:
        low, high = int(arr.min()), int(arr.max())
        if low < 0 or high >= 1 << bits:
            bad = low if low < 0 else high
            raise ValueError(
                f"value {bad} outside the {bits}-bit ring [0, 2**{bits})"
            )
    return np.ascontiguousarray(arr, dtype=np.int64)


def _check_packed(data, count: int, bits: int) -> memoryview:
    _check_bits(bits)
    if count < 0:
        raise ValueError(f"negative element count {count}")
    view = memoryview(data).cast("B")
    expected = packed_nbytes(count, bits)
    if len(view) < expected:
        raise ValueError(
            f"truncated packed vector: {len(view)} of {expected} bytes "
            f"for {count} x {bits}-bit elements"
        )
    if len(view) > expected:
        raise ValueError(
            f"trailing bytes: {len(view) - expected} after {count} x "
            f"{bits}-bit packed elements"
        )
    tail = (count * bits) % 8
    if tail and view[-1] >> tail:
        raise ValueError("non-zero pad bits after the last packed element")
    return view


def _period(bits: int) -> tuple[int, int]:
    """(elements, uint64 words) of the shortest word-aligned element run.

    ``64 / gcd(b, 64)`` consecutive elements end exactly on a word
    boundary, covering ``b / gcd(b, 64)`` words; every run repeats the
    same (word, shift) placement, so packing is one vectorized operation
    per element *position in the run* — over all runs at once.
    """
    g = math.gcd(bits, 64)
    return 64 // g, bits // g


def encode_packed(values, bits: int) -> bytes:
    """Pack ``values`` (each in ``[0, 2^bits)``) at ``bits`` bits apiece.

    The vector is viewed as a (runs × period) grid (see :func:`_period`);
    column ``j`` lands in word ``j·b // 64`` of its run at shift
    ``j·b mod 64``, and its high part in the next word when it straddles
    the boundary.  Parts never overlap, so OR assembles every word.
    """
    arr = _ring_vector(values, bits)
    count = arr.size
    if count == 0:
        return b""
    period, run_words = _period(bits)
    runs = -(-count // period)
    if count == runs * period:
        grid = arr.view(np.uint64).reshape(runs, period)
    else:
        grid = np.zeros((runs, period), dtype=np.uint64)
        grid.reshape(-1)[:count] = arr
    words = np.zeros((runs, run_words), dtype="<u8")
    for j in range(period):
        k, s = divmod(j * bits, 64)
        column = grid[:, j]
        words[:, k] |= column << np.uint64(s)
        if s + bits > 64:
            words[:, k + 1] |= column >> np.uint64(64 - s)
    flat = words.view(np.uint8).reshape(-1)
    return flat[: packed_nbytes(count, bits)].tobytes()


def encode_packed_reference(values, bits: int) -> bytes:
    """Retained scalar packer: the executable layout specification."""
    arr = _ring_vector(values, bits)
    stream = "".join(format(v, f"0{bits}b")[::-1] for v in arr.tolist())
    stream += "0" * (-len(stream) % 8)
    return bytes(
        int(stream[k : k + 8][::-1], 2) for k in range(0, len(stream), 8)
    )


def decode_packed(data, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`encode_packed`: ``count`` elements as one int64 array.

    The buffer is copied once into zero-padded uint64 words; each grid
    column is then shifted out of its word (and the next, when it
    straddles) straight into the output buffer, which is returned as
    an int64 view.
    """
    view = _check_packed(data, count, bits)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    period, run_words = _period(bits)
    runs = -(-count // period)
    words = np.zeros((runs, run_words), dtype="<u8")
    words.view(np.uint8).reshape(-1)[: len(view)] = np.frombuffer(
        view, dtype=np.uint8
    )
    out = np.empty((runs, period), dtype="<u8")
    for j in range(period):
        k, s = divmod(j * bits, 64)
        column = out[:, j]
        np.right_shift(words[:, k], np.uint64(s), out=column)
        if s + bits > 64:
            column |= words[:, k + 1] << np.uint64(64 - s)
    out &= np.uint64((1 << bits) - 1)
    return out.reshape(-1)[:count].view("<i8")


def decode_packed_reference(data, count: int, bits: int) -> np.ndarray:
    """Retained scalar unpacker: the executable layout specification."""
    view = _check_packed(data, count, bits)
    stream = "".join(format(byte, "08b")[::-1] for byte in view.tolist())
    return np.array(
        [int(stream[i * bits : (i + 1) * bits][::-1], 2) for i in range(count)],
        dtype=np.int64,
    )
