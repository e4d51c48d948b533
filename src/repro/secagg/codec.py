"""Wire codecs for every protocol message.

The round driver passes Python objects in-process; a deployment ships
bytes.  This module gives each message type a canonical, length-prefixed
binary encoding — used by the traffic meter for *exact* payload sizes and
by tests to pin the wire format (a tampered or truncated encoding must
fail to parse, never mis-parse).

Format conventions: 4-byte big-endian length prefixes via
:mod:`repro.secagg.wire`; group elements at the group's fixed width;
masked vectors bit-packed at the ring width (:mod:`repro.wire.bitpack`)
behind a fixed :data:`MASKED_INPUT_HEADER`.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.crypto.signature import SchnorrSignature
from repro.secagg import wire
from repro.secagg.types import AdvertiseKeysMsg, MaskedInputMsg, UnmaskingMsg
from repro.wire.bitpack import decode_packed, encode_packed, packed_nbytes

_KEY_BYTES = 256  # MODP group elements (≤ 2048 bits)

#: MaskedInput body header: sender (8 bytes), bits (1), element count d
#: (4), all big-endian; ⌈d·bits/8⌉ packed bytes follow.
_MASKED_HEADER = struct.Struct(">QBI")
MASKED_INPUT_HEADER = _MASKED_HEADER.size


def encode_advertise(msg: AdvertiseKeysMsg) -> bytes:
    fields = [
        msg.sender.to_bytes(8, "big"),
        msg.c_public.to_bytes(_KEY_BYTES, "big"),
        msg.s_public.to_bytes(_KEY_BYTES, "big"),
        msg.signature.to_bytes() if msg.signature is not None else b"",
    ]
    return wire.encode_fields(fields)


def decode_advertise(data: bytes) -> AdvertiseKeysMsg:
    fields = wire.decode_fields(data)
    if len(fields) != 4:
        raise ValueError("malformed AdvertiseKeys encoding")
    signature = (
        SchnorrSignature.from_bytes(fields[3]) if fields[3] else None
    )
    return AdvertiseKeysMsg(
        sender=int.from_bytes(fields[0], "big"),
        c_public=int.from_bytes(fields[1], "big"),
        s_public=int.from_bytes(fields[2], "big"),
        signature=signature,
    )


def masked_input_nbytes(msg: MaskedInputMsg) -> int:
    """``len(encode_masked_input(msg))`` in O(1): header + ⌈d·b/8⌉."""
    return MASKED_INPUT_HEADER + packed_nbytes(msg.masked_vector.size, msg.bits)


def encode_masked_input(msg: MaskedInputMsg) -> bytes:
    """sender ∥ bits ∥ d ∥ the vector packed at ``msg.bits`` bits/element.

    Refuses (``ValueError``) a sender or length outside the header's
    fields and any element outside ``[0, 2^bits)``.
    """
    vector = np.asarray(msg.masked_vector)
    try:
        header = _MASKED_HEADER.pack(msg.sender, msg.bits, vector.size)
    except struct.error as exc:
        raise ValueError(f"MaskedInput header out of range: {exc}") from exc
    return header + encode_packed(vector, msg.bits)


def decode_masked_input(data: bytes) -> MaskedInputMsg:
    """Strict inverse of :func:`encode_masked_input`.

    Truncation, trailing bytes, set pad bits, ``bits`` outside [1, 62],
    and a packed length that disagrees with ``d`` all raise
    ``ValueError``.
    """
    if len(data) < MASKED_INPUT_HEADER:
        raise ValueError(
            f"truncated MaskedInput header: {len(data)} of "
            f"{MASKED_INPUT_HEADER} bytes"
        )
    sender, bits, count = _MASKED_HEADER.unpack_from(data)
    packed = memoryview(data)[MASKED_INPUT_HEADER:]
    return MaskedInputMsg(
        sender=sender,
        masked_vector=decode_packed(packed, count, bits),
        bits=bits,
    )


def _encode_share_map(shares: dict) -> bytes:
    fields = []
    for peer in sorted(shares):
        fields.append(int(peer).to_bytes(8, "big"))
        fields.append(wire.encode_share(shares[peer]))
    return wire.encode_fields(fields)


def _decode_share_map(data: bytes) -> dict:
    fields = wire.decode_fields(data)
    if len(fields) % 2:
        raise ValueError("malformed share map")
    return {
        int.from_bytes(fields[i], "big"): wire.decode_share(fields[i + 1])
        for i in range(0, len(fields), 2)
    }


def encode_unmasking(msg: UnmaskingMsg) -> bytes:
    seed_fields = []
    for k in sorted(msg.revealed_seeds):
        seed_fields.append(int(k).to_bytes(4, "big"))
        seed_fields.append(msg.revealed_seeds[k])
    return wire.encode_fields(
        [
            msg.sender.to_bytes(8, "big"),
            _encode_share_map(msg.s_sk_shares),
            _encode_share_map(msg.b_shares),
            wire.encode_fields(seed_fields),
        ]
    )


def decode_unmasking(data: bytes) -> UnmaskingMsg:
    fields = wire.decode_fields(data)
    if len(fields) != 4:
        raise ValueError("malformed Unmasking encoding")
    seed_fields = wire.decode_fields(fields[3])
    if len(seed_fields) % 2:
        raise ValueError("malformed revealed-seed list")
    seeds = {
        int.from_bytes(seed_fields[i], "big"): seed_fields[i + 1]
        for i in range(0, len(seed_fields), 2)
    }
    return UnmaskingMsg(
        sender=int.from_bytes(fields[0], "big"),
        s_sk_shares=_decode_share_map(fields[1]),
        b_shares=_decode_share_map(fields[2]),
        revealed_seeds=seeds,
    )


def message_bytes(msg) -> int:
    """Exact wire size of any protocol message (for traffic metering)."""
    if isinstance(msg, AdvertiseKeysMsg):
        return len(encode_advertise(msg))
    if isinstance(msg, MaskedInputMsg):
        return len(encode_masked_input(msg))
    if isinstance(msg, UnmaskingMsg):
        return len(encode_unmasking(msg))
    raise TypeError(f"unknown message type {type(msg).__name__}")
