"""Ring-width bit packing of masked vectors, and its place in the wire.

Pins the vectorized packer bit-identical to its retained scalar twin
for every ring width, the strict decoder against every malformed-input
class, the O(1) size walk against the real encoder, and the refusal of
the previous (8-byte int64) payload version.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.secagg.codec import (
    MASKED_INPUT_HEADER,
    decode_masked_input,
    encode_masked_input,
)
from repro.secagg.types import MaskedInputMsg
from repro.wire import (
    FRAME_OVERHEAD,
    PAYLOAD_VERSION,
    CodecError,
    decode_payload,
    encode_payload,
    encode_value,
    encoded_nbytes,
    encoded_value_nbytes,
)
from repro.wire.bitpack import (
    MAX_BITS,
    decode_packed,
    decode_packed_reference,
    encode_packed,
    encode_packed_reference,
    packed_nbytes,
)

ALL_BITS = range(1, MAX_BITS + 1)


def _ring_values(rng, count: int, bits: int) -> np.ndarray:
    """Uniform ring elements with both extremes 0 and 2^b − 1 present."""
    values = rng.integers(0, 1 << bits, size=count, dtype=np.int64)
    if count:
        values[rng.integers(count)] = 0
        values[rng.integers(count)] = (1 << bits) - 1
    return values


def _header(sender: int, bits: int, count: int) -> bytes:
    return sender.to_bytes(8, "big") + bytes([bits]) + count.to_bytes(4, "big")


class TestPackerRoundTrip:
    @pytest.mark.parametrize("bits", ALL_BITS)
    @given(
        count=st.one_of(
            st.just(0),
            st.just(1),
            st.integers(min_value=1, max_value=400).map(lambda n: 2 * n + 1),
            st.integers(min_value=4096, max_value=5000),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_roundtrip_every_width(self, bits, count, seed):
        values = _ring_values(np.random.default_rng(seed), count, bits)
        packed = encode_packed(values, bits)
        assert len(packed) == packed_nbytes(count, bits) == -(-count * bits // 8)
        decoded = decode_packed(packed, count, bits)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, values)

    @pytest.mark.parametrize("bits", [1, 8, 20, 31, 61, 62])
    def test_roundtrip_large(self, bits):
        values = _ring_values(np.random.default_rng(bits), (1 << 20) + 3, bits)
        packed = encode_packed(values, bits)
        np.testing.assert_array_equal(
            decode_packed(packed, values.size, bits), values
        )

    def test_accepts_any_integer_dtype(self):
        values = np.array([0, 5, 255], dtype=np.uint8)
        packed = encode_packed(values, 8)
        assert packed == bytes([0, 5, 255])
        assert encode_packed(values.astype(np.uint64), 8) == packed
        assert encode_packed([0, 5, 255], 8) == packed


class TestPackerParity:
    """The vectorized pair is bit-identical to the retained scalar twins."""

    @pytest.mark.parametrize("bits", ALL_BITS)
    def test_fast_matches_reference_every_width(self, bits):
        rng = np.random.default_rng(1000 + bits)
        for count in (0, 1, 2, 3, 63, 64, 65, 129, 1001):
            values = _ring_values(rng, count, bits)
            packed = encode_packed_reference(values, bits)
            assert encode_packed(values, bits) == packed
            np.testing.assert_array_equal(
                decode_packed(packed, count, bits),
                decode_packed_reference(packed, count, bits),
            )

    def test_known_answer_layout(self):
        """Little-endian bit order: the bytes of Σ v_i · 2^(i·b)."""
        values = np.array([1, 2, (1 << 20) - 1], dtype=np.int64)
        expected = (1 | 2 << 20 | ((1 << 20) - 1) << 40).to_bytes(8, "little")
        assert encode_packed(values, 20) == expected
        assert encode_packed_reference(values, 20) == expected
        assert bytes.fromhex("0100200000ffff0f") == expected

    @pytest.mark.parametrize(
        "decoder", [decode_packed, decode_packed_reference], ids=["fast", "reference"]
    )
    def test_both_decoders_refuse_alike(self, decoder):
        packed = encode_packed(np.arange(5, dtype=np.int64), 7)
        for data, count, bits in (
            (packed[:-1], 5, 7),
            (packed + b"\x00", 5, 7),
            (packed[:-1] + bytes([packed[-1] | 0x80]), 5, 7),
            (packed, 5, 0),
            (packed, 5, 63),
            (packed, -1, 7),
        ):
            with pytest.raises(ValueError):
                decoder(data, count, bits)

    @pytest.mark.parametrize(
        "encoder", [encode_packed, encode_packed_reference], ids=["fast", "reference"]
    )
    def test_both_encoders_refuse_alike(self, encoder):
        for values, bits in (
            (np.array([1 << 20]), 20),
            (np.array([-1]), 20),
            (np.array([0.5]), 20),
            (np.zeros((2, 2), dtype=np.int64), 20),
            (np.zeros(3, dtype=np.int64), 0),
            (np.zeros(3, dtype=np.int64), 63),
            (np.zeros(3, dtype=np.int64), True),
        ):
            with pytest.raises(ValueError):
                encoder(values, bits)


class TestAdversarialDecode:
    """Every malformed MaskedInput body fails loudly — never misparses."""

    BITS = 20
    COUNT = 13  # 260 bits: 32 full bytes + a 4-bit tail with 4 pad bits

    def _body(self) -> bytes:
        msg = MaskedInputMsg(
            sender=9,
            masked_vector=_ring_values(np.random.default_rng(3), self.COUNT, self.BITS),
            bits=self.BITS,
        )
        return encode_masked_input(msg)

    def test_body_layout(self):
        body = self._body()
        assert body[:MASKED_INPUT_HEADER] == _header(9, self.BITS, self.COUNT)
        assert len(body) == MASKED_INPUT_HEADER + 33

    def test_truncation_at_every_cut(self):
        body = self._body()
        for cut in range(len(body)):
            with pytest.raises(ValueError):
                decode_masked_input(body[:cut])

    def test_truncated_payload_at_every_cut(self):
        msg = decode_masked_input(self._body())
        payload = encode_payload(msg)
        for cut in range(len(payload)):
            with pytest.raises(CodecError):
                decode_payload(payload[:cut])

    def test_trailing_bytes(self):
        body = self._body()
        for extra in (b"\x00", b"\x00" * 8, b"\xff"):
            with pytest.raises(ValueError, match="trailing"):
                decode_masked_input(body + extra)

    def test_every_set_pad_bit(self):
        body = self._body()
        tail = (self.COUNT * self.BITS) % 8
        assert tail  # the fixture leaves pad bits to set
        for bit in range(tail, 8):
            bad = body[:-1] + bytes([body[-1] | 1 << bit])
            with pytest.raises(ValueError, match="pad bits"):
                decode_masked_input(bad)

    @pytest.mark.parametrize("bits", [0, 63, 64, 255])
    def test_out_of_range_bits(self, bits):
        body = bytearray(self._body())
        body[8] = bits
        with pytest.raises(ValueError, match="bits"):
            decode_masked_input(bytes(body))

    @pytest.mark.parametrize("bits", [19, 21, 40])
    def test_wrong_bits_is_a_length_mismatch(self, bits):
        body = bytearray(self._body())
        body[8] = bits
        with pytest.raises(ValueError, match="truncated|trailing"):
            decode_masked_input(bytes(body))

    @pytest.mark.parametrize("count", [0, 12, 14, 2**32 - 1])
    def test_length_field_mismatch(self, count):
        body = self._body()
        bad = _header(9, self.BITS, count) + body[MASKED_INPUT_HEADER:]
        with pytest.raises(ValueError, match="truncated|trailing"):
            decode_masked_input(bad)

    def test_wrapped_as_codec_error_inside_a_payload(self):
        payload = bytearray(encode_payload(decode_masked_input(self._body())))
        payload[-1] |= 0x80  # a pad bit
        with pytest.raises(CodecError, match="MaskedInputMsg"):
            decode_payload(bytes(payload))


class TestPackedSizes:
    @pytest.mark.parametrize(
        "count, bits", [(0, 20), (1, 1), (7, 3), (13, 20), (4096, 20), (1001, 61), (5, 62)]
    )
    def test_size_walk_equals_encoder(self, count, bits):
        msg = MaskedInputMsg(
            sender=4,
            masked_vector=_ring_values(np.random.default_rng(count), count, bits),
            bits=bits,
        )
        payload = encode_payload(msg)
        assert encoded_value_nbytes(msg) == len(encode_value(msg))
        assert encoded_value_nbytes(msg) == len(payload) - 1  # version byte
        assert encoded_nbytes(msg) == FRAME_OVERHEAD + len(payload)
        assert encoded_value_nbytes(msg) == 1 + 4 + MASKED_INPUT_HEADER + (
            packed_nbytes(count, bits)
        )

    def test_size_walk_never_packs(self, monkeypatch):
        import repro.secagg.codec as secagg_codec

        def refuse(*_args):
            raise AssertionError("the size walk must not pack the vector")

        monkeypatch.setattr(secagg_codec, "encode_packed", refuse)
        msg = MaskedInputMsg(1, np.zeros(1 << 16, dtype=np.int64), 20)
        assert encoded_value_nbytes(msg) == 1 + 4 + 13 + (1 << 16) * 20 // 8


class TestPayloadVersion:
    def test_previous_version_refused_by_name(self):
        """A version-1 payload (8-byte big-endian int64 vector) is refused
        with the offending and the spoken version named."""
        assert PAYLOAD_VERSION == 2
        vector = np.arange(4, dtype=">i8").tobytes()
        body = (
            (8).to_bytes(4, "big") + (3).to_bytes(8, "big")
            + len(vector).to_bytes(4, "big") + vector
        )
        old = bytes([1, 0x23]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(CodecError, match=r"unsupported payload version 1 \(speaking 2\)"):
            decode_payload(old)
