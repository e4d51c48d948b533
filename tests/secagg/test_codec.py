"""Wire-format round-trips and malformed-input rejection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.shamir import ShamirSecretSharing
from repro.crypto.signature import SchnorrSigner, generate_signing_keypair
from repro.crypto.dh import TOY_GROUP
from repro.secagg.codec import (
    decode_advertise,
    decode_masked_input,
    decode_unmasking,
    encode_advertise,
    encode_masked_input,
    encode_unmasking,
    message_bytes,
)
from repro.secagg.types import AdvertiseKeysMsg, MaskedInputMsg, UnmaskingMsg
from repro.wire.bitpack import decode_packed, encode_packed


class TestAdvertiseCodec:
    def test_roundtrip_semi_honest(self):
        msg = AdvertiseKeysMsg(sender=7, c_public=12345, s_public=67890)
        assert decode_advertise(encode_advertise(msg)) == msg

    def test_roundtrip_with_signature(self):
        sk, _ = generate_signing_keypair(TOY_GROUP)
        sig = SchnorrSigner(sk, TOY_GROUP).sign(b"keys")
        msg = AdvertiseKeysMsg(sender=7, c_public=1, s_public=2, signature=sig)
        decoded = decode_advertise(encode_advertise(msg))
        assert decoded.signature == sig

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            decode_advertise(b"\x00\x01garbage")


class TestVectorCodec:
    """The masked vector travels bit-packed at the ring width."""

    @given(
        bits=st.integers(min_value=1, max_value=62),
        data=st.data(),
    )
    @settings(max_examples=30)
    def test_roundtrip(self, bits, data):
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**bits - 1),
                min_size=0,
                max_size=64,
            )
        )
        v = np.array(values, dtype=np.int64)
        packed = encode_packed(v, bits)
        assert len(packed) == (v.size * bits + 7) // 8
        np.testing.assert_array_equal(decode_packed(packed, v.size, bits), v)

    def test_truncated_rejected(self):
        v = encode_packed(np.arange(4, dtype=np.int64), 20)
        with pytest.raises(ValueError):
            decode_packed(v[:-3], 4, 20)


class TestMaskedInputCodec:
    def test_roundtrip(self):
        msg = MaskedInputMsg(
            sender=3, masked_vector=np.arange(16, dtype=np.int64), bits=20
        )
        decoded = decode_masked_input(encode_masked_input(msg))
        assert decoded.sender == 3
        assert decoded.bits == 20
        assert decoded.masked_vector.dtype == np.int64
        np.testing.assert_array_equal(decoded.masked_vector, msg.masked_vector)

    def test_size_scales_with_dimension(self):
        small = MaskedInputMsg(1, np.zeros(16, dtype=np.int64), 20)
        large = MaskedInputMsg(1, np.zeros(1024, dtype=np.int64), 20)
        assert message_bytes(large) > message_bytes(small) * 30

    def test_header_fields_out_of_range_refused(self):
        vec = np.zeros(4, dtype=np.int64)
        for msg in (
            MaskedInputMsg(-1, vec, 20),
            MaskedInputMsg(2**64, vec, 20),
            MaskedInputMsg(1, vec, 0),
            MaskedInputMsg(1, vec, 63),
        ):
            with pytest.raises(ValueError):
                encode_masked_input(msg)


class TestUnmaskingCodec:
    def _message(self):
        ss = ShamirSecretSharing(threshold=2)
        s_shares = ss.share(b"\x01" * 64, [1, 2, 3])
        b_shares = ss.share(b"\x02" * 32, [1, 2, 3])
        return UnmaskingMsg(
            sender=2,
            s_sk_shares={5: s_shares[2]},
            b_shares={6: b_shares[2], 7: b_shares[3]},
            revealed_seeds={1: b"\xaa" * 32, 3: b"\xbb" * 32},
        )

    def test_roundtrip(self):
        msg = self._message()
        decoded = decode_unmasking(encode_unmasking(msg))
        assert decoded.sender == msg.sender
        assert decoded.s_sk_shares == msg.s_sk_shares
        assert decoded.b_shares == msg.b_shares
        assert decoded.revealed_seeds == msg.revealed_seeds

    def test_malformed_rejected(self):
        blob = encode_unmasking(self._message())
        with pytest.raises(ValueError):
            decode_unmasking(blob[:-4])

    def test_message_bytes_dispatch(self):
        assert message_bytes(self._message()) == len(
            encode_unmasking(self._message())
        )
        with pytest.raises(TypeError):
            message_bytes(object())
