"""Parity pins: every hot-path implementation vs its retained twin.

The perf work keeps each original implementation in-tree as an
executable specification (``PRGReference``, ``share_reference`` /
``reconstruct_reference``, ``accumulate_masks_reference``,
``DHGroup.power_reference``) and this
suite holds the optimized paths bit-identical to them — across call
boundaries, random shapes, odd moduli, and the guard fallbacks.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import native
from repro.crypto import ae as ae_module
from repro.crypto.ae import AuthenticatedEncryption
from repro.crypto.dh import (
    MODP_2048,
    MODP_512,
    TOY_GROUP,
    DHGroup,
    KeyAgreement,
)
from repro.crypto.prg import (
    PRG,
    PRGReference,
    expand_uniform,
    expand_uniform_batch,
)
from repro.crypto.shamir import ShamirSecretSharing
from repro.parallel import WorkerPool
from repro.secagg import DropoutSchedule, SecAggConfig, run_secagg_round
from repro.secagg.client import SecAggClient
from repro.secagg.masking import (
    MaskAccumulator,
    accumulate_masks_reference,
    accumulate_signed_masks_reference,
)


class TestPRGParity:
    def test_read_bit_identical_across_random_call_splits(self):
        rng = random.Random(0xC0FFEE)
        for trial in range(20):
            seed = rng.randbytes(rng.choice([16, 32, 57]))
            fast, ref = PRG(seed), PRGReference(seed)
            for _ in range(rng.randint(1, 8)):
                n = rng.choice([0, 1, 7, 31, 32, 33, 64, 100, 1024, 4096])
                assert fast.read(n) == ref.read(n), (trial, n)

    def test_read_partial_block_then_continue(self):
        # A partial final block must advance the counter exactly like
        # the reference so the *next* call stays aligned.
        fast, ref = PRG(b"x" * 32), PRGReference(b"x" * 32)
        assert fast.read(5) == ref.read(5)
        assert fast.read(59) == ref.read(59)
        assert fast.read(32) == ref.read(32)

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 100, 1021, 4096])
    @pytest.mark.parametrize(
        "modulus",
        [1, 2, 3, 7, 1 << 20, (1 << 20) + 17, 1 << 62, (1 << 63) - 1],
    )
    def test_uniform_vector_parity(self, length, modulus):
        out_fast = PRG(b"seed-a" * 5).uniform_vector(length, modulus)
        out_ref = PRGReference(b"seed-a" * 5).uniform_vector(length, modulus)
        assert out_fast.dtype == out_ref.dtype == np.int64
        np.testing.assert_array_equal(out_fast, out_ref)

    def test_uniform_vector_parity_above_int64_fallback(self):
        # modulus > 2**63 takes the reference-style reduction branch;
        # the stream and counter advance must still agree.
        modulus = (1 << 63) + 3
        fast, ref = PRG(b"big" * 11), PRGReference(b"big" * 11)
        np.testing.assert_array_equal(
            fast.uniform_vector(33, modulus), ref.uniform_vector(33, modulus)
        )
        assert fast.read(64) == ref.read(64)

    def test_uniform_vector_interleaved_with_reads(self):
        fast, ref = PRG(b"interleave" * 3), PRGReference(b"interleave" * 3)
        assert fast.read(13) == ref.read(13)
        np.testing.assert_array_equal(
            fast.uniform_vector(101, 1 << 20),
            ref.uniform_vector(101, 1 << 20),
        )
        assert fast.read(40) == ref.read(40)

    def test_numpy_generator_parity(self):
        a = PRG(b"gen" * 12).numpy_generator().integers(0, 1 << 30, size=16)
        b = (
            PRGReference(b"gen" * 12)
            .numpy_generator()
            .integers(0, 1 << 30, size=16)
        )
        np.testing.assert_array_equal(a, b)

    def test_expand_uniform_matches_reference(self):
        np.testing.assert_array_equal(
            expand_uniform(b"z" * 32, 257, 1 << 24),
            PRGReference(b"z" * 32).uniform_vector(257, 1 << 24),
        )

    @pytest.mark.parametrize(
        "modulus", [1, 997, 1 << 20, 1 << 62, (1 << 63) + 5]
    )
    def test_expand_uniform_batch_rows_match_reference(self, modulus):
        rng = random.Random(17)
        seeds = [rng.randbytes(32) for _ in range(5)]
        out = expand_uniform_batch(seeds, 123, modulus)
        assert out.shape == (5, 123) and out.dtype == np.int64
        for row, seed in zip(out, seeds):
            np.testing.assert_array_equal(
                row, PRGReference(seed).uniform_vector(123, modulus)
            )

    def test_expand_uniform_long_seed_matches_reference(self):
        # Seeds longer than one padded SHA-256 block bypass the native
        # kernel; the hashlib loop must serve the identical stream.
        seed = b"q" * 80
        np.testing.assert_array_equal(
            expand_uniform(seed, 65, 1 << 20),
            PRGReference(seed).uniform_vector(65, 1 << 20),
        )

    def test_native_kernel_matches_hashlib_when_available(self):
        lib = native.load()
        if lib is None:
            pytest.skip("native kernel unavailable on this host")
        import hashlib

        rng = random.Random(23)
        for seedlen in (0, 1, 16, 32, 47):
            seed = rng.randbytes(seedlen)
            stream = native.sha256_ctr_stream(seed, 7, ctr0=3)
            assert stream is not None
            for i in range(7):
                want = hashlib.sha256(
                    seed + (3 + i).to_bytes(8, "big")
                ).digest()
                assert bytes(stream[32 * i : 32 * i + 32]) == want

    def test_native_kernel_rejects_oversized_seed(self):
        assert native.sha256_ctr_stream(b"x" * 48, 1) is None

    @pytest.mark.parametrize("cls", [PRG, PRGReference])
    def test_validation_parity(self, cls):
        with pytest.raises(TypeError):
            cls("not-bytes")
        prg = cls(b"v" * 32)
        with pytest.raises(ValueError):
            prg.read(-1)
        with pytest.raises(ValueError):
            prg.uniform_vector(4, 0)
        with pytest.raises(ValueError):
            prg.uniform_vector(-1, 7)


class TestShamirParity:
    def test_evaluate_shares_matches_reference_on_random_polys(self):
        rng = random.Random(7)
        for _ in range(10):
            threshold = rng.randint(1, 6)
            scheme = ShamirSecretSharing(threshold)
            n_chunks = rng.randint(1, 4)
            polys = [
                [rng.randrange(scheme.field.p) for _ in range(threshold)]
                for _ in range(n_chunks)
            ]
            ids = rng.sample(range(1, 1000), rng.randint(threshold, 8))
            assert scheme._evaluate_shares(
                polys, ids, 17
            ) == scheme._evaluate_shares_reference(polys, ids, 17)

    def test_reconstruct_matches_reference_on_identical_shares(self):
        rng = random.Random(11)
        for _ in range(10):
            threshold = rng.randint(2, 5)
            scheme = ShamirSecretSharing(threshold)
            secret = rng.randbytes(rng.randint(0, 64))
            shares = list(
                scheme.share(secret, list(range(1, threshold + 3))).values()
            )
            rng.shuffle(shares)
            assert scheme.reconstruct(shares) == scheme.reconstruct_reference(
                shares
            )

    def test_cross_round_trips(self):
        # fast share → reference reconstruct and vice versa.
        scheme = ShamirSecretSharing(3)
        secret = b"the cross-implementation secret"
        ids = [1, 5, 9, 14]
        assert (
            scheme.reconstruct_reference(
                list(scheme.share(secret, ids).values())
            )
            == secret
        )
        assert (
            scheme.reconstruct(
                list(scheme.share_reference(secret, ids).values())
            )
            == secret
        )

    def test_share_reference_validation_parity(self):
        scheme = ShamirSecretSharing(3)
        for method in (scheme.share, scheme.share_reference):
            with pytest.raises(ValueError):
                method(b"s", [1, 1, 2])
            with pytest.raises(ValueError):
                method(b"s", [0, 1, 2])
            with pytest.raises(ValueError):
                method(b"s", [1, 2])

    def test_lagrange_cache_leaves_single_call_behavior_unchanged(self):
        # Repeated reconstructions over the same share-holder set hit
        # the per-instance coefficient cache; results stay identical to
        # the per-call reference, and different holder sets never mix.
        scheme = ShamirSecretSharing(3)
        secrets = [b"alpha-secret", b"beta", b"\x00" * 40]
        ids = [2, 4, 6, 8]
        for secret in secrets:
            shares = list(scheme.share(secret, ids).values())
            assert (
                scheme.reconstruct(shares)
                == scheme.reconstruct_reference(shares)
                == secret
            )
        assert len(scheme._lagrange_cache) == 1
        other = list(scheme.share(b"other-holders", [1, 3, 5]).values())
        assert scheme.reconstruct(other) == b"other-holders"
        assert len(scheme._lagrange_cache) == 2

    def test_lagrange_cache_is_bounded(self):
        scheme = ShamirSecretSharing(2)
        scheme._LAGRANGE_CACHE_CAP = 4
        for i in range(1, 12, 2):
            shares = list(scheme.share(b"s", [i, i + 1]).values())
            assert scheme.reconstruct(shares) == b"s"
        assert len(scheme._lagrange_cache) <= 4

    def test_reconstruct_many_matches_sequential_reference(self):
        rng = random.Random(29)
        scheme = ShamirSecretSharing(4)
        share_lists = []
        secrets = []
        for i in range(6):
            secret = rng.randbytes(rng.randint(1, 64))
            # Alternate between two holder sets to exercise cache reuse.
            ids = [1, 2, 3, 4, 5] if i % 2 else [6, 7, 8, 9]
            shares = list(scheme.share(secret, ids).values())
            rng.shuffle(shares)
            secrets.append(secret)
            share_lists.append(shares)
        assert scheme.reconstruct_many(share_lists) == [
            scheme.reconstruct_reference(s) for s in share_lists
        ]
        assert scheme.reconstruct_many(share_lists) == secrets
        assert scheme.reconstruct_many([]) == []

    def test_reconstruct_many_fails_like_sequential(self):
        scheme = ShamirSecretSharing(3)
        good = list(scheme.share(b"ok", [1, 2, 3]).values())
        with pytest.raises(ValueError):
            scheme.reconstruct_many([good, good[:2]])


class TestMaskAccumulatorParity:
    def _masks(self, rng, k, dim, modulus):
        return [
            np.asarray(
                [rng.randrange(modulus) for _ in range(dim)], dtype=np.int64
            )
            for _ in range(k)
        ]

    def test_deferred_path_matches_reference(self):
        rng = random.Random(3)
        modulus = 1 << 20
        for _ in range(8):
            dim = rng.randint(1, 64)
            k = rng.randint(0, 12)
            base = self._masks(rng, 1, dim, modulus)[0]
            masks = self._masks(rng, k, dim, modulus)
            acc = MaskAccumulator(base, modulus, n_terms=1 + k)
            assert acc._deferred
            for m in masks:
                acc.add(m)
            np.testing.assert_array_equal(
                acc.finish(),
                accumulate_masks_reference(base, masks, modulus),
            )

    def test_guard_fallback_matches_reference(self):
        # A modulus big enough that deferred summation could overflow
        # int64 must fall back to per-add reduction — same result.
        modulus = 1 << 62
        rng = random.Random(5)
        base = self._masks(rng, 1, 16, modulus)[0]
        masks = self._masks(rng, 4, 16, modulus)
        acc = MaskAccumulator(base, modulus, n_terms=5)
        assert not acc._deferred
        for m in masks:
            acc.add(m)
        np.testing.assert_array_equal(
            acc.finish(), accumulate_masks_reference(base, masks, modulus)
        )

    def test_signed_deferred_path_matches_reference(self):
        rng = random.Random(13)
        modulus = 1 << 20
        for _ in range(8):
            dim = rng.randint(1, 64)
            k = rng.randint(0, 12)
            base = self._masks(rng, 1, dim, modulus)[0]
            terms = [
                (m, rng.choice([1, -1]))
                for m in self._masks(rng, k, dim, modulus)
            ]
            acc = MaskAccumulator(base, modulus, n_terms=1 + k)
            assert acc._deferred
            for m, sign in terms:
                (acc.add if sign > 0 else acc.sub)(m)
            np.testing.assert_array_equal(
                acc.finish(),
                accumulate_signed_masks_reference(base, terms, modulus),
            )

    def test_signed_guard_fallback_matches_reference(self):
        modulus = 1 << 62
        rng = random.Random(19)
        base = self._masks(rng, 1, 16, modulus)[0]
        terms = [
            (m, sign)
            for m, sign in zip(self._masks(rng, 4, 16, modulus), [1, -1, -1, 1])
        ]
        acc = MaskAccumulator(base, modulus, n_terms=5)
        assert not acc._deferred
        for m, sign in terms:
            (acc.add if sign > 0 else acc.sub)(m)
        np.testing.assert_array_equal(
            acc.finish(),
            accumulate_signed_masks_reference(base, terms, modulus),
        )

    def test_over_declared_adds_rejected(self):
        acc = MaskAccumulator(np.zeros(4, dtype=np.int64), 1 << 20, n_terms=2)
        acc.add(np.ones(4, dtype=np.int64))
        with pytest.raises(ValueError):
            acc.add(np.ones(4, dtype=np.int64))
        acc = MaskAccumulator(np.zeros(4, dtype=np.int64), 1 << 20, n_terms=2)
        acc.sub(np.ones(4, dtype=np.int64))
        with pytest.raises(ValueError):
            acc.sub(np.ones(4, dtype=np.int64))

    def test_n_terms_must_count_base(self):
        with pytest.raises(ValueError):
            MaskAccumulator(np.zeros(2, dtype=np.int64), 8, n_terms=0)


_GROUPS = {"toy": TOY_GROUP, "modp512": MODP_512, "modp2048": MODP_2048}


def _kernel_loaded() -> bool:
    return native.load() is not None


class TestDHPowerParity:
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_power_matches_reference_on_random_inputs(self, name):
        group = _GROUPS[name]
        rng = random.Random(group.p.bit_length())
        for _ in range(10 if group is MODP_2048 else 100):
            base = rng.randrange(0, 3 * group.p)
            exp = rng.randrange(0, group.p)
            assert group.power(base, exp) == group.power_reference(base, exp)

    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_power_matches_reference_on_edge_inputs(self, name):
        group = _GROUPS[name]
        p, q = group.p, group.q
        for base in (1, group.g, p - 1, p, p + 1, 2 * p + 3):
            for exp in (0, 1, q - 1, p - 2):
                assert group.power(base, exp) == group.power_reference(
                    base, exp
                ), (base, exp)

    def test_outside_kernel_domain_falls_back(self):
        # Negative exponent, even modulus, wider than the limb limit:
        # the kernel declines and power() serves pow()'s answer.
        assert native.modexp(3, -1, MODP_512.p) is None
        assert MODP_512.power(3, -1) == MODP_512.power_reference(3, -1)
        even = DHGroup(p=1 << 89, g=3, q=1 << 88)
        assert native.modexp(3, 12345, even.p) is None
        assert even.power(3, 12345) == even.power_reference(3, 12345)
        wide_p = (1 << (64 * native.MODEXP_MAX_LIMBS + 1)) + 1
        wide = DHGroup(p=wide_p, g=3, q=(wide_p - 1) // 2)
        assert native.modexp(3, 65537, wide.p) is None
        assert wide.power(3, 65537) == wide.power_reference(3, 65537)

    @pytest.mark.skipif(sys.maxsize <= 2**32, reason="no 64-bit limbs")
    def test_kernel_serves_protocol_groups_when_loaded(self):
        if not _kernel_loaded():
            pytest.skip("native kernel unavailable on this host")
        for group in _GROUPS.values():
            exp = group.q - 1
            assert native.modexp(group.g, exp, group.p) == pow(
                group.g, exp, group.p
            )

    def test_fallback_path_without_native(self):
        # REPRO_NATIVE=0 is read once, at first load, so it needs a
        # fresh interpreter.
        script = (
            "import random\n"
            "from repro import native\n"
            "from repro.crypto.dh import MODP_512, KeyAgreement\n"
            "assert native.load() is None\n"
            "assert native.modexp(4, 5, MODP_512.p) is None\n"
            "rng = random.Random(5)\n"
            "for _ in range(20):\n"
            "    b, e = rng.randrange(MODP_512.p), rng.randrange(MODP_512.q)\n"
            "    assert MODP_512.power(b, e) == pow(b, e, MODP_512.p)\n"
            "ka = KeyAgreement(MODP_512)\n"
            "a, b = ka.generate(), ka.generate()\n"
            "assert ka.agree(a, b.public) == ka.agree(b, a.public)\n"
            "print('fallback-ok')\n"
        )
        env = dict(os.environ)
        env["REPRO_NATIVE"] = "0"
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "fallback-ok"

    def test_concurrent_agree_from_worker_pool(self):
        ka = KeyAgreement(MODP_512)
        peer = ka.generate()
        mine = [ka.generate() for _ in range(8)]
        size = (MODP_512.p.bit_length() + 7) // 8
        want = [
            hashlib.sha256(
                MODP_512.power_reference(peer.public, kp.secret).to_bytes(size, "big")
            ).digest()
            for kp in mine
        ]
        # More threads than cores, frequent switches, and a cold
        # per-modulus context, so first uses race each other too.
        native._mont_context.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(workers=4) as pool:
                got = pool.map(lambda kp: ka.agree(kp, peer.public), mine * 6)
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 6

    def test_secagg_round_identical_with_kernel_on_and_off(self, monkeypatch):
        # Plain SecAgg aggregates are exact whatever the mask randomness,
        # so both runs must return the ring sum over the same survivors —
        # with a dropout, so the server's mask-key re-derivation runs too.
        config = SecAggConfig(threshold=3, bits=16, dimension=24, dh_group="modp512")
        rng = np.random.default_rng(3)
        inputs = {
            u: rng.integers(0, 1 << 12, size=24).astype(np.int64)
            for u in range(1, 6)
        }
        schedule = DropoutSchedule.before_upload({4})
        served = []
        kernel = native.modexp

        def counting(base, exp, modulus):
            out = kernel(base, exp, modulus)
            served.append(out is not None)
            return out

        monkeypatch.setattr(native, "modexp", counting)
        on = run_secagg_round(config, inputs, schedule)
        if _kernel_loaded():
            assert served and all(served)
        monkeypatch.setattr(native, "modexp", lambda base, exp, modulus: None)
        off = run_secagg_round(config, inputs, schedule)
        assert on.u3 == off.u3 == [1, 2, 3, 5]
        np.testing.assert_array_equal(on.aggregate, off.aggregate)
        want = sum(inputs[u] for u in on.u3) % config.modulus
        np.testing.assert_array_equal(on.aggregate, want)


class TestCKeyAgreementOncePerPeer:
    def _round_through_masked_input(self, n=4):
        config = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")
        clients = {u: SecAggClient(u, config) for u in range(1, n + 1)}
        roster = {u: c.advertise_keys() for u, c in clients.items()}
        graph = {u: set(clients) - {u} for u in clients}
        sent = {u: c.share_keys(roster, graph) for u, c in clients.items()}
        for v, client in clients.items():
            routed = {u: cts[v] for u, cts in sent.items() if v in cts}
            client.masked_input(routed, np.zeros(8, dtype=np.int64))
        return clients

    def test_decrypt_payloads_performs_no_agreement(self, monkeypatch):
        clients = self._round_through_masked_input()
        calls = []
        agree = KeyAgreement.agree

        def counting(self, mine, peer_public):
            calls.append(peer_public)
            return agree(self, mine, peer_public)

        monkeypatch.setattr(KeyAgreement, "agree", counting)
        for u, client in clients.items():
            payloads = client._decrypt_payloads()
            assert sorted(payloads) == sorted(clients)
            client.shares_of_extra_secret({v: ["none"] for v in clients})
        assert calls == []


class TestAEXorParity:
    """The whole-buffer XOR reproduces the per-byte generator exactly."""

    KEY = bytes(range(32))
    NONCE = b"\x07" * 16

    def _fixed_nonce(self, monkeypatch):
        monkeypatch.setattr(ae_module.secrets, "token_bytes", lambda n: self.NONCE[:n])

    def _per_byte_encrypt(self, plaintext: bytes) -> bytes:
        # The pre-vectorization expression, kept here as the spec.
        enc_key = hmac.new(self.KEY, b"dordis-aeenc", hashlib.sha256).digest()
        mac_key = hmac.new(self.KEY, b"dordis-aemac", hashlib.sha256).digest()
        stream = PRGReference(enc_key + self.NONCE).read(len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        tag = hmac.new(mac_key, self.NONCE + ciphertext, hashlib.sha256).digest()
        return self.NONCE + ciphertext + tag

    @pytest.mark.parametrize("length", [0, 1, 3, 31, 32, 33, 255, 1024, 4099])
    def test_matches_per_byte_expression(self, monkeypatch, length):
        self._fixed_nonce(monkeypatch)
        plaintext = random.Random(length).randbytes(length)
        ae = AuthenticatedEncryption(self.KEY)
        blob = ae.encrypt(plaintext)
        assert blob == self._per_byte_encrypt(plaintext)
        assert ae.decrypt(blob) == plaintext

    def test_known_answers(self, monkeypatch):
        self._fixed_nonce(monkeypatch)
        ae = AuthenticatedEncryption(self.KEY)
        assert ae.encrypt(b"").hex() == (
            "07070707070707070707070707070707"
            "dad9a0a081fd2632532b3cf3ac1c9839de65613200a91d8fcaae4990d5ce8c44"
        )
        assert ae.encrypt(b"\x00\x01\x02").hex() == (
            "07070707070707070707070707070707"
            "4ae824"
            "f06782682f047407465d4e0c18e3f4856a98bd2756ab87653b8d203801c85203"
        )
        blob = ae.encrypt(bytes(range(256)) * 4 + b"tail")
        assert len(blob) == 1076
        assert hashlib.sha256(blob).hexdigest() == (
            "09c2e8314e95acb24f17c8edbc338d552bcc9396cc43f143e8c947b664e534bb"
        )
