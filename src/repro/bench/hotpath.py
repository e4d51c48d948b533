"""Hot-path microbenchmarks: every fast path against its retained twin.

Each metric pair times the optimized implementation and the
``*_reference`` executable specification it is parity-pinned against
(PRG mask expansion, Shamir share evaluation and reconstruction, codec
encode, mask accumulation, DH key agreement) — plus the packed
masked-upload codec's size and encode/decode time, so the recorded speedups
are measured on the same machine, same inputs, same run — the
trajectory point the paper's Fig.-2-style overhead claims rest on.
"""

from __future__ import annotations

import hashlib
import platform
import time
from typing import Any, Callable

import numpy as np

from repro import native
from repro.bench.schema import make_report, metric
from repro.crypto.dh import DHGroup, resolve_group
from repro.crypto.prg import PRGReference, expand_uniform
from repro.crypto.shamir import ShamirSecretSharing
from repro.secagg.masking import MaskAccumulator, accumulate_masks_reference
from repro.secagg.types import MaskedInputMsg
from repro.utils.rng import derive_rng
from repro.wire import codecs as wire_codecs

TOPIC = "hotpath"


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (the classic noise filter)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _speedup_triplet(
    metrics: dict[str, Any], name: str, ref_s: float, fast_s: float
) -> None:
    metrics[f"{name}_reference_s"] = metric(ref_s, "s")
    metrics[f"{name}_fast_s"] = metric(fast_s, "s")
    if fast_s > 0:
        metrics[f"{name}_speedup"] = metric(ref_s / fast_s, "x")


# Agreements timed per sample: enough to dwarf timer resolution at each width.
_DH_AGREEMENTS = {"modp512": 20, "modp2048": 2}


def _dh_agree_us(
    group: DHGroup, power, peers: list[int], secret: int, repeats: int
) -> float:
    """Best-of µs per KA.agree-shaped step (exponentiate, then hash)."""
    size = (group.p.bit_length() + 7) // 8

    def agree_all() -> None:
        for peer in peers:
            hashlib.sha256(power(peer, secret).to_bytes(size, "big")).digest()

    return _best_of(agree_all, repeats) / len(peers) * 1e6


def run_hotpath(
    dims: list[int],
    *,
    clients: int = 4,
    repeats: int = 3,
    bits: int = 20,
    seed: int = 0,
) -> dict[str, Any]:
    """Benchmark the crypto/codec hot paths; returns a schema report."""
    modulus = 1 << bits
    rng = derive_rng("bench-hotpath", seed)
    prg_seed = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
    metrics: dict[str, Any] = {}

    # PRG mask expansion, per dimension: expand_uniform is the entry
    # point masking and unmasking call (native kernel when loaded).
    for d in dims:
        if not np.array_equal(
            expand_uniform(prg_seed, d, modulus),
            PRGReference(prg_seed).uniform_vector(d, modulus),
        ):
            raise RuntimeError(f"expand_uniform diverged from PRGReference at d={d}")
        ref_s = _best_of(
            lambda: PRGReference(prg_seed).uniform_vector(d, modulus), repeats
        )
        fast_s = _best_of(lambda: expand_uniform(prg_seed, d, modulus), repeats)
        _speedup_triplet(metrics, f"prg_expand_d{d}", ref_s, fast_s)

    # Shamir: the deterministic evaluation step on identical polynomials
    # (share() itself samples fresh randomness, so the fair comparison
    # is _evaluate_shares vs its retained twin), then reconstruction on
    # identical shares.  Floor of 16 participants: the protocol shares
    # keys across whole cohorts, not the 3–4 clients of a smoke run.
    n = max(16, clients)
    threshold = max(2, n // 2 + 1)
    scheme = ShamirSecretSharing(threshold)
    ids = list(range(1, n + 1))
    secret = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
    polys = scheme._sample_polynomials(secret)
    ref_s = _best_of(
        lambda: scheme._evaluate_shares_reference(polys, ids, len(secret)),
        repeats,
    )
    fast_s = _best_of(
        lambda: scheme._evaluate_shares(polys, ids, len(secret)), repeats
    )
    _speedup_triplet(metrics, "shamir_share", ref_s, fast_s)

    shares = list(scheme.share(secret, ids).values())
    ref_s = _best_of(lambda: scheme.reconstruct_reference(shares), repeats)
    fast_s = _best_of(lambda: scheme.reconstruct(shares), repeats)
    _speedup_triplet(metrics, "shamir_reconstruct", ref_s, fast_s)

    # Codec: a masked-upload-shaped payload at the largest dimension.
    d = max(dims)
    vector = rng.integers(0, modulus, size=d).astype(np.int64)
    payload = {"sender": 1, "round": 0, "masked_vector": vector}
    ref_s = _best_of(
        lambda: wire_codecs.encode_payload_reference(payload), repeats
    )
    fast_s = _best_of(lambda: wire_codecs.encode_payload(payload), repeats)
    _speedup_triplet(metrics, f"codec_encode_d{d}", ref_s, fast_s)
    encoded = wire_codecs.encode_payload(payload)
    metrics[f"codec_encoded_d{d}_bytes"] = metric(len(encoded), "bytes")
    metrics[f"codec_decode_d{d}_s"] = metric(
        _best_of(lambda: wire_codecs.decode_payload(encoded), repeats), "s"
    )

    # The masked upload itself: packed at b bits per element.
    masked = MaskedInputMsg(sender=1, masked_vector=vector, bits=bits)
    packed = wire_codecs.encode_payload(masked)
    if not np.array_equal(
        wire_codecs.decode_payload(packed).masked_vector, vector
    ):
        raise RuntimeError(f"packed MaskedInputMsg round trip diverged at d={d}")
    metrics[f"masked_input_d{d}_bytes"] = metric(len(packed), "bytes")
    metrics[f"masked_input_encode_d{d}_s"] = metric(
        _best_of(lambda: wire_codecs.encode_payload(masked), repeats), "s"
    )
    metrics[f"masked_input_decode_d{d}_s"] = metric(
        _best_of(lambda: wire_codecs.decode_payload(packed), repeats), "s"
    )

    # Mask accumulation: base + one mask per live neighbor.
    masks = [
        rng.integers(0, modulus, size=d).astype(np.int64)
        for _ in range(max(2, clients))
    ]
    base = rng.integers(0, modulus, size=d).astype(np.int64)

    def _fast_accumulate() -> np.ndarray:
        acc = MaskAccumulator(base, modulus, n_terms=1 + len(masks))
        for m in masks:
            acc.add(m)
        return acc.finish()

    ref_s = _best_of(
        lambda: accumulate_masks_reference(base, masks, modulus), repeats
    )
    fast_s = _best_of(_fast_accumulate, repeats)
    _speedup_triplet(metrics, f"mask_accumulate_d{d}", ref_s, fast_s)

    # DH key agreement: the native Montgomery kernel behind DHGroup.power
    # against CPython's pow (power_reference), on identical exponents.
    for name, count in _DH_AGREEMENTS.items():
        group = resolve_group(name)
        secret = 1 + int(rng.integers(1 << 62)) * group.q // (1 << 62)
        peers = [
            group.power_reference(group.g, 2 + int(rng.integers(1 << 62)))
            for _ in range(count)
        ]
        ref_us = _dh_agree_us(group, group.power_reference, peers, secret, repeats)
        fast_us = _dh_agree_us(group, group.power, peers, secret, repeats)
        metrics[f"dh_agree_{name}_reference_us"] = metric(ref_us, "us")
        metrics[f"dh_agree_{name}_fast_us"] = metric(fast_us, "us")
        if fast_us > 0:
            metrics[f"dh_agree_{name}_speedup"] = metric(ref_us / fast_us, "x")

    config = {
        "dims": list(dims),
        "clients": clients,
        "repeats": repeats,
        "bits": bits,
        "seed": seed,
        "shamir_threshold": threshold,
        "shamir_participants": n,
        "dh_agreements_per_sample": dict(_DH_AGREEMENTS),
        "native_backend": native.backend_name(),
        "modexp_kernel": native.modexp(3, 5, 7) is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return make_report(TOPIC, config, metrics)
