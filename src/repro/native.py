"""Optional native kernels: the counter-mode PRG and DH modular exponentiation.

Two hot paths bottom out in per-operation CPython overhead that a small
first-party C kernel removes:

- **SHA-256 counter stream** (``_native/sha256ctr.c``).  The unmask
  plane's dominant cost is SHA-256 compressions: d = 2^20 elements is
  2^18 blocks per mask and ~1,000 masks per round.  The pure-Python loop
  in :mod:`repro.crypto.prg` bottoms out around half a microsecond per
  block, almost all of it per-block Python/hashlib bookkeeping.  The
  kernel dispatches at runtime between a portable scalar SHA-256 and an
  SHA-NI path on x86-64 CPUs that have it (~10x again over scalar C);
  :func:`backend_name` reports which.
- **Montgomery modular exponentiation** (``_native/modexp.c``).  Every
  Diffie-Hellman agreement and key generation, and every Schnorr
  signature, is one ``pow`` on a 512- to 2048-bit modulus.  The kernel
  runs CIOS Montgomery multiplication over 64-bit limbs with a fixed
  4-bit window and a masked table scan, so it does not branch or index
  on the secret exponent; :func:`modexp` serves
  :meth:`repro.crypto.dh.DHGroup.power`.  The per-modulus context
  (R^2 mod p, -p^-1 mod 2^64) is computed once and memoized here.

Design constraints, in order:

- **No new dependencies.**  Both kernels are first-party C with no
  includes beyond the C standard library (no libcrypto, no GMP), built
  into one shared object with whatever ``cc``/``gcc``/``clang`` the host
  already has, so set-up pays for one compile and one ``dlopen``.  No
  compiler, no kernel: nothing is downloaded or installed.
- **Graceful fallback.**  Any failure — no compiler, compile error,
  load error, ``REPRO_NATIVE=0`` in the environment — makes
  :func:`load` return ``None`` (memoized), and callers silently keep
  the pure-Python paths: the hashlib loop for the PRG, ``pow`` for DH.
- **Probed before trusted.**  At load time each kernel is checked once
  against its Python twin (one SHA-256 digest against hashlib; a few
  exponentiations against ``pow``).  A failed SHA probe drops the whole
  object; a failed modexp probe disables only :func:`modexp`, so the PRG
  kernel keeps serving.  Beyond the probes, both paths are parity-pinned
  bit for bit by test whenever the kernels are available.
- **Self-invalidating cache.**  The shared object lands in a
  gitignored ``_native/_build/`` directory next to the sources, named by
  a hash of the source texts, so editing a C file rebuilds and stale
  artifacts are never picked up.

``ctypes`` releases the GIL around every foreign call and both kernels
keep their state on the stack, so :class:`repro.parallel.WorkerPool`
fan-out scales the native paths across cores too.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Optional

_NATIVE_DIR = Path(__file__).resolve().parent / "_native"
_SOURCES = (_NATIVE_DIR / "sha256ctr.c", _NATIVE_DIR / "modexp.c")
_BUILD_DIR = _NATIVE_DIR / "_build"

# Messages are seed ∥ be64(counter); the kernel requires them to fit a
# single padded SHA-256 block (seedlen + 8 ≤ 55).  Protocol seeds are
# 32 bytes (DH agreement digests / random_seed(32)).
MAX_SEED_LEN = 47

# Widest modulus the modexp kernel takes (MODEXP_MAX_LIMBS in modexp.c):
# 64 limbs of 64 bits, 4096 bits.
MODEXP_MAX_LIMBS = 64

_lock = threading.Lock()
_loaded = False
_lib: Optional[ctypes.CDLL] = None
_modexp_ok = False


def _compilers() -> list[str]:
    """Candidate C compilers, most specific first."""
    cands = []
    cc = sysconfig.get_config_var("CC")
    if cc:
        cands.append(cc.split()[0])
    cands.extend(["cc", "gcc", "clang"])
    seen: set[str] = set()
    return [c for c in cands if not (c in seen or seen.add(c))]


def _build() -> Optional[ctypes.CDLL]:
    digest = hashlib.sha256()
    for src in _SOURCES:
        digest.update(src.read_bytes())
    sofile = _BUILD_DIR / f"repro-native-{digest.hexdigest()[:16]}.so"
    if not sofile.exists():
        _BUILD_DIR.mkdir(parents=True, exist_ok=True)
        built = False
        for cc in _compilers():
            # Compile to a temp name and rename into place so a
            # concurrent builder can never load a half-written object.
            fd, tmp = tempfile.mkstemp(
                suffix=".so", prefix="repro-native-", dir=_BUILD_DIR
            )
            os.close(fd)
            try:
                subprocess.run(
                    [cc, "-O3", "-fPIC", "-shared",
                     *(str(src) for src in _SOURCES), "-o", tmp],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp, sofile)
                built = True
                break
            except (OSError, subprocess.SubprocessError):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        if not built:
            return None
    lib = ctypes.CDLL(str(sofile))
    lib.repro_sha256_ctr.argtypes = [
        ctypes.c_char_p,
        ctypes.c_size_t,
        ctypes.c_uint64,
        ctypes.c_uint64,
        ctypes.c_char_p,
    ]
    lib.repro_sha256_ctr.restype = ctypes.c_int
    lib.repro_sha256_ctr_backend.argtypes = []
    lib.repro_sha256_ctr_backend.restype = ctypes.c_int
    lib.repro_modexp.argtypes = [
        ctypes.c_char_p,  # base, n limbs little-endian, < modulus
        ctypes.c_char_p,  # exponent, exp_limbs limbs little-endian
        ctypes.c_size_t,  # exp_limbs
        ctypes.c_char_p,  # modulus
        ctypes.c_char_p,  # R^2 mod modulus
        ctypes.c_uint64,  # -modulus^-1 mod 2^64
        ctypes.c_size_t,  # n
        ctypes.c_char_p,  # out
    ]
    lib.repro_modexp.restype = ctypes.c_int
    return lib


def _sha_probe_ok(lib: ctypes.CDLL) -> bool:
    """Block 0 of an all-zero seed must match hashlib."""
    probe = ctypes.create_string_buffer(32)
    seed = b"\x00" * 32
    rc = lib.repro_sha256_ctr(seed, len(seed), 0, 1, probe)
    want = hashlib.sha256(seed + (0).to_bytes(8, "big"))
    return rc == 0 and probe.raw == want.digest()


# (base, exp, modulus): one limb; eight limbs, the width the kernel
# specializes; and base = p - 1 under a carry-heavy nine-limb Mersenne
# modulus.  Short exponents keep pow's side cheap: the kernel runs every
# window of the padded width whatever the exponent.
_MODEXP_PROBES = (
    (3, 65537, 0xFFFFFFFFFFFFFFC5),
    (0xC0FFEE << 400, 0xFEDCBA9876543210, (1 << 512) - 569),
    ((1 << 521) - 2, (1 << 64) + 1, (1 << 521) - 1),
)


def _modexp_probe_ok(lib: ctypes.CDLL) -> bool:
    return all(
        _modexp_call(lib, b, e, m) == pow(b, e, m) for b, e, m in _MODEXP_PROBES
    )


def load() -> Optional[ctypes.CDLL]:
    """The loaded kernels, building them on first call; ``None`` on failure."""
    global _loaded, _lib, _modexp_ok
    if _loaded:
        return _lib
    with _lock:
        if _loaded:
            return _lib
        lib, modexp_ok = None, False
        if os.environ.get("REPRO_NATIVE", "1") != "0":
            try:
                lib = _build()
                if lib is not None and not _sha_probe_ok(lib):
                    lib = None
                if lib is not None:
                    modexp_ok = _modexp_probe_ok(lib)
            except Exception:
                lib = None
        _lib, _modexp_ok = lib, lib is not None and modexp_ok
        _loaded = True
    return _lib


def backend_name() -> str:
    """Which expansion backend is active (for bench metadata)."""
    lib = load()
    if lib is None:
        return "python"
    return {1: "c-scalar", 2: "c-sha-ni"}.get(
        lib.repro_sha256_ctr_backend(), "c-unknown"
    )


def sha256_ctr_stream(seed: bytes, nblocks: int, ctr0: int = 0) -> Optional[bytearray]:
    """``nblocks`` · 32 bytes of ``SHA256(seed ∥ be64(ctr))`` stream.

    Returns ``None`` when the kernel is unavailable or the seed is too
    long for the single-block message layout — callers fall back to the
    pure-Python loop, which produces the identical stream.
    """
    if len(seed) > MAX_SEED_LEN:
        return None
    lib = load()
    if lib is None:
        return None
    out = bytearray(32 * nblocks)
    if nblocks:
        buf = (ctypes.c_char * len(out)).from_buffer(out)
        rc = lib.repro_sha256_ctr(seed, len(seed), ctr0, nblocks, buf)
        if rc != 0:
            return None
    return out


@functools.lru_cache(maxsize=16)
def _mont_context(modulus: int) -> Optional[tuple[int, bytes, bytes, int]]:
    """``(limbs, modulus, R² mod p, −p⁻¹ mod 2⁶⁴)``, or ``None`` if unsupported.

    The kernel takes odd moduli of at most :data:`MODEXP_MAX_LIMBS` limbs;
    below 3 there is nothing to accelerate.
    """
    if modulus < 3 or not modulus & 1:
        return None
    n = (modulus.bit_length() + 63) // 64
    if n > MODEXP_MAX_LIMBS:
        return None
    r2 = pow(2, 128 * n, modulus)
    n0inv = -pow(modulus, -1, 1 << 64) % (1 << 64)
    return n, modulus.to_bytes(8 * n, "little"), r2.to_bytes(8 * n, "little"), n0inv


def _modexp_call(lib: ctypes.CDLL, base: int, exp: int, modulus: int) -> Optional[int]:
    if exp < 0:
        return None
    ctx = _mont_context(modulus)
    if ctx is None:
        return None
    n, mod_le, r2_le, n0inv = ctx
    # The exponent is padded to the modulus width, so the window count
    # does not reveal a secret exponent's bit length.
    exp_limbs = max(n, (exp.bit_length() + 63) // 64)
    out = ctypes.create_string_buffer(8 * n)
    rc = lib.repro_modexp(
        (base % modulus).to_bytes(8 * n, "little"),
        exp.to_bytes(8 * exp_limbs, "little"),
        exp_limbs, mod_le, r2_le, n0inv, n, out,
    )
    if rc != 0:
        return None
    return int.from_bytes(out.raw, "little")


def modexp(base: int, exp: int, modulus: int) -> Optional[int]:
    """``pow(base, exp, modulus)`` through the Montgomery kernel.

    Returns ``None`` when the kernel cannot serve the call — unavailable,
    failed its load-time probe, an even or over-wide modulus, or a
    negative exponent — and the caller computes ``pow`` itself, which
    gives the identical result.
    """
    lib = load()
    if lib is None or not _modexp_ok:
        return None
    return _modexp_call(lib, base, exp, modulus)
