"""Host and build fingerprint recorded with every result."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

# Results whose values differ here measure different code paths and
# cannot be compared; other fingerprint differences only warrant a note.
NOT_COMPARABLE_WHEN_DIFFERENT = ("prg_backend",)


def _cpuinfo() -> tuple[str, bool]:
    model, sha_ni = "unknown", False
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return model, sha_ni
    for line in text.splitlines():
        name, _, value = line.partition(":")
        name = name.strip()
        if name == "model name" and model == "unknown":
            model = value.strip()
        elif name == "flags":
            sha_ni = sha_ni or "sha_ni" in value.split()
    return model, sha_ni


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, so results name the code they ran."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in {".py", ".c"} and "_build" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(src: Path) -> dict:
    import numpy
    from repro import native

    model, sha_ni = _cpuinfo()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "sha_ni": sha_ni,
        "prg_backend": native.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "source_digest": source_digest(src),
    }


def comparability(a: dict, b: dict) -> tuple[bool, list[str]]:
    """Whether two fingerprints' results may be compared, and the differences."""
    notes, comparable = [], True
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            blocking = key in NOT_COMPARABLE_WHEN_DIFFERENT
            comparable = comparable and not blocking
            notes.append(
                f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
                + (" (not comparable)" if blocking else "")
            )
    return comparable, notes
