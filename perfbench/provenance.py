"""Where a result came from: revision, machine, interpreter and BLAS."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

# Thread-count getters of the OpenBLAS builds numpy ships or links.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, so a checkout without git history
    still names the code it measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info() -> dict:
    """BLAS library numpy was built with and the thread count in effect."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None, "library": None}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info["name"] = deps.get("blas", {}).get("name")
        info["version"] = deps.get("blas", {}).get("version")
    except (TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for getter in _BLAS_GETTERS:
            fn = getattr(handle, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                info["library"] = os.path.basename(lib)
                return info
    return info


def collect(root: Path) -> dict:
    import numpy as np

    return {
        "git_revision": git_revision(root),
        "source_digest": source_digest(root / "src" / "rip"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
    }
