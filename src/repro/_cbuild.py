"""The one place native libraries are compiled, cached and loaded.

Two optional C libraries back the hot paths:

* the **lane library** (:mod:`repro.core._soa_native`): the network
  reservation recurrence ``solve_rounds`` followed by the SoA lane
  driver ``soa_advance`` in one translation unit.  The batch network
  backend (:mod:`repro.network._native`) and the SoA engine share the
  same loaded :class:`ctypes.CDLL`;
* the **draw helper** (:mod:`repro.workload._native`), kept separate
  because it links numpy's ``libnpyrandom.a`` and is keyed on the numpy
  version -- an install without that archive still gets the lane
  library.

Each consumer declares a :class:`Library` next to its C source and
loads it lazily.  A build probes for a C compiler, compiles the source
(fed on stdin) with ``-O2 -fPIC -shared -ffp-contract=off`` -- no fused
multiply-adds, so the C arithmetic is bit-identical to the Python
reference -- into a unique temp file, and atomically renames it to a
digest-named ``<name>_<digest>.so`` in a private cache directory.  A
failed build, a missing compiler or link input, or ``REPRO_NATIVE=0``
yields ``None``, and every consumer falls back to its Python path with
the same results.

**Thread safety.**  Libraries are loaded through :class:`ctypes.CDLL`
(never ``PyDLL``), so foreign calls release the GIL.  The one shared
mutable step -- the lazy first-use build and the per-library memo -- is
serialised by a single lock (double-checked), so N threads racing
through first use build each library exactly once and all receive the
same handle.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: serialises lazy builds and guards :data:`_loaded`
_LOCK = threading.Lock()
_UNSET = object()
#: library name -> loaded handle, or ``None`` when unavailable
_loaded: dict[str, ctypes.CDLL | None] = {}


@dataclass(frozen=True)
class Library:
    """One native library: C source, symbol declarations, link inputs."""

    name: str  #: file-name stem of the cached ``.so``
    source: str
    #: sets ``restype``/``argtypes`` on a freshly loaded handle
    declare: Callable[[ctypes.CDLL], None]
    #: extra linker inputs (static archives); a missing one disables the build
    link: tuple[Path, ...] = ()
    #: mixed into the digest beside the source (e.g. a linked library's version)
    identity: str = ""

    def load(self) -> ctypes.CDLL | None:
        """The loaded library, or ``None`` when unavailable (memoised)."""
        lib = _loaded.get(self.name, _UNSET)
        if lib is _UNSET:
            with _LOCK:
                lib = _loaded.get(self.name, _UNSET)
                if lib is _UNSET:
                    if os.environ.get("REPRO_NATIVE", "1") == "0":
                        lib = None
                    else:
                        lib = _build(self)
                    _loaded[self.name] = lib
        return lib


def reset() -> None:
    """Forget every loaded library (tests toggling ``REPRO_NATIVE``)."""
    with _LOCK:
        _loaded.clear()


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> Path | None:
    """Private, owner-verified directory for compiled libraries.

    Prefers the XDG cache, then ``~/.cache``, then a per-uid tmp
    directory.  The directory is created mode 0700 and rejected unless
    it is owned by the current user and group/world-unwritable -- a
    world-writable tmp path that someone else pre-created must never be
    trusted as a source of loadable code.
    """
    xdg = os.environ.get("XDG_CACHE_HOME")
    candidates = []
    if xdg:
        candidates.append(Path(xdg) / "repro-mesh")
    home = Path.home()
    if home != Path("/"):
        candidates.append(home / ".cache" / "repro-mesh")
    candidates.append(
        Path(tempfile.gettempdir()) / f"repro-mesh-{os.getuid()}"
    )
    for cache_dir in candidates:
        try:
            cache_dir.mkdir(parents=True, exist_ok=True, mode=0o700)
            info = os.stat(cache_dir)
        except OSError:
            continue
        if info.st_uid == os.getuid() and not (info.st_mode & 0o022):
            return cache_dir
    return None


def _compile(cc: str, spec: Library, lib_path: Path) -> bool:
    """Compile ``spec`` into ``lib_path`` via a unique temp file and an
    atomic rename (concurrent processes may race on the same path)."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib_path.parent)
    os.close(fd)
    # the source arrives on stdin; ``-x none`` restores file-type
    # detection for the link inputs that follow it
    cmd = [cc, *CFLAGS, "-x", "c", "-", "-x", "none",
           *map(str, spec.link), "-o", tmp]
    try:
        subprocess.run(cmd, input=spec.source.encode(), check=True,
                       capture_output=True, timeout=60)
        os.replace(tmp, lib_path)
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True


def _build(spec: Library) -> ctypes.CDLL | None:
    cc = _compiler()
    if cc is None or not all(p.is_file() for p in spec.link):
        return None
    cache_dir = _cache_dir()
    if cache_dir is None:
        return None
    digest = hashlib.sha256(
        (spec.source + spec.identity).encode()
    ).hexdigest()[:16]
    lib_path = cache_dir / f"{spec.name}_{digest}.so"
    if lib_path.is_file():
        if os.stat(lib_path).st_uid != os.getuid():
            return None  # never load code we did not write
    elif not _compile(cc, spec, lib_path):
        return None
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError:
        return None
    spec.declare(lib)
    return lib
