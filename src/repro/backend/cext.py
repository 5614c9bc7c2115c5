"""ctypes bindings for the generated C kernel extension.

Compiles ``_kernels.c`` on demand with the system C compiler
(``-O2 -fno-fast-math``, shared object cached by source hash) and exposes
the batch kernels under the exact Python signatures of
:mod:`repro.backend.kernels_py`, so the dispatch layer can treat the two
modules interchangeably. Bitwise parity with ``kernels_py`` holds because
both evaluate libm ``exp``/``pow``/``log1p`` and accumulate sequentially
in the same order.

Import lazily via :func:`load`; a missing compiler or failed build raises
:class:`CExtUnavailable`, which the backend registry converts into a
recorded fallback to the NumPy path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["CExtUnavailable", "load"]

_SOURCE = Path(__file__).with_name("_kernels.c")


class CExtUnavailable(RuntimeError):
    """The C kernel extension could not be built or loaded."""


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CEXT_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro" / "cext"
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro" / "cext"
    return Path(tempfile.gettempdir()) / "repro-cext"


def _compiler() -> str:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    raise CExtUnavailable("no C compiler found (tried $CC, cc, gcc, clang)")


def _build() -> Path:
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"repro_kernels_{digest}.so"
    if target.exists():
        return target
    cc = _compiler()
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    cmd = [
        cc,
        "-O2",
        "-fno-fast-math",
        "-fPIC",
        "-shared",
        str(_SOURCE),
        "-o",
        tmp_name,
        "-lm",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp_name)
        raise CExtUnavailable(f"kernel build failed to run: {exc}") from exc
    if proc.returncode != 0:
        os.unlink(tmp_name)
        raise CExtUnavailable(
            f"kernel build failed ({cc} exited {proc.returncode}): "
            f"{proc.stderr.strip()}"
        )
    os.replace(tmp_name, target)  # atomic publish; racing builds agree
    return target


_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p


class _Kernels:
    """Loaded shared object with kernels_py-compatible entry points.

    Array arguments cross the boundary as raw data pointers
    (``arr.ctypes.data``) against pre-declared ``c_void_p`` argtypes — the
    hot equilibrium loops make tens of thousands of small-batch kernel
    calls, so per-argument ``data_as`` wrapper objects would dominate the
    kernel's own runtime. Callers (the dispatch layer) guarantee contiguous
    float64/int64 arrays.
    """

    HAVE_NUMBA = False

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.repro_vexp.restype = None
        lib.repro_vexp.argtypes = [_i64, _ptr, _ptr]
        lib.repro_pair_dot.restype = None
        lib.repro_pair_dot.argtypes = [_i64, _i64, _ptr, _ptr, _ptr]
        lib.repro_congestion_batch.restype = _i64
        lib.repro_congestion_batch.argtypes = [
            _i64, _i64, _ptr, _ptr, _ptr, _f64, _ptr, _i64, _f64,
            _ptr, _ptr, _ptr, _ptr, _ptr,
        ]
        lib.repro_marginal_batch.restype = None
        lib.repro_marginal_batch.argtypes = [
            _i64, _i64, _ptr, _f64, _ptr, _ptr, _ptr, _ptr, _ptr,
            _f64, _f64, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr,
            _ptr, _ptr, _ptr,
        ]
        lib.repro_best_response.restype = None
        lib.repro_best_response.argtypes = [
            _i64, _ptr, _f64, _ptr, _ptr, _ptr, _ptr, _ptr,
            _f64, _f64, _f64, _ptr, _i64, _f64, _ptr, _ptr, _ptr, _ptr,
            _ptr,
        ]
        self._vexp = lib.repro_vexp
        self._pair_dot = lib.repro_pair_dot
        self._congestion = lib.repro_congestion_batch
        self._marginal = lib.repro_marginal_batch
        self._best_response = lib.repro_best_response

    def exp_inplace(self, values: np.ndarray, out: np.ndarray) -> None:
        self._vexp(values.shape[0], values.ctypes.data, out.ctypes.data)

    def pair_dot_batch(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray
    ) -> None:
        self._pair_dot(
            a.shape[0], a.shape[1],
            a.ctypes.data, b.ctypes.data, out.ctypes.data,
        )

    def congestion_batch(
        self,
        populations,
        rtags,
        rparams,
        mu,
        phi0,
        has_phi0,
        xtol_final,
        phi_out,
        stats,
        fail_rows,
        fail_lo,
        fail_hi,
    ) -> int:
        return int(
            self._congestion(
                populations.shape[0],
                populations.shape[1],
                populations.ctypes.data,
                rtags.ctypes.data,
                rparams.ctypes.data,
                mu,
                phi0.ctypes.data,
                1 if has_phi0 else 0,
                xtol_final,
                phi_out.ctypes.data,
                stats.ctypes.data,
                fail_rows.ctypes.data,
                fail_lo.ctypes.data,
                fail_hi.ctypes.data,
            )
        )

    def marginal_batch(
        self,
        s,
        price,
        values,
        dtags,
        dparams,
        rtags,
        rparams,
        mu,
        xtol_final,
        phi0,
        has_phi0,
        u_out,
        phi_out,
        stats,
        pop_rows,
        fail_rows,
        fail_lo,
        fail_hi,
    ) -> tuple[int, int]:
        counts = np.zeros(2, dtype=np.int64)
        self._marginal(
            s.shape[0],
            s.shape[1],
            s.ctypes.data,
            price,
            values.ctypes.data,
            dtags.ctypes.data,
            dparams.ctypes.data,
            rtags.ctypes.data,
            rparams.ctypes.data,
            mu,
            xtol_final,
            phi0.ctypes.data,
            1 if has_phi0 else 0,
            u_out.ctypes.data,
            phi_out.ctypes.data,
            stats.ctypes.data,
            pop_rows.ctypes.data,
            fail_rows.ctypes.data,
            fail_lo.ctypes.data,
            fail_hi.ctypes.data,
            counts.ctypes.data,
        )
        return int(counts[0]), int(counts[1])

    def best_response_root(
        self,
        s,
        price,
        values,
        dtags,
        dparams,
        rtags,
        rparams,
        mu,
        xtol_final,
        cap,
        phi_io,
        has_chain,
        root_xtol,
        responses,
        u_zero,
        u_cap,
        stats,
    ) -> tuple[int, int]:
        status_bad = np.zeros(2, dtype=np.int64)
        self._best_response(
            s.shape[0],
            s.ctypes.data,
            price,
            values.ctypes.data,
            dtags.ctypes.data,
            dparams.ctypes.data,
            rtags.ctypes.data,
            rparams.ctypes.data,
            mu,
            xtol_final,
            cap,
            phi_io.ctypes.data,
            1 if has_chain else 0,
            root_xtol,
            responses.ctypes.data,
            u_zero.ctypes.data,
            u_cap.ctypes.data,
            stats.ctypes.data,
            status_bad.ctypes.data,
        )
        return int(status_bad[0]), int(status_bad[1])


_LOADED: _Kernels | None = None


def load() -> _Kernels:
    """Build (if needed) and load the C kernels; caches the handle."""
    global _LOADED
    if _LOADED is None:
        path = _build()
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:  # corrupt cache entry: rebuild once
            try:
                path.unlink()
            except OSError:
                pass
            try:
                lib = ctypes.CDLL(str(_build()))
            except OSError:
                raise CExtUnavailable(f"could not load kernel library: {exc}")
        _LOADED = _Kernels(lib)
    return _LOADED
