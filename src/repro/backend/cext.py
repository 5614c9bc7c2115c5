"""ctypes bindings for the generated C kernel extension.

Compiles ``_kernels.c`` on demand with the system C compiler
(``-O2 -fno-fast-math``, shared object cached by source hash) and exposes
the batch kernels with the same call shape as
:mod:`repro.backend.kernels_py` (documented in
:mod:`repro.backend.dispatch`), so the dispatch layer treats the two
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
_char = ctypes.c_char


def _addr(arr: np.ndarray) -> int:
    """Data address of a contiguous array.

    ``arr.ctypes.data`` builds a helper object on every read (about a
    microsecond); a writable, non-empty array hands ctypes its buffer
    directly for about a quarter of that.
    """
    if arr.size and arr.flags.writeable:
        return ctypes.addressof(_char.from_buffer(arr))
    return arr.ctypes.data


class _Kernels:
    """Loaded shared object with the kernel-module call shape.

    Array arguments cross the boundary as raw data pointers against
    pre-declared ``c_void_p`` argtypes. The hot equilibrium loops make
    tens of thousands of small-batch kernel calls, so a call reads as few
    addresses as it can: :meth:`bind` keeps a plan's constant addresses,
    and each call carves its outputs and status words from one float64
    and one int64 workspace by offset. Callers (the dispatch layer)
    guarantee contiguous float64/int64 arrays.
    """

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
        lib.repro_equilibrium_solve.restype = None
        lib.repro_equilibrium_solve.argtypes = [
            _i64, _ptr, _f64, _ptr, _ptr, _ptr, _ptr, _ptr,
            _f64, _f64, _f64, _f64, _i64, _i64, _f64, _ptr, _ptr,
        ]
        lib.repro_revenue_slope.restype = None
        lib.repro_revenue_slope.argtypes = [
            _i64, _ptr, _f64, _ptr, _ptr, _ptr, _ptr, _ptr,
            _f64, _f64, _f64, _f64, _ptr, _ptr,
        ]
        self._vexp = lib.repro_vexp
        self._pair_dot = lib.repro_pair_dot
        self._congestion = lib.repro_congestion_batch
        self._marginal = lib.repro_marginal_batch
        self._best_response = lib.repro_best_response
        self._equilibrium = lib.repro_equilibrium_solve
        self._revenue_slope = lib.repro_revenue_slope

    def exp_inplace(self, values: np.ndarray, out: np.ndarray) -> None:
        self._vexp(values.shape[0], _addr(values), _addr(out))

    def pair_dot_batch(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray
    ) -> None:
        self._pair_dot(
            a.shape[0], a.shape[1],
            _addr(a), _addr(b), _addr(out),
        )

    def bind(self, plan) -> tuple:
        """The plan's constant arguments, arrays as addresses.

        Valid while the plan lives: the plan holds the arrays and caches
        this tuple (``KernelPlan.bound``).
        """
        return (
            plan.price,
            _addr(plan.values),
            _addr(plan.demand_tags),
            _addr(plan.demand_params),
            _addr(plan.rate_tags),
            _addr(plan.rate_params),
            plan.mu,
            plan.xtol,
        )

    def congestion_batch(self, bound, populations, phi0):
        _, _, _, _, rtags, rparams, mu, xtol = bound
        rows, n = populations.shape
        # float64: phi | fail_lo | fail_hi;  int64: stats[2] | fail_rows
        fwork = np.empty(3 * rows)
        iwork = np.zeros(2 + rows, dtype=np.int64)
        f = _addr(fwork)
        i = _addr(iwork)
        nfail = self._congestion(
            rows, n, _addr(populations), rtags, rparams, mu,
            0 if phi0 is None else _addr(phi0), phi0 is not None,
            xtol, f, i, i + 16, f + 8 * rows, f + 16 * rows,
        )
        return (
            fwork[:rows],
            iwork[:2],
            iwork[2:2 + nfail],
            fwork[rows:rows + nfail],
            fwork[2 * rows:2 * rows + nfail],
        )

    def marginal_batch(self, bound, s, phi0):
        price, values, dtags, dparams, rtags, rparams, mu, xtol = bound
        rows, n = s.shape
        cells = rows * n
        # float64: u (rows x n) | phi | fail_lo | fail_hi
        # int64:   stats[2] | counts[2] | pop_rows | fail_rows
        fwork = np.empty(cells + 3 * rows)
        iwork = np.zeros(4 + 2 * rows, dtype=np.int64)
        f = _addr(fwork)
        i = _addr(iwork)
        lo = cells + rows
        self._marginal(
            rows, n, _addr(s), price, values, dtags, dparams, rtags,
            rparams, mu, xtol,
            0 if phi0 is None else _addr(phi0), phi0 is not None,
            f, f + 8 * cells, i, i + 32, i + 32 + 8 * rows,
            f + 8 * lo, f + 8 * (lo + rows), i + 16,
        )
        npop, nfail = iwork[2:4].tolist()
        return (
            fwork[:cells].reshape(rows, n),
            fwork[cells:lo],
            iwork[:2],
            npop,
            iwork[4 + rows:4 + rows + nfail],
            fwork[lo:lo + nfail],
            fwork[lo + rows:lo + rows + nfail],
        )

    def best_response_root(self, bound, s, cap, phi0, root_xtol):
        price, values, dtags, dparams, rtags, rparams, mu, xtol = bound
        n = s.shape[0]
        # float64: responses | u_zero | u_cap | phi chain
        # int64:   stats[2] | status | bad row
        fwork = np.zeros(4 * n)
        iwork = np.zeros(4, dtype=np.int64)
        if phi0 is not None:
            fwork[3 * n:] = phi0
        f = _addr(fwork)
        i = _addr(iwork)
        self._best_response(
            n, _addr(s), price, values, dtags, dparams, rtags, rparams,
            mu, xtol, cap, f + 24 * n, phi0 is not None, root_xtol,
            f, f + 8 * n, f + 16 * n, i, i + 16,
        )
        status, bad = iwork[2:].tolist()
        return (
            fwork[:n], fwork[n:2 * n], fwork[2 * n:3 * n], fwork[3 * n:],
            iwork[:2], status, bad,
        )

    def equilibrium_solve(self, bound, s0, cap, tol, max_sweeps,
                          share_rate=None):
        price, values, dtags, dparams, rtags, rparams, mu, xtol = bound
        n = s0.shape[0]
        # float64: profile | state row (6n + 6) | failing bracket (2)
        # int64:   stats[2] | iterations | status | bad index
        fwork = np.empty(7 * n + 8)
        iwork = np.empty(5, dtype=np.int64)
        self._equilibrium(
            n, _addr(s0), price, values, dtags, dparams, rtags, rparams,
            mu, xtol, cap, tol, max_sweeps, share_rate is not None,
            0.0 if share_rate is None else share_rate,
            _addr(fwork), _addr(iwork),
        )
        iterations, status, bad = iwork[2:].tolist()
        return (
            fwork[:n], fwork[n:7 * n + 6], iwork[:2], iterations, status,
            bad, fwork[7 * n + 6:],
        )


    def revenue_slope(self, bound, s, cap, share_rate):
        price, values, dtags, dparams, rtags, rparams, mu, xtol = bound
        fwork = np.empty(1)
        iwork = np.empty(2, dtype=np.int64)
        self._revenue_slope(
            s.shape[0], _addr(s), price, values, dtags, dparams, rtags,
            rparams, mu, xtol, cap, share_rate, _addr(fwork), _addr(iwork),
        )
        return float(fwork[0]), iwork


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
