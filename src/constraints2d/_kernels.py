"""Compiled twins of the Picard step's pointwise passes on the angular
samples, and of the field CSVs' `%.17g` kernel.

A Picard step assembles the momentum and Hamiltonian sources pointwise on
the samples: a few whole-array numpy operations per pass, each bound by
memory bandwidth.  The once-per-solve residual report stays in numpy, apart
from the H d lambda pass it shares with the momentum source.  _kernels.c holds
each pass as one loop that computes every element with the numpy
expression's IEEE operations in their order, so its result is the numpy
pass's, bit for bit.  Reductions, exp, the DFT products and SuperLU stay in
numpy: their summation order cannot be matched.

twin(name, layout, new) wraps a numpy pass, which stays the reference and
the fallback: the wrapper runs the loop of that name where the library
loaded and every argument has its layout's shape as C-contiguous float64
(and a plane written in place is writeable), and the numpy pass otherwise.
csv_twin wraps fields' vectorized `%.17g` kernel the same way with the loop
csv_lines, which runs that kernel's algorithm one value at a time and leaves
every value the kernel leaves to Python's `%` to `%`.

The library is built on first use, once per machine: cc from PATH compiles
_kernels.c into the user's cache, $XDG_CACHE_HOME/constraints2d or
~/.cache/constraints2d, which must be a directory of the user's that no one
else may write to, under a name holding the CRC-32 of the source and flags,
the interpreter's cache tag and the machine name.  Once loaded, each plane
loop is run on a small fixed input, signed zeros and subnormals among it,
and on seeded normal samples, and must give the bytes of its numpy pass;
csv_lines must format values at each edge of its algorithm as `%.17g`
does.  Any failure on the way (no compiler, a refused cache, a differing
probe) leaves every pass on numpy, with nothing printed; compiled() tells
which path runs.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
import threading
import zlib

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# no contraction to fused multiply-adds and no -ffast-math or -march: each
# element must take numpy's rounding steps
_CFLAGS = ("-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off")

# Argument kinds of a layout, in the order of the loop's arguments after
# (N_r, M): c a column (N_r, 1), r a row (M,), p a plane (N_r, M) read, w a
# plane updated in place; the loop's last arguments are its `new` output
# planes.
_passes: dict = {}   # name: (layout, new, numpy pass)
_csv = None          # (tables, their addresses, splice) of csv_twin
_loops = None        # name: compiled loop once loaded, {} where numpy serves
_lock = threading.Lock()


def twin(name: str, layout: str, new: int = 0):
    """Decorator: the numpy pass, run by the compiled loop `name` where it
    can be.  The pass takes its arguments in layout order and returns its
    `new` output planes: one array, a tuple of them, or None."""
    def wrap(numpy_pass):
        _passes[name] = (layout, new, numpy_pass)

        @functools.wraps(numpy_pass)
        def run(*args):
            loop = (_loops if _loops is not None else _load()).get(name)
            out = None if loop is None else _call(loop, layout, new, args)
            if out is None:
                return numpy_pass(*args)
            return out[0] if new == 1 else tuple(out) if new else None
        return run
    return wrap


def compiled() -> bool:
    """Whether the compiled loops run (loading them on first use)."""
    return bool(_loops if _loops is not None else _load())


def csv_twin(hi: np.ndarray, lo: np.ndarray, exp: np.ndarray, splice):
    """Decorator: fields' numpy `%.17g` kernel, (values, labels) -> the text
    `label,v_1,...,v_N\\r\\n` of each label and row, run by the compiled loop
    csv_lines where it can be.  That loop reads the kernel's tables of
    10^17 .. 10^340 = (hi + lo) 2^exp, writes the marker byte \\1 for each
    value it leaves to `%` and hands those back in order; splice(text, hard)
    formats them into the text, as it does for the kernel."""
    global _csv
    if not (hi.shape == lo.shape == exp.shape == (324,) and hi.dtype == lo.dtype == np.float64
            and exp.dtype == np.int64 and all(x.flags.c_contiguous for x in (hi, lo, exp))):
        raise ValueError("csv_lines reads float64, float64 and int64 tables of 324 entries")
    _csv = ((hi, lo, exp), [x.ctypes.data for x in (hi, lo, exp)], splice)

    def wrap(numpy_kernel):
        @functools.wraps(numpy_kernel)
        def run(values, labels):
            loop = (_loops if _loops is not None else _load()).get("csv_lines")
            text = None if loop is None else _csv_call(loop, values, labels)
            return numpy_kernel(values, labels) if text is None else text
        return run
    return wrap


def _csv_call(loop, values, labels):
    """The text of loop on values and labels, or None where values is not a
    C-contiguous float64 (rows, N) array with a label a row."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 2
            and values.flags.c_contiguous and len(labels) == len(values)):
        return None
    _, addresses, splice = _csv
    rows, n = values.shape
    records = np.array(labels, dtype="S32")  # NUL-padded, as the kernel's
    out = np.empty(rows * (34 + 25 * n), np.uint8)  # the most a row can take
    hard = np.empty(values.size)
    counts = np.empty(2, np.intp)  # bytes written, values handed back
    loop(rows, n, values.ctypes.data, records.ctypes.data, *addresses,
         out.ctypes.data, hard.ctypes.data, counts.ctypes.data)
    text = out[:counts[0]].tobytes()
    return splice(text, hard[:counts[1]]) if counts[1] else text


def _call(loop, layout: str, new: int, args):
    """The `new` output planes of loop on args, as a list, or None where an
    argument does not fit the layout."""
    if len(args) != len(layout):
        return None
    try:
        n, m = args[layout.index("p")].shape
    except (AttributeError, ValueError):  # not an array, or not 2-d
        return None
    shapes = {"c": (n, 1), "r": (m,), "p": (n, m), "w": (n, m)}
    if not all(isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == shapes[kind]
               and x.flags.c_contiguous and (kind != "w" or x.flags.writeable)
               for x, kind in zip(args, layout)):
        return None
    out = [np.empty((n, m)) for _ in range(new)]
    loop(n, m, *(x.ctypes.data for x in (*args, *out)))
    return out


def _load() -> dict:
    global _loops
    with _lock:
        if _loops is None:
            try:
                loops = _library()
                if not (all(_probe(loops[name], *spec) for name, spec in _passes.items())
                        and _csv_probe(loops["csv_lines"])):
                    loops = {}
            except (OSError, AttributeError):  # no compiler, cache or library; no POSIX
                loops = {}
            _loops = loops
    return _loops


def _library() -> dict:
    """The loops of the cached library, built first where it is missing."""
    import ctypes

    with open(_SOURCE, "rb") as fh:
        crc = zlib.crc32(fh.read() + " ".join(_CFLAGS).encode())
    path = os.path.join(_cache_dir(), f"kernels-{crc:08x}-{sys.implementation.cache_tag}"
                                      f"-{os.uname().machine}.so")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            _compile(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return _bind(ctypes.CDLL(path))


def _bind(lib) -> dict:
    """The loops of the loaded library lib, each taking two sizes and its
    pointers."""
    import ctypes

    pointers = {name: len(layout) + new for name, (layout, new, _) in _passes.items()}
    loops = {}
    for name, count in (*pointers.items(), ("csv_lines", 8)):
        loop = loops[name] = getattr(lib, name)
        loop.restype = None
        loop.argtypes = [ctypes.c_ssize_t] * 2 + [ctypes.c_void_p] * count
    return loops


def _cache_dir() -> str:
    """The cache directory, made with mode 0o700 where missing; an OSError
    where it is not a directory of this user's that only the user may write."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "constraints2d")
    if not os.path.isabs(path):  # "~" left as it is: no home directory
        raise FileNotFoundError("no home directory for the cache")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{path} is not a private directory of this user")
    return path


def _compile(target: str) -> None:
    """cc on _kernels.c into the shared library target, with no output
    shown; spawned directly, so that the subprocess module is not loaded."""
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]
    pid = os.posix_spawnp("cc", ["cc", *_CFLAGS, "-o", target, _SOURCE], os.environ,
                          file_actions=quiet)
    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
        raise OSError(f"cc failed on {_SOURCE}")


# every value the probe's arguments take in turn: signed zeros, subnormals,
# products that round to subnormals or to zero, and values whose products
# and sums round, so that a fused multiply-add or another order shows
_PROBE_VALUES = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -3e-160, 0.1, -1.0 / 3.0,
                          np.pi, -np.e, 1e-300, 2.0 / 7.0, 2.0**-1022, -1.1, 0.7, 1e-10,
                          -7.0 / 3.0])  # a prime count, 17


@functools.cache
def _normals() -> np.ndarray:
    """2053 (a prime count) seeded standard normal samples, read-only:
    Box-Muller on the random module's bits, since importing numpy.random
    would cost a cold process 30 ms."""
    import random

    n = 2053
    bits = random.Random(0).getrandbits(128 * n).to_bytes(16 * n, "little")
    u = (np.frombuffer(bits, np.uint64) >> 11) * 2.0**-53  # in [0, 1)
    x = np.sqrt(-2.0 * np.log1p(-u[:n])) * np.cos(2.0 * np.pi * u[n:])
    x.setflags(write=False)
    return x


def _probe(loop, layout: str, new: int, numpy_pass) -> bool:
    """Whether loop gives the bytes of its numpy pass on a (4, 16) input of
    the probe values and on a (64, 32) input of seeded normal samples, where
    a fused multiply-add or another order in any one product or sum shows.
    Element k of argument j is entry (j + 1) k + j of the values, so that no
    two arguments run through them in step."""
    for values, (n, m) in ((_PROBE_VALUES, (4, 16)), (_normals(), (64, 32))):
        shapes = {"c": (n, 1), "r": (m,), "p": (n, m), "w": (n, m)}
        args = [values[((j + 1) * np.arange(np.prod(shapes[kind])) + j)
                       % len(values)].reshape(shapes[kind])
                for j, kind in enumerate(layout)]
        results = []
        for run in (lambda *a: _call(loop, layout, new, a), numpy_pass):
            copies = [a.copy() for a in args]
            with np.errstate(all="ignore"):
                out = run(*copies)
            out = (out,) if new == 1 and run is numpy_pass else out or ()
            written = [a for a, kind in zip(copies, layout) if kind == "w"]
            results.append([x.tobytes() for x in (*out, *written)])
        if results[0] != results[1]:
            return False
    return True


def _csv_probe(loop) -> bool:
    """Whether loop formats values at every edge of its algorithm as `%.17g`
    does: signed zeros, subnormals, values >= 1, powers of ten and their
    neighbours (the fixed/scientific switch at 1e-5/1e-4, two/three exponent
    digits at 1e-99/1e-100), dyadic values halfway between two 17-digit
    decimals, and seeded normal samples over 300 decades."""
    tens = np.array([0.1, 1e-4, 1e-5, 1e-99, 1e-100, 1e-300, 1e-323])
    # x 10^(16-X) = n + 1/2 exactly for x = m / 2^(17-X), m odd, X = -1 and -5
    ties = [m / 2.0**18 for m in range(26215, 26231, 2)] + [m / 2.0**22 for m in range(43, 59, 2)]
    v = np.concatenate([[0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.5, 1e300], tens,
                        np.nextafter(tens, 0.0), np.nextafter(tens, 1.0), ties,
                        _normals()[:25] * 10.0 ** -np.linspace(0, 300, 25).round()])
    values = np.concatenate([v, -v]).reshape(4, -1)
    labels = [f"{k},cos" for k in range(len(values))]
    return _csv_call(loop, values, labels) == b"".join(
        label.encode() + b"".join(b",%.17g" % x for x in row) + b"\r\n"
        for label, row in zip(labels, values.tolist()))
