"""Dense tensors with a record-replay gradient tape.

The tensor core is deliberately small: it provides exactly the primitives the
cross-aggregation attention graph needs (matmul, softmax, layer norm, GELU,
3x3 convolution, pixel shuffle, and the index/reshape plumbing between them),
each with a hand-derived backward rule. Tensors wrap contiguous numpy arrays,
are immutable once constructed, and carry either 32- or 64-bit IEEE-754
elements. Images use the channels-last layout [N, H, W, C].

Recording is opt-in: operations executed while a :class:`GradientTape` is
active append nodes to it, and :func:`backward` replays the tape in reverse
execution order (which is a valid reverse topological order) exactly once per
node, dropping each node as it goes.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GradientTape",
    "ShapeError",
    "GraphError",
    "OptimizerHyper",
    "AdamState",
    "matmul",
    "softmax_lastdim",
    "window_attention",
    "layer_norm",
    "gelu",
    "relu",
    "linear",
    "conv2d_3x3",
    "pixel_shuffle",
    "add",
    "sub",
    "mul",
    "reshape",
    "transpose",
    "narrow",
    "gather",
    "sum_all",
    "mean_all",
    "abs_val",
    "backward",
    "adam_step",
    "init_adam_state",
]

FLOAT_DTYPES = (np.float32, np.float64)

_uid_counter = itertools.count(1)

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# Above a stock forward pass's working set, so the op outputs freed between
# ops stay in the heap for the next op instead of being trimmed and faulted in
# again.
_MALLOC_TRIM_THRESHOLD = 1 << 30
# glibc's 64-bit ceiling for its dynamic threshold: arrays above it are still
# mmapped and returned to the OS when freed.
_MALLOC_MMAP_THRESHOLD = 32 << 20


def _pin_malloc_thresholds() -> None:
    """Fix glibc's heap-trim and mmap thresholds, and its arena count, for
    this process.

    With glibc's defaults (a dynamic mmap threshold, and a trim threshold that
    follows it) the op outputs freed between ops are handed back to the OS and
    faulted in again by the next op: about 10^5 minor faults per stock-width
    forward pass, a count that moves with whatever allocation sits at the top
    of the heap. Resident memory now stays at the process's peak heap use
    instead. One arena serves every thread: an op's worker threads would
    otherwise each allocate from an arena of their own, whose freed chunks
    no other thread reuses (4-6 MiB more resident memory in a stock
    forward). Without ``mallopt`` (not glibc) nothing is changed, and a
    rejected value is ignored.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _MALLOC_TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MALLOC_MMAP_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


_pin_malloc_thresholds()


# ---------------------------------------------------------------------------
# Worker threads
# ---------------------------------------------------------------------------

_POOL = None  # (ThreadPoolExecutor, its thread count), made on first use
_POOL_LOCK = threading.Lock()
_POOL_THREAD = threading.local()


def _blas_threads() -> int:
    """The threads OpenBLAS runs a GEMM on, as it reads them when numpy
    loads: OPENBLAS_NUM_THREADS, else GOTO_NUM_THREADS, else
    OMP_NUM_THREADS; 0 when none is set and it takes one per CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return 0


_BLAS_THREADS = _blas_threads()


def _cpus() -> int:
    """The CPUs this process may run on, divided by BLAS's threads per GEMM:
    every CPU for the ops when BLAS runs one thread, and one when BLAS takes
    every CPU (op threads beside BLAS's own slowed the forward)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, cpus // min(cpus, _BLAS_THREADS or cpus))


def _workers() -> int:
    """The threads an op splits its work over: ``_cpus()``, and one on a
    pool thread, so that a pool thread never waits on its own pool."""
    return 1 if getattr(_POOL_THREAD, "marked", False) else _cpus()


def _mark_pool_thread() -> None:
    _POOL_THREAD.marked = True


def _forget_pool() -> None:
    # A forked child has none of its parent's pool threads, and the lock may
    # have been held by one of its other threads; it makes its own.
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _split(tasks: int, fn: Callable[[int], None]) -> None:
    """Run ``fn(i)`` for each task i in [0, tasks) on min(tasks, _workers())
    workers, the calling thread and pool threads, each pulling the next
    unstarted task from one counter, so that a worker the host slows holds
    back one task, not a fixed share. Once a task raises, no worker starts
    another; it returns when every task in flight has finished, and then
    re-raises the first exception. On one worker the tasks run inline, in
    order. The pool, and ``concurrent.futures``, are made on first use."""
    global _POOL
    pending, errors, futures = itertools.count(), [], []

    def work() -> None:
        for i in pending:  # one C call per task, atomic under the GIL
            if i >= tasks or errors:
                return
            try:
                fn(i)
            except BaseException as error:
                errors.append(error)

    workers = min(tasks, _workers())
    if workers > 1:
        with _POOL_LOCK:
            if _POOL is None or _POOL[1] < workers - 1:
                from concurrent.futures import ThreadPoolExecutor

                # A smaller pool this replaces ends its threads once collected.
                _POOL = (ThreadPoolExecutor(workers - 1, "crossagg", initializer=_mark_pool_thread), workers - 1)
            futures = [_POOL[0].submit(work) for _ in range(workers - 1)]
    work()
    for future in futures:
        future.result()
    if errors:
        raise errors[0]


def _pieces(total: int, most: int, workers: int) -> int:
    """How many near-equal pieces (piece i spanning [i * total // pieces,
    (i + 1) * total // pieces)) split ``total`` units with at most ``most``
    units each: one, or a multiple of ``workers``, so that they balance
    over the workers, up to one unit per piece."""
    pieces = -(-total // max(1, most))
    if pieces < 2:
        return 1
    return min(total, -(-pieces // workers) * workers)


class ShapeError(ValueError):
    """Shape, extent, or dtype mismatch between operands."""


class GraphError(RuntimeError):
    """Violation of the gradient-tape contract (e.g. non-scalar loss)."""


class Tensor:
    """Immutable dense array value.

    ``data`` is a contiguous, write-protected numpy array of float32 or
    float64 elements. Construction copies its argument, so later mutation of
    the source buffer is never observable through the tensor.
    """

    __slots__ = ("data", "uid")

    def __init__(self, data, dtype=None):
        arr = np.array(data, dtype=dtype, copy=True)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "uid", next(_uid_counter))

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Writable copy of the underlying data."""
        return np.array(self.data, copy=True)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


def _freeze(arr: np.ndarray) -> Tensor:
    t = Tensor.__new__(Tensor)
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    object.__setattr__(t, "data", arr)
    object.__setattr__(t, "uid", next(_uid_counter))
    return t


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------

_ACTIVE_TAPES: list["GradientTape"] = []


@dataclass
class _Node:
    out_uid: int
    input_uids: tuple[int, ...]
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]


class GradientTape:
    """Records primitive applications for reverse-mode differentiation.

    A tape is single-writer: record (by running ops inside its ``with`` block)
    and call :func:`backward` from one logical thread of control. Gradients
    are returned for watched tensors only; a watched tensor with no path to
    the loss gets an exact zero gradient. ``uid`` is never shared with another
    tape or tensor, so caches of recorded values can key on it.
    """

    def __init__(self):
        self.uid = next(_uid_counter)
        self._nodes: list[_Node] = []
        self._watched: dict[int, Tensor] = {}
        self._tracked: set[int] = set()
        self._replayed = False

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE_TAPES.pop()
        if popped is not self:
            raise GraphError("tape exit out of order")
        return False

    def watch(self, *tensors: Tensor | Iterable[Tensor]):
        for t in tensors:
            if isinstance(t, Tensor):
                self._watched[t.uid] = t
                self._tracked.add(t.uid)
            else:
                self.watch(*t)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn):
        if any(t.uid in self._tracked for t in inputs):
            self._tracked.add(out.uid)
            self._nodes.append(_Node(out.uid, tuple(t.uid for t in inputs), backward_fn))


def _tape() -> GradientTape | None:
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn):
    tape = _tape()
    if tape is not None:
        tape._record(out, inputs, backward_fn)


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` would be recorded on the active tape."""
    tape = _tape()
    return tape is not None and any(t.uid in tape._tracked for t in inputs)


def backward(tape: GradientTape, loss: Tensor) -> dict[Tensor, Tensor]:
    """Accumulate d(loss)/d(p) for every watched tensor p on the tape.

    The replay consumes the tape: each node is dropped, with its closure and
    the forward arrays it saved, once it has run, so the backward's peak
    memory is not the whole taped forward plus every gradient. A second call
    on the same tape raises GraphError."""
    if loss.size != 1:
        raise GraphError(f"backward expects a scalar loss, got shape {loss.shape}")
    if tape._replayed:
        raise GraphError("backward already replayed this tape; record the forward on a new tape")
    if loss.uid not in tape._tracked:
        raise GraphError("loss was not recorded on this tape")
    tape._replayed = True
    grads: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
    while tape._nodes:
        node = tape._nodes.pop()
        g_out = grads.pop(node.out_uid, None)
        if g_out is None:
            continue
        for uid, g_in in zip(node.input_uids, node.backward_fn(g_out)):
            if g_in is None:
                continue
            held = grads.get(uid)
            grads[uid] = g_in if held is None else held + g_in
    result: dict[Tensor, Tensor] = {}
    for uid, t in tape._watched.items():
        g = grads.get(uid)
        result[t] = _freeze(np.zeros_like(t.data) if g is None else np.asarray(g))
    return result


# ---------------------------------------------------------------------------
# Shape / dtype validation helpers
# ---------------------------------------------------------------------------


def _check_same_dtype(*tensors: Tensor):
    dts = {t.dtype for t in tensors}
    if len(dts) > 1:
        raise ShapeError(f"mixed dtypes {sorted(d.name for d in dts)}; cast operands explicitly")


def _check_axis(op: str, axis: int, ndim: int) -> int:
    """Return ``axis`` as a non-negative index, rejecting one outside [-ndim, ndim)."""
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} out of range for rank {ndim}")
    return axis % ndim


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    try:
        out = _freeze(a.data + b.data)
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    _record(out, (a, b), lambda g, sa=a.shape, sb=b.shape: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    try:
        out = _freeze(a.data - b.data)
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None
    _record(out, (a, b), lambda g, sa=a.shape, sb=b.shape: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    """Elementwise product of two tensors, or of a tensor and a scalar."""
    if not isinstance(b, Tensor):
        s = float(b)
        out = _freeze(a.data * s)
        _record(out, (a,), lambda g, s=s: (g * s,))
        return out
    _check_same_dtype(a, b)
    try:
        out = _freeze(a.data * b.data)
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g, ta=a, tb=b):
        return (_unbroadcast(g * tb.data, ta.shape), _unbroadcast(g * ta.data, tb.shape))

    _record(out, (a, b), bwd)
    return out


def relu(x: Tensor) -> Tensor:
    out = _freeze(np.maximum(x.data, 0))
    _record(out, (x,), lambda g, xd=x.data: (g * (xd > 0),))
    return out


def abs_val(x: Tensor) -> Tensor:
    out = _freeze(np.abs(x.data))
    _record(out, (x,), lambda g, xd=x.data: (g * np.sign(xd),))
    return out


# Byte budget of one chunk of window_attention's logits and projected rows,
# of one band of conv2d_3x3's padded rows and products, of one band of the
# per-pixel maps ``_bands`` holds at once, or of gelu's cdf and scratch in
# either direction. Chunks and bands are independent, so the size bounds
# memory without changing a single output bit; 256 KiB to 4 MiB measured the
# same speed.
WINDOW_CHUNK_BYTES = 1 << 20

# float32 erf(x / sqrt(2)) = K u N(s) / D(s) with u = x clipped to +-4 sqrt(2)
# and s = u * u: the odd/even [-4, 4] rational of Eigen's float32 erf, with
# 1/sqrt(2) folded in and N, D monic (degrees 6 and 4). The coefficients are a
# minimax fit of the relative error, rounded to float32 one at a time with the
# rest refitted; its value at the clip is exactly +-1, so the cdf beyond it is
# exactly 0 or 1 (the true erf is within 1.6e-8 of +-1 there). Evaluated in
# float32 it stays within 7 ulp and 4.2e-7 of the exact erf (24M samples of
# erf's argument over [-6, 6]).
_ERF_CLIP = np.float32(4.0 * math.sqrt(2.0))
_ERF_NUM = np.array(  # s^0 ... s^5
    [3.7787144e09, 3.467785e08, 4.313446e07, 1.6701101e06, 30822.852, -203.25487], dtype=np.float32
)
_ERF_DEN = np.array([15672.249, 4050.2917, 462.1857, 29.300085], dtype=np.float32)  # s^0 ... s^3
_ERF_HALF_K = np.float32(3.309232624815195e-06 / 2)


def _half_erf_f32(x: np.ndarray, out: np.ndarray, s: np.ndarray, p: np.ndarray) -> None:
    """erf(x / sqrt(2)) / 2 of float32 ``x`` into ``out``, in place through the
    scratch arrays ``s`` and ``p`` (all of x's size): 23 passes, no temporaries."""
    np.clip(x, -_ERF_CLIP, _ERF_CLIP, out=out)
    np.multiply(out, out, out=s)
    np.add(s, _ERF_NUM[-1], out=p)
    for a in _ERF_NUM[-2::-1]:
        p *= s
        p += a
    p *= out
    np.add(s, _ERF_DEN[-1], out=out)
    for b in _ERF_DEN[-2::-1]:
        out *= s
        out += b
    np.divide(p, out, out=out)
    out *= _ERF_HALF_K


# float64 erf, transcribed from cephes ndtr.c (Moshier, "Methods and Programs
# for Mathematical Functions", 1989) in its operation order, so it is the
# erf of scipy.special bit for bit: u T(u^2) / U(u^2) for |u| <= 1 (T of
# degree 4, U monic of degree 5), 1 - exp(-u^2) P(|u|) / Q(|u|) for
# 1 < |u| < 6 (P of degree 8, Q monic of degree 8), odd in u. At |u| >= 6 erfc
# is below 2^-54, so 1 - erfc rounds to exactly 1 and cephes' third rational
# (|u| >= 8) is never needed.
_ERF_T = np.array([9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
                   7.00332514112805075473e3, 5.55923013010394962768e4])  # u^8 ... 1
_ERF_U = np.array([3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
                   2.26290000613890934246e4, 4.92673942608635921086e4])  # u^8 ... 1 (u^10 has 1)
_ERFC_P = np.array([2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
                    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
                    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2])  # |u|^8 ... 1
_ERFC_Q = np.array([1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
                    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
                    1.65666309194161350182e3, 5.57535340817727675546e2])  # |u|^7 ... 1 (|u|^8 has 1)


def _erf_f64(u: np.ndarray, out: np.ndarray, s: np.ndarray, p: np.ndarray) -> None:
    """erf of float64 ``u`` into ``out`` (which may be ``u``), through the
    scratch arrays ``s`` and ``p`` (all of u's size); NaN stays NaN."""
    np.abs(u, out=p)
    far = np.flatnonzero(p > 1.0)
    uf = u[far]
    # |u| clamped to 1, so that large and infinite u raise no inf / inf.
    np.clip(u, -1.0, 1.0, out=s)
    np.multiply(s, s, out=p)
    np.multiply(p, _ERF_T[0], out=out)
    out += _ERF_T[1]
    for t in _ERF_T[2:]:
        out *= p
        out += t
    out *= s
    np.add(p, _ERF_U[0], out=s)
    for c in _ERF_U[1:]:
        s *= p
        s += c
    out /= s
    if far.size:
        a = np.abs(uf)
        mid = np.flatnonzero(a < 6.0)
        x = a[mid]
        num = np.full_like(x, _ERFC_P[0])
        den = x + _ERFC_Q[0]
        for c in _ERFC_P[1:]:
            num *= x
            num += c
        for c in _ERFC_Q[1:]:
            den *= x
            den += c
        # The C library's exp (math.exp), as cephes calls it: numpy's own SIMD
        # float64 exp differs from it by 1 ulp on a few percent of arguments.
        erfc = np.fromiter(map(math.exp, (-(x * x)).tolist()), np.float64, x.size)
        erfc *= num
        erfc /= den
        a.fill(1.0)
        a[mid] -= erfc
        out[far] = np.copysign(a, uf)


def _gelu_chunks(xd: np.ndarray, body: Callable) -> None:
    """Call ``body(start, xs, cdf, spare)`` on each chunk of ``xd``, on the
    calling thread: the chunk's flat offset, its elements, their cdf 0.5 *
    (1 + erf(x / sqrt(2))) through ``_erf_f64`` or ``_half_erf_f32``, and a
    scratch array of the chunk's size. The chunks are of near-equal size;
    one cdf and scratch buffer is overwritten by each next chunk. The
    elementwise passes give the same bits in any chunking."""
    # The chunk's cdf and the erf's two scratch arrays share the budget: the
    # erf's passes then run in L2, about 15% faster than a budget each. The
    # chunks are not split over the workers: two threads interleaving these
    # short passes ran no faster than one.
    chunks = _pieces(xd.size, WINDOW_CHUNK_BYTES // (3 * xd.itemsize), 1)
    flat = xd.reshape(-1)
    buf = np.empty((3, -(-xd.size // chunks)), dtype=xd.dtype)
    for i in range(chunks):
        start = i * xd.size // chunks
        xs = flat[start : (i + 1) * xd.size // chunks]
        c, scratch = buf[0, : xs.size], buf[1:, : xs.size]
        if xd.dtype == np.float32:
            _half_erf_f32(xs, c, *scratch)
            c += 0.5
        else:
            np.divide(xs, np.sqrt(xd.dtype.type(2.0)), out=c)
            _erf_f64(c, c, *scratch)
            c += 1.0
            c *= 0.5
        body(start, xs, c, scratch[0])


def _gelu_grad(g: np.ndarray, xd: np.ndarray) -> np.ndarray:
    """g * gelu'(x) = g * (cdf + x * pdf), a chunk at a time, the cdf rebuilt
    in chunks as in the forward. The pdf is exactly 0 beyond |x| = 40 in
    both dtypes (exp(-800) underflows), so x clipped there gives the same
    x * pdf for every finite x, and 0, not inf * 0 = NaN, at x = +-inf."""
    out = np.empty_like(xd)
    flat, gf = out.reshape(-1), g.reshape(-1)

    def chunk(start, xs, c, xc):
        o = flat[start : start + xs.size]
        np.clip(xs, -40.0, 40.0, out=xc)
        np.multiply(xc, -0.5, out=o)
        o *= xc
        np.exp(o, out=o)
        o *= xd.dtype.type(1.0 / math.sqrt(2.0 * math.pi))
        o *= xc
        o += c
        o *= gf[start : start + xs.size]

    _gelu_chunks(xd, chunk)
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact erf-based GELU, x * cdf with cdf = 0.5 * (1 + erf(x / sqrt(2))), a
    chunk at a time into a fresh output. float64 takes the cephes erf of
    ``_erf_f64`` (scipy's, bit for bit), float32 the rational of
    ``_half_erf_f32``. A tape keeps only ``x``: the backward rebuilds each
    chunk's cdf (the same passes, so the same bits).
    gelu(-inf) is -0, and the gradient there 0."""
    out = np.empty_like(x.data)
    flat, lowest = out.reshape(-1), -np.finfo(x.dtype).max

    def chunk(start, xs, c, _):
        # x * cdf, with -inf raised to the lowest finite value so that it
        # gives -0 and not -inf * 0 = NaN; finite x and NaN pass unchanged.
        o = flat[start : start + xs.size]
        np.maximum(xs, lowest, out=o)
        o *= c

    _gelu_chunks(x.data, chunk)
    result = _freeze(out)
    _record(result, (x,), lambda g, xd=x.data: (_gelu_grad(g, xd),))
    return result


def softmax_lastdim(x: Tensor) -> Tensor:
    """Stabilized softmax over the last dimension; each slice sums to 1."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _freeze(y)

    def bwd(g, y=y):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    _record(out, (x,), bwd)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last (channel) dimension to zero mean / unit variance, then apply affine."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match channel extent {c}")
    _check_same_dtype(x, gamma, beta)
    rows = x.data.reshape(-1, c)
    xhat, buf = np.empty_like(x.data), np.empty_like(x.data)
    inv = np.empty(x.shape[:-1] + (1,), dtype=x.dtype)
    # Row ranges, split over the workers; each row is normalised on its own.
    workers = _workers()
    parts = _pieces(rows.shape[0], WINDOW_CHUNK_BYTES // (workers * c * x.dtype.itemsize), workers)

    def normalise(i: int) -> None:
        r = slice(i * rows.shape[0] // parts, (i + 1) * rows.shape[0] // parts)
        xh, o, iv = xhat.reshape(-1, c)[r], buf.reshape(-1, c)[r], inv.reshape(-1, 1)[r]
        _normalise(rows[r], gamma.data, beta.data, eps, xh, o, iv)

    _split(parts, normalise)
    out = _freeze(buf)

    def bwd(g, xhat=xhat, inv=inv, gd=gamma.data, c=c):
        lead = tuple(range(g.ndim - 1))
        dbeta = g.sum(axis=lead)
        dgamma = (g * xhat).sum(axis=lead)
        dxhat = g * gd
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return (dx, dgamma, dbeta)

    _record(out, (x, gamma, beta), bwd)
    return out


def _normalise(xs, gd, bd, eps, xh, o, iv) -> None:
    """``layer_norm``'s body, row by row: x-hat into ``xh``, 1 / std into ``iv``, the output into ``o``."""
    np.subtract(xs, xs.mean(axis=-1, keepdims=True), out=xh)
    np.multiply(xh, xh, out=o)
    np.divide(1.0, np.sqrt(o.mean(axis=-1, keepdims=True) + xs.dtype.type(eps)), out=iv)
    xh *= iv
    np.multiply(xh, gd, out=o)
    o += bd


def _band_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """``layer_norm`` untaped, as one call of its body: no split, same bits."""
    rows = x.data.reshape(-1, x.shape[-1])
    out = np.empty_like(rows)
    _normalise(rows, gamma.data, beta.data, eps, np.empty_like(rows), out, np.empty((len(rows), 1), x.dtype))
    return _freeze(out.reshape(x.shape))


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two dimensions, broadcasting leading ones."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ for shapes {a.shape} and {b.shape}")
    _check_same_dtype(a, b)
    try:
        out = _freeze(np.matmul(a.data, b.data))
    except ValueError:
        raise ShapeError(f"matmul: batch dims of {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g, ad=a.data, bd=b.data, sa=a.shape, sb=b.shape):
        ga = np.matmul(g, bd.swapaxes(-1, -2))
        gb = np.matmul(ad.swapaxes(-1, -2), g)
        return (_unbroadcast(ga, sa), _unbroadcast(gb, sb))

    _record(out, (a, b), bwd)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the last dimension: x @ weight + bias, one GEMM into a
    fresh buffer plus an in-place bias add, bit-identical to the composed
    reshape, matmul, reshape and add. The block's per-pixel GEMMs split over
    the workers through ``_bands``."""
    if weight.ndim != 2:
        raise ShapeError(f"linear: weight must be rank 2, got {weight.shape}")
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear: input shape {x.shape} does not match weight shape {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear: bias shape {bias.shape} does not match weight shape {weight.shape}")
    _check_same_dtype(x, weight, bias)
    cin, cout = weight.shape
    out = np.empty(x.shape[:-1] + (cout,), dtype=x.dtype)
    np.matmul(x.data.reshape(-1, cin), weight.data, out=out.reshape(-1, cout))
    out += bias.data
    result = _freeze(out)
    _record(result, (x, weight, bias), lambda g, xd=x.data, wd=weight.data: _affine_grads(g, xd, wd))
    return result


# The ops of an untaped band on a pool thread, as defined here: a tracer that
# rebinds the module's names (one span stack, kept by the calling thread)
# leaves these references alone. Layer norm is its unsplit body.
_PLAIN_OPS = SimpleNamespace(linear=linear, gelu=gelu, add=add, layer_norm=_band_layer_norm)


def _bands(
    inputs: Sequence[Tensor], weights: Sequence[Tensor], width: int, chain: Callable, residual: Tensor | None = None
) -> Tensor:
    """``chain(ops, *inputs)``, plus ``residual`` if given: a per-pixel map
    through the ``ops`` ``linear``, ``gelu``, ``add`` and ``layer_norm``,
    reading ``weights``, the last of which is its output bias. Untaped, the
    workers pull bands of pixels (``_split``) of ``width`` elements a pixel
    (what a band holds at once) within WINDOW_CHUNK_BYTES, and each band's
    output plus its rows of ``residual`` goes straight into its rows of the
    result. No op splits inside a band: ``linear`` is one GEMM, ``gelu``
    runs its chunks inline and ``layer_norm`` is its unsplit body. The
    calling thread runs the other ops by module name, as a tracer may have
    rebound them; a pool thread runs ``_PLAIN_OPS``. The band count depends
    on the shape alone and rows are independent, so the bits are those of
    one full-size pass at any worker count; bands are balanced because a
    GEMM of a few rows (up to 7 with OpenBLAS) takes another kernel. Under a
    tape the map is one call of the module's ops, then ``add``: the tape
    keeps every band's activations anyway, and a band sliced from the input
    would get a full-size input gradient."""
    x, ops = inputs[0], SimpleNamespace(linear=linear, gelu=gelu, add=add, layer_norm=layer_norm)
    if _recording((*inputs, *weights, *(() if residual is None else (residual,)))):
        out = chain(ops, *inputs)
        return out if residual is None else add(out, residual)
    ops.layer_norm = _band_layer_norm
    rows = [t.data.reshape(-1, t.shape[-1]) for t in inputs]
    n = len(rows[0])
    bands = min(n, -(-n * width * x.dtype.itemsize // WINDOW_CHUNK_BYTES))
    out = np.empty((n, weights[-1].shape[0]), dtype=x.dtype)
    res = None if residual is None else residual.data.reshape(out.shape)

    def run(i: int) -> None:
        band = slice(i * n // bands, (i + 1) * n // bands)
        here = _PLAIN_OPS if getattr(_POOL_THREAD, "marked", False) else ops
        y = chain(here, *(_freeze(r[band]) for r in rows)).data  # each band is a view, not a copy
        if res is None:
            out[band] = y
        else:
            np.add(y, res[band], out=out[band])

    _split(bands, run)
    return _freeze(out.reshape(x.shape[:-1] + (out.shape[1],)))


def _affine_grads(g: np.ndarray, xd: np.ndarray, wd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients of x, the weight and the bias of ``x @ wd + bias``
    from the output gradient ``g``: two 2-D GEMMs and a sum over rows."""
    cin, cout = wd.shape
    g2 = g.reshape(-1, cout)
    gx = np.matmul(g2, wd.swapaxes(-1, -2)).reshape(xd.shape)
    gw = np.matmul(xd.reshape(-1, cin).swapaxes(-1, -2), g2)
    return (gx, gw, _unbroadcast(g, (cout,)))


# Finite additive mask: large enough to underflow to an exact softmax zero,
# finite so the stabilizing max subtraction never produces (-inf) - (-inf).
MASK_VALUE = -1e9
# The elements of one block of a chunk's shift mask, [keys, windows, n].
_MASK_ELEMENTS = 1 << 14


def window_attention(
    x: Tensor, w_qk: Tensor, b_qk: Tensor, v: Tensor, windows: Sequence[tuple], scale: float, weights: bool = False
):
    """Window attention ``softmax(scale * q k^T + bias + mask) v`` of every
    head orientation, read from and written to full-resolution maps, with
    the queries and keys projected inside the op.

    ``x`` is [N, H, W, Cin]; ``q | k = x @ w_qk + b_qk`` with ``w_qk`` [Cin,
    2C] and ``b_qk`` [2C], the queries in the first C columns and the keys in
    the last C; ``v`` is [N, H, W, C]. ``windows`` holds one ``(index, own,
    regions, bias)`` per orientation, in head order: the maps of
    :func:`windowing.window_maps` and that orientation's bias. ``index``
    [nw, n] is the pixel each window slot reads; ``own`` [nw, n] bool marks
    the one slot per pixel that holds its own copy, the others holding
    copies reflected by the pad; ``regions`` [nw, n] (no gradient) the
    shift-mask region id of each slot. ``bias`` is keys-major, [n_k, heads,
    n_q] (entry (j, m, i) is head m's bias from query i to key j), is shared
    by every window, and gets its gradient in the same layout. An
    orientation owns the heads, of d = C / (all heads) channels each, that
    follow the previous orientation's. The mask adds MASK_VALUE to the logit
    of every pixel pair whose region ids differ, through a float mask built
    per chunk; a chunk in which every window holds one id (as in an
    unshifted geometry, whose ids are all 0) gets no mask.

    Per orientation the op takes its heads' Q and K columns of ``w_qk`` and
    ``b_qk`` once. Then, a chunk of windows at a time, it gathers the chunk's
    rows of ``x`` and projects them into chunk-sized scratch with one GEMM
    plus the bias, gathers the chunk's V from ``v``, and writes each own
    slot's output into the [N, H, W, C] result at its pixel; no Q|K map
    and no map in the window layout exists at full size. A reflected pixel
    is projected once per slot that reads it. Each Q and K element is the
    same row-times-column sum as in one GEMM over the whole map, but OpenBLAS
    may round a row of one GEMM shape in another kernel than the same row of
    another, so the chunking can move the last bit of a Q or K element (seen
    with C = 48 and 8-pixel windows, not with the stock C = 180). The logits
    are held keys-major, [n_k, windows, heads, n_q], so that the bias add,
    the row max, its subtraction and the exp are each one numpy call over
    long contiguous runs. The scale goes into one scaled copy of q^T, and the
    softmax is not normalized: one GEMM of the exponentials E against ``[v |
    1]`` gives both E v and, in its last column, each row's normaliser s, and
    the division by s runs over the [n, d] output. This reassociates the
    composed formula (matmul, mul, add, add, softmax, matmul) within float
    rounding; the result does not depend on whether a tape records the op.

    The [N * nw, heads, n, n] probabilities E / s of each orientation are
    kept only when a tape records the op or ``weights`` is set; then ``(out,
    p_0, p_1, ...)`` is returned, one read-only array per orientation. A tape
    also keeps ``x`` and ``v`` (not Q|K): the backward projects and gathers
    each chunk again and writes each own slot's dq, dk and dv at its pixel;
    once every own slot is written, it adds each reflected slot's to the
    pixel the slot reads (the adjoint of the reflect pad), and turns the
    assembled [N, H, W, 2C] dq|dk into the gradients of ``x``, ``w_qk`` and
    ``b_qk`` with the GEMMs of :func:`linear`'s backward.
    """
    if x.ndim != 4 or v.ndim != 4 or x.shape[:3] != v.shape[:3]:
        raise ShapeError(f"window_attention: x {x.shape} and v {v.shape} are not [N, H, W, Cin] and [N, H, W, C]")
    nb, h, w, c = v.shape
    if w_qk.shape != (x.shape[3], 2 * c) or b_qk.shape != (2 * c,):
        raise ShapeError(
            f"window_attention: w_qk {w_qk.shape} and b_qk {b_qk.shape} do not map {x.shape[3]} to 2 * {c} channels"
        )
    biases = [entry[3] for entry in windows]
    heads = [bias.shape[1] if bias.ndim == 3 else 0 for bias in biases]
    if not windows or min(heads) < 1 or c % sum(heads):
        raise ShapeError(f"window_attention: biases {[b.shape for b in biases]} do not split {c} channels into heads")
    for index, own, regions, bias in windows:
        nw, n = index.shape
        if bias.shape != (n, bias.shape[1], n) or regions.shape != index.shape:
            raise ShapeError(f"window_attention: bias {bias.shape} or regions {regions.shape} do not fit {index.shape}")
        if own.shape != index.shape or not 0 <= index.min() <= index.max() < h * w:
            raise ShapeError(f"window_attention: maps {index.shape} and {own.shape} do not fit a {h}x{w} map")
        # The output and the Q|K and V gradients are written once per own slot.
        if np.count_nonzero(own) != h * w or not np.bincount(index[own], minlength=h * w).all():
            raise ShapeError(f"window_attention: own does not mark one slot per pixel of a {h}x{w} map")
    _check_same_dtype(x, w_qk, b_qk, v, *biases)
    scale = float(scale)
    dtype, total = v.dtype, sum(heads)
    d = c // total
    out = np.empty_like(v.data)
    inputs = (x, w_qk, b_qk, v, *biases)
    keep = weights or _recording(inputs)
    probs, first = [], 0
    for (*maps, bias), m in zip(windows, heads):
        nw, n = maps[0].shape
        probs.append(np.empty((nb * nw, m, n, n), dtype=dtype) if keep else None)
        qk_o = _orientation_qk(w_qk.data, b_qk.data, first, m, d)
        _attend_windows(x.data, qk_o, v.data, out, maps, bias.data, first, d, scale, probs[-1])
        first += m
    result = _freeze(out)

    def bwd(g, xd=x.data, wd=w_qk.data, bd=b_qk.data, vd=v.data, probs=probs):
        # Every channel belongs to one orientation, which writes it.
        dqk, dv = np.empty(vd.shape[:3] + (2 * c,), dtype=vd.dtype), np.empty_like(vd)
        dbiases, first = [], 0
        for (*maps, _), m, p in zip(windows, heads, probs):
            qk_o = _orientation_qk(wd, bd, first, m, d)
            dbiases.append(_window_grads(g, xd, qk_o, vd, (dqk, dv), maps, p, first, d, scale))
            first += m
        return (*_affine_grads(dqk, xd, wd), dv, *dbiases)

    _record(result, inputs, bwd)
    if not weights:
        return result
    for p in probs:
        p.setflags(write=False)
    return (result, *probs)


def _orientation_qk(wd: np.ndarray, bd: np.ndarray, first: int, heads: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The Q then K columns of heads [first, first + heads), d channels each,
    of a [Cin, 2C] weight and its [2C] bias, as one [Cin, 2 * heads * d]
    weight and its bias."""
    c = bd.shape[0] // 2
    lo, hi = first * d, (first + heads) * d
    return (
        np.concatenate([wd[:, lo:hi], wd[:, c + lo : c + hi]], axis=1),
        np.concatenate([bd[lo:hi], bd[c + lo : c + hi]]),
    )


def _project_chunk(x_rows, qk_o, pix, xw, proj, heads, d):
    """Q and K, [windows, heads, n, d] views into ``proj``, of the windows
    whose slots read the pixels ``pix`` [windows, n]: their rows of ``x``
    gathered into ``xw``, then one GEMM plus the bias."""
    rows = pix.size
    np.take(x_rows, pix.ravel(), axis=0, out=xw[:rows], mode="clip")
    np.matmul(xw[:rows], qk_o[0], out=proj[:rows])
    proj[:rows] += qk_o[1]
    qk = proj[:rows].reshape(pix.shape + (2, heads, d)).transpose(2, 0, 3, 1, 4)
    return qk[0], qk[1]


def _attend_windows(xd, qk_o, vd, out, maps, bias, first, d, scale, probs) -> None:
    """One orientation's part of :func:`window_attention`, in chunks of
    windows that the workers pull, each with its own scratch: heads [first,
    first + bias.shape[1]) of d channels, their Q and K projected from ``xd``
    by ``qk_o`` (weight, bias), written into ``out``; the probabilities go
    into ``probs`` unless it is None. The chunk size depends on the shape
    alone."""
    index, own, regions = maps
    nb, h, w, c = vd.shape
    (nw, n), m, total, dtype = index.shape, bias.shape[1], c // d, vd.dtype
    b = nb * nw
    # Rows of d channels: v and out hold total of them per pixel.
    x_rows, v_data, out_rows = xd.reshape(-1, xd.shape[3]), vd.reshape(-1, d), out.reshape(-1, total, d)
    # A chunk's logits and its gathered and projected rows, n * (m * n + cin +
    # 2 * m * d) elements per window, within the budget.
    step = max(1, WINDOW_CHUNK_BYTES // (n * (m * n + x_rows.shape[1] + 2 * m * d) * dtype.itemsize))

    def attend(i: int) -> None:
        start, stop = i * step, min((i + 1) * step, b)
        cs = stop - start
        xw = np.empty((cs * n, x_rows.shape[1]), dtype=dtype)  # gathered rows of x
        proj = np.empty((cs * n, 2 * m * d), dtype=dtype)  # their q | k
        e = np.empty((n, cs, m, n), dtype=dtype)  # the logits, keys-major
        q_t = np.empty((cs, m, d, n), dtype=dtype)  # scale * q^T
        v_ones = np.empty((cs, m, n, d + 1), dtype=dtype)  # [v | 1]
        v_ones[..., d] = 1
        ev = np.empty((cs, m, n, d + 1), dtype=dtype)  # [E v | s]
        y = np.empty((cs, n, m, d), dtype=dtype)  # pixel-major, as the output map
        window, pix, v_rows = _chunk_rows(index, start, stop, h * w, total, first, m)
        q, k = _project_chunk(x_rows, qk_o, pix, xw, proj, m, d)
        np.multiply(q.swapaxes(-1, -2), scale, out=q_t)
        np.matmul(k, q_t, out=e.transpose(1, 2, 0, 3))
        e += bias[:, None]
        r = regions[window]
        if np.any(r != r[:, :1]):  # most windows hold one region and need no mask
            # Built as a product: np.where and a masked np.add measured 2-25x
            # slower. A block of key rows at a time, so that the comparison
            # and the product stay small.
            keys = max(1, _MASK_ELEMENTS // r.size)
            for j in range(0, n, keys):
                e[j : j + keys] += ((r.T[j : j + keys, :, None] != r) * dtype.type(MASK_VALUE))[:, :, None]
        e -= e.max(axis=0)
        np.exp(e, out=e)
        np.take(v_data, v_rows, axis=0, out=v_ones[..., :d], mode="clip")
        np.matmul(e.transpose(1, 2, 3, 0), v_ones, out=ev)
        s = ev[..., d:]
        np.divide(ev[..., :d], s, out=y.transpose(0, 2, 1, 3))
        if probs is not None:
            np.divide(e.transpose(1, 2, 3, 0), s, out=probs[start:stop])
        mine = own[window]
        if mine.all():
            out_rows[pix.ravel(), first : first + m] = y.reshape(-1, m, d)
        else:
            out_rows[pix[mine], first : first + m] = y[mine]

    _split(-(-b // step), attend)


def _window_grads(g, xd, qk_o, vd, grads, maps, p, first, d, scale) -> np.ndarray:
    """The backward of one orientation's part of :func:`window_attention`,
    heads [first, first + p.shape[1]) of d channels: writes their channels of
    the Q|K and V gradients into ``grads`` and returns their bias gradient. A
    chunk of windows at a time it projects Q and K and gathers V again, and
    the output gradient at each own slot's pixel (a reflected copy gets
    none), and writes each own slot's dq, dk and dv at its pixel. Those of
    the reflected slots are added to the pixels they read once every own
    slot is written: the adjoint of the reflect pad."""
    dqk, dv = grads
    index, own, _ = maps
    nb, h, w, c = dv.shape
    (nw, n), m, total = index.shape, p.shape[1], c // d
    g_rows = g.reshape(-1, total, d)
    x_rows, v_data = xd.reshape(-1, xd.shape[3]), vd.reshape(-1, d)
    # Its heads' rows of dq, dk and dv, [N * H * W, heads, d] views.
    qk_rows, heads = dqk.reshape(-1, 2 * total, d), slice(first, first + m)
    dst = (qk_rows[:, heads], qk_rows[:, total + first : total + first + m], dv.reshape(-1, total, d)[:, heads])
    reflected = []  # the pixels and the dq, dk and dv of the reflected slots
    dbias = np.zeros((n, m, n), dtype=g.dtype)
    # Chunks of logits alone: the bias gradient is summed chunk by chunk, so
    # this chunking fixes its bits.
    step = max(1, WINDOW_CHUNK_BYTES // (m * n * n * g.itemsize))
    chunk = min(step, nb * nw)
    xw = np.empty((chunk * n, x_rows.shape[1]), dtype=g.dtype)
    proj = np.empty((chunk * n, 2 * m * d), dtype=g.dtype)
    for start in range(0, nb * nw, step):
        stop = min(start + step, nb * nw)
        window, pix, v_rows = _chunk_rows(index, start, stop, h * w, total, first, m)
        q, k = _project_chunk(x_rows, qk_o, pix, xw, proj, m, d)
        vw = np.take(v_data, v_rows, axis=0)
        mine = own[window]
        at = pix[mine]
        gw = np.zeros((stop - start, n, m, d), dtype=g.dtype)
        gw[mine] = g_rows[at, heads]
        gw = gw.transpose(0, 2, 1, 3)
        pw = p[start:stop]
        dvw = np.matmul(pw.swapaxes(-1, -2), gw)
        dl = np.matmul(gw, vw.swapaxes(-1, -2))
        dl -= (dl * pw).sum(axis=-1, keepdims=True)
        dl *= pw
        dbias += dl.sum(axis=0).transpose(2, 0, 1)  # keys-major, as the bias
        dl *= scale
        slots = [a.transpose(0, 2, 1, 3) for a in (np.matmul(dl, k), np.matmul(dl.swapaxes(-1, -2), q), dvw)]
        for rows, a in zip(dst, slots):
            rows[at] = a[mine]
        if not mine.all():
            reflected.append([pix[~mine]] + [a[~mine] for a in slots])
    if reflected:
        pixels, *sums = (np.concatenate(parts) for parts in zip(*reflected))
        for rows, a in zip(dst, sums):
            np.add.at(rows, pixels, a)
    return dbias


def _chunk_rows(index: np.ndarray, start: int, stop: int, pixels: int, total: int, first: int, heads: int):
    """Windows [start, stop) of a batch of ``pixels``-pixel images, each image
    holding the windows of ``index``: each window's row of the maps, the
    pixel [windows, n] each of its slots reads, and the rows of d channels,
    [windows, heads, n], that its V reads for heads [first, first + heads) of
    ``total`` per pixel."""
    b = np.arange(start, stop)
    window = b % index.shape[0]
    pix = index[window] + b[:, None] // index.shape[0] * pixels
    return window, pix, pix[:, None, :] * total + (first + np.arange(heads))[:, None]


# ---------------------------------------------------------------------------
# Layout / indexing primitives
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    try:
        out_data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {tuple(shape)}") from None
    out = _freeze(out_data)
    _record(out, (x,), lambda g, s=x.shape: (g.reshape(s),))
    return out


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of rank {x.ndim}")
    out = _freeze(np.ascontiguousarray(x.data.transpose(axes)))
    inv = tuple(np.argsort(axes))
    _record(out, (x,), lambda g, inv=inv: (np.ascontiguousarray(g.transpose(inv)),))
    return out


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` extents along ``axis`` starting at ``start``."""
    axis = _check_axis("narrow", axis, x.ndim)
    if start < 0 or length < 1 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow: [{start}:{start + length}) out of bounds for axis {axis} of {x.shape}")
    key = tuple(slice(None) if i != axis else slice(start, start + length) for i in range(x.ndim))
    out = _freeze(np.ascontiguousarray(x.data[key]))

    def bwd(g, key=key, shape=x.shape, dtype=x.dtype):
        full = np.zeros(shape, dtype=dtype)
        full[key] = g
        return (full,)

    _record(out, (x,), bwd)
    return out


def gather(x: Tensor, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Select rows along ``axis`` by a 1-D integer index array (with repeats)."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather: indices must be a 1-D integer array")
    axis = _check_axis("gather", axis, x.ndim)
    if idx.size and not (0 <= idx.min() and idx.max() < x.shape[axis]):
        raise ShapeError(f"gather: indices must lie in [0, {x.shape[axis]}) along axis {axis}")
    out = _freeze(np.take(x.data, idx, axis=axis))

    def bwd(g, idx=idx, axis=axis, shape=x.shape, dtype=x.dtype):
        moved = np.moveaxis(g, axis, 0)
        acc = np.zeros((shape[axis],) + moved.shape[1:], dtype=dtype)
        np.add.at(acc, idx, moved)
        return (np.moveaxis(acc, 0, axis),)

    _record(out, (x,), bwd)
    return out


def _reflect_index(n: int, pad: int) -> np.ndarray:
    idx = np.arange(n + pad)
    return np.where(idx < n, idx, 2 * n - 2 - idx)


# ---------------------------------------------------------------------------
# Convolution and pixel shuffle
# ---------------------------------------------------------------------------


def conv2d_3x3(x: Tensor, kernel: Tensor, bias: Tensor, depthwise: bool = False) -> Tensor:
    """3x3 cross-correlation with zero padding 1 plus a per-channel bias,
    preserving spatial size. ``kernel`` is [3, 3, Cin, Cout]; in depthwise
    mode it is [3, 3, C, 1] and each channel is filtered independently.

    The workers pull bands of rows: each band, with a one-row halo, is
    copied into a zero-bordered buffer, and each tap's product goes through
    a band of scratch into the output, in tap order, then the bias. The
    bands in flight and their scratch hold at most WINDOW_CHUNK_BYTES (one
    row each at least), halos aside, and the output has the bits of a
    full-size sum of taps: a dense tap is one [W, Cin] x [Cin, Cout] GEMM
    per row. Under a tape the op keeps its input; the backward builds the
    padded copy only while it runs.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d_3x3 expects input rank 4, got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[0] != 3 or kernel.shape[1] != 3:
        raise ShapeError(f"conv2d_3x3: kernel shape {kernel.shape} is not [3,3,Cin,Cout]")
    n, h, w, cin = x.shape
    if depthwise:
        if kernel.shape[2] != cin or kernel.shape[3] != 1:
            raise ShapeError(f"conv2d_3x3 depthwise: kernel shape {kernel.shape} does not match input channels {cin}")
        cout = cin
    else:
        if kernel.shape[2] != cin:
            raise ShapeError(f"conv2d_3x3: kernel input channels {kernel.shape} do not match input shape {x.shape}")
        cout = kernel.shape[3]
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d_3x3: bias shape {bias.shape} does not match output channels {cout}")
    _check_same_dtype(x, kernel, bias)

    xd, kd = x.data, kernel.data
    out_data = np.zeros((n, h, w, cout), dtype=x.dtype)
    workers = _workers()
    row_bytes = n * ((w + 2) * cin + w * cout) * x.dtype.itemsize  # a band row and its product row
    bands = _pieces(h, WINDOW_CHUNK_BYTES // (workers * row_bytes), workers)
    if depthwise:
        # Rows are viewed as [w * C] runs against the taps tiled to that
        # length, so each product is one long ufunc loop per row rather than
        # one per pixel.
        out_rows = out_data.reshape(n, h, w * cin)
        taps = np.empty((3, 3, w, cin), dtype=x.dtype)
        taps[...] = kd[:, :, None, :, 0]
        taps = taps.reshape(3, 3, w * cin)

    def convolve(i: int) -> None:
        r = i * h // bands
        m = (i + 1) * h // bands - r
        band = np.zeros((n, m + 2, w + 2, cin), dtype=x.dtype)  # rows r - 1 to r + m, zero outside the map
        lo, hi = max(r - 1, 0), min(r + m + 1, h)
        band[:, lo - r + 1 : hi - r + 1, 1 : w + 1] = xd[:, lo:hi]
        acc = (out_rows if depthwise else out_data)[:, r : r + m]
        if depthwise:
            prod, band_rows = np.empty((n, m, w * cin), dtype=x.dtype), band.reshape(n, m + 2, (w + 2) * cin)
        else:
            prod = np.empty((n, m, w, cout), dtype=x.dtype)
        for u in range(3):
            for v in range(3):
                if depthwise:
                    np.multiply(band_rows[:, u : u + m, v * cin : (v + w) * cin], taps[u, v], out=prod)
                else:
                    np.matmul(band[:, u : u + m, v : v + w], kd[u, v], out=prod)
                acc += prod
        out_data[:, r : r + m] += bias.data

    _split(bands, convolve)
    out = _freeze(out_data)

    def bwd(g, xd=xd, kd=kd, depthwise=depthwise):
        xp = np.zeros((n, h + 2, w + 2, cin), dtype=xd.dtype)
        xp[:, 1 : h + 1, 1 : w + 1, :] = xd
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kd)
        if not depthwise:
            # Each tap is two 2-D GEMMs over all N*H*W pixels. One contiguous
            # buffer holds the tap's input patch for the weight gradient, then
            # its input-gradient product, so no tap allocates a temporary.
            g2 = g.reshape(n * h * w, -1)
            buf = np.empty((n, h, w, cin), dtype=xp.dtype)
            cols = buf.reshape(n * h * w, cin)
        for u in range(3):
            for v in range(3):
                patch = xp[:, u : u + h, v : v + w, :]
                if depthwise:
                    gk[u, v, :, 0] = (patch * g).sum(axis=(0, 1, 2))
                    gxp[:, u : u + h, v : v + w, :] += g * kd[u, v, :, 0]
                else:
                    buf[...] = patch
                    np.matmul(cols.T, g2, out=gk[u, v])
                    np.matmul(g2, kd[u, v].T, out=cols)
                    gxp[:, u : u + h, v : v + w, :] += buf
        gx = np.ascontiguousarray(gxp[:, 1 : h + 1, 1 : w + 1, :])
        return (gx, gk, g.sum(axis=(0, 1, 2)))

    _record(out, (x, kernel, bias), bwd)
    return out


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Rearrange channels into space: [N,H,W,C*r^2] -> [N,rH,rW,C].

    Element (n, h, w, c*r^2 + dy*r + dx) lands at (n, h*r + dy, w*r + dx, c).
    """
    if x.ndim != 4:
        raise ShapeError(f"pixel_shuffle expects rank 4, got {x.shape}")
    if r < 1:
        raise ShapeError(f"pixel_shuffle: scale {r} must be positive")
    n, h, w, c_total = x.shape
    if c_total % (r * r) != 0:
        raise ShapeError(f"pixel_shuffle: channels {c_total} not divisible by {r}^2")
    if r == 1:
        return x
    c = c_total // (r * r)
    out_data = (
        x.data.reshape(n, h, w, c, r, r).transpose(0, 1, 4, 2, 5, 3).reshape(n, h * r, w * r, c)
    )
    out = _freeze(np.ascontiguousarray(out_data))

    def bwd(g, n=n, h=h, w=w, c=c, r=r):
        back = g.reshape(n, h, r, w, r, c).transpose(0, 1, 3, 5, 2, 4).reshape(n, h, w, c * r * r)
        return (np.ascontiguousarray(back),)

    _record(out, (x,), bwd)
    return out


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    out = _freeze(np.asarray(x.data.sum(), dtype=x.dtype))
    _record(out, (x,), lambda g, s=x.shape, d=x.dtype: (np.ones(s, dtype=d) * g,))
    return out


def mean_all(x: Tensor) -> Tensor:
    if x.size == 0:
        raise ShapeError("mean_all: an empty tensor has no mean")
    return mul(sum_all(x), 1.0 / x.size)


# ---------------------------------------------------------------------------
# Adam optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerHyper:
    """Adam hyperparameters; the step counter lives in :class:`AdamState`."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


@dataclass
class AdamState:
    m: dict[str, Tensor] = field(default_factory=dict)
    v: dict[str, Tensor] = field(default_factory=dict)
    step: int = 0


def init_adam_state(params: Mapping[str, Tensor]) -> AdamState:
    return AdamState(
        m={k: _freeze(np.zeros_like(p.data)) for k, p in params.items()},
        v={k: _freeze(np.zeros_like(p.data)) for k, p in params.items()},
        step=0,
    )


def adam_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, Tensor],
    state: AdamState,
    hyper: OptimizerHyper,
) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    t = state.step + 1
    new_params: dict[str, Tensor] = {}
    new_m: dict[str, Tensor] = {}
    new_v: dict[str, Tensor] = {}
    corr1 = 1.0 - hyper.beta1**t
    corr2 = 1.0 - hyper.beta2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape or state.m[name].shape != p.shape:
            raise ShapeError(
                f"adam_step: shape mismatch for '{name}': param {p.shape}, grad {g.shape}"
            )
        m = hyper.beta1 * state.m[name].data + (1.0 - hyper.beta1) * g.data
        v = hyper.beta2 * state.v[name].data + (1.0 - hyper.beta2) * (g.data * g.data)
        update = hyper.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + hyper.eps)
        new_params[name] = _freeze(p.data - update)
        new_m[name] = _freeze(m)
        new_v[name] = _freeze(v)
    return new_params, AdamState(m=new_m, v=new_v, step=t)
