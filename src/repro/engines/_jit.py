"""Optional numba backend for the batch kernels (``REPRO_JIT``).

Pure numpy is the default and the fallback: nothing here is required
for correctness, and numba is never a hard dependency — it ships as
the ``jit`` optional extra (``pip install repro-hc[jit]``), and
requesting JIT without it installed degrades to the numpy kernels
with a one-time warning.

When ``REPRO_JIT=1`` *and* numba is importable, the **fused** batch
kernels below are compiled and :mod:`repro.engines.batchwalk`
dispatches to them through the module attributes ``walk_kernel`` /
``tree_kernel`` / ``reverse_blocks`` (``None`` when disabled; looked
up dynamically, so benchmarks can toggle the compiled path inside one
process).  They replace the two narrow ``compile_kernel`` shims of
the first JIT cut (bit-select ranking and the CRE blockwise
reversal): instead of accelerating one inner scan per pass,
:func:`walk_steps_impl` runs each trial's *entire* rotation walk to
completion — per-step PCG64 advance, Lemire bounded draw, live-bit
popcount/select, twin-table edge kill, and the
extension/closure/rotation path update — in one compiled loop, which
is where the residual ~8 us/trial-step of numpy dispatch lived.

Trials are fully independent (disjoint node id blocks, per-node RNG
streams, disjoint CSR blocks), so running them to completion one
after another instead of interleaved pass-by-pass consumes every
per-node stream in exactly the serial order: results are bitwise
identical to the numpy path.  ``tests/test_batch_kernel.py`` asserts
that by executing these same ``*_impl`` functions *uncompiled*
against :class:`~repro.engines.batchwalk.BatchWalk`, so the contract
is enforced on every host — numba or not — and the CI jit lane
re-runs the whole suite compiled.

Every ``*_impl`` function is plain Python over numpy scalars and
preallocated arrays: valid ``numba.njit`` input and runnable
(slowly) without it.  All uint64 arithmetic sticks to uint64-typed
constants — mixing signed ints into uint64 expressions promotes to
float64 under numba and raises under numpy 2 scalar rules.

**Threading** (``REPRO_JIT_THREADS``): each impl writes its outer
trial loop as ``prange`` once.  numba treats ``prange`` as ``range``
under ``parallel=False`` (and it *is* ``range`` uncompiled), so one
source serves both builds: :func:`compile_kernel` compiles the serial
njit kernel, :func:`compile_parallel` a ``parallel=True`` kernel.
Lanes are trial-independent by construction — trial ``b`` owns
node-id block ``[b*n, (b+1)*n)``, so its PCG64 state rows, live-bit
words, path buffer, and every outcome slot are disjoint from every
other lane's — which makes the prange loop race-free *and*
bitwise-identical to the serial order: each lane consumes exactly its
own per-node streams regardless of which thread runs it.  The one
scratch buffer (the tree BFS queue) is allocated inside the loop body,
so numba makes it thread-private.  ``REPRO_JIT_THREADS=N`` (with
``REPRO_JIT=1`` and numba present) selects the parallel build and calls
``numba.set_num_threads(N)``; ``0`` or unset keeps the serial kernels.
The CI threaded numba lane re-runs the suite compiled with two threads.
"""

from __future__ import annotations

import os
import types
import warnings

import numpy as np

__all__ = [
    "HAVE_NUMBA", "REQUESTED", "ENABLED", "THREADS", "THREADED",
    "compile_kernel", "compile_parallel", "configure_threads",
    "walk_steps_impl", "tree_build_impl", "reverse_blocks_impl",
    "walk_kernel", "tree_kernel", "reverse_blocks",
]


def _truthy(value: str) -> bool:
    return value.strip().lower() in {"1", "true", "yes", "on"}


def _parse_threads(value: str) -> int:
    """``REPRO_JIT_THREADS`` as a non-negative thread count (0 = serial)."""
    value = value.strip()
    if not value:
        return 0
    try:
        threads = int(value)
    except ValueError:
        warnings.warn(
            f"REPRO_JIT_THREADS={value!r} is not an integer; "
            "using the serial kernel",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0
    return max(0, threads)


#: Whether the environment asked for the compiled backend.
REQUESTED = _truthy(os.environ.get("REPRO_JIT", ""))

#: Requested kernel thread count (0 = serial njit kernels).
THREADS = _parse_threads(os.environ.get("REPRO_JIT_THREADS", ""))

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:
    numba = None
    HAVE_NUMBA = False

#: Compiled kernels are used only when requested *and* available.
ENABLED = REQUESTED and HAVE_NUMBA

#: Whether the threaded (prange) kernels are in effect right now.
THREADED = ENABLED and THREADS > 0

if REQUESTED and not HAVE_NUMBA:
    warnings.warn(
        "REPRO_JIT requested but numba is not installed; falling back to "
        "the pure-numpy batch kernel (install the 'jit' extra to compile)",
        RuntimeWarning,
        stacklevel=2,
    )

if THREADS > 0 and not ENABLED:
    warnings.warn(
        "REPRO_JIT_THREADS requested without a compiled backend "
        "(needs REPRO_JIT=1 and numba); the threaded kernel is unavailable "
        "and the active path stays single-threaded",
        RuntimeWarning,
        stacklevel=2,
    )

#: ``numba.prange`` when numba is importable, plain ``range`` otherwise —
#: so the impls run (serially) uncompiled too.
prange = numba.prange if HAVE_NUMBA else range


def compile_kernel(fn):
    """``numba.njit(cache=True)`` when enabled; the function unchanged otherwise."""
    if ENABLED:  # pragma: no cover - exercised only in the CI jit variant
        return numba.njit(cache=True)(fn)
    return fn


def compile_parallel(fn):
    """``numba.njit(parallel=True, cache=True)`` when enabled; identity otherwise.

    numba names a function's on-disk cache index after its qualified
    name and first line, and its index keys leave out the compile
    flags, so a ``parallel=True`` build of ``fn`` itself would share
    the serial build's cache entries.  The parallel build compiles a
    clone of ``fn`` under its own ``__qualname__`` instead.
    """
    if ENABLED:  # pragma: no cover - exercised only in the CI jit variant
        clone = types.FunctionType(fn.__code__, fn.__globals__,
                                   fn.__name__ + "_parallel",
                                   fn.__defaults__, fn.__closure__)
        clone.__qualname__ = fn.__qualname__ + "_parallel"
        return numba.njit(parallel=True, cache=True)(clone)
    return fn


# -- uint64 constants (kept typed: see the module docstring) ---------------

_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_U58 = np.uint64(58)
_U63 = np.uint64(63)
_U64 = np.uint64(64)
_MASK32 = np.uint64(0xFFFFFFFF)
_RANGE32 = np.uint64(1 << 32)
# PCG64's 128-bit LCG multiplier in 64-bit limbs (low limb split again
# into 32-bit halves for the mulhi decomposition) — the same constants
# batchwalk's vector replication uses.
_PCG_MH = np.uint64(0x2360ED051FC65DA4)
_PCG_ML = np.uint64(0x4385DF649FCCF645)
_PCG_ML_LO = np.uint64(0x9FCCF645)
_PCG_ML_HI = np.uint64(0x4385DF64)


def walk_steps_impl(order, ip, idx, twins, wp, bits, alive,
                    sh, sl, ih, il, word, pend,
                    buf, bpos, tails, sizes, budgets, rot_costs,
                    head, plen, rounds, steps, rotations, extensions,
                    success, fail_code, end_round, flood, live,
                    stride, fail_budget, fail_no_edges):
    """Run every listed trial's rotation walk to completion, in place.

    The fused equivalent of :meth:`BatchWalk.run`'s numpy pass loop,
    trial by trial: budget gate, cornered-before-draw failure, one
    bounded draw per step from the head's own PCG64 stream
    (``sh``/``sl``/``ih``/``il``/``word``/``pend`` are the
    ``DrawPool``'s state arrays, advanced exactly as ``DrawPool.draw``
    would), the draw-th live bit of the head row, a twin-table edge
    kill, then extension / closure / rotation applied eagerly to the
    backing row.  ``bpos`` holds *path* positions here (rotations
    reverse the suffix in place); the caller rewrites the segment
    descriptors to one forward run per finished trial afterwards.
    All outcome vectors receive the values the numpy passes write.

    Every array the body touches is indexed through the lane's own
    trial id ``b`` (outcome slots), node-id block (RNG state, live
    bits, positions) or row block (path buffer), so the ``prange``
    lanes never share a writable element.
    """
    for t in prange(order.size):
        b = order[t]
        h = head[b]
        row0 = b * stride
        step = 1
        while True:
            if step > budgets[b]:
                fail_code[b] = fail_budget
                flood[b] = h
                end_round[b] = rounds[b]
                live[b] = False
                break
            cnt = alive[h]
            if cnt == 0:
                fail_code[b] = fail_no_edges
                flood[b] = h
                end_round[b] = rounds[b]
                live[b] = False
                break
            # One bounded draw from node h's half-word stream (Lemire
            # multiply-shift with rejection; bound 1 consumes nothing).
            if cnt == 1:
                draw = 0
            else:
                c = np.uint64(cnt)
                threshold = (_RANGE32 - c) % c
                while True:
                    if pend[h]:
                        half = word[h] >> _U32
                        pend[h] = False
                    else:
                        lo_ = sl[h]
                        hi_ = sh[h]
                        al = lo_ & _MASK32
                        ah = lo_ >> _U32
                        mid1 = ah * _PCG_ML_LO
                        mid2 = al * _PCG_ML_HI
                        spill = ((al * _PCG_ML_LO >> _U32)
                                 + (mid1 & _MASK32)
                                 + (mid2 & _MASK32)) >> _U32
                        mulhi = (ah * _PCG_ML_HI + (mid1 >> _U32)
                                 + (mid2 >> _U32) + spill)
                        nlo = lo_ * _PCG_ML
                        nhi = mulhi + lo_ * _PCG_MH + hi_ * _PCG_ML
                        out_lo = nlo + il[h]
                        out_hi = nhi + ih[h]
                        if out_lo < nlo:
                            out_hi = out_hi + _U1
                        sl[h] = out_lo
                        sh[h] = out_hi
                        x = out_hi ^ out_lo
                        rot = out_hi >> _U58
                        w64 = (x >> rot) | (x << ((_U64 - rot) & _U63))
                        word[h] = w64
                        half = w64 & _MASK32
                        pend[h] = True
                    m = half * c
                    if (m & _MASK32) >= threshold:
                        draw = np.int64(m >> _U32)
                        break
            # The draw-th live bit of row h: word by popcount prefix,
            # then an LSB-first in-word scan (same rank rule as the
            # numpy binary select).
            w = np.int64(wp[h])
            rem = draw
            base = 0
            wv = _U0
            while True:
                wv = bits[w]
                pc = 0
                tmp = wv
                while tmp != _U0:
                    pc += 1
                    tmp &= tmp - _U1
                if rem < pc:
                    break
                rem -= pc
                w += 1
                base += 64
            j = 0
            while True:
                if wv & _U1:
                    if rem == 0:
                        break
                    rem -= 1
                wv >>= _U1
                j += 1
            off = base + j
            slot = ip[h] + off
            target = np.int64(idx[slot])
            # Kill the used edge in both directions.
            toff = np.int64(twins[slot]) - ip[target]
            bits[w] &= ~(_U1 << np.uint64(j))
            bits[np.int64(wp[target]) + (toff >> 6)] &= \
                ~(_U1 << np.uint64(toff & 63))
            alive[h] -= 1
            alive[target] -= 1
            steps[b] = step

            tp = np.int64(bpos[target])
            if tp < 0:
                length = plen[b]
                bpos[target] = length
                buf[row0 + length] = target
                plen[b] = length + 1
                h = target
                rounds[b] += 1
                extensions[b] += 1
            elif target == tails[b] and plen[b] == sizes[b]:
                success[b] = True
                flood[b] = target
                end_round[b] = rounds[b] + 1
                live[b] = False
                break
            else:
                # Rotation: reverse the path suffix after the target;
                # the new head is the target's old path successor.
                lo2 = tp + 1
                hi2 = np.int64(plen[b])
                i = row0 + lo2
                j2 = row0 + hi2 - 1
                while i < j2:
                    tmpv = buf[i]
                    buf[i] = buf[j2]
                    buf[j2] = tmpv
                    i += 1
                    j2 -= 1
                for cpos in range(lo2, hi2):
                    bpos[buf[row0 + cpos]] = cpos
                h = np.int64(buf[row0 + hi2 - 1])
                rounds[b] += rot_costs[b]
                rotations[b] += 1
            step += 1
        head[b] = h


def tree_build_impl(ip, idx, roots, expect, live, stride,
                    depth, parent, ok, tree_depth):
    """Per-trial min-id BFS trees over the stacked CSR, in place.

    The fused equivalent of :func:`build_batch_tree`'s per-trial
    passes: a queue BFS from each live trial's root (level structure —
    hence every depth — is visit-order independent), then the min-id
    parent rule as each reached non-root's *first* one-level-up
    neighbour in sorted row order.  ``expect`` is the trial's
    participant count (``n`` for full blocks, the colour-class size
    for partition walks); ``ok`` records whether the BFS reached all
    of them.  Skipped (non-live) trials keep depth -1 everywhere.
    The BFS ``queue`` is allocated per lane, inside the ``prange``
    body, so each thread gets its own.
    """
    for b in prange(roots.size):
        if not live[b]:
            continue
        queue = np.empty(stride, dtype=np.int64)
        base = b * stride
        r = np.int64(roots[b])
        depth[r] = 0
        queue[0] = r
        qh = 0
        qt = 1
        reached = 1
        maxd = 0
        while qh < qt:
            v = queue[qh]
            qh += 1
            dnext = depth[v] + 1
            for e in range(ip[v], ip[v + 1]):
                w = np.int64(idx[e])
                if depth[w] < 0:
                    depth[w] = dnext
                    if dnext > maxd:
                        maxd = dnext
                    queue[qt] = w
                    qt += 1
                    reached += 1
        ok[b] = reached == expect[b]
        tree_depth[b] = maxd
        for v in range(base, base + stride):
            dv = depth[v]
            if dv <= 0:
                continue
            for e in range(ip[v], ip[v + 1]):
                w = np.int64(idx[e])
                if depth[w] == dv - 1:
                    parent[v] = w
                    break


def reverse_blocks_impl(path_flat, pos, rows, los, highs, size):
    """In-place suffix reversals for walks that keep eager positions.

    ``rows`` lists distinct trials, each owning a disjoint
    ``size``-slot block of ``path_flat`` and node-id block of ``pos``.
    """
    for t in prange(rows.size):
        base = rows[t] * size
        i = base + los[t]
        j = base + highs[t] - 1
        while i < j:
            tmp = path_flat[i]
            path_flat[i] = path_flat[j]
            path_flat[j] = tmp
            i += 1
            j -= 1
        for c in range(los[t], highs[t]):
            pos[path_flat[base + c]] = c


# -- dispatch --------------------------------------------------------------

_IMPLS = (walk_steps_impl, tree_build_impl, reverse_blocks_impl)
_compiled = {}


def _kernels(parallel):
    """Compiled (serial or prange) kernel triple, built once per process."""
    if parallel not in _compiled:  # pragma: no cover - CI jit lane
        build = compile_parallel if parallel else compile_kernel
        _compiled[parallel] = tuple(build(fn) for fn in _IMPLS)
    return _compiled[parallel]


def configure_threads(threads):
    """Re-point the dispatch kernels at runtime (bench thread-scaling lane).

    ``threads == 0`` selects the serial njit kernels, ``threads > 0``
    the prange kernels with ``numba.set_num_threads(threads)``.
    Returns ``False`` — leaving the current dispatch untouched — when
    the compiled backend is unavailable or ``threads`` exceeds the
    pool numba launched with (``NUMBA_NUM_THREADS``); callers record
    an explicit null for that lane.
    """
    global walk_kernel, tree_kernel, reverse_blocks, THREADS, THREADED
    if not ENABLED:
        return False
    if threads > 0:  # pragma: no cover - CI jit lane
        if threads > int(numba.config.NUMBA_NUM_THREADS):
            return False
        numba.set_num_threads(threads)
    walk_kernel, tree_kernel, reverse_blocks = _kernels(threads > 0)
    THREADS = threads
    THREADED = threads > 0
    return True


if ENABLED:  # pragma: no cover - exercised in the CI jit variant
    if THREADS > 0:
        THREADS = min(THREADS, int(numba.config.NUMBA_NUM_THREADS))
        numba.set_num_threads(THREADS)
        THREADED = THREADS > 0
    walk_kernel, tree_kernel, reverse_blocks = _kernels(THREADS > 0)
else:
    walk_kernel = tree_kernel = reverse_blocks = None
