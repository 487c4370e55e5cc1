"""Optional numba backend for the batch kernels (``REPRO_JIT``).

Nothing here is required for correctness, and numba is never a hard
dependency — it ships as the ``jit`` optional extra (``pip install
repro-hc[jit]``), and requesting JIT without it installed degrades to
the uncompiled paths with a one-time warning.

When ``REPRO_JIT=1`` *and* numba is importable, the **fused** batch
kernels below are compiled and :mod:`repro.engines.batchwalk`
dispatches to them through the module attributes ``walk_kernel`` /
``tree_kernel`` (``None`` when disabled; looked up dynamically, so
benchmarks can toggle the compiled path inside one process).  :func:`walk_steps_impl` runs each trial's *entire* rotation
walk to completion — per-step PCG64 advance, Lemire bounded draw,
live-bit popcount/select, twin-table edge kill, and the
extension/closure/rotation path update — in one compiled loop.

A compiled ``walk_kernel`` is what makes DRA and DHC2 batch at all:
without one, their ``fast-batch`` runners run each trial on per-trial
``fast`` (see :func:`repro.engines.fast_batch.batch_kernel_active`).
CRE's batch runs on numpy alone; this module has no kernel for it.

Trials are fully independent (disjoint node id blocks, per-node RNG
streams, disjoint CSR blocks), so running them to completion one
after another consumes every per-node stream in exactly the serial
order: results are bitwise identical to per-trial ``fast``.
``tests/test_batch_kernel.py`` asserts that by executing these same
``*_impl`` functions *uncompiled* as the dispatch targets and holding
them to per-trial ``fast``, so the contract is enforced on every host
— numba or not — and the CI jit lane re-runs the whole suite
compiled.

Every ``*_impl`` function is plain Python over numpy scalars and
preallocated arrays: valid ``numba.njit`` input and runnable
(slowly) without it.  All uint64 arithmetic sticks to uint64-typed
constants — mixing signed ints into uint64 expressions promotes to
float64 under numba and raises under numpy 2 scalar rules.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

__all__ = [
    "HAVE_NUMBA", "REQUESTED", "ENABLED", "compile_kernel",
    "walk_steps_impl", "tree_build_impl", "walk_kernel", "tree_kernel",
]


def _truthy(value: str) -> bool:
    return value.strip().lower() in {"1", "true", "yes", "on"}


#: Whether the environment asked for the compiled backend.
REQUESTED = _truthy(os.environ.get("REPRO_JIT", ""))

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:
    numba = None
    HAVE_NUMBA = False

#: Compiled kernels are used only when requested *and* available.
ENABLED = REQUESTED and HAVE_NUMBA

if REQUESTED and not HAVE_NUMBA:
    warnings.warn(
        "REPRO_JIT requested but numba is not installed; falling back to "
        "the uncompiled paths: fast-batch runs dra/dhc2 per trial and "
        "cre on numpy (install the 'jit' extra to compile)",
        RuntimeWarning,
        stacklevel=2,
    )


def compile_kernel(fn):
    """``numba.njit(cache=True)`` when enabled; the function unchanged otherwise."""
    if ENABLED:  # pragma: no cover - exercised only in the CI jit variant
        return numba.njit(cache=True)(fn)
    return fn


# -- uint64 constants (kept typed: see the module docstring) ---------------
# The one copy: batchwalk's vector PCG64 replication imports them too.

_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_U58 = np.uint64(58)
_U63 = np.uint64(63)
_U64 = np.uint64(64)
_MASK32 = np.uint64(0xFFFFFFFF)
_RANGE32 = np.uint64(1 << 32)
# PCG64's 128-bit LCG multiplier in 64-bit limbs (low limb split again
# into 32-bit halves for the mulhi decomposition).
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

    :meth:`BatchWalk.run`'s kernel, trial by trial, step for step as
    :class:`~repro.engines.arraywalk.ArrayWalk`: budget gate,
    cornered-before-draw failure, one
    bounded draw per step from the head's own PCG64 stream
    (``sh``/``sl``/``ih``/``il``/``word``/``pend`` are the
    ``DrawPool``'s state arrays, advanced exactly as ``DrawPool.draw``
    would), the draw-th live bit of the head row, a twin-table edge
    kill, then extension / closure / rotation applied eagerly to the
    path row.  ``bpos`` holds *path* positions (rotations reverse the
    suffix in place), so each trial's path is left in order in its
    row of ``buf``.
    """
    for t in range(order.size):
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
            # then an LSB-first in-word scan (the draw-th live slot in
            # sorted row order).
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

    :func:`build_batch_tree`'s kernel: a queue BFS from each live
    trial's root (level structure —
    hence every depth — is visit-order independent), then the min-id
    parent rule as each reached non-root's *first* one-level-up
    neighbour in sorted row order.  ``expect`` is the trial's
    participant count (``n`` for full blocks, the colour-class size
    for partition walks); ``ok`` records whether the BFS reached all
    of them.  Skipped (non-live) trials keep depth -1 everywhere.
    """
    for b in range(roots.size):
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


# -- dispatch --------------------------------------------------------------

if ENABLED:  # pragma: no cover - exercised in the CI jit variant
    walk_kernel, tree_kernel = (
        compile_kernel(fn) for fn in (walk_steps_impl, tree_build_impl))
else:
    walk_kernel = tree_kernel = None
