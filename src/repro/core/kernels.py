"""Flat-array classification kernels — the kernel engine's source of truth.

This module holds the hot loop of :class:`~repro.core.kernel.KernelEngine`
written once, in a deliberately restricted dialect: module-level functions
over preallocated flat numpy arrays, scalar integer locals, no Python
objects, no closures, no allocation.  That dialect is what lets one source
back both execution legs:

* **cc** — :mod:`repro.core._ckernel` carries a line-for-line C port of
  these functions (sharing the slot constants below via generated
  ``#define`` lines), compiled on first use with the system C compiler;
* **interp** — the functions in this file run as plain Python, the
  always-available readable reference.

Both legs must produce **bit-identical counters**; ``repro-sim verify``
(``run_kernel_parity``) and ``tests/test_kernel_engine.py`` enforce it.
The update rules implement the zero-contention functional semantics
documented in :mod:`repro.core.kernel`, the engine's fidelity contract
against the pipeline.

Rules for editing this file (they keep the C port a mechanical
translation):

* only integer scalars and 1-D numpy arrays cross function boundaries;
* unsigned 64-bit arithmetic (the golden-ratio probe) is done through
  explicit ``np.uint64`` casts on *every* operand, matching C's
  ``uint64_t`` wraparound; the history-table fold masks its key to 64
  bits instead;
* no ``dict``/``set``/``list`` — the SDP shadow directory is an
  open-addressed table over int64 arrays (``-1`` empty, ``-2``
  tombstone) with deterministic linear probing;
* no wall clock, no RNG, no iteration over unordered containers
  (lint rule RL001 applies to this module like any hot-path module).
"""

from __future__ import annotations

import numpy as np

# ----------------------------------------------------------------------
# Shared slot layout (mirrored into the C leg as #define lines)
# ----------------------------------------------------------------------
#: Slots of the deferred-counter array ``K``.
(
    K_RH, K_RM, K_WH, K_WM, K_FU, K_EV, K_EVU, K_EVN, K_PF1, K_DF1,
    K_L2RH, K_L2RM, K_L2DUP, K_L2EV, K_L2DF,
    K_B1D, K_B1P, K_B1W, K_BMD, K_BMP, K_BMW,
    K_NSPM, K_NSPT, K_SDPI, K_SDPS, K_SDPL, K_SDPC, K_SWX,
    K_FA, K_FR, K_FBG, K_FBB, K_TLG, K_TLB, K_TTG, K_TTB,
) = range(36)
NK = 36

#: PrefetchTally field order inside each 7-slot row of ``T`` (5 rows,
#: one per FillSource, flattened row-major: ``T[src * 7 + field]``).
T_GEN, T_SQ, T_FLT, T_DRP, T_ISS, T_GOOD, T_BAD = range(7)
NT = 5 * 7

#: Scalar-parameter slots of the ``P`` array (int64).  ``P_KEYPC`` says
#: what keys the history table: 0 the prefetched line (PA), 1 the
#: trigger PC (PC).
(
    P_W1, P_L1MASK, P_W2, P_L2MASK, P_WB, P_NSP, P_SDP, P_DEGREE,
    P_FMODE, P_THRESH, P_MAXV, P_TBITS, P_KEYPC,
    P_DIRMASK, P_AWMASK, P_STORE, P_SWPF,
) = range(17)
NP_PARAMS = 17

#: Filter fast-path modes (``P[P_FMODE]``).
FMODE_NULL = 0
FMODE_TABLE = 1

#: Scratch slots of the ``S`` array (mutable scalars that survive spans).
S_SDP_LAST = 0
NS = 1

#: Open-addressed map sentinels.
MAP_EMPTY = -1
MAP_TOMB = -2

#: Knuth's 64-bit golden ratio (same constant as repro.common.hashing).
GOLDEN64 = 0x9E3779B97F4A7C15


# ----------------------------------------------------------------------
# Hashing (bit-identical to repro.common.hashing.table_index, fold-XOR)
# ----------------------------------------------------------------------
def table_hash(key, bits):
    """History-table index of ``key``: its unsigned 64-bit value XOR-folded
    down to ``bits`` bits.  A PC with bit 63 set arrives as a negative
    int64; the mask reads it as C's ``uint64_t`` does, so the fold ends."""
    if bits <= 0:
        return 0
    v = key & 0xFFFFFFFFFFFFFFFF
    folded = 0
    while v != 0:
        folded ^= v
        v >>= bits
    return folded & ((1 << bits) - 1)


def probe_start(key, mask):
    """First probe slot for ``key`` in a table of ``mask + 1`` slots.

    Golden-ratio multiply, then fold the high bits down (the low bits
    of a product alone depend only on the key's low bits).  ``int()``
    narrows to a 64-bit signed value in C; the ``& mask`` keeps only
    low bits, which agree across both legs.
    """
    u = np.uint64(key) * np.uint64(GOLDEN64)
    u = u ^ (u >> np.uint64(33))
    return int(u) & mask


# ----------------------------------------------------------------------
# Open-addressed int64 maps (the SDP shadow directory + await set)
# ----------------------------------------------------------------------
def map_lookup(keys, mask, key):
    """Slot of ``key`` or -1; tombstones are skipped, empty terminates."""
    idx = probe_start(key, mask)
    while True:
        k = keys[idx]
        if k == key:
            return idx
        if k == MAP_EMPTY:
            return -1
        idx = (idx + 1) & mask


def map_insert(keys, mask, key):
    """Slot for ``key`` (existing or newly claimed), or -1 when full.

    Reuses the first tombstone on the probe path so deletions do not
    leak slots; the probe order is deterministic, so both legs claim
    identical slots.
    """
    idx = probe_start(key, mask)
    first_tomb = -1
    steps = 0
    while steps <= mask:
        k = keys[idx]
        if k == key:
            return idx
        if k == MAP_EMPTY:
            if first_tomb >= 0:
                idx = first_tomb
            keys[idx] = key
            return idx
        if k == MAP_TOMB and first_tomb < 0:
            first_tomb = idx
        idx = (idx + 1) & mask
        steps += 1
    if first_tomb >= 0:
        keys[first_tomb] = key
        return first_tomb
    return -1


def map_delete(keys, mask, key):
    """Remove ``key`` if present (tombstone), mirroring dict.pop(k, None)."""
    idx = map_lookup(keys, mask, key)
    if idx >= 0:
        keys[idx] = MAP_TOMB


# ----------------------------------------------------------------------
# Filter feedback (evicted-PIB-line training)
# ----------------------------------------------------------------------
def feedback(tvals, K, vrib, vfid, fmode, maxv):
    if fmode == FMODE_TABLE:
        v = tvals[vfid]
        if vrib != 0:
            K[K_FBG] += 1
            K[K_TTG] += 1
            if v < maxv:
                tvals[vfid] = v + 1
        else:
            K[K_FBB] += 1
            K[K_TTB] += 1
            if v > 0:
                tvals[vfid] = v - 1
    else:
        if vrib != 0:
            K[K_FBG] += 1
        else:
            K[K_FBB] += 1


# ----------------------------------------------------------------------
# L2 (probe-as-demand-read + memory fetch; write-back write-allocate)
# ----------------------------------------------------------------------
def l2_fetch(l2_tag, l2_dirty, l2_stamp, dir_key, K, P, pline, is_pf, tick):
    """L2 probe (counted as a demand read) + memory fetch on miss."""
    W2 = int(P[P_W2])
    b = (pline & int(P[P_L2MASK])) * W2
    inv = -1
    for w in range(b, b + W2):
        t = l2_tag[w]
        if t == pline:
            K[K_L2RH] += 1
            l2_stamp[w] = tick
            return 1
        if inv < 0 and t == MAP_EMPTY:
            inv = w
    K[K_L2RM] += 1
    if is_pf != 0:
        K[K_BMP] += 1
    else:
        K[K_BMD] += 1
    if inv >= 0:
        vw = inv
    else:
        vw = b
        best = l2_stamp[b]
        for w in range(b + 1, b + W2):
            s = l2_stamp[w]
            if s < best:
                best = s
                vw = w
        K[K_L2EV] += 1
        if l2_dirty[vw] != 0:
            K[K_BMW] += 1
        if P[P_SDP] != 0:
            map_delete(dir_key, int(P[P_DIRMASK]), int(l2_tag[vw]))
    l2_tag[vw] = pline
    l2_dirty[vw] = 0
    l2_stamp[vw] = tick
    K[K_L2DF] += 1
    return 0


def l2_writeback(l2_tag, l2_dirty, l2_stamp, dir_key, K, P, vline, tick):
    """Dirty L1 victim lands in the L2 (write-back, write-allocate)."""
    K[K_B1W] += 1
    W2 = int(P[P_W2])
    b = (vline & int(P[P_L2MASK])) * W2
    inv = -1
    for w in range(b, b + W2):
        t = l2_tag[w]
        if t == vline:
            l2_stamp[w] = tick
            l2_dirty[w] = 1
            K[K_L2DUP] += 1
            return
        if inv < 0 and t == MAP_EMPTY:
            inv = w
    if inv >= 0:
        vw = inv
    else:
        vw = b
        best = l2_stamp[b]
        for w in range(b + 1, b + W2):
            s = l2_stamp[w]
            if s < best:
                best = s
                vw = w
        K[K_L2EV] += 1
        if l2_dirty[vw] != 0:
            K[K_BMW] += 1
        if P[P_SDP] != 0:
            map_delete(dir_key, int(P[P_DIRMASK]), int(l2_tag[vw]))
    l2_tag[vw] = vline
    l2_dirty[vw] = 1
    l2_stamp[vw] = tick
    K[K_L2DF] += 1


# ----------------------------------------------------------------------
# L1 fill with eviction feedback (Cache.fill order: victim feedback
# before the new line is written, the dirty writeback after)
# ----------------------------------------------------------------------
def l1_fill(
    l1_tag, l1_dirty, l1_pib, l1_rib, l1_nsp, l1_src, l1_fid, l1_stamp,
    l2_tag, l2_dirty, l2_stamp, dir_key, tvals, K, T, P,
    fline, fpib, fsrc, ffid, fnsp, fdirty, tick,
):
    """Fill ``fline``, which the caller has just proved absent from the L1
    (nothing touches the L1 between that probe and this fill), so no way
    can already hold it; ``KernelState.validate`` guards that."""
    W1 = int(P[P_W1])
    fmode = int(P[P_FMODE])
    maxv = int(P[P_MAXV])
    vdirty = 0
    vtag = -1
    if W1 == 1:
        vw = fline & int(P[P_L1MASK])
        vtag = l1_tag[vw]
        if vtag != MAP_EMPTY:
            K[K_EV] += 1
            vdirty = l1_dirty[vw]
            if l1_pib[vw] != 0:
                vrib = l1_rib[vw]
                row = int(l1_src[vw]) * 7
                if vrib != 0:
                    K[K_EVU] += 1
                    T[row + T_GOOD] += 1
                else:
                    K[K_EVN] += 1
                    T[row + T_BAD] += 1
                feedback(tvals, K, int(vrib), int(l1_fid[vw]), fmode, maxv)
    else:
        b = (fline & int(P[P_L1MASK])) * W1
        inv = -1
        for w in range(b, b + W1):
            if l1_tag[w] == MAP_EMPTY:
                inv = w
                break
        if inv >= 0:
            vw = inv
        else:
            vw = b
            best = l1_stamp[b]
            for w in range(b + 1, b + W1):
                s = l1_stamp[w]
                if s < best:
                    best = s
                    vw = w
            K[K_EV] += 1
            vtag = l1_tag[vw]
            vdirty = l1_dirty[vw]
            if l1_pib[vw] != 0:
                vrib = l1_rib[vw]
                row = int(l1_src[vw]) * 7
                if vrib != 0:
                    K[K_EVU] += 1
                    T[row + T_GOOD] += 1
                else:
                    K[K_EVN] += 1
                    T[row + T_BAD] += 1
                feedback(tvals, K, int(vrib), int(l1_fid[vw]), fmode, maxv)
    l1_tag[vw] = fline
    l1_dirty[vw] = fdirty
    l1_pib[vw] = fpib
    l1_rib[vw] = 0
    l1_nsp[vw] = fnsp
    l1_src[vw] = fsrc
    l1_fid[vw] = ffid
    l1_stamp[vw] = tick
    if fpib != 0:
        K[K_PF1] += 1
    else:
        K[K_DF1] += 1
    if vdirty != 0:
        l2_writeback(l2_tag, l2_dirty, l2_stamp, dir_key, K, P, int(vtag), tick)


# ----------------------------------------------------------------------
# Prefetch routing: generated -> duplicate squash -> filter -> issue
# ----------------------------------------------------------------------
def route(
    l1_tag, l1_dirty, l1_pib, l1_rib, l1_nsp, l1_src, l1_fid, l1_stamp,
    l2_tag, l2_dirty, l2_stamp, dir_key, tvals, K, T, P,
    rline, rpc, rsrc, tick,
):
    row = rsrc * 7
    T[row + T_GEN] += 1
    W1 = int(P[P_W1])
    if W1 == 1:
        if l1_tag[rline & int(P[P_L1MASK])] == rline:
            T[row + T_SQ] += 1
            return
    else:
        b = (rline & int(P[P_L1MASK])) * W1
        for w in range(b, b + W1):
            if l1_tag[w] == rline:
                T[row + T_SQ] += 1
                return
    fid = 0
    if P[P_FMODE] == FMODE_TABLE:
        # The table's only lookup, so its key is hashed here: the
        # prefetched line under PA, the trigger PC under PC.
        fid = table_hash(rpc if P[P_KEYPC] != 0 else rline, int(P[P_TBITS]))
        if tvals[fid] >= P[P_THRESH]:
            K[K_TLG] += 1
            K[K_FA] += 1
        else:
            K[K_TLB] += 1
            K[K_FR] += 1
            T[row + T_FLT] += 1
            return
    else:
        K[K_FA] += 1
    T[row + T_ISS] += 1
    l2_fetch(l2_tag, l2_dirty, l2_stamp, dir_key, K, P, rline, 1, tick)
    K[K_B1P] += 1
    l1_fill(
        l1_tag, l1_dirty, l1_pib, l1_rib, l1_nsp, l1_src, l1_fid, l1_stamp,
        l2_tag, l2_dirty, l2_stamp, dir_key, tvals, K, T, P,
        rline, 1, rsrc, fid, int(P[P_NSP]), 0, tick,
    )


# ----------------------------------------------------------------------
# The hot loop over one span of memory operations
# ----------------------------------------------------------------------
def kernel_span(
    mcls, mpc, mline,
    l1_tag, l1_dirty, l1_pib, l1_rib, l1_nsp, l1_src, l1_fid, l1_stamp,
    l2_tag, l2_dirty, l2_stamp,
    dir_key, dir_shadow, dir_conf, aw_key, aw_val,
    tvals, K, T, S, P, start, stop,
):
    """Replay memory ops ``[start, stop)``; returns 0 or an error code.

    Error codes (structurally unreachable under the driver's map
    sizing, kept as a hard stop rather than silent corruption):
    1 = SDP shadow directory full, 2 = SDP await set full.
    """
    STORE = int(P[P_STORE])
    SW_PF = int(P[P_SWPF])
    dm = int(P[P_W1]) == 1
    l1_mask = int(P[P_L1MASK])
    W1 = int(P[P_W1])
    nsp_on = int(P[P_NSP]) != 0
    sdp_on = int(P[P_SDP]) != 0
    wb = int(P[P_WB]) != 0
    degree = int(P[P_DEGREE])
    dir_mask = int(P[P_DIRMASK])
    aw_mask = int(P[P_AWMASK])

    for i in range(start, stop):
        cls = int(mcls[i])
        line = int(mline[i])
        if cls == SW_PF:
            K[K_SWX] += 1
            route(
                l1_tag, l1_dirty, l1_pib, l1_rib, l1_nsp, l1_src, l1_fid,
                l1_stamp, l2_tag, l2_dirty, l2_stamp, dir_key,
                tvals, K, T, P, line, int(mpc[i]), 3, i,
            )
            continue
        is_write = cls == STORE
        if dm:
            hw = line & l1_mask
            if l1_tag[hw] != line:
                hw = -1
        else:
            b = (line & l1_mask) * W1
            hw = -1
            for w in range(b, b + W1):
                if l1_tag[w] == line:
                    hw = w
                    break
        if hw >= 0:
            tag_hit = False
            if nsp_on and l1_nsp[hw] != 0:
                l1_nsp[hw] = 0
                tag_hit = True
            if is_write:
                K[K_WH] += 1
                l1_dirty[hw] = 1
            else:
                K[K_RH] += 1
            if l1_pib[hw] != 0 and l1_rib[hw] == 0:
                l1_rib[hw] = 1
                K[K_FU] += 1
                if sdp_on:
                    # SDP confirmation: the prefetched line saw first use.
                    slot = map_lookup(aw_key, aw_mask, line)
                    if slot >= 0:
                        parent = int(aw_val[slot])
                        aw_key[slot] = MAP_TOMB
                        ds = map_lookup(dir_key, dir_mask, parent)
                        if ds >= 0 and dir_shadow[ds] == line:
                            dir_conf[ds] = 1
                            K[K_SDPC] += 1
            l1_stamp[hw] = i
            if tag_hit:
                K[K_NSPT] += 1
                pc = int(mpc[i])
                for d in range(1, degree + 1):
                    route(
                        l1_tag, l1_dirty, l1_pib, l1_rib, l1_nsp, l1_src,
                        l1_fid, l1_stamp, l2_tag, l2_dirty, l2_stamp,
                        dir_key, tvals, K, T, P, line + d, pc, 1, i,
                    )
        else:
            if is_write:
                K[K_WM] += 1
            else:
                K[K_RM] += 1
            l2_fetch(l2_tag, l2_dirty, l2_stamp, dir_key, K, P, line, 0, i)
            K[K_B1D] += 1
            fdirty = 1 if (is_write and wb) else 0
            l1_fill(
                l1_tag, l1_dirty, l1_pib, l1_rib, l1_nsp, l1_src, l1_fid,
                l1_stamp, l2_tag, l2_dirty, l2_stamp, dir_key,
                tvals, K, T, P, line, 0, 0, 0, 0, fdirty, i,
            )
            pc = int(mpc[i])
            if nsp_on:
                K[K_NSPM] += 1
                for d in range(1, degree + 1):
                    route(
                        l1_tag, l1_dirty, l1_pib, l1_rib, l1_nsp, l1_src,
                        l1_fid, l1_stamp, l2_tag, l2_dirty, l2_stamp,
                        dir_key, tvals, K, T, P, line + d, pc, 1, i,
                    )
            if sdp_on:
                ds = map_lookup(dir_key, dir_mask, line)
                if ds >= 0 and dir_shadow[ds] != line:
                    if dir_conf[ds] != 0:
                        dir_conf[ds] = 0
                        shadow = int(dir_shadow[ds])
                        aw = map_insert(aw_key, aw_mask, shadow)
                        if aw < 0:
                            return 2
                        aw_val[aw] = line
                        K[K_SDPI] += 1
                        route(
                            l1_tag, l1_dirty, l1_pib, l1_rib, l1_nsp, l1_src,
                            l1_fid, l1_stamp, l2_tag, l2_dirty, l2_stamp,
                            dir_key, tvals, K, T, P, shadow, pc, 2, i,
                        )
                    else:
                        K[K_SDPS] += 1
                prev = int(S[S_SDP_LAST])
                if prev != -1 and prev != line:
                    os_ = map_lookup(dir_key, dir_mask, prev)
                    if os_ < 0 or dir_shadow[os_] != line:
                        slot = map_insert(dir_key, dir_mask, prev)
                        if slot < 0:
                            return 1
                        dir_shadow[slot] = line
                        dir_conf[slot] = 1
                        K[K_SDPL] += 1
                S[S_SDP_LAST] = line
    return 0
