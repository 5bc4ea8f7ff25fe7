"""C leg of the kernel engine: the same kernels, compiled natively.

:mod:`repro.core.kernels` is the source of truth; this module carries a
line-for-line C port of those functions, compiled on first use with the
system C compiler (``$CC``, ``cc``, ``gcc`` or ``clang``) into a shared
object cached under ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``),
keyed by the SHA-256 of the generated source so a source edit can never
pick up a stale binary.  The counter-slot and parameter-slot layouts are
*generated* from the Python constants as ``#define`` lines, so the two
legs cannot drift silently on layout.

Everything here is best-effort: :func:`load` returns the bound entry
point or ``None`` (no compiler, compile failure, unwritable cache dir,
dlopen failure) and the engine falls back to the interpreted leg.
Failures are remembered for the process so a missing compiler is probed
exactly once.  The gates tell the failures apart through
:func:`rejected`: no compiler skips them, a rejected source fails them.

The exported symbol has the exact argument order of
:func:`repro.core.kernels.kernel_span`; :func:`load` returns a wrapper
with that same Python signature, so the engine treats both legs
interchangeably.
"""

from __future__ import annotations

import ctypes
import hashlib
import inspect
import os
import shutil
import subprocess
from pathlib import Path
from typing import Callable, Optional

from repro.core import kernels as _k

_CACHE_DIR_ENV = "REPRO_CACHE_DIR"

def _defines() -> str:
    """One ``#define`` per upper-case int constant of the kernels module,
    in definition order (``ULL`` on the one that needs 64 unsigned bits)."""
    return "".join(
        f"#define {name} {value}{'ULL' if value >= 1 << 63 else ''}\n"
        for name, value in vars(_k).items()
        if name.isupper() and isinstance(value, int)
    )


_BODY = r"""
#include <stdint.h>

typedef struct {
    int64_t *l1_tag; uint8_t *l1_dirty; uint8_t *l1_pib; uint8_t *l1_rib;
    uint8_t *l1_nsp; uint8_t *l1_src; int64_t *l1_fid; int64_t *l1_stamp;
    int64_t *l2_tag; uint8_t *l2_dirty; int64_t *l2_stamp;
    int64_t *dir_key; int64_t *dir_shadow; uint8_t *dir_conf;
    int64_t *aw_key; int64_t *aw_val;
    int64_t *tvals; int64_t *K; int64_t *T;
    int64_t W1, l1_mask, W2, l2_mask, fmode, thresh, maxv, tbits, key_pc;
    int64_t dir_mask, aw_mask, sdp_on, nsp_on;
} St;

/* Unsigned, so a key with bit 63 set shifts down to 0 and the fold ends. */
static int64_t table_hash(uint64_t key, int64_t bits) {
    uint64_t folded = 0;
    if (bits <= 0) return 0;
    while (key != 0) { folded ^= key; key >>= bits; }
    return (int64_t)(folded & ((1ULL << bits) - 1));
}

static int64_t probe_start(int64_t key, int64_t mask) {
    uint64_t u = (uint64_t)key * GOLDEN64;
    u ^= u >> 33;
    return (int64_t)u & mask;
}

static int64_t map_lookup(const int64_t *keys, int64_t mask, int64_t key) {
    int64_t idx = probe_start(key, mask);
    for (;;) {
        int64_t k = keys[idx];
        if (k == key) return idx;
        if (k == MAP_EMPTY) return -1;
        idx = (idx + 1) & mask;
    }
}

static int64_t map_insert(int64_t *keys, int64_t mask, int64_t key) {
    int64_t idx = probe_start(key, mask);
    int64_t first_tomb = -1;
    int64_t steps = 0;
    while (steps <= mask) {
        int64_t k = keys[idx];
        if (k == key) return idx;
        if (k == MAP_EMPTY) {
            if (first_tomb >= 0) idx = first_tomb;
            keys[idx] = key;
            return idx;
        }
        if (k == MAP_TOMB && first_tomb < 0) first_tomb = idx;
        idx = (idx + 1) & mask;
        steps += 1;
    }
    if (first_tomb >= 0) { keys[first_tomb] = key; return first_tomb; }
    return -1;
}

static void map_delete(int64_t *keys, int64_t mask, int64_t key) {
    int64_t idx = map_lookup(keys, mask, key);
    if (idx >= 0) keys[idx] = MAP_TOMB;
}

static void feedback(St *st, int64_t vrib, int64_t vfid) {
    if (st->fmode == FMODE_TABLE) {
        int64_t v = st->tvals[vfid];
        if (vrib) {
            st->K[K_FBG] += 1;
            st->K[K_TTG] += 1;
            if (v < st->maxv) st->tvals[vfid] = v + 1;
        } else {
            st->K[K_FBB] += 1;
            st->K[K_TTB] += 1;
            if (v > 0) st->tvals[vfid] = v - 1;
        }
    } else {
        if (vrib) st->K[K_FBG] += 1; else st->K[K_FBB] += 1;
    }
}

static int64_t l2_fetch(St *st, int64_t pline, int64_t is_pf, int64_t tick) {
    int64_t b = (pline & st->l2_mask) * st->W2;
    int64_t inv = -1, vw, w;
    for (w = b; w < b + st->W2; w++) {
        int64_t t = st->l2_tag[w];
        if (t == pline) {
            st->K[K_L2RH] += 1;
            st->l2_stamp[w] = tick;
            return 1;
        }
        if (inv < 0 && t == MAP_EMPTY) inv = w;
    }
    st->K[K_L2RM] += 1;
    if (is_pf) st->K[K_BMP] += 1; else st->K[K_BMD] += 1;
    if (inv >= 0) {
        vw = inv;
    } else {
        int64_t best = st->l2_stamp[b];
        vw = b;
        for (w = b + 1; w < b + st->W2; w++) {
            int64_t s = st->l2_stamp[w];
            if (s < best) { best = s; vw = w; }
        }
        st->K[K_L2EV] += 1;
        if (st->l2_dirty[vw]) st->K[K_BMW] += 1;
        if (st->sdp_on) map_delete(st->dir_key, st->dir_mask, st->l2_tag[vw]);
    }
    st->l2_tag[vw] = pline;
    st->l2_dirty[vw] = 0;
    st->l2_stamp[vw] = tick;
    st->K[K_L2DF] += 1;
    return 0;
}

static void l2_writeback(St *st, int64_t vline, int64_t tick) {
    int64_t b = (vline & st->l2_mask) * st->W2;
    int64_t inv = -1, vw, w;
    st->K[K_B1W] += 1;
    for (w = b; w < b + st->W2; w++) {
        int64_t t = st->l2_tag[w];
        if (t == vline) {
            st->l2_stamp[w] = tick;
            st->l2_dirty[w] = 1;
            st->K[K_L2DUP] += 1;
            return;
        }
        if (inv < 0 && t == MAP_EMPTY) inv = w;
    }
    if (inv >= 0) {
        vw = inv;
    } else {
        int64_t best = st->l2_stamp[b];
        vw = b;
        for (w = b + 1; w < b + st->W2; w++) {
            int64_t s = st->l2_stamp[w];
            if (s < best) { best = s; vw = w; }
        }
        st->K[K_L2EV] += 1;
        if (st->l2_dirty[vw]) st->K[K_BMW] += 1;
        if (st->sdp_on) map_delete(st->dir_key, st->dir_mask, st->l2_tag[vw]);
    }
    st->l2_tag[vw] = vline;
    st->l2_dirty[vw] = 1;
    st->l2_stamp[vw] = tick;
    st->K[K_L2DF] += 1;
}

static void l1_fill(St *st, int64_t fline, int64_t fpib, int64_t fsrc,
                    int64_t ffid, int64_t fnsp, int64_t fdirty, int64_t tick) {
    int64_t vdirty = 0, vtag = -1, vw;
    if (st->W1 == 1) {
        vw = fline & st->l1_mask;
        vtag = st->l1_tag[vw];
        if (vtag != MAP_EMPTY) {
            st->K[K_EV] += 1;
            vdirty = st->l1_dirty[vw];
            if (st->l1_pib[vw]) {
                int64_t vrib = st->l1_rib[vw];
                int64_t row = (int64_t)st->l1_src[vw] * 7;
                if (vrib) {
                    st->K[K_EVU] += 1;
                    st->T[row + T_GOOD] += 1;
                } else {
                    st->K[K_EVN] += 1;
                    st->T[row + T_BAD] += 1;
                }
                feedback(st, vrib, st->l1_fid[vw]);
            }
        }
    } else {
        int64_t b = (fline & st->l1_mask) * st->W1;
        int64_t inv = -1, w;
        for (w = b; w < b + st->W1; w++) {
            if (st->l1_tag[w] == MAP_EMPTY) { inv = w; break; }
        }
        if (inv >= 0) {
            vw = inv;
        } else {
            int64_t best = st->l1_stamp[b];
            vw = b;
            for (w = b + 1; w < b + st->W1; w++) {
                int64_t s = st->l1_stamp[w];
                if (s < best) { best = s; vw = w; }
            }
            st->K[K_EV] += 1;
            vtag = st->l1_tag[vw];
            vdirty = st->l1_dirty[vw];
            if (st->l1_pib[vw]) {
                int64_t vrib = st->l1_rib[vw];
                int64_t row = (int64_t)st->l1_src[vw] * 7;
                if (vrib) {
                    st->K[K_EVU] += 1;
                    st->T[row + T_GOOD] += 1;
                } else {
                    st->K[K_EVN] += 1;
                    st->T[row + T_BAD] += 1;
                }
                feedback(st, vrib, st->l1_fid[vw]);
            }
        }
    }
    st->l1_tag[vw] = fline;
    st->l1_dirty[vw] = (uint8_t)fdirty;
    st->l1_pib[vw] = (uint8_t)fpib;
    st->l1_rib[vw] = 0;
    st->l1_nsp[vw] = (uint8_t)fnsp;
    st->l1_src[vw] = (uint8_t)fsrc;
    st->l1_fid[vw] = ffid;
    st->l1_stamp[vw] = tick;
    if (fpib) st->K[K_PF1] += 1; else st->K[K_DF1] += 1;
    if (vdirty) l2_writeback(st, vtag, tick);
}

static void route(St *st, int64_t rline, int64_t rpc, int64_t rsrc,
                  int64_t tick) {
    int64_t row = rsrc * 7, fid = 0;
    st->T[row + T_GEN] += 1;
    if (st->W1 == 1) {
        if (st->l1_tag[rline & st->l1_mask] == rline) {
            st->T[row + T_SQ] += 1;
            return;
        }
    } else {
        int64_t b = (rline & st->l1_mask) * st->W1;
        int64_t w;
        for (w = b; w < b + st->W1; w++) {
            if (st->l1_tag[w] == rline) {
                st->T[row + T_SQ] += 1;
                return;
            }
        }
    }
    if (st->fmode == FMODE_TABLE) {
        fid = table_hash((uint64_t)(st->key_pc ? rpc : rline), st->tbits);
        if (st->tvals[fid] >= st->thresh) {
            st->K[K_TLG] += 1;
            st->K[K_FA] += 1;
        } else {
            st->K[K_TLB] += 1;
            st->K[K_FR] += 1;
            st->T[row + T_FLT] += 1;
            return;
        }
    } else {
        st->K[K_FA] += 1;
    }
    st->T[row + T_ISS] += 1;
    l2_fetch(st, rline, 1, tick);
    st->K[K_B1P] += 1;
    l1_fill(st, rline, 1, rsrc, fid, st->nsp_on, 0, tick);
}

int64_t kernel_span(
    const int64_t *mcls, const int64_t *mpc, const int64_t *mline,
    int64_t *l1_tag, uint8_t *l1_dirty, uint8_t *l1_pib, uint8_t *l1_rib,
    uint8_t *l1_nsp, uint8_t *l1_src, int64_t *l1_fid, int64_t *l1_stamp,
    int64_t *l2_tag, uint8_t *l2_dirty, int64_t *l2_stamp,
    int64_t *dir_key, int64_t *dir_shadow, uint8_t *dir_conf,
    int64_t *aw_key, int64_t *aw_val,
    int64_t *tvals, int64_t *K, int64_t *T, int64_t *S, const int64_t *P,
    int64_t start, int64_t stop) {
    St st;
    int64_t STORE = P[P_STORE];
    int64_t SW_PF = P[P_SWPF];
    int64_t wb = P[P_WB];
    int64_t degree = P[P_DEGREE];
    int64_t i, d;

    st.l1_tag = l1_tag; st.l1_dirty = l1_dirty; st.l1_pib = l1_pib;
    st.l1_rib = l1_rib; st.l1_nsp = l1_nsp; st.l1_src = l1_src;
    st.l1_fid = l1_fid; st.l1_stamp = l1_stamp;
    st.l2_tag = l2_tag; st.l2_dirty = l2_dirty; st.l2_stamp = l2_stamp;
    st.dir_key = dir_key; st.dir_shadow = dir_shadow; st.dir_conf = dir_conf;
    st.aw_key = aw_key; st.aw_val = aw_val;
    st.tvals = tvals; st.K = K; st.T = T;
    st.W1 = P[P_W1]; st.l1_mask = P[P_L1MASK];
    st.W2 = P[P_W2]; st.l2_mask = P[P_L2MASK];
    st.fmode = P[P_FMODE]; st.thresh = P[P_THRESH]; st.maxv = P[P_MAXV];
    st.tbits = P[P_TBITS]; st.key_pc = P[P_KEYPC];
    st.dir_mask = P[P_DIRMASK]; st.aw_mask = P[P_AWMASK];
    st.sdp_on = P[P_SDP]; st.nsp_on = P[P_NSP];

    for (i = start; i < stop; i++) {
        int64_t cls = mcls[i];
        int64_t line = mline[i];
        int64_t is_write, hw;
        if (cls == SW_PF) {
            K[K_SWX] += 1;
            route(&st, line, mpc[i], 3, i);
            continue;
        }
        is_write = cls == STORE;
        if (st.W1 == 1) {
            hw = line & st.l1_mask;
            if (l1_tag[hw] != line) hw = -1;
        } else {
            int64_t b = (line & st.l1_mask) * st.W1;
            int64_t w;
            hw = -1;
            for (w = b; w < b + st.W1; w++) {
                if (l1_tag[w] == line) { hw = w; break; }
            }
        }
        if (hw >= 0) {
            int64_t tag_hit = 0;
            if (st.nsp_on && l1_nsp[hw]) {
                l1_nsp[hw] = 0;
                tag_hit = 1;
            }
            if (is_write) {
                K[K_WH] += 1;
                l1_dirty[hw] = 1;
            } else {
                K[K_RH] += 1;
            }
            if (l1_pib[hw] && !l1_rib[hw]) {
                l1_rib[hw] = 1;
                K[K_FU] += 1;
                if (st.sdp_on) {
                    int64_t slot = map_lookup(aw_key, st.aw_mask, line);
                    if (slot >= 0) {
                        int64_t parent = aw_val[slot];
                        int64_t ds;
                        aw_key[slot] = MAP_TOMB;
                        ds = map_lookup(dir_key, st.dir_mask, parent);
                        if (ds >= 0 && dir_shadow[ds] == line) {
                            dir_conf[ds] = 1;
                            K[K_SDPC] += 1;
                        }
                    }
                }
            }
            l1_stamp[hw] = i;
            if (tag_hit) {
                int64_t pc = mpc[i];
                K[K_NSPT] += 1;
                for (d = 1; d <= degree; d++) {
                    route(&st, line + d, pc, 1, i);
                }
            }
        } else {
            int64_t pc, fdirty;
            if (is_write) K[K_WM] += 1; else K[K_RM] += 1;
            l2_fetch(&st, line, 0, i);
            K[K_B1D] += 1;
            fdirty = (is_write && wb) ? 1 : 0;
            l1_fill(&st, line, 0, 0, 0, 0, fdirty, i);
            pc = mpc[i];
            if (st.nsp_on) {
                K[K_NSPM] += 1;
                for (d = 1; d <= degree; d++) {
                    route(&st, line + d, pc, 1, i);
                }
            }
            if (st.sdp_on) {
                int64_t ds = map_lookup(dir_key, st.dir_mask, line);
                int64_t prev;
                if (ds >= 0 && dir_shadow[ds] != line) {
                    if (dir_conf[ds]) {
                        int64_t shadow = dir_shadow[ds];
                        int64_t aw;
                        dir_conf[ds] = 0;
                        aw = map_insert(aw_key, st.aw_mask, shadow);
                        if (aw < 0) return 2;
                        aw_val[aw] = line;
                        K[K_SDPI] += 1;
                        route(&st, shadow, pc, 2, i);
                    } else {
                        K[K_SDPS] += 1;
                    }
                }
                prev = S[S_SDP_LAST];
                if (prev != -1 && prev != line) {
                    int64_t os_ = map_lookup(dir_key, st.dir_mask, prev);
                    if (os_ < 0 || dir_shadow[os_] != line) {
                        int64_t slot = map_insert(dir_key, st.dir_mask, prev);
                        if (slot < 0) return 1;
                        dir_shadow[slot] = line;
                        dir_conf[slot] = 1;
                        K[K_SDPL] += 1;
                    }
                }
                S[S_SDP_LAST] = line;
            }
        }
    }
    return 0;
}
"""


def c_source() -> str:
    """The complete generated C translation unit."""
    return _defines() + _BODY


def _find_compiler() -> Optional[str]:
    env = os.environ.get("CC")
    if env and shutil.which(env):
        return env
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    env = os.environ.get(_CACHE_DIR_ENV)
    base = Path(env) if env else Path.home() / ".cache" / "repro"
    return base / "ckernel"


#: How :data:`LOAD_ERROR` starts when a compiler ran and rejected the
#: generated source.
COMPILE_FAILED = "C kernel compile failed"


def _build(source: str) -> Path:
    """Compile ``source`` into the cache; atomic, concurrency-safe."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    so_path = directory / f"kernel-{digest}.so"
    if so_path.exists():
        return so_path
    c_path = directory / f"kernel-{digest}.c"
    tmp_so = directory / f"kernel-{digest}.{os.getpid()}.tmp.so"
    c_path.write_text(source)
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    cmd = [compiler, "-O2", "-fPIC", "-shared", "-o", str(tmp_so), str(c_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        tmp_so.unlink(missing_ok=True)
        raise RuntimeError(f"{COMPILE_FAILED}: {proc.stderr.strip()[:500]}")
    os.replace(tmp_so, so_path)
    return so_path


#: The array arguments of ``kernel_span``: all but ``start`` and ``stop``.
_N_ARRAYS = len(inspect.signature(_k.kernel_span).parameters) - 2
_FN: Optional[Callable] = None
_TRIED = False
LOAD_ERROR = ""


def _bind(so_path: Path) -> Callable:
    lib = ctypes.CDLL(str(so_path))
    fn = lib.kernel_span
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_void_p] * _N_ARRAYS + [ctypes.c_int64] * 2

    def span(*args):
        arrays, start, stop = args[:_N_ARRAYS], args[-2], args[-1]
        return fn(*(a.ctypes.data for a in arrays), int(start), int(stop))

    return span


def load() -> Optional[Callable]:
    """The compiled ``kernel_span`` (same signature as the Python one),
    or ``None`` when this leg is unavailable; probed once per process."""
    global _FN, _TRIED, LOAD_ERROR
    if _TRIED:
        return _FN
    _TRIED = True
    try:
        _FN = _bind(_build(c_source()))
    except Exception as exc:  # any failure degrades to the interp leg
        LOAD_ERROR = str(exc)
        _FN = None
    return _FN


def rejected() -> bool:
    """Whether a compiler ran and rejected the generated source: a broken
    port, which fails the cc gates where a missing compiler skips them."""
    return load() is None and LOAD_ERROR.startswith(COMPILE_FAILED)
