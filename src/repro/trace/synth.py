"""Low-level synthetic address-pattern primitives.

The workload generators compose these primitives into full benchmark
stand-ins.  Each primitive produces a numpy array of *byte addresses* with a
well-understood locality signature:

* ``strided_addresses``        — the regular array sweeps NSP thrives on,
* ``linked_list_addresses``    — heap-order pointer chasing (no spatial
                                 pattern; prefetchers mostly pollute),
* ``gaussian_pointer_chase``   — pointer chasing with a hot working set,
* ``zipf_addresses``           — skewed-popularity accesses (hash tables,
                                 symbol tables; the ``gcc``-style soup),
* ``lz_window_addresses``      — sliding-window matcher (``gzip``-style).

All primitives take an ``np.random.Generator`` so a workload is a pure
function of its seed.
"""

from __future__ import annotations

import numpy as np

_ALIGN = 8  # all synthetic data is 8-byte aligned, Alpha-style


def _align(addresses: np.ndarray) -> np.ndarray:
    return (addresses // _ALIGN * _ALIGN).astype(np.uint64)


def strided_addresses(base: int, count: int, stride: int, wrap: int | None = None) -> np.ndarray:
    """``count`` addresses starting at ``base`` stepping by ``stride`` bytes.

    With ``wrap`` the sweep wraps within a region of that many bytes, turning
    the pattern into repeated passes over a fixed working set.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    offsets = np.arange(count, dtype=np.int64) * stride
    if wrap is not None:
        if wrap <= 0:
            raise ValueError("wrap must be positive")
        offsets %= wrap
    return _align(np.uint64(base) + offsets.astype(np.uint64))


def linked_list_addresses(
    rng: np.random.Generator,
    base: int,
    n_nodes: int,
    node_bytes: int,
    count: int,
) -> np.ndarray:
    """Traverse a randomly-permuted singly linked list laid out in a heap.

    Node ``i`` lives at ``base + perm[i] * node_bytes``; traversal visits the
    permutation order, so consecutive accesses have no spatial relation —
    the worst case for sequential prefetching and the signature of the Olden
    pointer benchmarks.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    perm = rng.permutation(n_nodes)
    order = perm[np.arange(count, dtype=np.int64) % n_nodes]
    return _align(np.uint64(base) + order.astype(np.uint64) * np.uint64(node_bytes))


def gaussian_pointer_chase(
    rng: np.random.Generator,
    base: int,
    region_bytes: int,
    count: int,
    hot_fraction: float = 0.1,
    hot_probability: float = 0.7,
) -> np.ndarray:
    """Pointer-style accesses with a small hot set and a cold tail.

    ``hot_probability`` of accesses land uniformly in the first
    ``hot_fraction`` of the region; the rest land anywhere.  Models the
    mixed temporal locality of tree traversals with a hot root region.
    """
    if not 0 < hot_fraction <= 1:
        raise ValueError("hot_fraction must be in (0, 1]")
    if not 0 <= hot_probability <= 1:
        raise ValueError("hot_probability must be a probability")
    hot_bytes = max(_ALIGN, int(region_bytes * hot_fraction))
    is_hot = rng.random(count) < hot_probability
    offs = np.where(
        is_hot,
        rng.integers(0, hot_bytes, size=count),
        rng.integers(0, region_bytes, size=count),
    )
    return _align(np.uint64(base) + offs.astype(np.uint64))


def zipf_addresses(
    rng: np.random.Generator,
    base: int,
    n_objects: int,
    object_bytes: int,
    count: int,
    s: float = 1.2,
) -> np.ndarray:
    """Zipf-popularity object accesses over a shuffled object table.

    Popular objects are scattered through the region (shuffled ranks), so
    temporal locality is high but spatial locality is accidental — the shape
    of symbol-table/hash-table codes such as ``gcc`` and ``gap``.
    """
    if n_objects < 1:
        raise ValueError("need at least one object")
    if s <= 1.0:
        raise ValueError("zipf exponent must exceed 1")
    ranks = rng.zipf(s, size=count)
    ranks = np.minimum(ranks, n_objects) - 1
    placement = rng.permutation(n_objects)
    offs = placement[ranks].astype(np.uint64) * np.uint64(object_bytes)
    return _align(np.uint64(base) + offs)


def lz_window_addresses(
    rng: np.random.Generator,
    base: int,
    window_bytes: int,
    count: int,
    match_probability: float = 0.6,
    max_match_distance: int | None = None,
) -> np.ndarray:
    """LZ77-style compression access pattern.

    A cursor advances through the input; each step either reads at the
    cursor (literal) or jumps back a random distance within the window
    (match lookup), like ``gzip`` probing its sliding dictionary.
    """
    if window_bytes <= 0:
        raise ValueError("window must be positive")
    max_dist = max_match_distance or window_bytes
    is_match = rng.random(count) < match_probability
    back = rng.integers(1, max(2, max_dist), size=count)
    # Step 0 reads at the (empty) cursor; after it the cursor is always
    # positive, so every later non-match step is a literal.
    literal = ~is_match
    literal[:1] = True
    cursor = (np.cumsum(literal) - literal) * _ALIGN  # cursor before each step
    pos = np.where(literal, cursor, cursor - back % (cursor + 1))
    return _align(np.uint64(base) + pos.astype(np.uint64))


def stencil_addresses(
    base: int,
    rows: int,
    cols: int,
    element_bytes: int,
    count: int,
    radius: int = 1,
) -> np.ndarray:
    """Row-major 2-D stencil sweep (``wave5``-style grid physics).

    Visits each interior point and its vertical neighbours ``±radius`` rows
    away; the vertical neighbours are ``cols * element_bytes`` apart, giving
    the long-constant-stride signature of scientific grid codes.
    """
    if rows < 2 * radius + 1 or cols < 1:
        raise ValueError("grid too small for the stencil radius")
    # Step i visits interior point p = i // 3 (mod the interior), which
    # sits ``radius`` rows down, at row offset (-radius, 0, +radius)[i % 3]:
    # element p + radius * cols + offset * cols = p + (i % 3) * radius * cols.
    step = np.arange(count, dtype=np.int64)
    interior = (rows - 2 * radius) * cols
    offs = step // 3 % interior + step % 3 * radius * cols
    return _align(np.uint64(base) + offs.astype(np.uint64) * np.uint64(element_bytes))
