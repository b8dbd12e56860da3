"""The optional numpy fast backend: a word-packed arc-array frontier.

A batch of floods over one :class:`~repro.fastpath.indexed.IndexedGraph`
runs together, up to :data:`WORD_RUNS` = 64 at a time: the frontier
``F`` holds one word per directed arc slot, and bit ``b`` of ``F[j]``
is "run ``b`` sends along slot ``j`` this round".  One round advances
every run of the block with three vector operations:

* ``H = F[reverse_slot]`` -- bit ``b`` of ``H[j]`` is set iff, in run
  ``b``, the *owner* of slot ``j`` heard from ``targets[j]`` (the
  reverse-slot array is the involution that flips every arc);
* ``heard = bitwise_or.reduceat(H, starts)`` -- per node, the runs in
  which it received anything.  ``starts`` are the CSR block starts of
  the nodes that have arcs only: ``reduceat`` reads an empty segment
  as the element at its start, so isolated nodes stay out;
* ``F' = heard[owner] ^ H`` -- every receiver re-sends along all its
  slots except those it heard along, in every run at once (each bit of
  ``H[j]`` is also set in its owner's ``heard`` word, so the XOR is
  ``heard[owner] & ~H``).

The word type follows the block: ``uint8`` up to 8 runs, then
``uint16``, ``uint32`` and ``uint64`` for 33-64 runs, so a lone run
moves one byte per arc, not eight.  Per-run message counts are
per-bit counts: blocks of up to :data:`BITWISE_COUNT_RUNS` runs count
the frontier bit by bit with ``count_nonzero``; wider blocks count on
the nodes instead of the arcs, with one weighted per-byte ``bincount``
against a 256 x 8 bit table (see :func:`_run_block`).  A run's
frontier, once empty, stays empty, so its per-round counts are the
non-zero prefix of its count column.

Cost is O(arcs) per round per block, independent of frontier size and
shared by up to 64 runs.  That wins on the short floods of large dense
graphs and loses to the pure backend on sparse long floods -- the
dispatcher in :mod:`repro.fastpath.engine` picks accordingly.  Every
numpy batch, a single run included, goes through :func:`run_batch`.

This module imports cleanly when numpy is absent; ``HAS_NUMPY`` gates
every entry point (the container may or may not ship numpy, and the
pure backend is always available).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.pure_backend import RawRun

try:  # pragma: no cover - exercised implicitly by backend selection
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAS_NUMPY = _np is not None

WORD_RUNS = 64
"""Runs per block: one bit each in a ``uint64`` word per arc slot."""

BITWISE_COUNT_RUNS = 4
"""Blocks up to this many runs count messages bit by bit over the arcs.

One ``count_nonzero`` per run beats the node-side degree sums up to
about four runs (measured on ER-1000 of mean degree 8); a lone
``run_spec`` pays one per round."""

if _np is not None:
    _WORD_BITS = [
        _np.left_shift(_np.ones(width, dtype=word), _np.arange(width, dtype=word))
        for width, word in (
            (8, _np.uint8),
            (16, _np.uint16),
            (32, _np.uint32),
            (64, _np.uint64),
        )
    ]
    """Per word type, narrowest first: the single-bit word of each run."""
    _BIT_TABLE = ((_np.arange(256)[:, None] >> _np.arange(8)) & 1).astype(
        _np.float64
    )
    """Row ``x`` holds the eight bits of byte value ``x``, low bit first."""
    _BYTE_BINS = _np.arange(8, dtype=_np.int64) * 256
    """Per byte of a word, the offset of its 256 histogram bins."""


class _ArcArrays:
    """Numpy sidecar of an :class:`IndexedGraph`, built once per index.

    ``senders`` are the ids of the nodes that have arcs (ascending),
    ``starts`` their CSR block starts -- the non-empty ``reduceat``
    segments -- ``sender_degrees`` their degrees (as ``bincount``
    weights) and ``slot_sender`` maps every slot to its owner's
    position in ``senders``.
    """

    __slots__ = (
        "offsets",
        "targets",
        "reverse_slot",
        "owner",
        "senders",
        "starts",
        "sender_degrees",
        "slot_sender",
    )

    def __init__(self, index: IndexedGraph) -> None:
        self.offsets = _np.asarray(index.offsets, dtype=_np.int64)
        self.targets = _np.asarray(index.targets, dtype=_np.int64)
        self.reverse_slot = _np.asarray(index.reverse_slot, dtype=_np.int64)
        degrees = self.offsets[1:] - self.offsets[:-1]
        self.owner = _np.repeat(_np.arange(index.n, dtype=_np.int64), degrees)
        self.senders = _np.flatnonzero(degrees)
        self.starts = self.offsets[self.senders]
        self.sender_degrees = degrees[self.senders].astype(_np.float64)
        self.slot_sender = _np.repeat(
            _np.arange(self.senders.size, dtype=_np.int64),
            degrees[self.senders],
        )


def _arrays(index: IndexedGraph) -> _ArcArrays:
    cached = index._numpy_arrays
    if cached is None:
        cached = _ArcArrays(index)
        index._numpy_arrays = cached
    return cached


def _run_bits(runs: int) -> "object":
    """The single-bit words of ``runs`` runs, in the narrowest word type."""
    return next(bits[:runs] for bits in _WORD_BITS if runs <= bits.size)


def _bit_counts(frontier: "object", bits: "object") -> List[int]:
    """Per run, the arc slots of ``frontier`` that carry its bit.

    ``count_nonzero`` returns a numpy integer; results hold Python ints.
    """
    return [int(_np.count_nonzero(frontier & bit)) for bit in bits]


def _degree_sums(words: "object", weights: "object") -> List[int]:
    """Per bit ``b``: the summed weight of the words that carry bit ``b``.

    ``weights`` holds one weight per byte of ``words`` (the sender
    degrees, repeated per byte).  One weighted ``bincount`` histograms
    every byte position at once; the 256 x 8 bit table turns byte
    histograms into bit sums.  The float64 sums are of integers no
    larger than the arc count, so they are exact.
    """
    if not _np.little_endian:  # pragma: no cover - big-endian hosts
        words = words.astype(words.dtype.newbyteorder("<"))
    itemsize = words.itemsize
    octets = words.view(_np.uint8).reshape(-1, itemsize) + _BYTE_BINS[:itemsize]
    histogram = _np.bincount(
        octets.ravel(), weights=weights, minlength=256 * itemsize
    )
    sums = histogram.reshape(itemsize, 256) @ _BIT_TABLE
    return sums.ravel().astype(_np.int64).tolist()


def _run_block(
    index: IndexedGraph,
    arrays: _ArcArrays,
    id_lists: Sequence[Sequence[int]],
    budget: int,
    collect_senders: bool,
    collect_receives: bool,
) -> List[RawRun]:
    """Flood up to :data:`WORD_RUNS` source-id lists in one word pass.

    Blocks of up to :data:`BITWISE_COUNT_RUNS` runs count each round's
    messages bit by bit over the arcs.  Wider blocks count on the
    nodes: in run ``b`` every receiver sends to all its neighbours but
    those it heard from, so the next round's count is the receivers'
    summed degree minus this round's count (``H`` is a permutation of
    ``F``, so it carries as many messages).  At a budget cut-off,
    ``cut`` holds the counts of the round that did not run.
    """
    runs = len(id_lists)
    bits = _run_bits(runs)
    seeds = _np.zeros(index.n, dtype=bits.dtype)
    for bit, source_ids in zip(bits, id_lists):
        for source in source_ids:
            seeds[source] |= bit
    frontier = seeds[arrays.owner]

    reverse_slot = arrays.reverse_slot
    starts = arrays.starts
    slot_sender = arrays.slot_sender
    senders = arrays.senders
    sender_rounds: Optional[List[List[List[int]]]] = (
        [[] for _ in range(runs)] if collect_senders else None
    )
    receives: Optional[List[List[List[int]]]] = (
        [[[] for _ in range(index.n)] for _ in range(runs)]
        if collect_receives
        else None
    )
    bitwise = runs <= BITWISE_COUNT_RUNS
    if bitwise:
        counts = _bit_counts(frontier, bits)
    else:
        weights = _np.repeat(arrays.sender_degrees, bits.itemsize)
        counts = _degree_sums(seeds[senders], weights)
    count_rows: List[List[int]] = []
    cut = [0] * runs
    round_number = 1

    while any(counts):
        if round_number > budget:
            cut = counts
            break
        count_rows.append(counts)
        if sender_rounds is not None:
            sent = _np.bitwise_or.reduceat(frontier, starts)
            for position, bit in enumerate(bits):
                if counts[position]:
                    sender_rounds[position].append(
                        senders[(sent & bit) != 0].tolist()
                    )
        heard = frontier[reverse_slot]
        heard_any = _np.bitwise_or.reduceat(heard, starts)
        if receives is not None:
            for position, bit in enumerate(bits):
                node_rounds = receives[position]
                for receiver in senders[(heard_any & bit) != 0].tolist():
                    node_rounds[receiver].append(round_number)
        # Every bit of H[j] is set in its owner's heard word, so XOR
        # clears exactly the slots heard along.
        frontier = heard_any[slot_sender] ^ heard
        if bitwise:
            counts = _bit_counts(frontier, bits)
        else:
            counts = [
                total - count
                for total, count in zip(_degree_sums(heard_any, weights), counts)
            ]
        round_number += 1

    columns = list(zip(*count_rows)) if count_rows else [()] * runs
    results: List[RawRun] = []
    for position in range(runs):
        round_counts = [count for count in columns[position] if count]
        results.append(
            (
                not cut[position],
                round_counts,
                sum(round_counts),
                sender_rounds[position] if sender_rounds is not None else None,
                receives[position] if receives is not None else None,
            )
        )
    return results


def run_batch(
    index: IndexedGraph,
    id_lists: Sequence[Sequence[int]],
    budget: int,
    collect_senders: bool = False,
    collect_receives: bool = False,
) -> List[RawRun]:
    """Run a batch of floods word-packed; one RawRun per source-id list.

    Blocks of :data:`WORD_RUNS` lists share one frontier pass.  Every
    element is bit-identical to ``pure_backend.run`` of the same ids
    (a repeated id seeds its node once), and every emitted value is a
    plain Python ``int``/``bool``: the result cache's codec rejects
    numpy scalars.  The frontier is integer words throughout; the only
    floats are the wide blocks' degree sums, exact integers far below
    2**53.
    """
    if _np is None:  # pragma: no cover - guarded by the dispatcher
        raise RuntimeError("numpy backend requested but numpy is not importable")
    arrays = _arrays(index)
    results: List[RawRun] = []
    for start in range(0, len(id_lists), WORD_RUNS):
        results.extend(
            _run_block(
                index,
                arrays,
                id_lists[start : start + WORD_RUNS],
                budget,
                collect_senders,
                collect_receives,
            )
        )
    return results
