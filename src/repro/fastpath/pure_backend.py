"""The pure-Python fast backend: per-node integer bitmask frontier.

The global state of amnesiac flooding is the set of directed arcs
carrying ``M``.  This backend stores that set as *per-sender bitmasks*:
``masks[v]`` has bit ``k`` set iff ``v`` sends to its ``k``-th CSR
neighbour this round, and ``active`` lists the senders with a non-empty
mask.  One round of :func:`flood` is then

1. for every set bit of every active sender, OR the arc's
   :attr:`~repro.fastpath.indexed.IndexedGraph.reverse_bit` into the
   receiver's heard-mask (first touch records the receive round);
2. every touched receiver's next send-mask is
   ``full_mask & ~heard_mask`` -- "forward to the complement of the
   neighbours you heard from", Definition 1.1 verbatim.

Step 2 is the *forward rule*, and it is the only thing the
round-granular variants of :mod:`repro.fastpath.variants` change
(thinning, ``k``-memory windows, dynamic topologies; multi-message
runs one flood per payload): :func:`flood` is the one round loop, and
:func:`run` seeds the sources' full masks and calls it with the
inline amnesiac rule (``forward=None``).

Decoding a send-mask into ``(receiver, reverse_bit)`` pairs is memoised
per ``(node, mask)``: flooding reuses a handful of masks per node (the
full mask, and the full mask minus each single heard neighbour), so
after the first round almost every decode is one dict hit and the
per-message work collapses to an iterate-and-OR over a cached tuple.
The memo lives on the :class:`IndexedGraph` (amortised across runs and
sweeps) and is capped per node so adversarial mask sequences cannot
balloon it; uncached masks decode through a 256-entry byte table.
The thinned and windowed forward rules, whose masks rarely recur,
decode afresh instead (``flood(..., memoise=False)``).

Everything in the hot loop is small-int arithmetic on two reused
length-``n`` lists -- no tuple hashing, no set churn, no per-round
allocation proportional to ``n``.  Cost per round is
O(messages + receivers).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.fastpath.indexed import IndexedGraph

_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(k for k in range(8) if byte >> k & 1) for byte in range(256)
)
"""For each byte value, the ascending positions of its set bits."""

_SendList = Tuple[Tuple[int, int], ...]

_NO_MEMO: Mapping[int, _SendList] = MappingProxyType({})
"""The always-empty memo every node shares when a flood decodes afresh."""

RawRun = Tuple[
    bool,  # terminated within budget
    List[int],  # per-round directed-message counts (round 1 first)
    int,  # total messages
    Optional[List[List[int]]],  # per-round sender ids (None when not collected)
    Optional[List[List[int]]],  # per-node-id ascending receive rounds
]

Forward = Callable[[List[int], List[int], List[int], int], List[int]]
"""A forward rule: ``(touched, heard, masks, round_number) -> next_active``."""


def _decoders(index: IndexedGraph) -> List[Dict[int, _SendList]]:
    cache = index._send_cache
    if cache is None:
        cache = [{} for _ in range(index.n)]
        index._send_cache = cache
    return cache


def _decode(index: IndexedGraph, sender: int, mask: int) -> _SendList:
    """Expand a send-mask into its ``(receiver, reverse_bit)`` pairs."""
    targets = index.targets
    reverse_bit = index.reverse_bit
    byte_bits = _BYTE_BITS
    base = index.offsets[sender]
    pairs: List[Tuple[int, int]] = []
    while mask:
        for k in byte_bits[mask & 255]:
            slot = base + k
            pairs.append((targets[slot], reverse_bit[slot]))
        mask >>= 8
        base += 8
    return tuple(pairs)


def _memo_decode(
    index: IndexedGraph, decoder: Dict[int, _SendList], sender: int, mask: int
) -> _SendList:
    """Decode a memo miss, caching it while the node's memo is under its cap."""
    send_list = _decode(index, sender, mask)
    # Flooding shows each node only ~degree distinct masks; cap the memo
    # so pathological mask sequences (arc-mask configuration sweeps)
    # cannot balloon it.
    if len(decoder) <= 2 * (index.offsets[sender + 1] - index.offsets[sender]) + 16:
        decoder[mask] = send_list
    return send_list


def run(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    collect_senders: bool = True,
    collect_receives: bool = True,
) -> RawRun:
    """Run amnesiac flooding from ``source_ids`` under a round budget."""
    full_masks = index.full_masks
    masks = [0] * index.n
    active: List[int] = []
    for source in source_ids:
        if full_masks[source]:
            masks[source] = full_masks[source]
            active.append(source)
    return flood(index, masks, active, budget, None, collect_senders, collect_receives)


def flood(
    index: IndexedGraph,
    masks: List[int],
    active: List[int],
    budget: int,
    forward: Optional[Forward],
    collect_senders: bool,
    collect_receives: bool,
    memoise: bool = True,
) -> RawRun:
    """Deliver and forward the seeded frontier until it empties or the budget cuts.

    ``masks``/``active`` are the round-1 send-masks and their senders;
    both are consumed.  Each round delivers every active mask into the
    receivers' heard-masks, then hands the touched receivers to
    ``forward`` (``forward(touched, heard, masks, round_number)``), which
    must clear their ``heard`` entries, write the next send-masks and
    return the next senders.  ``None`` is the amnesiac complement rule,
    applied inline so the plain path pays no per-round call.

    ``memoise=False`` decodes every send-mask afresh instead of through
    the index's memo.  Rules whose masks are drawn or windowed pass it:
    their masks rarely recur, stored they would fill the per-node cap
    ahead of the amnesiac masks, and building the memo costs a fresh
    pool worker a garbage-collection pass over its inherited heap.
    """
    full_masks = index.full_masks
    n = index.n
    decoders = _decoders(index) if memoise else [_NO_MEMO] * n

    heard = [0] * n
    round_counts: List[int] = []
    sender_rounds: Optional[List[List[int]]] = [] if collect_senders else None
    receives: Optional[List[List[int]]] = (
        [[] for _ in range(n)] if collect_receives else None
    )
    total = 0
    terminated = True
    round_number = 1

    while active:
        if round_number > budget:
            terminated = False
            break
        count = 0
        touched: List[int] = []
        touch = touched.append
        for sender in active:
            mask = masks[sender]
            masks[sender] = 0
            decoder = decoders[sender]
            send_list = decoder.get(mask)
            if send_list is None:
                if memoise:
                    send_list = _memo_decode(index, decoder, sender, mask)
                else:
                    send_list = _decode(index, sender, mask)
            count += len(send_list)
            for receiver, rbit in send_list:
                heard_mask = heard[receiver]
                if not heard_mask:
                    touch(receiver)
                    if receives is not None:
                        receives[receiver].append(round_number)
                heard[receiver] = heard_mask | rbit
        round_counts.append(count)
        total += count
        if sender_rounds is not None:
            # Ascending ids, matching the numpy and oracle backends, so
            # raw sender lists are comparable across backends.
            sender_rounds.append(sorted(active))
        if forward is not None:
            active = forward(touched, heard, masks, round_number)
        else:
            next_active: List[int] = []
            for receiver in touched:
                next_mask = full_masks[receiver] & ~heard[receiver]
                heard[receiver] = 0
                if next_mask:
                    masks[receiver] = next_mask
                    next_active.append(receiver)
            active = next_active
        round_number += 1

    return terminated, round_counts, total, sender_rounds, receives
