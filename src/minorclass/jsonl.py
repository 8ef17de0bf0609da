"""The JSONL text of sampled graphs: one line per draw, each the same text as
json.dumps({"n": ..., "edges": [[u, v], ...]}) with the edges of Graph.edges.

Two routes share one formatter (_jsonl_lines) and one pair table
(_pair_tables): masks_to_jsonl for the edge masks of one order (the exact
and MCMC draws, and graphs_to_jsonl's Graphs grouped by order), and
trees_to_jsonl for the edge bits of decoded trees.  Neither builds a Graph.
"""

from __future__ import annotations

import functools
import json
import operator
from collections import defaultdict

import numpy as np

from ._kernels import pair_endpoints
from .graphs import Graph, pair_count

# The JSONL writer packs at most this many mask bytes at once (one draw if it
# is wider).  A chunk's per-edge index arrays take up to 8 int64 entries per
# packed byte, so the chunk stays small enough that the writer adds about
# nothing to the sampler's peak memory.
_CHUNK_BYTES = 1 << 15
_CHUNK_EDGES = 1 << 15  # tree edges per batch of the tree route (one tree if larger)


def _set_bits(buf: bytes) -> np.ndarray:
    """Ascending positions of the set bits of little-endian bytes, whose
    length is a multiple of 8.

    The scan narrows in three steps, each a flatnonzero over a bool array
    (numpy's nonzero is several times faster on bool than on uint8 or
    uint64): the nonzero 64-bit words, the nonzero bytes of those words, and
    the set bits of those bytes."""
    words = np.frombuffer(buf, dtype="<u8")
    at = np.flatnonzero(words != 0)
    packed = words[at].view(np.uint8)
    hit = np.flatnonzero(packed != 0)
    bits = np.unpackbits(packed[hit], bitorder="little").view(bool)
    on = np.flatnonzero(bits)
    first = at[hit >> 3] * 64 + (hit & 7) * 8  # first bit of each nonzero byte
    return first[on >> 3] + (on & 7)


def _pair_tables(n: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ascending pair bits of order n: rank[b], the lexicographic rank of
    bit b's pair among them (int32, indexed up to the highest bit), and the
    "[u, v]" text of each pair in that order, joined from per-vertex halves.
    Its index arrays are freed on return, before the lines are built."""
    pu, pv = pair_endpoints(n, bits)
    order = np.lexsort((pv, pu))
    rank = np.empty(bits[-1] + 1, dtype=np.int32)
    rank[bits[order]] = np.arange(bits.size, dtype=np.int32)
    head = ["[%d, " % (u + 1) for u in range(n)]
    tail = ["%d]" % (v + 1) for v in range(n)]
    text = [head[u] + tail[v] for u, v in zip(pu[order].tolist(), pv[order].tolist())]
    return rank, np.array(text, dtype=object)


def _jsonl_lines(n: int, text: np.ndarray, ranks: np.ndarray, ends) -> list[str]:
    """The JSONL lines of consecutive draws of order n, from the pair text of
    _pair_tables: draw i's edges are the pairs whose ranks are
    ranks[ends[i-1]:ends[i]] (from 0 for the first draw), ascending."""
    edges = text[ranks].tolist()
    head = '{"n": %d, "edges": [' % n
    out = []
    begin = 0
    for end in ends:
        out.append(head + ", ".join(edges[begin:end]) + "]}")
        begin = end
    return out


def masks_to_jsonl(n: int, masks: list[int]) -> list[str]:
    """One JSONL line per edge mask of order n, in order, each the same text
    as json.dumps({"n": n, "edges": [[u, v], ...]}) with the edges of
    Graph(n, mask).edges.

    Each distinct mask is formatted once and its line repeated for every
    equal draw.  The tables cover only the pairs set in the OR of the masks
    (_pair_tables).  Each chunk of at most _CHUNK_BYTES packs its masks into
    little-endian bytes, rows rounded up to whole 64-bit words, finds their
    set bits word by word (_set_bits), sorts every draw's set bits by their
    pair's rank and joins the text (_jsonl_lines).  No (draws x pair_count)
    bit matrix is built.
    """
    index: dict[int, int] = {}
    inverse = [index.setdefault(s, len(index)) for s in masks]
    distinct = list(index)
    del index
    union = functools.reduce(operator.or_, distinct, 0)
    if not union:
        return ['{"n": %d, "edges": []}' % n] * len(masks)
    width = (pair_count(n) + 63) // 64 * 8  # whole 64-bit words
    rank, text = _pair_tables(n, _set_bits(union.to_bytes(width, "little")))
    k = text.size
    step = max(1, _CHUNK_BYTES // width)
    lines: list[str] = []
    for start in range(0, len(distinct), step):
        chunk = distinct[start:start + step]
        buf = b"".join([s.to_bytes(width, "little") for s in chunk])
        rows, cols = np.divmod(_set_bits(buf), width * 8)
        keys = np.sort(rows * k + rank[cols])
        ends = np.cumsum(np.bincount(rows, minlength=len(chunk))).tolist()
        lines += _jsonl_lines(n, text, keys % k, ends)
    return [lines[j] for j in inverse]


def graphs_to_jsonl(graphs: list[Graph]) -> list[str]:
    """One JSONL line per graph, in order: masks_to_jsonl over the draws of
    each order n."""
    by_n: defaultdict[int, list[int]] = defaultdict(list)
    for i, g in enumerate(graphs):
        by_n[g.n].append(i)
    lines: list[str] = [""] * len(graphs)
    for n, idx in by_n.items():
        for i, line in zip(idx, masks_to_jsonl(n, [graphs[i].mask for i in idx])):
            lines[i] = line
    return lines


def trees_to_jsonl(n: int, bits: np.ndarray) -> list[str]:
    """One JSONL line per row of tree edge bits (sampling.random_tree_bits):
    the text masks_to_jsonl gives for the trees' edge masks, without building
    the masks.  The tables cover the pairs present in any row (_pair_tables),
    and each batch of rows sorts every row's ranks and joins the text
    (_jsonl_lines)."""
    edges = bits.shape[1]
    if not bits.size:
        return ['{"n": %d, "edges": []}' % n] * len(bits)
    present = np.zeros(pair_count(n), dtype=bool)
    present[bits.reshape(-1)] = True
    rank, text = _pair_tables(n, np.flatnonzero(present))
    del present
    lines: list[str] = []
    step = max(1, _CHUNK_EDGES // edges)
    for start in range(0, len(bits), step):
        ranks = np.sort(rank[bits[start:start + step]], axis=1).reshape(-1)
        lines += _jsonl_lines(n, text, ranks, range(edges, ranks.size + 1, edges))
    return lines


def graph_from_json(line: str) -> Graph:
    data = json.loads(line)
    return Graph.from_edges(data["n"], [tuple(e) for e in data["edges"]])
