"""The JSONL text of sampled graphs, a chunk of whole lines at a time: one
line per draw, each the same text as json.dumps({"n": ..., "edges": [[u, v],
...]}) with the edges of Graph.edges, and a newline.  No Graph is built.

masks_to_jsonl writes the edge masks of one order (the exact draws' int64
array; the MCMC draws and graphs_to_jsonl's Graphs of one order as Python
ints), one join per chunk over a flat token table of the pairs set in some
draw; draws_to_jsonl gathers the lines of grouped Boltzmann draws;
trees_to_jsonl writes each chunk of sampled tree edges from per-vertex
tokens, one join per chunk.
"""

from __future__ import annotations

import functools
import json
import operator
from collections import defaultdict
from collections.abc import Iterable, Iterator

import numpy as np

from ._kernels import pair_endpoints
from .graphs import Graph, pair_count

# The JSONL writer packs at most this many mask bytes at once (one draw if it
# is wider).  A chunk's per-edge index arrays take up to 8 int64 entries per
# packed byte, so the chunk stays small enough that the writer adds about
# nothing to the sampler's peak memory.
_CHUNK_BYTES = 1 << 15
_CHUNK_LINES = 1 << 12  # draws per chunk of draws_to_jsonl


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


def _pair_tables(n: int, bits: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """For ascending pair bits of order n: rank[b], the lexicographic rank of
    bit b's pair among them (int32, indexed up to the highest bit), and the
    "[u, v]" text of each pair in that order, joined from per-vertex halves.
    Its index arrays are freed on return, before the lines are built."""
    pu, pv = pair_endpoints(n, bits)
    order = np.lexsort((pv, pu))
    rank = np.empty(bits.max(initial=-1) + 1, dtype=np.int32)
    rank[bits[order]] = np.arange(bits.size, dtype=np.int32)
    head = ["[%d, " % (u + 1) for u in range(n)]
    tail = ["%d]" % (v + 1) for v in range(n)]
    return rank, [head[u] + tail[v] for u, v in zip(pu[order].tolist(), pv[order].tolist())]


def masks_to_jsonl(n: int, masks: list[int] | np.ndarray) -> Iterator[str]:
    """The JSONL text of the edge masks of order n, in order: line i is
    json.dumps({"n": n, "edges": [[u, v], ...]}) with the edges of
    Graph(n, masks[i]).

    masks is a list of Python ints or an int64 array (n <= 11); they differ
    only in how a chunk packs its rows into little-endian bytes of whole
    64-bit words (one int.to_bytes a mask, or one tobytes).  Each pair set in
    the OR of the masks (_pair_tables) has two tokens, head + "[u, v]" for a
    line's first edge and ", [u, v]" for a later one; the line ends are
    "]}\n" and, for an edgeless line, head + "]}\n".  Each chunk of at most
    _CHUNK_BYTES finds its set bits (_set_bits), sorts every draw's by their
    pair's rank, places the token ids in numpy and joins them once.
    """
    array = isinstance(masks, np.ndarray)
    union = int(np.bitwise_or.reduce(masks, initial=0)) if array else \
        functools.reduce(operator.or_, masks, 0)
    width = max(8, (pair_count(n) + 63) // 64 * 8)  # whole 64-bit words
    rank, text = _pair_tables(n, _set_bits(union.to_bytes(width, "little")))
    k = len(text)
    head = '{"n": %d, "edges": [' % n
    tokens = np.array([head + t for t in text] + [", " + t for t in text]
                      + ["]}\n", head + "]}\n"], dtype=object)
    step = max(1, _CHUNK_BYTES // width)
    for start in range(0, len(masks), step):
        chunk = masks[start:start + step]
        buf = chunk.astype("<i8").tobytes() if array else \
            b"".join([s.to_bytes(width, "little") for s in chunk])
        rows, cols = np.divmod(_set_bits(buf), width * 8)
        keys = np.sort(rows * k + rank[cols])  # the rows stay ascending
        counts = np.bincount(rows, minlength=len(chunk))
        ends = np.cumsum(counts) + np.arange(len(chunk))  # each line's end token
        ids = np.empty(ends[-1] + 1, dtype=np.intp)
        ids[np.arange(rows.size) + rows] = keys - (rows - 1) * k  # ", [u, v]" tokens
        ids[(ends - counts)[counts > 0]] -= k  # each line's first edge
        ids[ends] = 2 * k + (counts == 0)
        yield "".join(tokens[ids].tolist())


def graphs_to_jsonl(graphs: list[Graph]) -> list[str]:
    """One JSONL line per graph, in order, without its newline: the text of
    masks_to_jsonl over the graphs of each order n, split into lines."""
    by_n: defaultdict[int, list[int]] = defaultdict(list)
    for i, g in enumerate(graphs):
        by_n[g.n].append(i)
    lines: list[str] = [""] * len(graphs)
    for n, idx in by_n.items():
        text = "".join(masks_to_jsonl(n, [graphs[i].mask for i in idx]))
        for i, line in zip(idx, text.split("\n")):
            lines[i] = line
    return lines


def draws_to_jsonl(graphs: list[Graph], inverse: np.ndarray) -> Iterator[str]:
    """The JSONL text of the draws graphs[inverse[i]] (the Boltzmann draws,
    grouped by sampling.boltzmann_groups), a chunk of lines at a time: each
    graph's line (graphs_to_jsonl) is a token, and a chunk is one join."""
    tokens = np.array([line + "\n" for line in graphs_to_jsonl(graphs)], dtype=object)
    for start in range(0, inverse.size, _CHUNK_LINES):
        yield "".join(tokens[inverse[start:start + _CHUNK_LINES]].tolist())


def trees_to_jsonl(n: int, chunks: Iterable[np.ndarray]) -> Iterator[str]:
    """The JSONL text of trees on n vertices, one text per chunk of
    (draws, n - 1, 2) arrays of edges u < v (sampling.random_tree_chunks):
    the text masks_to_jsonl gives for the trees' edge masks, without building
    them.

    A line is built from 3n + 1 per-vertex tokens: head + "[u, " for its
    first edge, ", [u, " for a later one, "v]", and "]}\n".  Each row's keys
    u * n + v are sorted, which puts its edges in Graph.edges order, the
    token ids are placed in numpy, and the chunk is one join.
    """
    head = '{"n": %d, "edges": [' % n
    labels = range(1, n + 1)
    tokens = np.array([head + "[%d, " % u for u in labels] + [", [%d, " % u for u in labels]
                      + ["%d]" % v for v in labels] + ["]}\n"], dtype=object)
    for edges in chunks:
        draws, k = edges.shape[:2]
        if not k:  # n = 1: edgeless lines
            yield (head + "]}\n") * draws
            continue
        keys = np.sort(edges[:, :, 0] * n + edges[:, :, 1], axis=1)
        ids = np.empty((draws, 2 * k + 1), dtype=np.intp)
        ids[:, 0:-1:2], ids[:, 1::2] = np.divmod(keys, n)
        ids[:, 2:-1:2] += n
        ids[:, 1::2] += 2 * n
        ids[:, -1] = 3 * n
        yield "".join(tokens[ids.reshape(-1)].tolist())


def graph_from_json(line: str) -> Graph:
    data = json.loads(line)
    return Graph.from_edges(data["n"], [tuple(e) for e in data["edges"]])
