"""Canonical codes and automorphism counting."""

import hashlib
import itertools
import random

import pytest

from minorclass.canon import automorphism_count, canonicalize, isomorphic_bruteforce
from minorclass.errors import ResourceCapError
from minorclass.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    copies,
    cycle_graph,
    path_graph,
    star_graph,
)


def _relabel(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u - 1] + 1, perm[v - 1] + 1) for u, v in g.edges])


def test_relabellings_share_a_code():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(1, 7)
        g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonicalize(g) == canonicalize(_relabel(g, perm))


def test_non_isomorphic_codes_differ():
    assert canonicalize(path_graph(3)) != canonicalize(cycle_graph(3))
    assert canonicalize(star_graph(3)) != canonicalize(path_graph(4))


def test_eleven_classes_on_four_vertices():
    """All 64 labelled graphs on 4 vertices fall into the known 11 classes."""
    by_code = {}
    reps = []
    for mask in range(64):
        g = Graph(4, mask)
        code = canonicalize(g).hex
        if code not in by_code:
            by_code[code] = g
            reps.append(g)
    assert len(by_code) == 11
    # the codes agree with a permutation-based oracle
    for g1, g2 in itertools.combinations(reps, 2):
        assert not isomorphic_bruteforce(g1, g2)


def test_code_matches_oracle_on_random_pairs():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randrange(2, 7)
        g1 = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        g2 = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        assert (canonicalize(g1) == canonicalize(g2)) == isomorphic_bruteforce(g1, g2)


def test_code_matches_oracle_on_seven_vertices():
    rng = random.Random(29)
    for _ in range(8):
        g1 = Graph(7, rng.randrange(1 << 21))
        perm = list(range(7))
        rng.shuffle(perm)
        g2 = _relabel(g1, perm)
        assert canonicalize(g1) == canonicalize(g2)
        g3 = Graph(7, rng.randrange(1 << 21))
        assert (canonicalize(g1) == canonicalize(g3)) == isomorphic_bruteforce(g1, g3)


@pytest.mark.parametrize(
    "g,expected",
    [
        (Graph(1, 0), 1),
        (cycle_graph(3), 6),
        (path_graph(3), 2),
        (complete_graph(4), 24),
        (cycle_graph(4), 8),
        (cycle_graph(5), 10),
        (star_graph(3), 6),
        (complete_bipartite(3, 3), 72),
        (Graph(5, 0), 120),
        (Graph(9, 0), 362880),
        (copies(cycle_graph(3), 3), 1296),
        (complete_bipartite(4, 4), 1152),
        (copies(complete_graph(2), 4), 384),
    ],
)
def test_automorphism_counts(g, expected):
    assert automorphism_count(g) == expected


def test_aut_times_class_size_is_factorial():
    """aut(g) * #labelled copies = n!, the identity behind the census."""
    import math

    for n in range(1, 6):
        sizes = {}
        for mask in range(1 << (n * (n - 1) // 2)):
            code = canonicalize(Graph(n, mask)).hex
            sizes[code] = sizes.get(code, 0) + 1
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph(n, mask)
            assert automorphism_count(g) * sizes[canonicalize(g).hex] == math.factorial(n)


def test_codes_and_counts_pinned_up_to_six_vertices():
    """sha256 over "n mask code aut" for all 33,868 labelled graphs with n <= 6,
    recorded from the two-pass search that predates twin pruning."""
    from minorclass.graphs import pair_count

    h = hashlib.sha256()
    for n in range(7):
        for mask in range(1 << pair_count(n)):
            g = Graph(n, mask)
            h.update(f"{n} {mask} {canonicalize(g).hex} {automorphism_count(g)}\n".encode())
    assert h.hexdigest() == "6261b9fc4cf26e159c8039cb0819d43682284217e16d60e108fb48668550d637"


def test_vertex_cap():
    with pytest.raises(ResourceCapError):
        canonicalize(Graph(10, 0))
    with pytest.raises(ResourceCapError):
        automorphism_count(Graph(12, 0))


def test_code_hex_round_trip():
    from minorclass.canon import CanonicalCode

    code = canonicalize(cycle_graph(4))
    assert CanonicalCode.from_hex(code.hex) == code
