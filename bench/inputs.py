"""Seeded input generators for the benchmark.

They mirror the distributions of the acceptance suite (star/pisces forests,
small random general graphs, every population-monotonic graph up to a size)
but are kept here, apart from the tests, so that later edits to the tests
cannot shift the benchmark's inputs.  Graphs are produced as edge-list text,
which is how they reach the library (through ``parse_graph``).
"""

from __future__ import annotations

import itertools
import random

Pairs = list[tuple[str, str]]


def edge_list_text(pairs: Pairs) -> str:
    return "".join(f"{u} {v}\n" for u, v in pairs)


def _orient_and_shuffle(rng: random.Random, pairs: Pairs) -> Pairs:
    oriented = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
    rng.shuffle(oriented)
    return oriented


def star_pisces_forest(rng: random.Random, total: int) -> Pairs:
    """A disjoint union of stars and pisceses with exactly ``total`` edges,
    drawn like the acceptance suite's forests, in shuffled edge order."""
    edges: Pairs = []
    labels = (f"n{k}" for k in itertools.count(1))
    remaining = total
    while remaining:
        if remaining >= 3 and rng.random() < 0.5:
            p = rng.randint(1, remaining - 2)
            q = rng.randint(1, remaining - 1 - p)
            b1, b2 = next(labels), next(labels)
            edges.append((b1, b2))
            edges.extend((b1, next(labels)) for _ in range(p))
            edges.extend((b2, next(labels)) for _ in range(q))
            remaining -= 1 + p + q
        else:
            k = rng.randint(1, remaining)
            center = next(labels)
            edges.extend((center, next(labels)) for _ in range(k))
            remaining -= k
    return _orient_and_shuffle(rng, edges)


def random_graph(rng: random.Random, edges: int, min_vertices: int, max_vertices: int) -> Pairs:
    """A uniformly chosen edge set on a random number of labelled vertices,
    like the acceptance suite's general graphs."""
    nv = rng.randint(min_vertices, max_vertices)
    labels = [f"v{k}" for k in range(nv)]
    pairs = list(itertools.combinations(labels, 2))
    return _orient_and_shuffle(rng, rng.sample(pairs, edges))


def pm_shape_multisets(edges: int) -> list[tuple]:
    """Every multiset of star/pisces shapes with exactly ``edges`` edges in
    total: one population-monotonic graph per isomorphism class."""
    shapes: list[tuple] = [("star", k) for k in range(1, edges + 1)]
    shapes += [("pisces", p, q) for p in range(1, edges)
               for q in range(p, edges) if p + q + 1 <= edges]

    def size(shape) -> int:
        return shape[1] if shape[0] == "star" else shape[1] + shape[2] + 1

    out: list[tuple] = []

    def rec(start: int, budget: int, chosen: list) -> None:
        if budget == 0:
            out.append(tuple(chosen))
        for idx in range(start, len(shapes)):
            if size(shapes[idx]) <= budget:
                chosen.append(shapes[idx])
                rec(idx, budget - size(shapes[idx]), chosen)
                chosen.pop()

    rec(0, edges, [])
    return out


def shapes_graph(rng: random.Random, multiset: tuple) -> Pairs:
    """The graph of a shape multiset, in a seeded edge order and orientation."""
    edges: Pairs = []
    labels = (f"v{k:02d}" for k in itertools.count(1))
    for shape in multiset:
        if shape[0] == "star":
            center = next(labels)
            edges.extend((center, next(labels)) for _ in range(shape[1]))
        else:
            _, p, q = shape
            b1, b2 = next(labels), next(labels)
            edges.append((b1, b2))
            edges.extend((b1, next(labels)) for _ in range(p))
            edges.extend((b2, next(labels)) for _ in range(q))
    return _orient_and_shuffle(rng, edges)


def vertex_count(pairs: Pairs, coalition) -> int:
    return len({w for i in coalition for w in pairs[i]})


def large_coalitions(rng: random.Random, pairs: Pairs, distinct: int, queries: int,
                     min_vertices: int) -> tuple[list[frozenset], list[frozenset]]:
    """``distinct`` random coalitions whose subgraphs have more than
    ``min_vertices`` vertices, and a query stream of ``queries`` draws from
    them with replacement (so part of the stream repeats earlier queries)."""
    pool: list[frozenset] = []
    seen: set[frozenset] = set()
    n = len(pairs)
    while len(pool) < distinct:
        s = frozenset(i for i in range(n) if rng.random() < 0.8)
        if s not in seen and vertex_count(pairs, s) > min_vertices:
            seen.add(s)
            pool.append(s)
    return pool, [rng.choice(pool) for _ in range(queries)]


# The acceptance suite's CLI fixtures and command set (criterion 8), with the
# exit code each command must give.
CLI_FIXTURES = {
    "p4.txt": "a b\nb c\nc d\n",
    "k3.txt": "a b\nb c\na c\n",
    "star3.txt": "hub x\nhub y\nhub z\n",
    "c4.txt": "a b\nb c\nc d\nd a\n",
    "forest.txt": "b1 b2\nb1 p\nb2 q\nhub x\nhub y\nm n\n",
    "bad.txt": "a b\na b\n",
    "prefs.json": '{"b": [0, 1], "c": [2, 1]}',
}
CLI_SCHEME_COMMAND = ["construct", "--input", "{p4.txt}", "--materialize"]
CLI_COMMANDS = [
    (["classify", "--input", "{p4.txt}"], 0),
    (["classify", "--input", "{k3.txt}"], 1),
    (["classify", "--format", "text", "--input", "{forest.txt}"], 0),
    (["classify", "--input", "{bad.txt}"], 2),
    (["game-info", "--input", "{c4.txt}"], 0),
    (["game-info", "--format", "text", "--input", "{k3.txt}"], 0),
    (["construct", "--input", "{p4.txt}", "--coalition", "0,1,2"], 0),
    (["construct", "--input", "{forest.txt}", "--materialize"], 0),
    (["construct", "--input", "{k3.txt}"], 2),
    (["verify", "--input", "{p4.txt}", "{scheme.json}"], 0),
    (["enumerate", "--input", "{star3.txt}"], 0),
    (["enumerate", "--input", "{star3.txt}", "--max-enumerate", "2"], 2),
    (["count", "--input", "{forest.txt}"], 0),
    (["count", "--format", "text", "--input", "{star3.txt}"], 0),
    (["stable-match", "--input", "{p4.txt}", "--prefs", "{prefs.json}"], 0),
]
