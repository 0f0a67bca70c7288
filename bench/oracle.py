"""Reference code the benchmark checks gemkit's outputs against.

Nothing here imports gemkit.  GEM text is read and written by a separate
minimal implementation, and residue components are counted by BFS over
explicit adjacency lists (gemkit uses union-find), so agreement between
the two is a cross-check rather than a tautology.
"""

from __future__ import annotations

import itertools
import random
from collections import deque


def read_gem(text: str) -> tuple[int, int, list[list[tuple[int, int]]]]:
    """(dimension, vertex count, pairs per color) of GEM v1 text."""
    rows = [
        line.split("#", 1)[0].split() for line in text.splitlines()
    ]
    rows = [row for row in rows if row]
    d = int(rows[1][1])
    n = int(rows[2][1])
    pairs = []
    for row in rows[3:3 + d + 1]:
        pairs.append([tuple(int(x) for x in tok.split("-")) for tok in row[2:]])
    return d, n, pairs


def write_gem(d: int, n: int, pairs: list[list[tuple[int, int]]]) -> str:
    """Canonical GEM v1 text: pairs (smaller, larger) sorted, colors ascending."""
    lines = ["gem-format 1", f"dim {d}", f"vertices {n}"]
    for c, color_pairs in enumerate(pairs):
        body = " ".join(
            f"{a}-{b}" for a, b in sorted((min(p), max(p)) for p in color_pairs)
        )
        lines.append(f"color {c}:" + (f" {body}" if body else ""))
    lines.append("end")
    return "\n".join(lines) + "\n"


def random_matching(vertices: list[int], rng: random.Random) -> list[tuple[int, int]]:
    vs = vertices[:]
    rng.shuffle(vs)
    return [(vs[i], vs[i + 1]) for i in range(0, len(vs) - 1, 2)]


def random_gem(n: int, matched: int, rng: random.Random, d: int = 4):
    """Random matchings on colors 0..d-1 and `matched` edges of color d."""
    vertices = list(range(1, n + 1))
    pairs = [random_matching(vertices, rng) for _ in range(d)]
    pairs.append(random_matching(vertices, rng)[:matched])
    return d, n, pairs


class Gem:
    """Adjacency view of parsed GEM text for BFS counting."""

    def __init__(self, text: str):
        self.d, self.n, pairs = read_gem(text)
        self.mates = []
        for color_pairs in pairs:
            mate = [0] * (self.n + 1)
            for a, b in color_pairs:
                mate[a], mate[b] = b, a
            self.mates.append(mate)

    def components(self, colors) -> tuple[int, int]:
        """(components, regular components) of the residue on `colors`."""
        label = self.labels(colors)
        irregular = {label[v] for c in colors
                     for v in range(1, self.n + 1) if not self.mates[c][v]}
        total = max(label, default=0)
        return total, total - len(irregular)

    def labels(self, colors) -> list[int]:
        """Component label of every vertex in the residue on `colors`
        (index 0 unused)."""
        mates = [self.mates[c] for c in colors]
        label = [0] * (self.n + 1)
        count = 0
        for start in range(1, self.n + 1):
            if label[start]:
                continue
            count += 1
            label[start] = count
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for mate in mates:
                    w = mate[v]
                    if w and not label[w]:
                        label[w] = count
                        queue.append(w)
        return label

    def singular_residue(self):
        """The first 3-colored residue component that is neither a 2-sphere
        (χ = 2, closed) nor a 2-disk (χ = 1, with boundary), as (colors,
        vertices), or None.  Passing is necessary for a manifold gem.

        Each vertex is a triangle; a matched side is an edge shared by two
        triangles, an unmatched side a boundary edge, and each 2-colored
        component a corner vertex of the surface."""
        for colors in itertools.combinations(range(self.d + 1), 3):
            residue = self.labels(colors)
            corners = [self.labels(pair) for pair in itertools.combinations(colors, 2)]
            members: dict[int, list[int]] = {}
            for v in range(1, self.n + 1):
                members.setdefault(residue[v], []).append(v)
            for vertices in members.values():
                matched = sum(1 for v in vertices for c in colors if self.mates[c][v])
                unmatched = 3 * len(vertices) - matched
                points = len({(k, corner[v]) for v in vertices
                              for k, corner in enumerate(corners)})
                chi = len(vertices) - (matched // 2 + unmatched) + points
                if not ((chi == 2 and not unmatched) or (chi == 1 and unmatched)):
                    return colors, vertices
        return None

    def boundary_count(self) -> int:
        return sum(1 for v in range(1, self.n + 1) if not self.mates[self.d][v])

    def face_vector(self) -> list[int]:
        """f[k] = components of the residues on complements of (k+1)-sets."""
        colors = range(self.d + 1)
        f = []
        for k in range(self.d + 1):
            total = 0
            for labels in itertools.combinations(colors, k + 1):
                rest = [c for c in colors if c not in labels]
                total += self.components(rest)[0] if rest else self.n
            f.append(total)
        return f

    def is_closed_crystallization(self) -> bool:
        """Closed, and connected after dropping any one color."""
        if self.boundary_count():
            return False
        colors = range(self.d + 1)
        return all(
            self.components([c for c in colors if c != drop])[0] == 1
            for drop in colors
        )
