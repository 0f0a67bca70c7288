"""Reading and writing gems in the GEM v1 text format.

The format is line-oriented UTF-8; `#` starts a comment running to the
end of the line.  Layout:

    gem-format 1
    dim D
    vertices N
    color 0: a-b a-b ...
    ...
    color D: a-b ...
    end

Colors 0..D-1 must list N/2 pairs; color D may list fewer, and the
unlisted vertices are boundary vertices.  Export is canonical (pairs
sorted by smaller endpoint, colors ascending), so export followed by
parse is the identity byte-for-byte on canonical files.
"""

from __future__ import annotations

from .core import ColoredGraph, GemError


def _lines(text: str) -> list[str]:
    """The lines of `text` that hold more than a comment, stripped."""
    lines = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _digits(field: str) -> bool:
    """Whether `field` is a run of ASCII decimal digits, the only form of
    an integer field in GEM v1."""
    return field.isascii() and field.isdigit()


def parse_gem(text: str) -> ColoredGraph:
    """Parse GEM v1 content into a ColoredGraph.

    A color line is split into tokens only when its pairs are read, so
    the tokens of one line at a time are alive.
    """
    lines = _lines(text)
    if not lines or lines[0].split() != ["gem-format", "1"]:
        raise GemError("malformed header: expected 'gem-format 1'")
    if len(lines) < 3:
        raise GemError("truncated file: missing 'dim'/'vertices' lines")
    dim_row, vertices_row = lines[1].split(), lines[2].split()
    if dim_row[0] != "dim" or len(dim_row) != 2 or not _digits(dim_row[1]):
        raise GemError("malformed header: expected 'dim D'")
    if (
        vertices_row[0] != "vertices" or len(vertices_row) != 2
        or not _digits(vertices_row[1])
    ):
        raise GemError("malformed header: expected 'vertices N'")
    d, n = int(dim_row[1]), int(vertices_row[1])
    body = lines[3:]
    # a stripped line splits into ["end"] exactly when it is "end"
    if len(body) != d + 2 or body[-1] != "end":
        raise GemError(f"expected {d + 1} color lines followed by 'end'")
    pairs_by_color = []
    for expected_color, line in enumerate(body[:-1]):
        row = line.split()
        if (
            len(row) < 2
            or row[0] != "color"
            or row[1].rstrip(":") != str(expected_color)
        ):
            raise GemError(f"expected 'color {expected_color}:' line")
        # `int` also reads "+", a "_" between digits and non-ASCII
        # digits, so a line that may hold one is checked token by token,
        # in order; a "-" sign is left to the graph's range check
        if not line.isascii() or "+" in line or "_" in line:
            for token in row[2:]:
                a, _, b = token.partition("-")
                if not (_digits(a) and _digits(b.removeprefix("-"))):
                    raise GemError(f"malformed pair '{token}'")
        pairs = []
        for token in row[2:]:
            a, sep, b = token.partition("-")
            if not sep:
                raise GemError(f"malformed pair '{token}'")
            try:
                pairs.append((int(a), int(b)))
            except ValueError:
                raise GemError(f"malformed pair '{token}'") from None
        pairs_by_color.append(pairs)
    return ColoredGraph(d, n, pairs_by_color)


def export_gem(g: ColoredGraph) -> str:
    """Serialize a graph canonically in GEM v1."""
    lines = [
        "gem-format 1",
        f"dim {g.dimension}",
        f"vertices {g.vertex_count}",
    ]
    for c, mate in enumerate(g._mates):
        # each edge once, from its smaller end, in vertex order
        pairs = [f"{v}-{w}" for v, w in enumerate(mate) if v < w]
        lines.append(" ".join([f"color {c}:", *pairs]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_gem(path) -> ColoredGraph:
    """Read a GEM v1 file; every format error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GemError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    try:
        return parse_gem(text)
    except GemError as exc:
        raise GemError(f"{path}: {exc}") from None


def save_gem(g: ColoredGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_gem(g))
