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


def _tokens(text: str) -> list[list[str]]:
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def parse_gem(text: str) -> ColoredGraph:
    """Parse GEM v1 content into a ColoredGraph."""
    rows = _tokens(text)
    if not rows or rows[0] != ["gem-format", "1"]:
        raise GemError("malformed header: expected 'gem-format 1'")
    if len(rows) < 3:
        raise GemError("truncated file: missing 'dim'/'vertices' lines")
    if rows[1][0] != "dim" or len(rows[1]) != 2:
        raise GemError("malformed header: expected 'dim D'")
    if rows[2][0] != "vertices" or len(rows[2]) != 2:
        raise GemError("malformed header: expected 'vertices N'")
    try:
        d = int(rows[1][1])
        n = int(rows[2][1])
    except ValueError as exc:
        raise GemError(f"malformed header: {exc}") from None
    body = rows[3:]
    if len(body) != d + 2 or body[-1] != ["end"]:
        raise GemError(f"expected {d + 1} color lines followed by 'end'")
    pairs_by_color = []
    for expected_color, row in enumerate(body[:-1]):
        if (
            len(row) < 2
            or row[0] != "color"
            or row[1].rstrip(":") != str(expected_color)
        ):
            raise GemError(f"expected 'color {expected_color}:' line")
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
