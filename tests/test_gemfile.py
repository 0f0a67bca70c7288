"""GEM v1 serialization: canonical export, parsing, error reporting."""

import pytest

from gemkit import (
    GemError,
    boundary_graph,
    double,
    export_gem,
    load_gem,
    parse_gem,
    save_gem,
)
from oracles import export_reference


def test_round_trip_byte_stable_on_catalog(all_entries):
    for entry in all_entries:
        text = export_gem(entry.graph)
        assert export_gem(parse_gem(text)) == text


def test_round_trip_preserves_graph(all_entries):
    for entry in all_entries:
        assert parse_gem(export_gem(entry.graph)) == entry.graph


def test_export_matches_reference_writer(
    all_entries, bounded_construction_outputs, crystallized_double_fig3,
    fig2, fig3
):
    gems = [e.graph for e in all_entries]
    gems.extend(bounded_construction_outputs.values())
    gems.append(crystallized_double_fig3)
    for bounded in (fig2, fig3):
        bg = boundary_graph(bounded)
        gems += [double(bounded), bg.graph, bg.component_subgraph(0)]
    for g in gems:
        assert export_gem(g) == export_reference(g)


def test_comments_and_blank_lines_ignored(fig3):
    text = export_gem(fig3)
    noisy = "# leading comment\n\n" + text.replace(
        "dim 4", "dim 4   # dimension"
    )
    assert parse_gem(noisy) == fig3


def test_export_is_sorted_canonical(fig2):
    text = export_gem(fig2)
    for line in text.splitlines():
        if line.startswith("color"):
            pairs = [
                tuple(map(int, tok.split("-"))) for tok in line.split()[2:]
            ]
            assert pairs == sorted(pairs)
            assert all(a < b for a, b in pairs)


def test_file_round_trip(tmp_path, fig4):
    path = tmp_path / "fig4.gem"
    save_gem(fig4, path)
    assert load_gem(path) == fig4


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "malformed header"),
        ("gem-format 2\ndim 1\nvertices 2\ncolor 0: 1-2\ncolor 1:\nend\n",
         "malformed header"),
        ("gem-format 1\ndim 1\nvertices 2\ncolor 0: 1-2\ncolor 1:\n",
         "followed by 'end'"),
        ("gem-format 1\ndim 1\nvertices 2\ncolor 0: 1+2\ncolor 1:\nend\n",
         "malformed pair"),
        ("gem-format 1\ndim 1\nvertices 4\ncolor 0: 1-2\ncolor 1:\nend\n",
         "not a total pairing"),
        ("gem-format 1\ndim x\nvertices 2\ncolor 0: 1-2\ncolor 1:\nend\n",
         "malformed header"),
        ("gem-format 1\ndim 1\n",
         "^truncated file: missing 'dim'/'vertices' lines$"),
        ("gem-format 1\ndims 1\nvertices 2\ncolor 0: 1-2\ncolor 1:\nend\n",
         "^malformed header: expected 'dim D'$"),
        ("gem-format 1\ndim 1\nvertices 2 4\ncolor 0: 1-2\ncolor 1:\nend\n",
         "^malformed header: expected 'vertices N'$"),
        ("gem-format 1\ndim 1\nvertices 2\ncolor 1: 1-2\ncolor 0:\nend\n",
         "^expected 'color 0:' line$"),
        ("gem-format 1\ndim 1\nvertices 2\ncolor 0: 1-2\ncolour 1:\nend\n",
         "^expected 'color 1:' line$"),
        ("gem-format 1\ndim 1\nvertices 2\ncolor 0: 1-x\ncolor 1:\nend\n",
         "^malformed pair '1-x'$"),
        # integer fields are ASCII decimal digits, though `int` reads
        # "+", a "_" between digits and other scripts' digits; the first
        # malformed pair of a line is named
        ("gem-format 1\ndim 1\nvertices +2\ncolor 0: 1-2\ncolor 1:\nend\n",
         "^malformed header: expected 'vertices N'$"),
        ("gem-format 1\ndim \u0661\nvertices 2\ncolor 0: 1-2\ncolor 1:\nend\n",
         "^malformed header: expected 'dim D'$"),
        ("gem-format 1\ndim 1\nvertices 2\ncolor 0: 1_0-2\ncolor 1:\nend\n",
         "^malformed pair '1_0-2'$"),
        ("gem-format 1\ndim 1\nvertices 2\ncolor 0: 1--2\ncolor 1:\nend\n",
         "^color 0: vertex out of range in pair 1--2$"),
        ("gem-format 1\ndim 1\nvertices 4\ncolor 0: 1x-2 3_0-4\ncolor 1:\nend\n",
         "^malformed pair '1x-2'$"),
        ("gem-format 1\ndim 1\nvertices 4\ncolor 0: 1-2 3-\u0664\ncolor 1:\nend\n",
         "^malformed pair '3-\u0664'$"),
        ("gem-format 1\ndim 1\nvertices 0\ncolor 0:\ncolor 1:\nend\n",
         "^vertex count must be positive$"),
        # a token with no "-" on an ASCII line, which the token-by-token
        # check does not read
        ("gem-format 1\ndim 1\nvertices 2\ncolor 0: 12\ncolor 1:\nend\n",
         "^malformed pair '12'$"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(GemError, match=message):
        parse_gem(text)


def test_non_utf8_file_names_the_file(tmp_path):
    path = tmp_path / "bad.gem"
    path.write_bytes(b"gem-format 1\n\xff\n")
    with pytest.raises(GemError, match="not UTF-8") as exc:
        load_gem(path)
    assert str(path) in str(exc.value)


def test_parse_error_names_the_file(tmp_path):
    path = tmp_path / "bad.gem"
    path.write_text("gem-format 1\ndim 1\nvertices 2\ncolor 0:\ncolor 1:\nend\n")
    with pytest.raises(GemError) as exc:
        load_gem(path)
    assert str(exc.value) == f"{path}: color 0 not a total pairing"
