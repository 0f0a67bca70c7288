"""Command-line interface: subcommands, exit codes, JSON determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import gemkit
import gemkit.cli
from gemkit import export_gem, load_gem, parse_gem, save_gem
from gemkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def order_two(d):
    """GEM text of the closed 2-vertex gem of dimension d."""
    colors = [f"color {c}: 1-2" for c in range(d + 1)]
    return "\n".join(
        ["gem-format 1", f"dim {d}", "vertices 2", *colors, "end", ""]
    )


class TestInfo:
    def test_info_catalog_name(self, capsys):
        code, out, _ = run(capsys, "info", "fig2_s3xI")
        assert code == 0
        assert "boundary components=2" in out
        assert "crystallization=True" in out
        assert "chi=0" in out

    def test_info_file(self, capsys, tmp_path, fig3):
        path = tmp_path / "g.gem"
        save_gem(fig3, path)
        code, out, _ = run(capsys, "info", str(path))
        assert code == 0
        assert "boundary components=1" in out

    def test_unknown_input_exits_2(self, capsys):
        code, _, err = run(capsys, "info", "no_such_thing")
        assert code == 2
        assert "error:" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.gem"
        path.write_bytes(b"gem-format 1\n\xff\n")
        code, out, err = run(capsys, "info", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err

    def test_dimension_over_the_cap_exits_2_without_allocating(
        self, capsys, tmp_path
    ):
        small, big = tmp_path / "d10.gem", tmp_path / "d20.gem"
        small.write_text(order_two(10))
        big.write_text(order_two(20))
        code, out, _ = run(capsys, "info", str(small))
        assert code == 0 and out.startswith("dimension 10, 2 vertices")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "info", str(big))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "dimension 20 exceeds the supported maximum 10" in err
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "command",
        [
            ("info",),
            ("boundary",),
            ("crystallize-double",),
            ("bounds", "--rank", "0"),
            ("recognize", "--rank", "0"),
        ],
    )
    def test_bounded_one_gem_names_the_dimension_contract(
        self, capsys, tmp_path, command
    ):
        # a 1-gem with boundary would have a boundary graph of dimension 0
        path = tmp_path / "one.gem"
        path.write_text(
            "gem-format 1\ndim 1\nvertices 2\ncolor 0: 1-2\ncolor 1:\nend\n"
        )
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (2, "")
        assert err == (
            "error: a gem with boundary needs dimension at least 2\n"
        )

    def test_closed_stdout_is_not_bad_input(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(gemkit.__file__).resolve().parent.parent)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "gemkit.cli",
                 "verify", "fig4_boundary16", "--json"],
                stdout=write_end, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=src), timeout=120,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (141, b"")

    def test_json_schema_version(self, capsys):
        code, out, _ = run(capsys, "info", "fig3_d3xs1", "--json")
        record = json.loads(out)
        assert record["schema"] == 1
        assert record["euler_characteristic"] == 0


class TestGenus:
    def test_genus_fig3(self, capsys):
        code, out, _ = run(capsys, "genus", "fig3_d3xs1")
        assert code == 0
        assert "rho(Gamma) = 1" in out

    def test_dimension_over_the_scheme_cap_exits_2_at_once(
        self, capsys, tmp_path
    ):
        path = tmp_path / "d10.gem"
        path.write_text(order_two(10))
        start = time.perf_counter()
        code, out, err = run(capsys, "genus", str(path))
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, "")
        assert err == (
            "error: dimension 10 exceeds the scheme maximum 9: "
            "it has 1814400 schemes (d!/2)\n"
        )
        assert elapsed < 0.5
        code, out, _ = run(capsys, "info", str(path))
        assert code == 0 and out.startswith("dimension 10, 2 vertices")

    def test_all_permutations_table(self, capsys):
        code, out, _ = run(capsys, "genus", "fig3_d3xs1",
                           "--all-permutations")
        assert code == 0
        # 12 scheme rows, every rho_eps equal to 1
        rows = [l for l in out.splitlines() if l.startswith("(")]
        assert len(rows) == 12
        assert all(row.endswith(" 1") for row in rows)

    def test_genus_json(self, capsys):
        code, out, _ = run(capsys, "genus", "fig4_boundary16", "--json")
        record = json.loads(out)
        assert record["rho"] == 3


class TestBoundsVerifyRecognize:
    def test_bounds_pass(self, capsys):
        code, out, _ = run(capsys, "bounds", "fig4_boundary16", "--rank", "1")
        assert code == 0
        assert "overall: PASS" in out

    def test_bounds_need_rank(self, capsys):
        code, _, err = run(capsys, "bounds", "fig4_boundary16")
        assert code == 2
        assert "--rank" in err

    @pytest.mark.parametrize(
        "subcommand, flag, value, field",
        [
            (subcommand, *negative)
            for subcommand in ("bounds", "verify", "recognize")
            for negative in (
                ("--rank", "-3", "m"),
                ("--boundary-genus", "-2", "boundary_genus"),
                ("--double-rank", "-4", "double_rank"),
                ("--boundary-complexity", "-5", "k_boundary"),
            )
            # recognize reads only --rank and --boundary-genus
            if subcommand != "recognize"
            or negative[0] in ("--rank", "--boundary-genus")
        ],
    )
    def test_negative_metadata_exits_2(
        self, capsys, subcommand, flag, value, field
    ):
        argv = [subcommand, "fig3_d3xs1", "--rank", "1", flag, value]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {field} must be nonnegative, got {value}\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--boundary-genus", "1"),
            ("--double-rank", "1"),
            ("--boundary-complexity", "0"),
            ("--boundary-genus", "-2", "--boundary-complexity", "-5"),
        ],
    )
    def test_verify_rejects_dependent_flags_without_rank(self, capsys, flags):
        code, out, err = run(capsys, "verify", "fig3_d3xs1", *flags)
        assert (code, out) == (2, "")
        assert "needs --rank" in err

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("s4_order2", ("--rank", "1")),
            ("fig1_s4", ("--rank", "0", "--boundary-genus", "0")),
            ("fig1_s4", ("--rank", "1", "--boundary-complexity", "3")),
            ("s4_order2", ("--double-rank", "1")),
        ],
    )
    def test_verify_rejects_meta_flags_on_closed_input(
        self, capsys, name, flags
    ):
        code, out, err = run(capsys, "verify", name, *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        code, out, _ = run(capsys, "verify", name)
        assert code == 0 and out.endswith("overall: PASS\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "s4_order2"),
            *(
                (subcommand, "s4_order2", *flags)
                for subcommand in ("verify", "bounds")
                for flags in (
                    ("--boundary-genus", "1"),
                    ("--boundary-genus", "1", "--rank", "1"),
                    ("--rank", "1", "--boundary-genus", "1"),
                )
            ),
            ("recognize", "s4_order2"),
            ("recognize", "s4_order2", "--boundary-genus", "1"),
            ("recognize", "fig1_s4", "--rank", "1"),
        ],
    )
    def test_closed_input_reported_before_missing_rank(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: input is closed; needs a gem with nonempty boundary\n"
        )

    def test_verify_fig2(self, capsys):
        code, out, _ = run(capsys, "verify", "fig2_s3xI",
                           "--rank", "0", "--boundary-genus", "0")
        assert code == 0
        assert out.count("overall: PASS") == 2  # identities and bounds

    def test_verify_corrupted_fails(self, capsys, tmp_path, fig2):
        pairs = [list(fig2.edges(c)) for c in fig2.colors]
        (a, b), (c, d) = pairs[0][0], pairs[0][1]
        pairs[0][0], pairs[0][1] = (a, c), (b, d)
        from gemkit import ColoredGraph

        bad = ColoredGraph(4, 10, pairs)
        path = tmp_path / "bad.gem"
        save_gem(bad, path)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_recognize_fig2(self, capsys):
        code, out, _ = run(capsys, "recognize", "fig2_s3xI",
                           "--rank", "0", "--boundary-genus", "0")
        assert code == 0
        assert "type I:  True" in out
        assert "type II: True" in out


class TestConstructionsCli:
    def test_double(self, capsys, tmp_path):
        out_path = tmp_path / "d.gem"
        code, _, _ = run(capsys, "double", "fig3_d3xs1", "-o", str(out_path))
        assert code == 0
        assert load_gem(out_path).vertex_count == 20

    def test_crystallize_double(self, capsys, tmp_path):
        out_path = tmp_path / "cd.gem"
        code, _, _ = run(capsys, "crystallize-double", "fig3_d3xs1",
                         "-o", str(out_path))
        assert code == 0
        g = load_gem(out_path)
        assert g.vertex_count == 18 and g.is_closed()

    def test_product_to_stdout(self, capsys):
        code, out, _ = run(capsys, "product", "s2xs1_8")
        assert code == 0
        assert parse_gem(out).vertex_count == 40

    def test_connect_via_sphere(self, capsys, tmp_path):
        out_path = tmp_path / "sum.gem"
        code, _, _ = run(capsys, "connect", "fig3_d3xs1", "fig3_d3xs1",
                         "--via-sphere", "--at", "1", "1",
                         "-o", str(out_path))
        assert code == 0
        assert load_gem(out_path).vertex_count == 26

    def test_parse_error_names_the_bad_file(self, capsys, tmp_path, fig3):
        good, bad = tmp_path / "good.gem", tmp_path / "bad.gem"
        save_gem(fig3, good)
        bad.write_text("gem-format 2\n")
        code, out, err = run(capsys, "connect", str(good), str(bad))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {bad}: malformed header: expected 'gem-format 1'\n"
        )

    def test_connect_plain(self, capsys, tmp_path):
        out_path = tmp_path / "sum.gem"
        code, _, _ = run(capsys, "connect", "fig1_s4", "fig1_s4",
                         "-o", str(out_path))
        assert code == 0
        assert load_gem(out_path).vertex_count == 18

    def test_boundary_export(self, capsys, tmp_path):
        prefix = tmp_path / "bd"
        code, _, _ = run(capsys, "boundary", "fig2_s3xI", "-o", str(prefix))
        assert code == 0
        comp1 = load_gem(tmp_path / "bd.1.gem")
        comp2 = load_gem(tmp_path / "bd.2.gem")
        assert comp1.vertex_count == comp2.vertex_count == 2

    def test_boundary_of_closed_exits_2(self, capsys):
        code, _, err = run(capsys, "boundary", "fig1_s4")
        assert code == 2
        assert "closed" in err

    def test_product_wrong_dimension_exits_2(self, capsys):
        code, _, _ = run(capsys, "product", "fig3_d3xs1")
        assert code == 2


class TestCatalogCli:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "fig1_s4" in out.splitlines()

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "fig2_s3xI")
        assert code == 0
        assert "10 vertices" in out

    def test_export_matches_library(self, capsys, fig4):
        code, out, _ = run(capsys, "catalog", "export", "fig4_boundary16")
        assert code == 0
        assert out == export_gem(fig4)

    def test_show_needs_name(self, capsys):
        for action in ("show", "export"):
            with pytest.raises(SystemExit) as exc:
                main(["catalog", action])
            assert exc.value.code == 2


# (argv, the unrecognized arguments): each subcommand takes only the
# flags it reads; a report takes no -o, a construction no --json
UNREAD_FLAGS = [
    # weak semi-simplicity reads only m and the boundary genus
    ("recognize fig3_d3xs1 --rank 1 --double-rank 5", "--double-rank 5"),
    ("recognize fig3_d3xs1 --rank 1 --boundary-complexity 5",
     "--boundary-complexity 5"),
    ("double fig3_d3xs1 --json", "--json"),
    ("crystallize-double fig3_d3xs1 --json", "--json"),
    ("connect fig3_d3xs1 fig3_d3xs1 --json", "--json"),
    ("product s2xs1_8 --json", "--json"),
    ("boundary fig3_d3xs1 --json", "--json"),
    ("catalog export fig3_d3xs1 --json", "--json"),
    ("catalog list -o list.txt", "-o list.txt"),
    ("catalog show fig3_d3xs1 -o show.txt", "-o show.txt"),
    ("catalog list fig3_d3xs1", "fig3_d3xs1"),
]


@pytest.mark.parametrize(
    "argv, unread", UNREAD_FLAGS, ids=[argv for argv, _ in UNREAD_FLAGS]
)
def test_unread_flag_is_a_usage_error(capsys, tmp_path, monkeypatch, argv,
                                      unread):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {unread}\n" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, help_text",
    [
        (["boundary", "-h"], "write component q to PREFIX.q.gem"),
        (["catalog", "export", "-h"], "write the resulting gem to this file"),
    ],
)
def test_output_help_says_what_is_written(capsys, argv, help_text):
    # `boundary` reads -o as a prefix of one file per component
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert help_text in " ".join(capsys.readouterr().out.split())


class TestParserReuse:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        run(capsys, "catalog", "list")

        def rebuilt():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(gemkit.cli, "build_parser", rebuilt)
        code, out, _ = run(capsys, "info", "fig2_s3xI")
        assert code == 0 and "crystallization=True" in out

    def test_rejected_argv_leaves_later_calls_unchanged(self, capsys):
        for argv in (["catalog", "show"], ["info"], ["no-such-command"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()
        argv = ["verify", "fig3_d3xs1", "--rank", "1", "--json"]
        code, out, err = run(capsys, *argv)
        src = str(Path(gemkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        fresh = subprocess.run(
            [sys.executable, "-m", "gemkit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("info", "fig2_s3xI", "--json"),
            ("genus", "fig4_boundary16", "--all-permutations", "--json"),
            ("verify", "fig3_d3xs1", "--rank", "1", "--json"),
            ("recognize", "fig2_s3xI", "--rank", "0", "--json"),
            ("catalog", "show", "rp3_8", "--json"),
        ],
    )
    def test_json_byte_stable(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        json.loads(first)  # valid JSON
