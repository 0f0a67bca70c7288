"""Golden CLI outputs: stdout and exit code of every subcommand, in text
form and with --json, over every catalog entry and a few seeded random
gems.

`cli_golden.json` holds one sha256 of "exit CODE" plus stdout per argv.
After a deliberate change of output, re-record it with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from gemkit import ColoredGraph, catalog_get, catalog_list, export_gem
from gemkit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
RANDOM_GEMS = 10


def _matching(n: int, rng: random.Random) -> list[tuple[int, int]]:
    vs = list(range(1, n + 1))
    rng.shuffle(vs)
    return [(vs[i], vs[i + 1]) for i in range(0, n - 1, 2)]


def random_gem_files() -> dict[str, str]:
    """GEM text of the seeded random gems, by file name: dimension 3 for
    every fifth seed, else 4, with up to 10 vertices and a random partial
    last-color matching."""
    files = {}
    for seed in range(RANDOM_GEMS):
        rng = random.Random(seed)
        d = 3 if seed % 5 == 4 else 4
        p = 1 + seed % 5
        pairs = [_matching(2 * p, rng) for _ in range(d)]
        pairs.append(_matching(2 * p, rng)[: rng.randint(0, p)])
        g = ColoredGraph(d, 2 * p, pairs)
        files[f"random-{seed:02d}.gem"] = export_gem(g)
    return files


def _meta_flags(name: str) -> list[str]:
    meta = catalog_get(name).meta if name in catalog_list() else None
    if meta is None:
        return ["--rank", "1"]
    flags = ["--rank", str(meta.m)]
    if meta.boundary_genus is not None:
        flags += ["--boundary-genus", str(meta.boundary_genus)]
    if meta.double_rank is not None:
        flags += ["--double-rank", str(meta.double_rank)]
    return flags


def corpus() -> list[tuple[str, ...]]:
    """Every argv of the golden corpus."""
    argvs = []
    for x in catalog_list() + sorted(random_gem_files()):
        meta = _meta_flags(x)
        for command in (
            ("info", x),
            ("genus", x),
            ("genus", x, "--all-permutations"),
            ("bounds", x),
            ("bounds", x, *meta),
            ("bounds", x, *meta, "--boundary-complexity", "0"),
            ("verify", x),
            ("verify", x, *meta),
            ("recognize", x, *meta[:2]),
            ("recognize", x, *meta),
            ("double", x),
            ("crystallize-double", x),
            ("product", x),
            ("boundary", x),
            ("connect", x, x),
            ("connect", x, x, "--via-sphere"),
        ):
            argvs += [command, command + ("--json",)]
    for name in catalog_list():
        for command in (("catalog", "show", name), ("catalog", "export", name)):
            argvs += [command, command + ("--json",)]
    argvs += [("catalog", "list"), ("catalog", "list", "--json")]
    return list(dict.fromkeys(argvs))


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def run_corpus(directory) -> list[tuple[tuple[str, ...], int, str]]:
    """(argv, exit code, stdout) of every argv of the corpus, run in
    `directory` with the random gems written there."""
    for name, text in random_gem_files().items():
        Path(directory, name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [(argv, *run_cli(argv)) for argv in corpus()]
    finally:
        os.chdir(cwd)


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"exit {code}\n{out}".encode()).hexdigest()


def test_corpus_matches_recorded_keys():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(" ".join(a) for a in corpus())


def test_cli_output_matches_golden(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatches = [
        f"$ gemkit {' '.join(argv)}\nexit {code}\n{out}"
        for argv, code, out in run_corpus(tmp_path)
        if digest(code, out) != recorded.get(" ".join(argv))
    ]
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {
            " ".join(argv): digest(code, out)
            for argv, code, out in run_corpus(tmp)
        }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(record)} argvs in {GOLDEN}", file=sys.stderr)
