"""Every public function and class in ``src/repro`` has a reader.

A public top-level name stays only while something other than its own
definition, the test suite and its package's re-export names it: the
library itself, the CLI, ``benchmarks/`` (the paper generator and the
end-to-end benchmark) or ``examples/``. Names kept for another reason
are listed in :data:`KEEP` with that reason. The scan matches
identifier tokens, so a mention in a docstring or comment does not
count as a reader, nor does a same-named ``def`` or ``self.`` /
``cls.`` attribute elsewhere.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Public names with no reader in the scanned code, and why they stay.
KEEP = {
    "choose_block_format": "one-block reference for the engine's "
                           "choose_formats_batch (test_core_heuristics)",
    "spmv_source_vector_misses": "exact reference for the analytic "
                                 "vector_traffic (test_simulator_cache)",
    "spmv_dense_reference": "dense reference the kernel tests compare "
                            "against",
    "flop_byte_ratio": "reference for the perf attribution's intensity "
                       "(test_observe_perf)",
    "read_trace": "README documents it for reading --trace output",
    "save_matrix": "writes the files the CLI loads",
    "save_matrix_market": "writes the Matrix Market files the CLI loads",
    "reset_for_tests": "test hook: rebinds every compiled program",
    "uninstall_hub": "test hook: detaches the trace hub",
    "clear_cache": "test hook: drops the generated-matrix cache",
    "naive_csr_variant": "fixture of the simulator tests",
    "nnz_per_row_per_cache_block": "fixture of the suite and stats tests",
}

#: Packages kept whole until their deletion lands.
KEEP_PACKAGES = {"dist": "deleted as a whole once the end-to-end "
                         "benchmark stops importing it"}


def _public_definitions() -> dict[str, list[tuple[Path, int, int]]]:
    """Public top-level function/class name → ``(file, first, last)``
    line spans of its definitions."""
    defs: dict[str, list[tuple[Path, int, int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] in KEEP_PACKAGES:
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                defs.setdefault(node.name, []).append(
                    (path, first, node.end_lineno))
    return defs


def _reexport_lines(tree: ast.Module) -> set[int]:
    """Lines of an ``__init__`` module's imports and ``__all__``."""
    lines: set[int] = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets)
        if is_all or isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _scanned_files() -> list[Path]:
    files = list(SRC.rglob("*.py"))
    for top in ("benchmarks", "examples"):
        files += [p for p in (ROOT / top).rglob("*.py")
                  if "tests" not in p.parts and p.name != "conftest.py"]
    return sorted(files)


def _references(defs) -> Counter:
    """Identifier tokens per name, outside each name's own definitions,
    ``__init__`` re-exports, other ``def`` / ``class`` statements and
    ``self.`` / ``cls.`` attributes."""
    own: dict[Path, list[tuple[int, int, str]]] = {}
    for name, spans in defs.items():
        for path, first, last in spans:
            own.setdefault(path, []).append((first, last, name))
    refs: Counter = Counter()
    for path in _scanned_files():
        text = path.read_text()
        skip = (_reexport_lines(ast.parse(text))
                if path.name == "__init__.py" else set())
        spans = own.get(path, [])
        before = ["", ""]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            prev, before = before, [before[1], tok.string]
            if tok.type != tokenize.NAME or tok.string not in defs \
                    or prev[1] in ("def", "class") \
                    or (prev[1] == "." and prev[0] in ("self", "cls")):
                continue
            line = tok.start[0]
            if line in skip or any(first <= line <= last and name ==
                                   tok.string
                                   for first, last, name in spans):
                continue
            refs[tok.string] += 1
    return refs


def test_every_public_name_has_a_reader():
    defs = _public_definitions()
    refs = _references(defs)
    orphans = sorted(
        f"{spans[0][0].relative_to(ROOT)}:{spans[0][1]} {name}"
        for name, spans in defs.items()
        if not refs[name] and name not in KEEP)
    assert not orphans, (
        "public names reached only by tests (delete them with their "
        "tests, or list them in KEEP with a reason):\n  "
        + "\n  ".join(orphans))


def test_keep_list_is_current():
    """A KEEP entry that is gone or has gained a reader is stale."""
    defs = _public_definitions()
    refs = _references(defs)
    stale = sorted(name for name in KEEP
                   if name not in defs or refs[name])
    assert not stale, f"stale KEEP entries: {stale}"
