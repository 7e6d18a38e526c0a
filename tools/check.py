#!/usr/bin/env python3
"""Repository check runner: lint, typecheck, and the tier-1 test suite.

Runs, in order:

1. ``ruff check`` (if installed) or a built-in AST lint fallback,
2. ``mypy`` (if installed; skipped with a notice otherwise),
3. ``pytest -x -q`` with ``PYTHONPATH=src`` (the tier-1 gate).

ruff and mypy read their configuration from ``pyproject.toml``; when a
tool is not installed the runner degrades gracefully instead of failing,
so the script works both in minimal containers and on dev machines.

Usage::

    python tools/check.py            # everything
    python tools/check.py --no-tests # lint + typecheck only
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECK_DIRS = ("src", "tools", "tests", "examples", "benchmarks")


def _announce(title: str) -> None:
    print(f"\n== {title} ==", flush=True)


def _run(cmd: list[str], **kwargs) -> int:
    print("$", " ".join(cmd), flush=True)
    return subprocess.call(cmd, cwd=REPO, **kwargs)


# ---------------------------------------------------------------------------
# Fallback AST lint (used when ruff is unavailable)
# ---------------------------------------------------------------------------


class _ImportLinter(ast.NodeVisitor):
    """Collects imported names and every name/attribute use in a module."""

    def __init__(self) -> None:
        self.imports: dict[str, tuple[int, str]] = {}
        self.used: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.imports[name] = (node.lineno, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name
            self.imports[name] = (node.lineno, alias.name)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)

    # String annotations ("JobEngine | None") reference imports — often
    # ones guarded by TYPE_CHECKING — without producing Name nodes.
    # Count their identifiers as uses, as ruff does.
    def _string_annotation(self, annotation: ast.expr | None) -> None:
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            self.used.update(
                re.findall(r"[A-Za-z_][A-Za-z0-9_]*", annotation.value)
            )

    def visit_arg(self, node: ast.arg) -> None:
        self._string_annotation(node.annotation)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._string_annotation(node.annotation)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._string_annotation(node.returns)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._string_annotation(node.returns)
        self.generic_visit(node)


def _module_docstring_names(tree: ast.Module) -> set[str]:
    """Names echoed in ``__all__`` (treated as uses, like ruff does)."""
    names: set[str] = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.add(element.value)
    return names


def _fallback_lint_file(path: Path) -> list[str]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]

    # Re-export modules (package __init__) legitimately import-without-use.
    if path.name == "__init__.py":
        return []

    linter = _ImportLinter()
    linter.visit(tree)
    exported = _module_docstring_names(tree)
    problems = []
    for name, (lineno, target) in sorted(
        linter.imports.items(), key=lambda item: item[1][0]
    ):
        if name in linter.used or name in exported:
            continue
        # Attribute chains (``import repro.telemetry``) bind the root name,
        # which visit_Name catches; anything left here is genuinely unused.
        problems.append(
            f"{path.relative_to(REPO)}:{lineno}: "
            f"F401 unused import: {target!r} (as {name!r})"
        )
    return problems


def fallback_lint() -> int:
    """Minimal pyflakes-style pass: unused imports and syntax errors."""
    problems: list[str] = []
    for directory in CHECK_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            problems.extend(_fallback_lint_file(path))
    for line in problems:
        print(line)
    print(f"fallback lint: {len(problems)} problem(s)")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def run_lint() -> int:
    _announce("lint")
    if shutil.which("ruff"):
        return _run(["ruff", "check", *CHECK_DIRS])
    print("ruff not installed; running built-in AST lint instead")
    return fallback_lint()


def run_typecheck() -> int:
    _announce("typecheck")
    if shutil.which("mypy"):
        return _run(["mypy"])
    print("mypy not installed; skipping typecheck (config in pyproject.toml)")
    return 0


def run_tests(args: list[str]) -> int:
    _announce("tests (tier-1)")
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return _run(
        [sys.executable, "-m", "pytest", "-x", "-q", *args], env=env
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-tests", action="store_true", help="skip the pytest stage"
    )
    parser.add_argument(
        "--no-lint", action="store_true", help="skip the lint stage"
    )
    parser.add_argument(
        "--no-typecheck", action="store_true", help="skip the mypy stage"
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (after '--')",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    if not args.no_lint and run_lint() != 0:
        failures.append("lint")
    if not args.no_typecheck and run_typecheck() != 0:
        failures.append("typecheck")
    if not args.no_tests and run_tests(args.pytest_args) != 0:
        failures.append("tests")

    print()
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
