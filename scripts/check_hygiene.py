#!/usr/bin/env python
"""Repo-hygiene gate: fail CI on tracked build output and orphaned packages.

Checks, in order:

1. no tracked ``__pycache__`` directories or ``*.pyc``/``*.pyo`` files
   (``git ls-files`` is the source of truth — untracked local bytecode is
   fine, committing it is not);
2. no tracked ``*.egg-info`` build metadata (``pip install -e`` writes it;
   it is gitignored, but a forced add still slips it in);
3. no orphaned package directories under ``src/``: a directory that
   contains only bytecode (or nothing at all) is a leftover from a
   deleted module and silently shadows imports;
4. every directory under ``src/`` holding ``.py`` files is a real
   package (has ``__init__.py``), so nothing is invisible to tooling
   that walks packages.

Exit status 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
BYTECODE_SUFFIXES = {".pyc", ".pyo"}


def tracked_files() -> list[str]:
    """Every path git tracks."""
    return subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()


def tracked_bytecode() -> list[str]:
    """Tracked paths that are bytecode or live inside a __pycache__."""
    return [
        path
        for path in tracked_files()
        if "__pycache__" in Path(path).parts
        or Path(path).suffix in BYTECODE_SUFFIXES
    ]


def tracked_egg_info() -> list[str]:
    """Tracked paths inside a ``*.egg-info`` metadata directory."""
    return [
        path
        for path in tracked_files()
        if any(part.endswith(".egg-info") for part in Path(path).parts)
    ]


def _is_bytecode_only(directory: Path) -> bool:
    """True when *directory* holds nothing but bytecode (or is empty)."""
    for entry in directory.rglob("*"):
        if entry.is_dir():
            continue
        if entry.suffix in BYTECODE_SUFFIXES:
            continue
        return False
    return True


def orphaned_directories() -> list[str]:
    """Directories under src/ that only exist to hold stale bytecode."""
    orphans = []
    for directory in sorted(SRC_ROOT.rglob("*")):
        if not directory.is_dir() or directory.name == "__pycache__":
            continue
        if any(part == "__pycache__" for part in directory.parts):
            continue
        if _is_bytecode_only(directory):
            orphans.append(str(directory.relative_to(REPO_ROOT)))
    return orphans


def packages_missing_init() -> list[str]:
    """src/ directories holding .py files without an __init__.py."""
    missing = []
    for directory in sorted(SRC_ROOT.rglob("*")):
        if not directory.is_dir() or directory.name == "__pycache__":
            continue
        if any(part == "__pycache__" for part in directory.parts):
            continue
        has_modules = any(directory.glob("*.py"))
        if has_modules and not (directory / "__init__.py").exists():
            missing.append(str(directory.relative_to(REPO_ROOT)))
    return missing


def main() -> int:
    problems = []
    for path in tracked_bytecode():
        problems.append(f"tracked bytecode: {path}")
    for path in tracked_egg_info():
        problems.append(f"tracked build metadata (git rm --cached): {path}")
    for path in orphaned_directories():
        problems.append(
            f"orphaned directory (bytecode only — delete it): {path}"
        )
    for path in packages_missing_init():
        problems.append(f"package missing __init__.py: {path}")
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(
            f"hygiene check failed with {len(problems)} problem(s)",
            file=sys.stderr,
        )
        return 1
    print("hygiene check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
