"""Repo-hygiene gate (``scripts/check_hygiene.py``).

The CI lint job runs the script; these tests pin its verdict on the
committed tree and exercise the individual checks against synthetic
trees so regressions in the checker itself are caught.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_hygiene.py"


def _load_module():
    spec = importlib.util.spec_from_file_location("check_hygiene", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCommittedTree:
    def test_script_passes_on_this_repo(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPT)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "hygiene check passed" in result.stdout

    def test_no_tracked_bytecode(self):
        module = _load_module()
        assert module.tracked_bytecode() == []

    def test_no_tracked_egg_info(self):
        module = _load_module()
        assert module.tracked_egg_info() == []


class TestTrackedBuildOutput:
    def test_egg_info_paths_are_flagged(self, monkeypatch):
        module = _load_module()
        monkeypatch.setattr(
            module,
            "tracked_files",
            lambda: [
                "src/repro/cli.py",
                "src/repro.egg-info/PKG-INFO",
                "src/repro.egg-info/SOURCES.txt",
                "docs/egg-info.md",
            ],
        )
        assert module.tracked_egg_info() == [
            "src/repro.egg-info/PKG-INFO",
            "src/repro.egg-info/SOURCES.txt",
        ]
        assert module.main() == 1


class TestBytecodeOnlyDetection:
    def test_empty_and_bytecode_only_dirs_are_flagged(self, tmp_path):
        module = _load_module()
        empty = tmp_path / "empty"
        empty.mkdir()
        assert module._is_bytecode_only(empty)
        cache = tmp_path / "stale" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "mod.cpython-312.pyc").write_bytes(b"\x00")
        assert module._is_bytecode_only(tmp_path / "stale")

    def test_real_source_is_not_flagged(self, tmp_path):
        module = _load_module()
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        assert not module._is_bytecode_only(pkg)


class TestTreeScans:
    def _fake_src(self, tmp_path, monkeypatch):
        module = _load_module()
        src = tmp_path / "src"
        src.mkdir()
        monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(module, "SRC_ROOT", src)
        return module, src

    def test_orphaned_directory_is_reported(self, tmp_path, monkeypatch):
        module, src = self._fake_src(tmp_path, monkeypatch)
        good = src / "good"
        good.mkdir()
        (good / "__init__.py").write_text("", encoding="utf-8")
        orphan = src / "good" / "leftover" / "__pycache__"
        orphan.mkdir(parents=True)
        (orphan / "gone.cpython-312.pyc").write_bytes(b"\x00")
        reported = module.orphaned_directories()
        assert any(path.endswith("leftover") for path in reported)
        assert not any(path.endswith("good") for path in reported)

    def test_module_dir_without_init_is_reported(self, tmp_path, monkeypatch):
        module, src = self._fake_src(tmp_path, monkeypatch)
        bare = src / "bare"
        bare.mkdir()
        (bare / "util.py").write_text("x = 1\n", encoding="utf-8")
        assert any(
            path.endswith("bare") for path in module.packages_missing_init()
        )

    def test_clean_tree_reports_nothing(self, tmp_path, monkeypatch):
        module, src = self._fake_src(tmp_path, monkeypatch)
        pkg = src / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "core.py").write_text("x = 1\n", encoding="utf-8")
        assert module.orphaned_directories() == []
        assert module.packages_missing_init() == []
