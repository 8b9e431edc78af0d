"""Tests for the native build module: cache-directory resolution and
ownership checks, digest-named libraries built from stdin via a temp
file and an atomic rename, graceful ``None`` on every failure, the
``REPRO_NATIVE=0`` switch, per-library memoisation and ``reset()``, and
the two real libraries (lane library shared by network and SoA, draw
helper on its own)."""

from __future__ import annotations

import ctypes
import os
import re
import tempfile
from pathlib import Path

import pytest

from repro import _cbuild
from repro.core import _soa_native
from repro.network import _native as network_native
from repro.workload import _native as workload_native

needs_cc = pytest.mark.skipif(
    _cbuild._compiler() is None, reason="no C compiler on PATH",
)


def _declare_answer(lib: ctypes.CDLL) -> None:
    lib.answer.restype = ctypes.c_int
    lib.answer.argtypes = []


ANSWER = _cbuild.Library(
    "answer", "int answer(void) { return 42; }\n", _declare_answer,
)
BROKEN = _cbuild.Library("broken", "this is not C\n", _declare_answer)


@pytest.fixture(autouse=True)
def isolated_build(tmp_path, monkeypatch):
    """Fresh cache directory and empty memo; native builds enabled."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    _cbuild.reset()
    yield
    _cbuild.reset()


def _cache_files(tmp_path) -> list[str]:
    cache = tmp_path / "xdg" / "repro-mesh"
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


def _fake_owner(monkeypatch, victim: Path) -> None:
    """Make ``os.stat`` report ``victim`` as owned by another user."""
    real_stat = os.stat

    def stat(path, *args, **kwargs):
        info = real_stat(path, *args, **kwargs)
        if Path(path) == victim:
            fields = list(info[:10])
            fields[4] = os.getuid() + 1  # st_uid
            return os.stat_result(fields)
        return info

    monkeypatch.setattr(os, "stat", stat)


class TestCacheDir:
    def test_prefers_xdg_cache_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        cache = _cbuild._cache_dir()
        assert cache == tmp_path / "xdg" / "repro-mesh"
        assert cache.stat().st_mode & 0o777 == 0o700

    def test_falls_back_to_home_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert _cbuild._cache_dir() == (
            tmp_path / "home" / ".cache" / "repro-mesh"
        )

    def test_falls_back_to_per_uid_tmp_dir(self, tmp_path, monkeypatch):
        # a root home ("/") is never used as a cache parent
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", "/")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        assert _cbuild._cache_dir() == (
            tmp_path / "tmp" / f"repro-mesh-{os.getuid()}"
        )

    def test_group_writable_dir_is_skipped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        shared = tmp_path / "xdg" / "repro-mesh"
        shared.mkdir(parents=True)
        shared.chmod(0o775)
        assert _cbuild._cache_dir() == (
            tmp_path / "home" / ".cache" / "repro-mesh"
        )

    def test_foreign_owned_dir_is_skipped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        foreign = tmp_path / "xdg" / "repro-mesh"
        foreign.mkdir(parents=True, mode=0o700)
        _fake_owner(monkeypatch, foreign)
        assert _cbuild._cache_dir() == (
            tmp_path / "home" / ".cache" / "repro-mesh"
        )

    def test_uncreatable_dir_is_skipped(self, tmp_path, monkeypatch):
        # XDG points below a regular file: mkdir fails, next candidate
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert _cbuild._cache_dir() == (
            tmp_path / "home" / ".cache" / "repro-mesh"
        )


@needs_cc
class TestBuild:
    def test_builds_digest_named_library_and_nothing_else(self, tmp_path):
        lib = ANSWER.load()
        assert lib is not None and lib.answer() == 42
        files = _cache_files(tmp_path)
        assert len(files) == 1
        assert re.fullmatch(r"answer_[0-9a-f]{16}\.so", files[0])

    def test_source_goes_to_the_compiler_on_stdin(self, monkeypatch):
        calls = []
        real_run = _cbuild.subprocess.run

        def recording_run(cmd, *args, **kwargs):
            calls.append((cmd, kwargs.get("input")))
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(_cbuild.subprocess, "run", recording_run)
        assert ANSWER.load() is not None
        (cmd, stdin), = calls
        assert stdin == ANSWER.source.encode()
        assert cmd[cmd.index("-x") + 1:][:2] == ["c", "-"]
        assert all(flag in cmd for flag in _cbuild.CFLAGS)
        assert "-ffp-contract=off" in cmd
        assert not any(str(arg).endswith(".c") for arg in cmd)

    def test_identity_is_part_of_the_digest(self, tmp_path):
        for identity in ("numpy-1", "numpy-2"):
            spec = _cbuild.Library(
                "answer", ANSWER.source, _declare_answer, identity=identity,
            )
            assert spec.load() is not None
            _cbuild.reset()
        assert len(_cache_files(tmp_path)) == 2

    def test_cached_library_is_reused_without_compiling(self, monkeypatch):
        assert ANSWER.load() is not None
        _cbuild.reset()
        compiles = []
        monkeypatch.setattr(
            _cbuild, "_compile", lambda *a: compiles.append(a) or False,
        )
        lib = ANSWER.load()
        assert lib is not None and lib.answer() == 42
        assert compiles == []

    def test_foreign_owned_library_is_refused(self, tmp_path, monkeypatch):
        assert ANSWER.load() is not None
        _cbuild.reset()
        (name,) = _cache_files(tmp_path)
        _fake_owner(monkeypatch, tmp_path / "xdg" / "repro-mesh" / name)
        assert ANSWER.load() is None

    def test_compile_failure_yields_none_and_no_files(self, tmp_path):
        assert BROKEN.load() is None
        # the private temp file is removed, nothing is left behind
        assert _cache_files(tmp_path) == []

    def test_missing_link_input_yields_none(self, tmp_path, monkeypatch):
        spec = _cbuild.Library(
            "answer", ANSWER.source, _declare_answer,
            link=(tmp_path / "missing.a",),
        )
        compiles = []
        monkeypatch.setattr(
            _cbuild, "_compile", lambda *a: compiles.append(a) or False,
        )
        assert spec.load() is None
        assert compiles == []


class TestUnavailable:
    def test_no_compiler_yields_none(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_cbuild, "_compiler", lambda: None)
        assert ANSWER.load() is None
        assert _cache_files(tmp_path) == []

    def test_no_cache_dir_yields_none(self, monkeypatch):
        monkeypatch.setattr(_cbuild, "_cache_dir", lambda: None)
        assert ANSWER.load() is None

    def test_repro_native_zero_builds_nothing(self, tmp_path, monkeypatch):
        builds = []
        monkeypatch.setattr(_cbuild, "_build", builds.append)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert ANSWER.load() is None
        assert builds == []
        assert _cache_files(tmp_path) == []


class TestMemo:
    def test_load_is_memoised(self, monkeypatch):
        builds = []
        monkeypatch.setattr(
            _cbuild, "_build", lambda spec: builds.append(spec) or object(),
        )
        first = ANSWER.load()
        assert ANSWER.load() is first
        assert builds == [ANSWER]

    def test_failure_is_memoised_until_reset(self, monkeypatch):
        builds = []
        monkeypatch.setattr(
            _cbuild, "_build", lambda spec: builds.append(spec),
        )
        assert BROKEN.load() is None
        assert BROKEN.load() is None
        assert len(builds) == 1
        _cbuild.reset()
        assert BROKEN.load() is None
        assert len(builds) == 2

    def test_memo_is_per_library(self, monkeypatch):
        monkeypatch.setattr(_cbuild, "_build", lambda spec: spec.name)
        assert ANSWER.load() == "answer"
        assert BROKEN.load() == "broken"

    def test_reset_sees_a_changed_native_switch(self, monkeypatch):
        monkeypatch.setattr(_cbuild, "_build", lambda spec: spec.name)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert ANSWER.load() is None
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert ANSWER.load() is None  # still memoised
        _cbuild.reset()
        assert ANSWER.load() == "answer"


@needs_cc
class TestRealLibraries:
    def test_cold_build_leaves_exactly_the_lane_and_draw_libraries(
        self, tmp_path,
    ):
        lane = network_native.load_kernel()
        assert lane is not None
        assert _soa_native.load_kernel() is lane
        draws = workload_native.load_kernel()
        stems = sorted(name.split("_")[0] for name in _cache_files(tmp_path))
        # the draw helper needs numpy's static libnpyrandom.a
        assert stems == (["draws", "lane"] if draws is not None else ["lane"])

    def test_lane_library_declares_both_entry_points(self):
        lane = _soa_native.load_kernel()
        assert lane is not None
        assert lane.soa_advance.restype is ctypes.c_int64
        assert len(lane.soa_advance.argtypes) == 3
        assert lane.solve_rounds.restype is None
        assert len(lane.solve_rounds.argtypes) == 14
