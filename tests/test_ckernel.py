import os
import subprocess
import sys
from pathlib import Path

import pytest

import hierwalk
from hierwalk import DEFAULT_IC, CoinField, DisorderSpec, ckernel, evolve, walker

FIELD = CoinField(0.8, DisorderSpec(model="hierarchical", W=0.5, seed=3), 1024)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty library cache; the kernel this process loaded is forgotten around the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    ckernel.load.cache_clear()
    yield tmp_path / "cache" / "hierwalk"
    ckernel.load.cache_clear()


def sigma_bytes() -> bytes:
    return evolve(FIELD, DEFAULT_IC, 1024).sigma.tobytes()


@pytest.fixture
def compiled_sigma(cache):
    """sigma bytes of the compiled loop, built into the test's cache."""
    if ckernel.load() is None:
        pytest.skip("the compiled light-cone loop cannot be built here")
    assert walker.light_cone_kernel() == "compiled"
    out = sigma_bytes()
    ckernel.load.cache_clear()
    return out


def test_library_is_built_into_the_cache_once(cache):
    if ckernel.load() is None:
        pytest.skip("the compiled light-cone loop cannot be built here")
    path = ckernel.library_path()
    assert path.parent == cache and sorted(cache.iterdir()) == [path]
    built = path.stat().st_mtime_ns
    ckernel.load.cache_clear()
    assert ckernel.load() is not None
    assert path.stat().st_mtime_ns == built  # loaded, not rebuilt


def test_library_names_the_clone_this_cpu_runs(cache):
    if ckernel.load() is None:
        pytest.skip("the compiled light-cone loop cannot be built here")
    assert walker.light_cone_isa() == ckernel.load().isa in ("avx512f", "avx2", "baseline")


@pytest.mark.parametrize("damage", ["garbage", "truncated", "empty"])
def test_damaged_library_is_rebuilt(cache, compiled_sigma, damage, tmp_path, monkeypatch):
    whole = ckernel.library_path().read_bytes()
    bad = {"garbage": b"not a shared library\n" * 100, "truncated": whole[:len(whole) // 2],
           "empty": b""}[damage]
    # a second cache: this process has the whole library mapped from the first one's path
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "damaged"))
    path = ckernel.library_path()
    path.parent.mkdir(parents=True)
    path.write_bytes(bad)
    ckernel.load.cache_clear()
    assert walker.light_cone_kernel() == "compiled"
    assert path.read_bytes() != bad and not ckernel._truncated_elf(path)
    assert sigma_bytes() == compiled_sigma


def test_unwritable_cache_falls_back_to_numpy(tmp_path, monkeypatch, compiled_sigma):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))  # the cache cannot be created under a file
    assert walker.light_cone_kernel() == "numpy"
    assert walker.light_cone_isa() is None
    assert sigma_bytes() == compiled_sigma


def test_missing_compiler_falls_back_to_numpy(cache, monkeypatch, compiled_sigma, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other-cache"))
    monkeypatch.setattr(ckernel, "_CC", str(tmp_path / "no-such-compiler"))
    assert walker.light_cone_kernel() == "numpy"
    assert sigma_bytes() == compiled_sigma
    assert list((tmp_path / "other-cache" / "hierwalk").iterdir()) == []  # no temporary left


def test_compile_error_falls_back_to_numpy(cache, monkeypatch):
    monkeypatch.setattr(ckernel, "_SOURCE", "this is not C")
    assert walker.light_cone_kernel() == "numpy"
    assert list(cache.iterdir()) == []  # no temporary left


def test_import_neither_builds_nor_loads_the_library(tmp_path):
    code = "import sys, hierwalk; sys.exit('hierwalk.ckernel' in sys.modules)"
    src = str(Path(hierwalk.__file__).resolve().parents[1])
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert list(tmp_path.iterdir()) == []
