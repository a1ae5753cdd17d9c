"""tools/kernel_ab.py: the A/B tool's runners drive the kernel through its
one search entry, its rows say when the medians lie within OLD's noise, and
it refuses a source that is not the kernel's module."""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from semdef import _kernel, _reference


@pytest.fixture
def kernel_ab(monkeypatch):
    """tools/kernel_ab.py, loaded as a module; the sys.path entries it adds
    are dropped after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "kernel_ab", Path(__file__).parents[1] / "tools" / "kernel_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runners_give_the_reference_results(kernel_ab, tmp_path):
    # kernel_ab's side for the package's source: its calls give _reference._solve's
    # t, witness per vertex and nodes on the bench's 12 solve instances
    if _kernel.load() is None:
        pytest.skip("the C kernel cannot be built here (no cc, or it fails)")
    kernel = kernel_ab.side(_kernel.SOURCE, tmp_path / "_dfs.so")
    calls = kernel_ab.solve_calls()
    _, results = kernel_ab.call_run(kernel, calls)()
    assert results == [_reference._solve(g, t0, cap, kernel_ab.PINS) for g, t0, cap in calls]
    assert (len(results), sum(nodes for *_, nodes in results)) == (12, 98_891)


@pytest.mark.parametrize("new_ms, noise", [(10.0, True), (10.5, True), (9.0, True),
                                           (12.5, False), (7.5, False)])
def test_row_within_old_quartile_spread_is_noise(kernel_ab, capsys, new_ms, noise):
    # OLD's runs take 9, 10 and 11 ms in turn, so its median is 10 ms and
    # its quartiles 9 and 11 ms; a NEW whose median lies within 2 ms of 10
    # is marked as noise, one further off is not, and neither differs
    old_ms = itertools.cycle([9.0, 10.0, 11.0])
    runs = [lambda: (next(old_ms) / 1e3, [(None, None, 7)]),
            lambda: (new_ms / 1e3, [(None, None, 7)])]
    assert kernel_ab.compare("row", runs, 30)
    row = capsys.readouterr().out
    assert row.startswith("row") and "DIFFERS" not in row
    assert row.rstrip().endswith("within noise") == noise, row


def test_source_without_the_module_init_exits_2_unbuilt(kernel_ab, monkeypatch, tmp_path,
                                                        capsys):
    # an OLD from before the kernel was an extension module, without its
    # init function, is refused by name, before cc runs
    old = tmp_path / "old.c"
    old.write_text(_kernel.SOURCE.read_text().replace("PyInit__dfs", "semdef_init"))
    monkeypatch.setattr(_kernel, "build", lambda *args: pytest.fail("a source was built"))
    assert kernel_ab.main([str(old), str(_kernel.SOURCE)]) == 2
    err = capsys.readouterr().err
    assert "PyInit__dfs" in err and str(old) in err and str(_kernel.SOURCE) not in err


@pytest.mark.parametrize("text", [
    "int semdef_solve(void) { return -1; }\n/* not PyInit__dfs */\n",
    "this is not C /* PyInit__dfs */\n",
], ids=["loads-no-module", "does-not-build"])
def test_source_that_does_not_load_exits_2(kernel_ab, tmp_path, capsys, text):
    # a source that names the init function but builds a library with no
    # module in it, as a ctypes-era _dfs.c did, or does not build at all,
    # ends the tool with exit 2 and a message naming it, not a traceback
    import shutil

    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    old = tmp_path / "old.c"
    old.write_text(text)
    with pytest.raises(SystemExit) as exit_:
        kernel_ab.main([str(old), str(_kernel.SOURCE)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{old} does not build or load as the kernel's module: ")
