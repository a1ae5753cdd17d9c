"""Import boundaries: a process imports only the semdef modules its work runs.

Each check runs in a child interpreter, so that no module this test process
already imported hides one the child would have to load.
"""

import json
import subprocess
import sys

import pytest

from semdef import _kernel

# A filler-free SEM certificate of P_3: edge sums 4, 5.
P3_CERT = {
    "schema": "semdef/1",
    "graph": {"schema": "semdef/1", "p": 3, "edges": [[0, 1], [1, 2]]},
    "labels": [1, 3, 2],
    "isolated": 0,
    "s": 4,
    "k": 9,
}

SEMDEF_MODULES = "sorted(m for m in sys.modules if m == 'semdef' or m.startswith('semdef.'))"


def _child(code: str, env: dict) -> object:
    """The JSON that code, run in a child interpreter, prints last."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_import_semdef_loads_no_submodule(child_env):
    code = f"import json, sys, semdef\nprint(json.dumps({SEMDEF_MODULES}))"
    assert _child(code, child_env) == ["semdef"]


def test_import_semdef_cli_loads_no_other_submodule(child_env):
    code = f"import json, sys, semdef.cli\nprint(json.dumps({SEMDEF_MODULES}))"
    assert _child(code, child_env) == ["semdef", "semdef.cli"]


# (argv after `python -m semdef.cli`, exit code, the semdef modules the
# command imports besides the package; python -m runs the CLI's own code as
# __main__, so semdef.cli is never among them)
CLI_IMPORTS = [
    (["--help"], 0, []),
    ([], 2, []),  # a usage error: no subcommand
    (["gen", "--family", "path", "-n", "3"], 0, ["semdef.graphs"]),
    (["verify", "--cert", "CERT"], 0, ["semdef.graphs", "semdef.labeling"]),
]


@pytest.mark.parametrize("argv, code, imported", CLI_IMPORTS,
                         ids=["help", "usage-error", "gen", "verify"])
def test_cli_command_imports_only_the_modules_it_runs(child_env, tmp_path, argv, code, imported):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(P3_CERT))
    argv = [str(cert) if a == "CERT" else a for a in argv]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "semdef.cli", *argv],
                          capture_output=True, text=True, env=child_env, timeout=120)
    assert proc.returncode == code, proc.stderr[-2000:]
    # -X importtime writes one line per module imported to stderr, the
    # module's name after the last "|"
    names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert sorted(n for n in names if n == "semdef" or n.startswith("semdef.")) == [
        "semdef", *imported]


_SEARCH = ("import json, sys\n"
           "from semdef import _kernel, solver\n"
           "from semdef.graphs import wheel_minus_spoke\n"
           "if sys.argv[1] == 'python':\n"
           "    _kernel.load = lambda: None\n"
           "out = solver.deficiency(wheel_minus_spoke(7), 3)\n"
           "print(json.dumps([out.backend, 'semdef._reference' in sys.modules, out.deficiency,\n"
           "                  list(out.witness.labeling.labels), out.nodes]))\n")


def test_kernel_search_never_loads_the_reference(child_env):
    # the Python backend, semdef._reference, is imported only where the
    # kernel does not load, and then gives the kernel's answer and nodes
    if _kernel.load() is None:
        pytest.skip("the C kernel cannot be built here (no cc, or it fails)")

    def search(backend):
        return subprocess.run([sys.executable, "-c", _SEARCH, backend], capture_output=True,
                              text=True, env=child_env, check=True, timeout=120).stdout

    c_out, py_out = json.loads(search("c")), json.loads(search("python"))
    assert c_out[:2] == ["c", False]
    assert py_out[:2] == ["python", True]
    assert c_out[2:] == py_out[2:] and c_out[2] is not None and c_out[4] > 0


def test_public_names_are_their_modules_objects(child_env):
    # each name of __all__ is the very object of the module that defines it,
    # and dir() lists every name before any is looked up
    code = ("import json, sys, semdef\n"
            "listed = set(semdef.__all__) <= set(dir(semdef))\n"
            "wrong = []\n"
            "for name in semdef.__all__:\n"
            "    obj = getattr(semdef, name)\n"
            "    if name == '__version__':\n"
            "        continue\n"
            "    home = sys.modules[obj.__module__]\n"
            "    if not home.__name__.startswith('semdef.') or getattr(home, name) is not obj:\n"
            "        wrong.append(name)\n"
            "print(json.dumps([listed, len(semdef.__all__), len(set(semdef.__all__)), wrong]))\n")
    assert _child(code, child_env) == [True, 34, 34, []]


def test_star_import_binds_every_public_name(child_env):
    code = ("import json\n"
            "import semdef\n"
            "from semdef import *\n"
            "missing = [n for n in semdef.__all__ if n not in globals()]\n"
            "try:\n"
            "    semdef.no_such_name\n"
            "    error = None\n"
            "except AttributeError as exc:\n"
            "    error = str(exc)\n"
            "print(json.dumps([missing, error, hasattr(semdef, 'no_such_name')]))\n")
    assert _child(code, child_env) == [
        [], "module 'semdef' has no attribute 'no_such_name'", False]
