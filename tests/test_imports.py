"""Every imported name is used, and the CLI imports only what it needs.

The unused-import check is an AST scan in place of a linter;
``sphereopt/__init__.py`` is skipped, since its imports are re-exports.
"""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = ([p for p in sorted((ROOT / "src" / "sphereopt").glob("*.py"))
            if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import pi, tau\n"
              "x = np.zeros(1) + pi + os.sep\n")
    assert _unused_imports(source) == ["tau"]


def test_no_unused_imports():
    assert len(SOURCES) > 10
    found = {p.relative_to(ROOT).as_posix(): names for p in SOURCES
             if (names := _unused_imports(p.read_text(encoding="utf-8")))}
    assert found == {}


# scipy subpackages the bound pipeline does not use; each costs import time
# on every CLI call
HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.special", "scipy.stats",
         "scipy.integrate")


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    probe = ("import sys, sphereopt.cli; "
             f"print(sorted(set({HEAVY!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    got = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "[]"


# modules that importing scipy.linalg pulls in; the LAPACK routines are
# loaded without it, and nothing on the CLI path may import it later.
# numpy.random, and OpenSSL's hashlib behind its bit generators, cost a
# cold --oracle call 6 MB of peak RSS; the oracle draws its start points
# from the standard library's random instead.
COLD_CALL_UNLOADED = ("scipy.linalg", "numpy.f2py", "numpy.testing",
                      "numpy.random", "_hashlib", "hmac", "secrets")


def test_cold_cli_call_leaves_scipy_linalg_unloaded():
    # under -W error a warning from the LAPACK loader fails the call
    probe = (
        "import contextlib, io, json, sys\n"
        "import sphereopt.cli as cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(['--poly', 'x1^4 + x2^4 - 3*x1^2*x2^2',\n"
        "                     '--certificate', '--oracle', '--format', 'json'])\n"
        "assert code == 0 and json.loads(out.getvalue())['certificate']\n"
        f"print(sorted(set({COLD_CALL_UNLOADED!r}) & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    got = subprocess.run([sys.executable, "-W", "error", "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "[]"
