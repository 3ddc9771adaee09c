"""Import guards for the modules under src/reed.

Every name a module imports is used in that module, __init__.py included:
a stale import after a deletion is dead code that still loads, and it can
hide a cycle. No module reaches into cryptography's private bindings,
reed.caont says plainly when the libcrypto it needs, or one call in it, is
absent, and the entry points load no module that only a library search
would need. Only client.py writes a file's recipe, stub file or key state,
so the rule that pairs those records lives in one module.
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "reed")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == [], module


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom x import y as z\nz()\n") == ["os (line 1)"]


FILE_RECORD_PUTS = {"put_recipe", "put_stub", "put_state"}


def file_record_puts(source: str) -> list[str]:
    return sorted(f"{node.func.attr} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in FILE_RECORD_PUTS)


@pytest.mark.parametrize("module", MODULES)
def test_only_client_writes_a_files_records(module):
    with open(os.path.join(SRC, module)) as fh:
        puts = file_record_puts(fh.read())
    # client.py must show some, so the guard is seen to find them
    assert bool(puts) == (module == "client.py"), (module, puts)


PRIVATE_BINDINGS = "cryptography.hazmat.bindings"


def private_binding_imports(source: str) -> list[str]:
    """The imports that name cryptography's private bindings or a part of
    them; "from a.b import c" names both a.b and a.b.c."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return sorted(name for name in names
                  if name == PRIVATE_BINDINGS or name.startswith(PRIVATE_BINDINGS + "."))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_the_private_cryptography_bindings(module):
    # The bindings change between the cryptography versions pyproject allows.
    with open(os.path.join(SRC, module)) as fh:
        assert private_binding_imports(fh.read()) == [], module


def test_bindings_guard_sees_every_import_form():
    assert private_binding_imports("from cryptography.hazmat import bindings\n") == [
        PRIVATE_BINDINGS]
    assert private_binding_imports("import cryptography.hazmat.bindings._rust as r\n") == [
        PRIVATE_BINDINGS + "._rust"]
    assert private_binding_imports(
        "from cryptography.hazmat.primitives.ciphers import Cipher\n") == []


def run_child(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


TRY_CAONT = (
    "try:\n"
    "    import reed.caont\n"
    "except ImportError as exc:\n"
    "    print('ImportError:', exc)\n"
    "else:\n"
    "    print('imported')\n")


def test_caont_without_libcrypto_fails_to_import_naming_it():
    out = run_child("import sys\nsys.modules['_hashlib'] = None\n" + TRY_CAONT)
    assert out.startswith("ImportError:")
    assert "libcrypto" in out and "_hashlib" in out


@pytest.mark.parametrize("symbol", ["EVP_EncryptUpdate", "BN_mod_exp_mont_consttime"])
def test_caont_fails_to_import_naming_a_missing_libcrypto_symbol(symbol):
    # dlsym on the handle finds nothing under this one name
    out = run_child(
        "import ctypes\n"
        "lookup = ctypes.CDLL.__getitem__\n"
        "def without(lib, name):\n"
        f"    if name == {symbol!r}:\n"
        "        raise AttributeError(name)\n"
        "    return lookup(lib, name)\n"
        "ctypes.CDLL.__getitem__ = without\n" + TRY_CAONT)
    assert out.startswith("ImportError:")
    assert "libcrypto" in out and symbol in out


def test_entry_points_load_neither_ctypes_util_nor_subprocess():
    # ctypes.util alone would bring in subprocess, locale and signal, and a
    # library search that runs ldconfig in a child process
    out = run_child(
        "import sys\n"
        "import reed.client, reed.server, reed.cli\n"
        "print(sorted({'ctypes.util', 'subprocess'} & set(sys.modules)))\n")
    assert out == "[]\n"
