"""Imports: a ymlab process loads scipy for its FFTs only, and no module
imports a name it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
         "scipy.spatial")


def test_ymlab_imports_no_heavy_scipy_subpackage():
    """scipy.integrate would pull in the others: about 24 MB of resident
    memory and 0.3 s of start-up in every CLI run."""
    code = ("import sys\n"
            "import ymlab, ymlab.cli, ymlab.runner, ymlab.mkg, ymlab.diagnostics\n"
            "print(' '.join(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "ymlab.diagnostics" in out and "scipy.fft" in out
    loaded = [m for m in out if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert loaded == []


def _unused_imports(path):
    """Names a module imports and never reads; `__all__` entries count as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")])
    assert len(files) > 20
    assert [u for f in files for u in _unused_imports(f)] == []


def test_every_exported_name_resolves():
    import ymlab
    assert [name for name in ymlab.__all__ if not hasattr(ymlab, name)] == []


def test_config_imports_only_the_standard_library():
    """`config` holds `dt_steps`, which every layer imports: a leaf module
    that imports no ymlab or third-party module cannot close a cycle."""
    tree = ast.parse((SRC / "ymlab" / "config.py").read_text())
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and [m for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names] == []
