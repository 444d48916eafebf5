"""Rules the package source keeps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cuflinks"


def test_no_assert_statements_in_the_package():
    """python -O strips assert statements, so no check may be one."""
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text("utf-8"),
                                            str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, in quoted annotations, or listed in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            annotation = getattr(node, "annotation",
                                 getattr(node, "returns", None))
            if (isinstance(annotation, ast.Constant)
                    and isinstance(annotation.value, str)):
                used |= _used_names(ast.parse(annotation.value))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def test_no_unused_imports_in_the_package():
    """An import nothing reads is left over from deleted code."""
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text("utf-8"), str(path))
        used = _used_names(tree)
        found.extend(f"{path.relative_to(PACKAGE)}:{line} {name}"
                     for name, line in _imported_names(tree).items()
                     if name not in used)
    assert found == []


def test_no_third_party_imports_but_click():
    """The package runs on the standard library plus click."""
    allowed = set(sys.stdlib_module_names) | {"cuflinks", "click"}
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found.extend(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                         for name in modules
                         if name.partition(".")[0] not in allowed)
    assert found == []


def test_importing_the_cli_loads_no_http_library():
    """HTTP goes through the package's own HTTP/1.1 codec in
    cuflinks.framing at both ends: no third-party HTTP library is
    loaded, and neither is the standard library's server."""
    code = ("import sys, cuflinks.cli; "
            "print(sorted({'requests', 'urllib3', 'http.server', "
            "'socketserver'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env={**os.environ,
                                 "PYTHONPATH": str(PACKAGE.parent)})
    assert result.stdout.strip() == "[]"
