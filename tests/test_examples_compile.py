"""Every example script must at least parse, import-check, and expose
a ``main()`` (CI's ``examples`` job runs each script to the end;
simulating them all would dominate the unit suite)."""

import ast
import pathlib
import py_compile

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_examples_exist():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_structure(path):
    tree = ast.parse(path.read_text())
    # A module docstring explaining what it shows...
    assert ast.get_docstring(tree), path.name
    names = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    # ...and a main() guarded by __main__.
    assert "main" in names, path.name
    assert any(
        isinstance(node, ast.If) and "__main__" in ast.dump(node)
        for node in tree.body
    ), path.name


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Imports at the top of each example must be importable."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            module = __import__(node.module, fromlist=[a.name for a in node.names])
            for alias in node.names:
                assert hasattr(module, alias.name), (path.name, alias.name)
