import ast
import pathlib

import lspacecert


def test_package_source_has_no_assert_statements():
    # python -O strips assert statements, so a check that must hold in
    # every run raises a typed error instead
    found = []
    for path in sorted(pathlib.Path(lspacecert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
