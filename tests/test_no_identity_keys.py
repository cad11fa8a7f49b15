"""The package names an object by the object, never by ``id()``.

A table keyed by ``id(obj)`` outlives nothing it should: the key is
reused the moment the object dies, and a reader cannot see from the key
what it stands for.  Devices, replicas and shards hash as themselves, so
a record that names one keys by the object.  The law: no module under
``src/repro`` calls the builtin ``id``.  A method or attribute of that
name (``obj.id(...)``) is not the builtin and does not count.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent


def builtin_id_calls() -> list[str]:
    """Return ``path:line`` of every call to the bare name ``id``."""
    calls = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                calls.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    return calls


def test_the_walk_sees_the_whole_package():
    walked = {path.name for path in PACKAGE.rglob("*.py")}
    assert {"staged.py", "chaos.py", "invariants.py", "shard.py"} <= walked


def test_no_module_calls_the_builtin_id():
    assert builtin_id_calls() == []
