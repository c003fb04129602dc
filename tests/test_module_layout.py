"""Which module owns what: the exchange kernel, its input format and both of
its drivers (the sync batch and the attack race) live in ``sync``, and no
module reaches into another's private names."""

import ast
from pathlib import Path

import pytest

import neurokey
from neurokey import adversary, sync

SRC = Path(neurokey.__file__).resolve().parent


def test_adversary_only_re_exports_the_race_from_sync():
    for name in adversary.__all__:
        assert getattr(adversary, name) is getattr(sync, name), name
    own = {name for name in vars(adversary) if not name.startswith("__")}
    assert own == set(adversary.__all__)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_another_modules_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
