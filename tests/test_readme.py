"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under ## Library sketch"
    namespace: dict = {}
    exec(compile(block.group(1), "README.md#library-sketch", "exec"), namespace)
    assert namespace["final"].length == namespace["budget"].final_length
