"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    # Later blocks use the names earlier ones define (`surface`, `run`),
    # so they run in order in one namespace, as a reader would type them.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 5, f"found {len(blocks)} python blocks"
    namespace: dict = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert '"quantity": "K"' in capsys.readouterr().out
