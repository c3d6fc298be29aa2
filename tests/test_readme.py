import pkgutil
import re
from pathlib import Path

import ftqc

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_every_mentioned_name_exists():
    # a name deleted from the package must not linger in the docs
    modules = {m.name for m in pkgutil.iter_modules(ftqc.__path__)}
    mentioned = set(re.findall(r"\bftqc\.([A-Za-z_]\w*)", README))
    assert mentioned - set(ftqc.__all__) - modules - {"__all__"} == set()
