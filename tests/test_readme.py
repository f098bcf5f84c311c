"""The README's library example runs as written and gives the radius it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example():
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert format(namespace["cert"].value, ".17g") == "0.23606797749978969"
