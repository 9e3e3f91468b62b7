"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    # The first python block under the "Library sketch" heading.
    section = README.read_text().split("\n## Library sketch\n", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(sketch, str(README), "exec"), {})
    # It prints one line: the meet witness of a verified report.
    assert capsys.readouterr().out.count("\n") == 1
