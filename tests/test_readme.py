"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    """The python code blocks of the README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_use_blocks_run(tmp_path, monkeypatch):
    # the second block reuses the names the first defines, and writes its
    # bundle under the working directory
    blocks = library_blocks()
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["counts"].total == namespace["cfg"]["spectrometer"]["events"]
    assert len(list((tmp_path / "runs" / "tomo" / "tomo").glob("proj_*.csv"))) == 16
    assert [r.label for r in namespace["results"]] == [-4, -3, -2, -1, 1, 2, 3, 4]
