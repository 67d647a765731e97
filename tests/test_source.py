"""The package's own modules compile without warnings.

`compile()` runs on the source text, so invalid escapes and similar warnings
show even where cached `.pyc` files would skip them on import.
"""

import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "taut3"


def test_sources_compile_without_warnings():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in sources:
            compile(path.read_text(), str(path), "exec")
