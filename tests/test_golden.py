"""Every CLI output in the golden-output corpus (`golden.py`) is
byte-identical to the digests kept in tests/data/golden.json."""
import json

from golden import GOLDEN, digests, moved


def test_golden_corpus():
    want = json.loads(GOLDEN.read_text())
    diff = moved(want, digests())
    assert not diff, f"{len(diff)} digests moved, first: {diff[:12]}"
