"""The paper's outputs, pinned byte for byte.

``repro figures`` and ``repro validate`` are the reproduction: every
refactor of the engine, the baselines or the harness must leave their text
unchanged.  The sanitizer compares that text across hash seeds and kernel
modes, but only with itself; these digests compare it with a fixed value.

A change that moves a figure on purpose re-pins the digest here and says
in its description which numbers moved and why.
"""

import hashlib
import io

import pytest

from repro.cli import main

DIGESTS = {
    "figures --quick": "f6370b2a58281a39",
    "figures": "3d9b88baec4beb92",
    "validate": "14fc5a37cf6d7201",
}


@pytest.mark.parametrize("argv", list(DIGESTS))
def test_output_is_pinned(argv):
    out = io.StringIO()
    assert main(argv.split(), out=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    assert digest == DIGESTS[argv]
