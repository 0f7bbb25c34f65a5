"""The command line's outputs stay byte-identical to the committed corpus."""

import json

from identity_corpus import MANIFEST, digests, moved


def test_every_output_keeps_its_digest():
    changed = moved(json.loads(MANIFEST.read_text()), digests())
    assert not changed, "outputs whose digest moved: " + "; ".join(changed)
