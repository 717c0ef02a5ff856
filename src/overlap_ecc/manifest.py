"""Run manifests: a small receipt emitted next to every CLI report.

The manifest records what was run (command and raw arguments), with which
library version and seed, and a sha256 of each output produced.  Two runs
with identical manifests modulo checksums must produce identical outputs,
so the checksum doubles as a determinism probe in CI.

The digest comes from the interpreter's built-in SHA-256 module, the one
hashlib itself offers when OpenSSL is absent, so the digests are
hashlib's while a run never loads OpenSSL (about 3.6 MB of peak memory).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

try:  # the standard library's random module gets SHA-512 the same lean way
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in modules

MANIFEST_SCHEMA = "overlap-ecc/manifest/1"


def sha256_text(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    arguments: tuple
    version: str
    outputs: dict = field(default_factory=dict)  # target name -> sha256
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "arguments": list(self.arguments),
            "seed": self.seed,
            "version": self.version,
            "outputs": dict(sorted(self.outputs.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

