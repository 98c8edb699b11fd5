"""SHA-256 fingerprints without OpenSSL.

Every run fingerprint (trace, golden digest, QoS, chaos and fuzz
reports) hashes a few hundred bytes of canonical JSON.  ``hashlib``
would serve that through OpenSSL's libcrypto, whose mapping costs a run
several MB of resident memory; CPython's built-in SHA-256 module gives
the same digest for none of it.  ``hashlib`` stays the fallback for an
interpreter built without the built-in module.
"""

from __future__ import annotations

import json
from typing import Any

try:
    from _sha2 import sha256 as _sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:  # pragma: no cover - interpreter without them
        from hashlib import sha256 as _sha256

__all__ = ["fingerprint", "sha256_hex"]


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 digest of ``data`` (equal to ``hashlib``'s)."""
    return _sha256(data).hexdigest()


def fingerprint(doc: Any) -> str:
    """Hex SHA-256 of ``doc`` as canonical JSON (sorted keys, no
    whitespace): the one digest behind every run fingerprint."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256_hex(blob.encode())
