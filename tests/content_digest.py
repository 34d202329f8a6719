"""The benchmark's content digest of a certificate, shared by the tests that
pin lifted content: SHA-256 of the certificate JSON with sorted keys and no
whitespace. The writer stores neither the verification report nor the float
alignment scores, the fields that may shift while the exact content stays
the same, so this is the digest the benchmark's recipe gives, which drops
them by name."""

import hashlib
import json


def content_digest(cert) -> str:
    obj = json.loads(cert.to_json())
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
