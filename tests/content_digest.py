"""The benchmark's content digest of a certificate, shared by the tests that
pin lifted content: SHA-256 of the certificate JSON without the fields that
may shift while the exact content stays the same, the stored verification
report and the float alignment scores."""

import hashlib
import json


def content_digest(cert) -> str:
    obj = json.loads(cert.to_json())
    obj.pop("verification", None)
    for key in ("score", "runner_up", "separation"):
        obj["galois"].pop(key, None)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
