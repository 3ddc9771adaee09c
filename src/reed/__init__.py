"""Rekeying-aware encrypted deduplication storage.

Chunks are transformed into deduplicable trimmed packages plus small
rekeyable stubs; chunk keys come from a key manager over a blinded RSA
protocol (one key per similarity segment); file keys derive from
key-regression states, so revoking a user never touches the deduplicated
bulk data.
"""

__version__ = "0.1.0"
