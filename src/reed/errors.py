"""Exception hierarchy shared by all reed components."""


class ReedError(Exception):
    """Base class for every error raised by this package."""


# -- chunk transform / package handling --------------------------------------

class IntegrityViolation(ReedError):
    """A reconstructed chunk failed its integrity check (tampered data)."""


class PackageTooSmall(IntegrityViolation):
    """A package is too small to contain a stub (or a plausible payload)."""


class AuthenticationFailure(ReedError):
    """Authenticated decryption failed: wrong key or tampered ciphertext."""


# -- key generation protocol --------------------------------------------------

class ZeroFingerprint(ReedError):
    """A fingerprint mapped to the integer 0; input is corrupt."""


class InvalidOperand(ReedError):
    """A protocol operand is outside the valid range for the RSA modulus."""


class SignatureInvalid(ReedError):
    """An unblinded key-manager response failed verification."""


class PrivateKeyFault(ReedError):
    """A private-key result failed its public-exponent check (fault or bad key)."""


class RateLimited(ReedError):
    """The key manager refused the request; the client must back off."""


# -- key regression / access control ------------------------------------------

class NotOwner(ReedError):
    """The operation requires the owner's private derivation key."""


class AtInitialState(ReedError):
    """Cannot unwind a key state that is already at version 0."""


class AccessDenied(ReedError):
    """The caller is not authorized to unwrap this key state."""


class UnknownUser(ReedError):
    """A policy member has no registered public access key a wrap can use."""


class PolicyEmpty(ReedError):
    """A file policy must list at least one authorized user."""


class SchemeNotAllowed(ReedError):
    """The requested encryption scheme is refused under current settings."""


# -- storage service -----------------------------------------------------------

class NotFound(ReedError):
    """The requested object does not exist on the server."""


class FingerprintMismatch(ReedError):
    """An uploaded package does not hash to its declared fingerprint."""


class VersionConflict(ReedError):
    """A compare-and-set on a version pointer lost to a concurrent writer."""


class StorageUnavailable(ReedError):
    """A service failed internally; every ERR_INTERNAL reply raises this."""


# -- transport / tooling ---------------------------------------------------------

class TransportError(ReedError):
    """Connection-level failure while talking to a server."""


class TraceParseError(ReedError):
    """A trace file line could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
