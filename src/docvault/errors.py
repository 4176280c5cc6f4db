"""Exception hierarchy shared across the vault modules."""


class VaultError(Exception):
    """Base class for all vault failures."""


class InvalidInput(VaultError):
    """A name-derivation input violates its constraints."""


class WeakKey(VaultError):
    """Secret key shorter than the required minimum."""


class PolicyPathMismatch(VaultError):
    """Requested placement policy contradicts the webroot/vault path pair."""


class IoFailure(VaultError):
    """A filesystem operation or a bind failed; carries the path or address and the cause."""

    def __init__(self, path, cause):
        super().__init__(f"{path}: {cause}")
        self.path = str(path)
        self.cause = cause


class ArtifactConflict(VaultError):
    """A protection artifact's path holds other bytes, a link or no file."""

    def __init__(self, path):
        super().__init__(
            f"refusing to overwrite {path}: its content differs; restore the file "
            "or remove it"
        )
        self.path = str(path)


class StorageFailure(VaultError):
    """Metadata store could not complete an operation."""


class DuplicateOpaqueName(VaultError):
    """A record with this opaque name already exists."""


class NotFound(VaultError):
    """No record matches the given identifier."""


class InvalidFilename(VaultError):
    """An upload's filename breaks the stored-name rule."""


class InvalidCursor(VaultError):
    """A listing cursor names no live record of that listing."""


class TooLarge(VaultError):
    """Upload exceeds the configured size limit."""


class TruncatedBody(VaultError):
    """An upload's content ended before its declared length."""


class BlobMissing(VaultError):
    """A record exists but its blob file is gone (integrity fault)."""


class RangeNotSatisfiable(VaultError):
    """Requested byte range starts at or past the end of the blob."""


class ConfigError(VaultError):
    """Service configuration is invalid or incomplete."""
