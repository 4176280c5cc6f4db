import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docvault.errors import InvalidInput, WeakKey
from docvault.naming import (
    MIN_KEY_OCTETS,
    NameInputs,
    OpaqueName,
    SecretKey,
    derive_opaque_name,
)

# Known-answer vector: the published worked example for these inputs prints
# 693076a03195395ed5215a3ac0d3e70e, but every standalone MD5 implementation
# (hashlib, md5sum, openssl) gives the digest below for the concatenation
# "iivanov1306090530azsymbabamesa".  The independent oracle is ground truth;
# see README "Known-answer note".
WORKED_EXAMPLE_DIGEST = "7a62beb5dbc0c93368b37df75e6a2b26"

KEY = SecretKey(b"unit-test-secret-key-0123456789")


def oracle_md5(username: str, ts: int, key: bytes) -> str:
    return hashlib.md5(username.encode() + str(ts).encode() + key).hexdigest()


class TestDerive:
    def test_worked_example(self):
        key = SecretKey(b"azsymbabamesa", allow_weak=True)
        name = derive_opaque_name(NameInputs("iivanov", 1306090530, "pdf"), key)
        assert name.render() == f"{WORKED_EXAMPLE_DIGEST}.pdf"

    def test_matches_independent_oracle(self):
        key = SecretKey(b"k0000000000000000")
        name = derive_opaque_name(NameInputs("alice", 0, "txt"), key)
        # frozen from: hashlib.md5(b"alice0k0000000000000000").hexdigest()
        assert name.digest_hex == "d014130a4b90caa30bbac85155859a03"
        assert name.digest_hex == oracle_md5("alice", 0, b"k0000000000000000")

    def test_deterministic(self):
        inputs = NameInputs("bob", 123456, "pdf")
        assert derive_opaque_name(inputs, KEY) == derive_opaque_name(inputs, KEY)

    def test_extension_not_hashed(self):
        a = derive_opaque_name(NameInputs("bob", 1, "pdf"), KEY)
        b = derive_opaque_name(NameInputs("bob", 1, "txt"), KEY)
        assert a.digest_hex == b.digest_hex
        assert a.extension != b.extension


class TestInputValidation:
    def test_empty_username(self):
        with pytest.raises(InvalidInput):
            NameInputs("", 1, "pdf")

    def test_nul_in_username(self):
        with pytest.raises(InvalidInput):
            NameInputs("a\x00b", 1, "pdf")

    def test_negative_timestamp(self):
        with pytest.raises(InvalidInput):
            NameInputs("a", -1, "pdf")

    @pytest.mark.parametrize("ext", ["", "PDF", "toolongext1", "p.f", "p f"])
    def test_bad_extension(self, ext):
        with pytest.raises(InvalidInput):
            NameInputs("a", 1, ext)

    def test_short_key_rejected(self):
        with pytest.raises(WeakKey):
            SecretKey(b"x" * (MIN_KEY_OCTETS - 1))

    def test_key_never_in_repr(self):
        key = SecretKey(b"supersecretkeymaterial!!")
        assert b"supersecret" not in repr(key).encode()
        assert b"supersecret" not in str(key).encode()


class TestKeyLoading:
    def test_load_file_strips_one_trailing_lf(self, tmp_path):
        p = tmp_path / "key"
        p.write_bytes(b"0123456789abcdef\n")
        assert SecretKey.load_file(p).octets == b"0123456789abcdef"

    def test_load_file_keeps_second_lf(self, tmp_path):
        p = tmp_path / "key"
        p.write_bytes(b"0123456789abcdef\n\n")
        assert SecretKey.load_file(p).octets == b"0123456789abcdef\n"


usernames = st.text(
    st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=40,
)
timestamps = st.integers(min_value=0, max_value=2**40)
extensions = st.from_regex(r"[a-z0-9]{1,10}", fullmatch=True)


class TestProperties:
    @given(usernames, timestamps, extensions)
    @settings(max_examples=300)
    def test_format_and_roundtrip(self, username, ts, ext):
        name = derive_opaque_name(NameInputs(username, ts, ext), KEY)
        rendered = name.render()
        assert OpaqueName.parse(rendered) == name

    @given(usernames, timestamps, extensions)
    @settings(max_examples=200)
    def test_matches_oracle(self, username, ts, ext):
        name = derive_opaque_name(NameInputs(username, ts, ext), KEY)
        assert name.digest_hex == oracle_md5(username, ts, KEY.octets)

    @given(timestamps, st.integers(min_value=0, max_value=len(KEY.octets) - 1),
           st.integers(min_value=1, max_value=255))
    @settings(max_examples=200, deadline=None)
    def test_key_sensitivity(self, ts, pos, flip):
        mutated = bytearray(KEY.octets)
        mutated[pos] ^= flip
        other = SecretKey(bytes(mutated))
        inputs = NameInputs("fixeduser", ts, "pdf")
        assert derive_opaque_name(inputs, KEY) != derive_opaque_name(inputs, other)
