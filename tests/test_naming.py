import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docvault.errors import InvalidInput, WeakKey
from docvault.naming import (
    MIN_KEY_OCTETS,
    SecretKey,
    check_storage_name,
    derive_opaque_name,
)

# Known-answer vector: the published worked example for these inputs prints
# 693076a03195395ed5215a3ac0d3e70e, but every standalone MD5 implementation
# (hashlib, md5sum, openssl) gives the digest below for the concatenation
# "iivanov1306090530azsymbabamesa".  The independent oracle is ground truth;
# see README "Known-answer note".
WORKED_EXAMPLE_DIGEST = "7a62beb5dbc0c93368b37df75e6a2b26"

KEY = b"unit-test-secret-key-0123456789"


def oracle_md5(username: str, ts: int, key: bytes) -> str:
    return hashlib.md5(username.encode() + str(ts).encode() + key).hexdigest()


class TestDerive:
    def test_worked_example(self):
        # the paper's 13-octet key, below a deployed key's minimum, passed as octets
        name = derive_opaque_name("iivanov", 1306090530, "pdf", b"azsymbabamesa")
        assert name == f"{WORKED_EXAMPLE_DIGEST}.pdf"

    def test_matches_independent_oracle(self):
        name = derive_opaque_name("alice", 0, "txt", b"k0000000000000000")
        # frozen from: hashlib.md5(b"alice0k0000000000000000").hexdigest()
        assert name == "d014130a4b90caa30bbac85155859a03.txt"
        assert name == oracle_md5("alice", 0, b"k0000000000000000") + ".txt"

    def test_deterministic(self):
        assert derive_opaque_name("bob", 123456, "pdf", KEY) == derive_opaque_name(
            "bob", 123456, "pdf", KEY)

    def test_extension_not_hashed(self):
        a = derive_opaque_name("bob", 1, "pdf", KEY)
        b = derive_opaque_name("bob", 1, "txt", KEY)
        assert a.removesuffix(".pdf") == b.removesuffix(".txt")
        assert a != b


class TestInputValidation:
    def test_empty_username(self):
        with pytest.raises(InvalidInput):
            derive_opaque_name("", 1, "pdf", KEY)

    def test_nul_in_username(self):
        with pytest.raises(InvalidInput):
            derive_opaque_name("a\x00b", 1, "pdf", KEY)

    def test_username_that_is_not_utf8(self):
        # a lone surrogate: what Python makes of an argument that is not UTF-8
        with pytest.raises(InvalidInput):
            derive_opaque_name("\udcff", 1, "pdf", KEY)

    def test_negative_timestamp(self):
        with pytest.raises(InvalidInput):
            derive_opaque_name("a", -1, "pdf", KEY)

    @pytest.mark.parametrize("ext", ["", "PDF", "toolongext1", "p.f", "p f", "pdf\n"])
    def test_bad_extension(self, ext):
        with pytest.raises(InvalidInput):
            derive_opaque_name("a", 1, ext, KEY)

    def test_short_key_rejected(self):
        with pytest.raises(WeakKey):
            SecretKey(b"x" * (MIN_KEY_OCTETS - 1))

    def test_key_never_in_repr(self):
        key = SecretKey(b"supersecretkeymaterial!!")
        assert b"supersecret" not in repr(key).encode()
        assert b"supersecret" not in str(key).encode()


class TestStorageNameCheck:
    @pytest.mark.parametrize("text", [
        "../x.pdf", "a/b.pdf", "ab" * 16, "ab" * 16 + ".", "AB" * 16 + ".pdf",
        "ab" * 16 + ".PDF", "ab" * 16 + ".tar.gz", "ab" * 17 + ".pdf",
        # a trailing newline, after the extension or after the digest
        "ab" * 16 + ".pdf\n", "ab" * 16 + "\n.pdf\n",
    ])
    def test_other_text_is_refused(self, text):
        with pytest.raises(InvalidInput):
            check_storage_name(text)

    def test_a_value_that_is_not_text_is_refused(self):
        with pytest.raises(InvalidInput):
            check_storage_name(None)


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
        name = derive_opaque_name(username, ts, ext, KEY)
        assert check_storage_name(name) == name

    @given(usernames, timestamps, extensions)
    @settings(max_examples=200)
    def test_matches_oracle(self, username, ts, ext):
        name = derive_opaque_name(username, ts, ext, KEY)
        assert name == f"{oracle_md5(username, ts, KEY)}.{ext}"

    @given(timestamps, st.integers(min_value=0, max_value=len(KEY) - 1),
           st.integers(min_value=1, max_value=255))
    @settings(max_examples=200, deadline=None)
    def test_key_sensitivity(self, ts, pos, flip):
        mutated = bytearray(KEY)
        mutated[pos] ^= flip
        assert derive_opaque_name("fixeduser", ts, "pdf", KEY) != derive_opaque_name(
            "fixeduser", ts, "pdf", bytes(mutated))
