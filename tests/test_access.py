import pytest

from docvault.access import (
    AccessProof,
    Principal,
    Role,
    TokenStore,
    authorize,
    parse_bearer,
)
from docvault.errors import InvalidInput
from docvault.journal import JournalStore

from test_metadata import make_record


@pytest.fixture
def tokens(tmp_path):
    journal = JournalStore(tmp_path / "store.journal")
    yield TokenStore(journal)
    journal.close()


class TestAuthenticate:
    def test_valid_token(self, tokens):
        _, plaintext = tokens.create_token("alice", Role.USER)
        principal = tokens.authenticate(plaintext)
        assert principal == Principal("alice", Role.USER)

    def test_empty_string(self, tokens):
        assert tokens.authenticate("") is None

    def test_flipped_character(self, tokens):
        _, plaintext = tokens.create_token("alice")
        last = plaintext[-1]
        flipped = plaintext[:-1] + ("0" if last != "0" else "1")
        assert tokens.authenticate(flipped) is None

    def test_unknown_token_id(self, tokens):
        assert tokens.authenticate("tdeadbeef.cafe") is None

    def test_revoked_token(self, tokens):
        token_id, plaintext = tokens.create_token("alice")
        assert tokens.revoke_token(token_id)
        assert tokens.authenticate(plaintext) is None

    def test_revoke_twice(self, tokens):
        token_id, _ = tokens.create_token("alice")
        assert tokens.revoke_token(token_id)
        assert not tokens.revoke_token(token_id)

    def test_plaintext_not_stored(self, tokens, tmp_path):
        _, plaintext = tokens.create_token("alice")
        secret = plaintext.split(".", 1)[1]
        raw = (tmp_path / "store.journal").read_bytes()
        assert secret.encode() not in raw

    def test_tokens_survive_reopen(self, tmp_path):
        path = tmp_path / "tok.journal"
        with JournalStore(path) as j:
            _, plaintext = TokenStore(j).create_token("bob", Role.ADMIN)
        with JournalStore(path) as j:
            principal = TokenStore(j).authenticate(plaintext)
        assert principal == Principal("bob", Role.ADMIN)


    def test_empty_username_is_refused_before_it_is_stored(self, tokens, tmp_path):
        for username in ("", "a\x00b", "\udcff"):
            with pytest.raises(InvalidInput):
                Principal(username, Role.USER)
            with pytest.raises(InvalidInput):
                tokens.create_token(username)
        assert b"token:" not in (tmp_path / "store.journal").read_bytes()

    def test_stored_empty_username_does_not_authenticate(self, tokens):
        token_id, plaintext = tokens.create_token("alice")
        entry = tokens._journal.get("token:" + token_id)
        tokens._journal.put("token:" + token_id, {**entry, "username": ""})
        assert tokens.authenticate(plaintext) is None


class TestAuthorize:
    def test_owner_reads_own(self):
        record = make_record(owner="alice")
        proof = authorize(Principal("alice", Role.USER), record)
        assert isinstance(proof, AccessProof)
        assert proof.doc_id == record.doc_id

    def test_non_owner_denied(self):
        record = make_record(owner="alice")
        assert authorize(Principal("mallory", Role.USER), record) is None

    def test_admin_deletes_any(self):
        record = make_record(owner="alice")
        proof = authorize(Principal("root", Role.ADMIN), record)
        assert isinstance(proof, AccessProof)

    def test_proof_not_forgeable(self):
        with pytest.raises(TypeError):
            AccessProof(Principal("mallory", Role.USER), "d123")


class TestBearerParsing:
    @pytest.mark.parametrize(
        "header,expected",
        [
            ("Bearer abc.def", "abc.def"),
            ("bearer abc.def", "abc.def"),
            ("Basic abc", None),
            ("Bearer ", None),
            ("", None),
            (None, None),
        ],
    )
    def test_cases(self, header, expected):
        assert parse_bearer(header) == expected
