import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docvault.errors import ArtifactConflict, PolicyPathMismatch
from docvault.placement import (
    DEFAULT_PLACEHOLDER_MESSAGE,
    PlacementPolicy,
    emit_deny_config,
    emit_index_placeholder,
    materialize_layout,
    plan_layout,
    verify_layout,
)

from conftest import GOLDEN_DIR


class TestPlan:
    def test_outside_webroot_no_artifacts(self):
        layout = plan_layout(
            PlacementPolicy.OUTSIDE_WEBROOT, "/srv/www/html", "/srv/vault"
        )
        assert layout.artifacts == ()

    def test_denied_subdir_has_deny_config(self):
        layout = plan_layout(
            PlacementPolicy.DENIED_SUBDIR, "/srv/www/html", "/srv/www/html/docs"
        )
        paths = dict(layout.artifacts)
        assert paths["docs/.htaccess"] == emit_deny_config()

    def test_obscured_subdir_has_placeholder(self):
        layout = plan_layout(
            PlacementPolicy.OBSCURED_SUBDIR, "/srv/www/html", "/srv/www/html/docs"
        )
        paths = dict(layout.artifacts)
        assert paths["docs/index.html"] == emit_index_placeholder(
            DEFAULT_PLACEHOLDER_MESSAGE
        )

    def test_outside_webroot_inside_path_rejected(self):
        with pytest.raises(PolicyPathMismatch):
            plan_layout(
                PlacementPolicy.OUTSIDE_WEBROOT, "/srv/www/html", "/srv/www/html/docs"
            )

    def test_denied_subdir_outside_path_rejected(self):
        with pytest.raises(PolicyPathMismatch):
            plan_layout(PlacementPolicy.DENIED_SUBDIR, "/srv/www/html", "/srv/vault")

    def test_lexical_normalization(self):
        # ".." escapes the webroot even though the raw string starts with it
        with pytest.raises(PolicyPathMismatch):
            plan_layout(
                PlacementPolicy.DENIED_SUBDIR,
                "/srv/www/html",
                "/srv/www/html/docs/../../../vault",
            )

    def test_relative_paths_rejected(self):
        with pytest.raises(PolicyPathMismatch):
            plan_layout(PlacementPolicy.DENIED_SUBDIR, "srv/www", "srv/www/docs")


class TestContainment:
    """Containment is component-wise and strict."""

    def test_sibling_prefix_not_inside(self):
        with pytest.raises(PolicyPathMismatch):
            plan_layout(PlacementPolicy.DENIED_SUBDIR, "/srv/www/html", "/srv/www/html-evil")

    def test_descendant_inside(self):
        layout = plan_layout(
            PlacementPolicy.DENIED_SUBDIR, "/srv/www/html", "/srv/www/html/docs/deep"
        )
        assert dict(layout.artifacts)["docs/deep/.htaccess"] == emit_deny_config()

    def test_self_not_inside(self):
        with pytest.raises(PolicyPathMismatch):
            plan_layout(PlacementPolicy.DENIED_SUBDIR, "/srv/www/html", "/srv/www/html")


class TestEmission:
    def test_deny_config_golden(self):
        assert emit_deny_config() == (GOLDEN_DIR / "htaccess").read_bytes()

    def test_deny_config_exact_directives(self):
        assert emit_deny_config() == b"Order Deny,Allow\nDeny from all\n"

    def test_deny_config_stable(self):
        assert emit_deny_config() == emit_deny_config()

    def test_placeholder_default_golden(self):
        assert emit_index_placeholder() == (GOLDEN_DIR / "index_default.html").read_bytes()

    def test_placeholder_empty_body(self):
        assert b"<body></body>" in emit_index_placeholder()

    def test_placeholder_message_verbatim(self):
        out = emit_index_placeholder("Access to this directory is forbidden")
        assert b"<body>Access to this directory is forbidden</body>" in out

    def test_placeholder_escapes_html(self):
        assert b"&lt;b&gt;" in emit_index_placeholder("<b>")
        assert b"<body><b></body>" not in emit_index_placeholder("<b>")


def _tmp_paths(tmp_path, policy):
    """(policy, webroot, vault_dir): the arguments of plan_layout and verify_layout."""
    webroot = tmp_path / "webroot"
    webroot.mkdir(exist_ok=True)
    if policy is PlacementPolicy.OUTSIDE_WEBROOT:
        vault = tmp_path / "vault"
    else:
        vault = webroot / "docs"
    return policy, str(webroot), str(vault)


def _tmp_layout(tmp_path, policy):
    return plan_layout(*_tmp_paths(tmp_path, policy))


class TestMaterialize:
    def test_fresh_obscured(self, tmp_path):
        layout = _tmp_layout(tmp_path, PlacementPolicy.OBSCURED_SUBDIR)
        result = materialize_layout(layout)
        assert not result.already_compliant
        index = Path(layout.webroot) / "docs" / "index.html"
        assert index.read_bytes() == dict(layout.artifacts)["docs/index.html"]

    def test_idempotent(self, tmp_path):
        layout = _tmp_layout(tmp_path, PlacementPolicy.DENIED_SUBDIR)
        materialize_layout(layout)
        second = materialize_layout(layout)
        assert second.already_compliant
        assert second.created == ()

    def test_write_read_roundtrip(self, tmp_path):
        layout = _tmp_layout(tmp_path, PlacementPolicy.DENIED_SUBDIR)
        materialize_layout(layout)
        on_disk = (Path(layout.webroot) / "docs" / ".htaccess").read_bytes()
        assert on_disk == emit_deny_config()

    def test_conflict_without_force(self, tmp_path):
        layout = _tmp_layout(tmp_path, PlacementPolicy.OBSCURED_SUBDIR)
        target = Path(layout.webroot) / "docs" / "index.html"
        target.parent.mkdir(parents=True)
        target.write_bytes(b"someone else's index")
        with pytest.raises(ArtifactConflict, match="restore the file or remove it"):
            materialize_layout(layout)
        assert target.read_bytes() == b"someone else's index"

    @pytest.mark.parametrize("entry", ["dangling-symlink", "symlink-to-same-bytes", "directory"])
    def test_anything_but_a_file_of_the_same_bytes_is_a_conflict(self, tmp_path, entry):
        """An existing entry is read without following a link, so a symlink
        never leads the write, or the compliance check, outside the vault."""
        layout = _tmp_layout(tmp_path, PlacementPolicy.DENIED_SUBDIR)
        target = Path(layout.webroot) / "docs" / ".htaccess"
        target.parent.mkdir(parents=True)
        outside = tmp_path / "outside"
        if entry == "directory":
            target.mkdir()
        else:
            if entry == "symlink-to-same-bytes":
                outside.write_bytes(emit_deny_config())
            target.symlink_to(outside)
        with pytest.raises(ArtifactConflict):
            materialize_layout(layout)
        assert outside.exists() == (entry == "symlink-to-same-bytes")

    def test_restrictive_permissions(self, tmp_path):
        layout = _tmp_layout(tmp_path, PlacementPolicy.DENIED_SUBDIR)
        materialize_layout(layout)
        mode = os.stat(layout.vault_dir).st_mode & 0o777
        assert mode == 0o700


class TestVerify:
    def test_compliant_denied_subdir(self, tmp_path):
        paths = _tmp_paths(tmp_path, PlacementPolicy.DENIED_SUBDIR)
        materialize_layout(plan_layout(*paths))
        assert verify_layout(*paths) == []

    def test_deleted_deny_config(self, tmp_path):
        paths = _tmp_paths(tmp_path, PlacementPolicy.DENIED_SUBDIR)
        layout = plan_layout(*paths)
        materialize_layout(layout)
        (Path(layout.webroot) / "docs" / ".htaccess").unlink()
        violations = verify_layout(*paths)
        assert [v.rule for v in violations] == ["1b"]

    def test_modified_placeholder(self, tmp_path):
        paths = _tmp_paths(tmp_path, PlacementPolicy.OBSCURED_SUBDIR)
        layout = plan_layout(*paths)
        materialize_layout(layout)
        (Path(layout.webroot) / "docs" / "index.html").write_bytes(b"<html>listing</html>")
        violations = verify_layout(*paths)
        assert [v.rule for v in violations] == ["2"]

    def test_symlinked_deny_config_to_the_same_bytes(self, tmp_path):
        # read without following the link, as materialize_layout reads it
        paths = _tmp_paths(tmp_path, PlacementPolicy.DENIED_SUBDIR)
        layout = plan_layout(*paths)
        materialize_layout(layout)
        outside = tmp_path / "outside"
        outside.write_bytes(emit_deny_config())
        deny = Path(layout.webroot) / "docs" / ".htaccess"
        deny.unlink()
        deny.symlink_to(outside)
        violations = verify_layout(*paths)
        assert [(v.rule, v.detail) for v in violations] == [
            ("1b", "protection file not a regular file")
        ]

    def test_world_readable_vault(self, tmp_path):
        paths = _tmp_paths(tmp_path, PlacementPolicy.DENIED_SUBDIR)
        layout = plan_layout(*paths)
        materialize_layout(layout)
        os.chmod(layout.vault_dir, 0o755)
        violations = verify_layout(*paths)
        assert any(v.rule == "perm" for v in violations)

    def test_missing_vault_dir(self, tmp_path):
        violations = verify_layout(*_tmp_paths(tmp_path, PlacementPolicy.OUTSIDE_WEBROOT))
        assert violations and violations[0].rule == "1a"

    def test_resolves_each_path_once(self, tmp_path, monkeypatch):
        paths = _tmp_paths(tmp_path, PlacementPolicy.DENIED_SUBDIR)
        materialize_layout(plan_layout(*paths))
        realpath, resolved = os.path.realpath, []
        monkeypatch.setattr(os.path, "realpath", lambda p: resolved.append(p) or realpath(p))
        assert verify_layout(*paths) == []
        assert sorted(resolved) == sorted(paths[1:])


class TestResolvedPaths:
    """Containment is decided on the paths the kernel resolves, not the strings."""

    @pytest.fixture
    def www(self, tmp_path):
        (tmp_path / "www" / "docs").mkdir(parents=True, mode=0o700)
        return tmp_path / "www"

    def test_outside_vault_symlinked_into_webroot(self, tmp_path, www):
        (tmp_path / "vault").symlink_to(www / "docs")
        paths = (PlacementPolicy.OUTSIDE_WEBROOT, str(www), str(tmp_path / "vault"))
        with pytest.raises(PolicyPathMismatch):
            plan_layout(*paths)
        assert [v.rule for v in verify_layout(*paths)] == ["1a"]

    def test_vault_swapped_for_symlink_after_init(self, tmp_path, www):
        paths = (PlacementPolicy.OUTSIDE_WEBROOT, str(www), str(tmp_path / "vault"))
        materialize_layout(plan_layout(*paths))
        assert verify_layout(*paths) == []
        os.rmdir(tmp_path / "vault")
        os.symlink(www / "docs", tmp_path / "vault")
        violations = verify_layout(*paths)
        assert [(v.rule, v.detail) for v in violations] == [
            ("1a", f"outside-webroot placement, but {tmp_path / 'vault'} lies inside {www}")
        ]

    def test_vault_swapped_for_symlink_to_webroot_itself(self, tmp_path, www):
        # The whole served tree becomes the vault: equality counts as inside,
        # in verify as in plan.
        paths = (PlacementPolicy.OUTSIDE_WEBROOT, str(www), str(tmp_path / "vault"))
        materialize_layout(plan_layout(*paths))
        assert verify_layout(*paths) == []
        os.rmdir(tmp_path / "vault")
        os.symlink(www, tmp_path / "vault")
        with pytest.raises(PolicyPathMismatch):
            plan_layout(*paths)
        assert [v.rule for v in verify_layout(*paths)][0] == "1a"

    def test_named_inside_through_link_leading_out(self, tmp_path, www):
        # A server maps /link/ to www/link and follows the link, so a vault
        # named there is served although its resolved path is outside.
        (tmp_path / "elsewhere" / "vault").mkdir(parents=True, mode=0o700)
        (www / "link").symlink_to(tmp_path / "elsewhere" / "vault")
        named = str(www / "link")
        outside = (PlacementPolicy.OUTSIDE_WEBROOT, str(www), named)
        with pytest.raises(PolicyPathMismatch, match="lies inside"):
            plan_layout(*outside)
        assert [v.rule for v in verify_layout(*outside)] == ["1a"]
        # As a denied subdirectory it works: the deny file written through
        # the link lands in the vault, where the server honours it.
        layout = plan_layout(PlacementPolicy.DENIED_SUBDIR, str(www), named)
        assert dict(layout.artifacts)["link/.htaccess"] == emit_deny_config()
        materialize_layout(layout)
        assert (tmp_path / "elsewhere" / "vault" / ".htaccess").read_bytes() == emit_deny_config()
        assert verify_layout(PlacementPolicy.DENIED_SUBDIR, str(www), named) == []

    def test_webroot_through_symlink(self, tmp_path, www):
        (tmp_path / "site").symlink_to(www)
        paths = (PlacementPolicy.DENIED_SUBDIR, str(tmp_path / "site"), str(www / "docs"))
        layout = plan_layout(*paths)
        assert dict(layout.artifacts)["docs/.htaccess"] == emit_deny_config()
        assert layout.webroot == str(tmp_path / "site")
        assert layout.vault_dir == str(www / "docs")
        materialize_layout(layout)
        assert (www / "docs" / ".htaccess").read_bytes() == emit_deny_config()
        assert verify_layout(*paths) == []

    def test_dotdot_after_symlink(self, tmp_path, www):
        (www / "deep" / "inner").mkdir(parents=True)
        (www / "link").symlink_to(www / "deep" / "inner")
        vault = f"{www}/link/../vault"  # named www/vault; really www/deep/vault
        layout = plan_layout(PlacementPolicy.DENIED_SUBDIR, str(www), vault)
        assert dict(layout.artifacts)["deep/vault/.htaccess"] == emit_deny_config()
        materialize_layout(layout)
        assert (www / "deep" / "vault" / ".htaccess").read_bytes() == emit_deny_config()
        assert not (www / "vault").exists()
        assert verify_layout(PlacementPolicy.DENIED_SUBDIR, str(www), vault) == []

    def test_dotdot_after_symlink_leading_out(self, tmp_path, www):
        (tmp_path / "elsewhere" / "deep").mkdir(parents=True)
        (www / "link").symlink_to(tmp_path / "elsewhere" / "deep")
        vault = f"{www}/link/../docs"  # named www/docs; really elsewhere/docs
        # Not inside once resolved, and not outside as named: no policy fits.
        for policy in PlacementPolicy:
            with pytest.raises(PolicyPathMismatch):
                plan_layout(policy, str(www), vault)
            assert [v.rule for v in verify_layout(policy, str(www), vault)][0] == "1a"

    def test_failed_plan_still_checks_protection_files(self, tmp_path, www):
        # Named www/docs, really elsewhere/docs: no policy fits, and the files
        # are still looked for in the directory the kernel reaches.
        (tmp_path / "elsewhere" / "deep").mkdir(parents=True)
        (tmp_path / "elsewhere" / "docs").mkdir(mode=0o700)
        (www / "link").symlink_to(tmp_path / "elsewhere" / "deep")
        paths = (PlacementPolicy.DENIED_SUBDIR, str(www), f"{www}/link/../docs")
        assert [v.rule for v in verify_layout(*paths)] == ["1a", "1b", "2"]
        (tmp_path / "elsewhere" / "docs" / ".htaccess").write_bytes(emit_deny_config())
        assert [v.rule for v in verify_layout(*paths)] == ["1a", "2"]


@given(st.sampled_from(list(PlacementPolicy)))
@settings(max_examples=30, deadline=None)
def test_plan_materialize_verify_clean(tmp_path_factory, policy):
    paths = _tmp_paths(tmp_path_factory.mktemp("layout"), policy)
    materialize_layout(plan_layout(*paths))
    assert verify_layout(*paths) == []
