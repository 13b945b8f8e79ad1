"""Tests for the one atomic file write under every durable store."""

import os

import pytest

from repro.resilience import atomic_write


@pytest.mark.parametrize("durable", [True, False])
class TestAtomicWrite:
    def test_replaces_the_target_and_leaves_nothing_else(self, tmp_path,
                                                         durable):
        target = tmp_path / "state.json"
        atomic_write(target, "old", durable=durable)
        atomic_write(target, "new", durable=durable)
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_durable_means_file_and_directory_are_fsynced(
            self, tmp_path, monkeypatch, durable):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        atomic_write(tmp_path / "state.json", "x", durable=durable)
        assert len(synced) == (2 if durable else 0)

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_write_leaves_old_target_and_no_temp(
            self, tmp_path, monkeypatch, durable, failing):
        target = tmp_path / "state.json"
        atomic_write(target, "old", durable=durable)
        if failing == "replace":
            def refuse(src, dst):
                raise OSError("simulated crash during rename")
            monkeypatch.setattr(os, "replace", refuse)
            text, error = "new", OSError
        else:
            # A lone surrogate cannot be encoded: the write dies with
            # the temp file open and half of the text behind it.
            text, error = "new" * 10_000 + "\udc80", UnicodeEncodeError
        with pytest.raises(error):
            atomic_write(target, text, durable=durable)
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
