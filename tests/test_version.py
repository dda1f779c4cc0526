"""Unit tests for :mod:`repro.core.version`."""

from __future__ import annotations

import pytest

from repro.core.version import Version, normalize_version_id


class TestVersionConstruction:
    def test_basic_fields(self):
        version = Version("v1", size=42.0, name="base")
        assert version.version_id == "v1"
        assert version.size == 42.0
        assert version.name == "base"
        assert version.parents == ()

    def test_parents_are_normalized_to_tuple(self):
        version = Version("v2", size=1.0, parents=["v0", "v1"])
        assert version.parents == ("v0", "v1")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Version("v1", size=-1.0)

    def test_unhashable_id_rejected(self):
        with pytest.raises(TypeError):
            Version(["not", "hashable"], size=1.0)

    def test_integer_ids_allowed(self):
        version = Version(7, size=3.0)
        assert version.version_id == 7

    def test_metadata_defaults_to_empty(self):
        assert dict(Version("v", size=1.0).metadata) == {}


class TestVersionProperties:
    def test_root_detection(self):
        assert Version("v0", size=1.0).is_root
        assert not Version("v1", size=1.0, parents=("v0",)).is_root

    def test_versions_are_hashable_and_comparable(self):
        a = Version("v1", size=1.0)
        b = Version("v1", size=1.0)
        assert a == b
        assert hash(a) == hash(b)


class TestHelpers:
    def test_normalize_version_id_passthrough(self):
        assert normalize_version_id("abc") == "abc"
        assert normalize_version_id(12) == 12
