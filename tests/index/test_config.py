"""Tests for index configuration."""

import pytest

from repro.index.btree import BPlusTreeDirectory
from repro.index.config import IndexConfig
from repro.index.hashdir import HashDirectory


class TestIndexConfig:
    def test_defaults(self):
        config = IndexConfig()
        assert config.entry_size_bytes == 16
        assert isinstance(config.directory_factory(), HashDirectory)

    def test_bytes_for(self):
        config = IndexConfig()
        assert config.bytes_for(0) == 0
        assert config.bytes_for(100) == 1600
        with pytest.raises(ValueError):
            config.bytes_for(-1)

    def test_invalid_entry_size(self):
        # The entry size is a constant of the format: no config sets one.
        with pytest.raises(TypeError):
            IndexConfig(entry_size_bytes=0)

    def test_custom_directory_factory(self):
        config = IndexConfig(
            directory_factory=lambda: BPlusTreeDirectory(order=8)
        )
        a = config.directory_factory()
        b = config.directory_factory()
        assert isinstance(a, BPlusTreeDirectory)
        assert a is not b  # factory makes fresh directories
