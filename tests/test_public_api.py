"""The package's export list names only what the package defines."""

import eatxt


def test_every_exported_name_resolves():
    for name in eatxt.__all__:
        assert hasattr(eatxt, name), name


def test_export_list_has_no_duplicates():
    assert len(eatxt.__all__) == len(set(eatxt.__all__))
