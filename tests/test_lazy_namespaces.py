"""The lazy package namespaces keep the surface of eager packages.

Every ``repro`` package resolves its public names through a PEP 562
``__getattr__`` (``repro.util.lazy``).  Names must still resolve, be
bound by ``from pkg import *`` and be listed by ``dir()``; an unknown
name must raise ``AttributeError`` as on a plain module.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.lang",
    "repro.ltl",
    "repro.objects",
    "repro.parallel",
    "repro.service",
    "repro.testing",
    "repro.util",
    "repro.verify",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves(name):
    package = importlib.import_module(name)
    assert package.__all__
    for public in package.__all__:
        getattr(package, public)  # raises AttributeError if it does not resolve


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_name(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_name(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_submodule_exports_are_the_modules():
    import repro
    import repro.objects

    assert repro.core is importlib.import_module("repro.core")
    assert repro.objects.hm_list is importlib.import_module("repro.objects.hm_list")
