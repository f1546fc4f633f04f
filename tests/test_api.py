import otsm
from otsm import builders, certificate, core, experiment, formats, solver

MODULES = (core, solver, certificate, builders, experiment, formats)


def test_package_reexports_each_module_all():
    assert otsm.__all__ == ["__version__"] + [n for mod in MODULES for n in mod.__all__]
    assert len(set(otsm.__all__)) == len(otsm.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(otsm, name) is getattr(module, name), name
