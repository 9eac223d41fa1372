import importlib
import inspect
import pkgutil

import pytest

import magbloch

MODULES = sorted(info.name for info in pkgutil.iter_modules(magbloch.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exactly_the_public_functions_and_classes(name):
    mod = importlib.import_module(f"magbloch.{name}")
    defined = {attr for attr, obj in vars(mod).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    assert sorted(mod.__all__) == sorted(defined)
