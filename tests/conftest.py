import pytest

from taut3.presentations import builtin_presentation
from taut3.su2reps import enumerate_reps


@pytest.fixture(scope="session")
def brieskorn_235_moduli():
    """Flat SU(2) moduli of the Poincare sphere, shared by the tests that only
    read them."""
    return enumerate_reps(builtin_presentation("Brieskorn", 2, 3, 5))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name, *modules) wraps the function `name` in each of
    `modules` and returns the list of argument tuples it is called with."""

    def install(name, *modules):
        calls = []
        real = getattr(modules[0], name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counting, raising=False)
        return calls

    return install
