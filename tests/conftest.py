import pytest

from mpart.budgets import ENUM_BUDGET_ENV, LOOP_BUDGET_ENV


@pytest.fixture
def set_budget(monkeypatch):
    """set_budget(value) sets both budget variables to str(value) for the
    rest of the test; set_budget(None) unsets both, restoring the defaults.
    Each brute-force entry point reads only one of them."""
    def set_(value):
        for variable in (ENUM_BUDGET_ENV, LOOP_BUDGET_ENV):
            if value is None:
                monkeypatch.delenv(variable, raising=False)
            else:
                monkeypatch.setenv(variable, str(value))
    return set_
