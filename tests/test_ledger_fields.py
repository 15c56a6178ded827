"""The checked-in ledger fields are the sympy derivation's output."""

import os

import ledger_derivation


def test_ledger_fields_module_is_the_derivations_text():
    with open(ledger_derivation.MODULE_PATH) as fh:
        checked_in = fh.read()
    assert checked_in == ledger_derivation.module_text(), (
        f"{os.path.normpath(ledger_derivation.MODULE_PATH)} differs from the "
        f"derivation in tests/ledger_derivation.py; regenerate it with "
        f"`{ledger_derivation.REGENERATE}` from the repository root")
