"""Fixtures shared by the test modules."""

import math

import pytest

from mubwitness import witness


@pytest.fixture(scope="session")
def validated_ids():
    """The ids passing validate_ew at pi/6, pi/4 and pi/3, computed once (about 3 s)."""
    psis = (math.pi / 6, math.pi / 4, math.pi / 3)
    return [id_ for id_ in witness.all_family_ids()
            if all(witness.validate_ew(id_.with_psi(psi)) for psi in psis)]
