"""The value types behave as frozen records of their fields: they compare
and hash by class and field tuple, print as ``Name(field=value, ...)``,
refuse assignment and deletion, build from keywords, and round-trip
through pickle and copy.  Every object the library builds unchecked equals
its checked construction."""

import copy
import pickle
import types

import pytest

from mpart import cli, counting
from mpart.bijection import BetaSeq, enumerate_members, phi, phi_inv
from mpart.congruence import Residue, afs_c_mod, b_mod_product, c_mod_formula
from mpart.partitions import MaryPartition, enumerate_b, enumerate_c
from mpart.polysum import IntPolynomial
from mpart.radix import BaseRepr, to_base

# class -> (fields in declaration order, exact repr)
VALUES = {
    BaseRepr: ({"m": 4, "digits": (0, 1, 2)}, "BaseRepr(m=4, digits=(0, 1, 2))"),
    MaryPartition: ({"m": 2, "mults": (1, 2)}, "MaryPartition(m=2, mults=(1, 2))"),
    BetaSeq: ({"m": 4, "n": 36, "betas": (9, 2)}, "BetaSeq(m=4, n=36, betas=(9, 2))"),
    IntPolynomial: ({"coeffs": (1, -3, 2)}, "IntPolynomial(coeffs=(1, -3, 2))"),
    Residue: ({"value": 3, "modulus": 7}, "Residue(value=3, modulus=7)"),
}
CLASSES = pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)


@CLASSES
def test_equal_by_class_and_fields(cls):
    fields, _ = VALUES[cls]
    x, y = cls(**fields), cls(**fields)
    assert x is not y and x == y and not x != y
    lookalikes = (types.SimpleNamespace(**fields), type("Lookalike", (cls,), {})(**fields),
                  tuple(fields.values()))
    for other in lookalikes:
        assert x != other and other != x and not x == other


@CLASSES
def test_hash_is_the_hash_of_the_field_tuple(cls):
    fields, _ = VALUES[cls]
    assert hash(cls(**fields)) == hash(tuple(fields.values()))
    assert len({cls(**fields), cls(**fields)}) == 1


@CLASSES
def test_repr_names_every_field(cls):
    fields, text = VALUES[cls]
    assert repr(cls(**fields)) == text


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields, _ = VALUES[cls]
    x = cls(**fields)
    for name, value in [*fields.items(), ("extra", 1)]:
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert all(getattr(x, name) == value for name, value in fields.items())


@CLASSES
def test_keyword_and_positional_construction_agree(cls):
    fields, _ = VALUES[cls]
    x = cls(**fields)
    assert x == cls(*fields.values())
    unchecked = cls.unchecked(*fields.values())  # fields in __slots__ order
    assert type(unchecked) is cls and unchecked == x
    assert tuple(getattr(x, name) for name in fields) == tuple(fields.values())


@CLASSES
def test_pickle_and_copy_round_trip(cls):
    fields, text = VALUES[cls]
    x = cls(**fields)
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is cls and clone == x and repr(clone) == text


# bases 2..7 over n <= 150, which takes in every n < m, and two points with
# long innermost runs: the last one's 100,002 partitions are 2 runs
UNCHECKED_GRID = [(m, n) for m in range(2, 8) for n in range(1, 151)] + [
    (10, 1234), (10**5, 10**10 + 7)]


def _same(built, checked):
    # checked is built from built's own fields, so a list field would still
    # compare equal; hashing built refuses it
    assert built == checked
    hash(tuple(built))


def test_objects_built_unchecked_equal_their_checked_construction():
    # the checked constructors raise on a non-canonical form (a zero top
    # multiplicity, a sequence of the wrong length, a digit out of range)
    for m, n in UNCHECKED_GRID:
        parts, members = enumerate_b(m, n), enumerate_members(m, n)
        for built in (parts, enumerate_c(m, n), [phi_inv(b) for b in members]):
            _same(built, [MaryPartition(m, p.mults) for p in built])
        for built in (members, [phi(p, n) for p in parts]):
            _same(built, [BetaSeq(m, n, b.betas) for b in built])
    ns = {m: range(151) for m in range(2, 8)}
    ns.update({m: range(n - 2, n + 3) for m, n in UNCHECKED_GRID[-2:]})
    for m, block in ns.items():
        for reprs in ([to_base(m, n) for n in block], list(cli._reprs(m, block))):
            _same(reprs, [BaseRepr(m, r.digits) for r in reprs])
        for predict in (b_mod_product, c_mod_formula, afs_c_mod):  # the c forms need n >= 1
            residues = [predict(r) for r in cli._reprs(m, block) if r.digits != (0,)]
            _same(residues, [Residue(x.value, x.modulus) for x in residues])
    # the level steps of the exact route and of the residue route mod m, which
    # strips coefficients that vanish, and substitutions at either sign of b
    polys = [IntPolynomial.from_coeffs(c) for c in ((), (0, 0), (3, -2, 0, 0), (1, -3, 2))]
    for m in range(2, 8):
        exact = residue = IntPolynomial((1, 1))
        for d in to_base(m, 10**6).digits:
            polys.append(exact := exact.compose_affine(m, d))
            polys.append(exact := exact.prefix_sum())
            polys.append(residue := counting._residue_level(m, m, residue.coeffs, d))
    polys += [p.compose_affine(a, b) for p in polys[:4] for a in (1, 3) for b in (-5, 0, 2)]
    _same(polys, [IntPolynomial(p.coeffs) for p in polys])
