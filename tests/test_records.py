"""The package's records: immutable named tuples, with the reprs they had as
frozen dataclasses, and two that validate on every construction path."""

import pickle
import re

import pytest

from lefhom import (
    GF,
    QQ,
    ZZ,
    Cell,
    ExactSequenceReport,
    GeneratorConfig,
    HomologyProfile,
    RingSpec,
    SmithForm,
)
from lefhom.errors import UnsupportedRing
from lefhom.theorem import ConverseCandidate, CorollaryReport, LocalCheck, TheoremReport

POINT = "HomologyProfile(ring=RingSpec(kind='Z', p=None), entries=((0, 1, ()),))"


def _records():
    """(a fresh record, its repr as a frozen dataclass) for each record type."""
    point = HomologyProfile(ZZ, ((0, 1, ()),))
    return [
        (Cell("e", 1), "Cell(id='e', dim=1)"),
        (RingSpec("Fp", 3), "RingSpec(kind='Fp', p=3)"),
        (SmithForm((2, 3), (1, 2)),
         "SmithForm(shape=(2, 3), divisors=(1, 2), left_transform=None, right_transform=None)"),
        (point, POINT),
        (ExactSequenceReport(GF(2), (("0", 0), ("H_0(A)", 1), ("0", 0)), (), True),
         "ExactSequenceReport(ring=RingSpec(kind='Fp', p=2), "
         "nodes=(('0', 0), ('H_0(A)', 1), ('0', 0)), maps=(), exact=True, first_failure=None)"),
        (LocalCheck(True, point), f"LocalCheck(passes=True, profile={POINT})"),
        (TheoremReport(ZZ, True, {"e": LocalCheck(False, point)}, False, point, point,
                       True, True),
         "TheoremReport(ring=RingSpec(kind='Z', p=None), augmentable=True, "
         f"local_condition={{'e': LocalCheck(passes=False, profile={POINT})}}, "
         f"hypothesis_holds=False, lefschetz_profile={POINT}, singular_profile={POINT}, "
         "conclusion_holds=True, consistent_with_theorem=True)"),
        (CorollaryReport(QQ, True, False, 7, (("a", "e"),), False, True, True),
         "CorollaryReport(ring=RingSpec(kind='Q', p=None), augmentable=True, "
         "local_condition_holds=False, closed_sets_checked=7, "
         "mismatching_closed_sets=(('a', 'e'),), all_closed_match=False, "
         "directions_agree=True, consistent_with_corollary=True)"),
        (ConverseCandidate(4, 99, "basis-change", "ring Z\n", ("e",), point, point, True),
         "ConverseCandidate(index=4, seed=99, mode='basis-change', lef_text='ring Z\\n', "
         f"failing_cells=('e',), lefschetz_profile={POINT}, singular_profile={POINT}, "
         "reverified=True)"),
        (GeneratorConfig(seed=5, mode="basis-change"),
         "GeneratorConfig(seed=5, mode='basis-change', max_dimension=2, "
         "max_cells_per_dim=4, coefficient_bound=2, transform_steps=6)"),
    ]


def test_records_are_immutable_equal_by_value_and_keep_their_reprs():
    records, twins = _records(), _records()
    assert len({type(record) for record, _ in records}) == 10
    for (record, text), (twin, _) in zip(records, twins):
        assert repr(record) == text
        assert record == twin and record is not twin
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], twin[0])
        if isinstance(record, TheoremReport):  # its local_condition is a dict
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin)


def _unchecked(cls, *values):
    """A record built without its checks, as only a forged pickle could hold."""
    return tuple.__new__(cls, values)


@pytest.mark.parametrize("make, error, message", [
    (lambda: RingSpec("Fp", 4), UnsupportedRing, "prime field modulus must be prime, got 4"),
    (lambda: RingSpec("R"), UnsupportedRing, "unknown ring kind 'R'"),
    (lambda: ZZ._replace(p=2), UnsupportedRing, "ring Z takes no modulus"),
    (lambda: GF(3)._replace(p=1 << 40), UnsupportedRing,
     "prime field modulus must be below 2**31, got a 41-bit number"),
    (lambda: RingSpec._make(("Fp", None)), UnsupportedRing,
     "prime field modulus must be prime, got None"),
    (lambda: pickle.loads(pickle.dumps(_unchecked(RingSpec, "Fp", 9))), UnsupportedRing,
     "prime field modulus must be prime, got 9"),
    (lambda: GeneratorConfig(seed=-1), ValueError, "seed must be an unsigned 64-bit integer"),
    (lambda: GeneratorConfig(seed=1)._replace(max_dimension=6), ValueError,
     "max_dimension must be at most 5"),
    (lambda: GeneratorConfig(seed=1)._replace(mode="spheres"), ValueError,
     "unknown generator mode 'spheres'"),
    (lambda: GeneratorConfig._make((1, "basis-change", 2, 4, 2, -1)), ValueError,
     "bad basis-change parameters"),
    (lambda: pickle.loads(pickle.dumps(
        _unchecked(GeneratorConfig, 1, "basis-change", 0, 4, 2, 6))), ValueError,
     "size bounds must be positive"),
])
def test_validated_records_refuse_bad_values_on_every_path(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


def test_validated_records_keep_good_values_on_every_path():
    cfg = GeneratorConfig(seed=7, mode="cubical-random", transform_steps=0)
    for record in (GF(5), QQ, cfg):
        assert type(record)._make(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    assert GF(5)._replace(p=7) == RingSpec("Fp", 7)
    assert cfg._replace(seed=8) == GeneratorConfig(8, "cubical-random", transform_steps=0)
    assert type(cfg._replace(seed=8)) is GeneratorConfig


@pytest.mark.parametrize("make, message", [
    (lambda: RingSpec(), r"RingSpec.__new__() missing 1 required positional argument: 'kind'"),
    (lambda: RingSpec("Fp", 3, 5), r"RingSpec.__new__() takes from 2 to 3 positional arguments"),
    (lambda: GeneratorConfig(seed=1, bogus=2),
     r"GeneratorConfig.__new__() got an unexpected keyword argument 'bogus'"),
    (lambda: GeneratorConfig(), r"GeneratorConfig.__new__() missing 1 required positional argument"),
])
def test_wrong_arguments_name_the_public_record(make, message):
    # the message names the record, not a private named-tuple base
    with pytest.raises(TypeError, match=f"^{re.escape(message)}"):
        make()
