"""Value semantics of the library's record types: equality, hashing, repr,
immutability, ordering and replace, pinned for all fifteen of them."""

from fractions import Fraction

import pytest

from cinfer import catalog
from cinfer.catalog import CatalogEntry, VerificationReport
from cinfer.checks import CheckResult
from cinfer.dist import SampleSpace
from cinfer.inequalities import (
    ConditionalIngletonRule,
    CounterexampleReport,
    DerivationSchema,
    InequalityReport,
)
from cinfer.inference import GroundRule, InferenceRule
from cinfer.sets import BasicSet, replace
from cinfer.setfn import CheckWitness, SetFunction
from cinfer.structures import CIStructure, ElementaryTriplet, canonical_triplets

XY = BasicSet(("x", "y"))
PREMISES = (("X", "Y", ""), ("X", "Y", "Z"), ("Z", "U", "X"), ("Z", "U", "Y"))


def _schema(**changes):
    fields = dict(
        target="I1",
        rule=1,
        swapped=False,
        mask=1,
        premises=PREMISES,
        rule_premises=PREMISES[:2],
        conclusion=("Z", "U", ""),
        extension=None,
    )
    fields.update(changes)
    return DerivationSchema(**fields)


def _report(cls, *fields):
    report = cls("EX1", [], *fields)
    report.add("claimed-statements", True, "")
    return report


# name -> (build a fresh instance, every field in declaration order with a
# different valid value, exact repr, frozen)
RECORDS = {
    "BasicSet": (
        lambda: BasicSet(("x", "y")),
        {"names": ("x", "z")},
        "BasicSet(x, y)",
        True,
    ),
    "SampleSpace": (
        lambda: SampleSpace(("x", "y"), (2, 3)),
        {"names": ("x", "z"), "cardinalities": (2, 2)},
        "SampleSpace(names=('x', 'y'), cardinalities=(2, 3))",
        True,
    ),
    "ElementaryTriplet": (
        lambda: ElementaryTriplet(1, 3, 4),
        {"i": 0, "j": 5, "K": 1},
        "ElementaryTriplet(i=1, j=3, K=4)",
        True,
    ),
    "CIStructure": (
        lambda: CIStructure(BasicSet(("x", "y", "z")), 5),
        {"base": BasicSet(("x", "y", "w")), "bits": 6},
        "CIStructure(base=BasicSet(x, y, z), bits=5)",
        True,
    ),
    "SetFunction": (
        lambda: SetFunction(XY, (0, Fraction(1, 2), 1, 1.5)),
        {"base": BasicSet(("x", "z")), "values": (0, 1, 1, 1)},
        "SetFunction(base=BasicSet(x, y), values=(0, Fraction(1, 2), 1, 1.5))",
        True,
    ),
    "CheckWitness": (
        lambda: CheckWitness(False, (1, 2, 0), Fraction(-1, 2)),
        {"ok": True, "violating_triplet": (1, 2, 4), "value": Fraction(-1, 3)},
        "CheckWitness(ok=False, violating_triplet=(1, 2, 0), value=Fraction(-1, 2))",
        True,
    ),
    "InferenceRule": (
        lambda: InferenceRule("R", (("X", "Y", "Z"),), (("X", "Y", ""),)),
        {
            "id": "T",
            "premises": (("X", "Z", "Y"),),
            "conclusions": (("Y", "X", ""),),
            "bidirectional": True,
        },
        "InferenceRule(id='R', premises=(('X', 'Y', 'Z'),), "
        "conclusions=(('X', 'Y', ''),), bidirectional=False)",
        True,
    ),
    "GroundRule": (
        lambda: GroundRule(3, 4),
        {"premise_bits": 1, "conclusion_bits": 8},
        "GroundRule(premise_bits=3, conclusion_bits=4)",
        True,
    ),
    "ConditionalIngletonRule": (
        lambda: ConditionalIngletonRule(1, PREMISES[:2]),
        {"id": 2, "premises": PREMISES[2:]},
        "ConditionalIngletonRule(id=1, premises=(('X', 'Y', ''), ('X', 'Y', 'Z')))",
        True,
    ),
    "InequalityReport": (
        lambda: InequalityReport(1, True, 0.5),
        {"rule_id": 2, "premises_hold": False, "ingleton_value": -0.5},
        "InequalityReport(rule_id=1, premises_hold=True, ingleton_value=0.5)",
        True,
    ),
    "DerivationSchema": (
        _schema,
        {
            "target": "I2",
            "rule": 2,
            "swapped": True,
            "mask": 3,
            "premises": PREMISES[::-1],
            "rule_premises": PREMISES[2:],
            "conclusion": ("X", "Y", "U"),
            "extension": (("X", "Y", ""), ("X", "Y", "Z")),
        },
        "DerivationSchema(target='I1', rule=1, swapped=False, mask=1, premises=(('X', "
        "'Y', ''), ('X', 'Y', 'Z'), ('Z', 'U', 'X'), ('Z', 'U', 'Y')), rule_premises="
        "(('X', 'Y', ''), ('X', 'Y', 'Z')), conclusion=('Z', 'U', ''), extension=None)",
        True,
    ),
    "CatalogEntry": (
        lambda: CatalogEntry("X", None, None, None, None, None, None, None, None),
        {
            "id": "Y",
            "distribution": catalog.get("EX1").distribution,
            "rank_function": catalog.get("HXY").rank_function,
            "claimed_statements": CIStructure(XY, 1),
            "claimed_orbit_size": 6,
            "entropy_scale_ln_of": 2,
            "claimed_matroid": True,
            "claimed_tight": False,
            "claimed_ingleton": "-1",
        },
        "CatalogEntry(id='X', distribution=None, rank_function=None, "
        "claimed_statements=None, claimed_orbit_size=None, entropy_scale_ln_of=None, "
        "claimed_matroid=None, claimed_tight=None, claimed_ingleton=None)",
        True,
    ),
    "VerificationReport": (
        lambda: _report(VerificationReport),
        {"id": "CON1", "checks": [("negative", False, "ingleton = 0.0")]},
        "VerificationReport(id='EX1', checks=[('claimed-statements', True, '')])",
        False,
    ),
    "CounterexampleReport": (
        lambda: _report(CounterexampleReport, -0.25),
        {"id": "EX2", "checks": [], "ingleton_value": 0.0},
        "CounterexampleReport(id='EX1', checks=[('claimed-statements', True, '')], "
        "ingleton_value=-0.25)",
        False,
    ),
    "CheckResult": (
        lambda: CheckResult("hxy", True, "ingleton=-1", 0.25),
        {"name": "catalog", "ok": False, "detail": "", "seconds": 0.5},
        "CheckResult(name='hxy', ok=True, detail='ingleton=-1', seconds=0.25)",
        False,
    ),
}
FROZEN = [name for name, record in RECORDS.items() if record[3]]
MUTABLE = [name for name, record in RECORDS.items() if not record[3]]
# The records that check or convert their arguments write their own
# __init__; the others take the shared one of sets.Record.
VALIDATING = ["BasicSet", "SampleSpace", "ElementaryTriplet", "CIStructure", "SetFunction"]
FIELD_ONLY = [name for name in RECORDS if name not in VALIDATING]


def _fields(name):
    make, changes, _, _ = RECORDS[name]
    record = make()
    return record, {f: getattr(record, f) for f in changes}


def test_fifteen_record_types():
    assert len(RECORDS) == 15


@pytest.mark.parametrize("name", RECORDS)
def test_equal_instances_compare_equal(name):
    make = RECORDS[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b


@pytest.mark.parametrize("name", FROZEN)
def test_hash_is_the_hash_of_the_field_tuple(name):
    record, fields = _fields(name)
    assert hash(record) == hash(RECORDS[name][0]()) == hash(tuple(fields.values()))


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(RECORDS[name][0]())


@pytest.mark.parametrize(
    "name, field",
    [(name, field) for name, record in RECORDS.items() for field in record[1]],
)
def test_changing_one_field_breaks_equality(name, field):
    record, fields = _fields(name)
    fields[field] = RECORDS[name][1][field]
    changed = type(record)(**fields)
    assert getattr(changed, field) == fields[field]
    assert changed != record and record != changed


def test_equality_needs_the_same_class():
    assert BasicSet(("x", "y")) != SampleSpace(("x", "y"), (2, 2))
    assert SampleSpace(("x", "y"), (2, 2)) != BasicSet(("x", "y"))
    assert VerificationReport("EX1", []) != CounterexampleReport("EX1", [], 0.0)
    assert CounterexampleReport("EX1", [], 0.0) != VerificationReport("EX1", [])
    assert GroundRule(3, 4) != (3, 4)
    assert ElementaryTriplet(0, 1, 0) != (0, 1, 0)


def test_triplet_ordering():
    table = canonical_triplets(4)
    assert list(table) == sorted(table, reverse=True)[::-1]
    a, b = ElementaryTriplet(0, 1, 4), ElementaryTriplet(0, 2, 8)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (a < a or a > a or b < a or b <= a)
    assert sorted([b, a, ElementaryTriplet(0, 1, 0)]) == [ElementaryTriplet(0, 1, 0), a, b]
    with pytest.raises(TypeError):
        a < (0, 1, 4)


def test_other_records_are_unordered():
    with pytest.raises(TypeError):
        GroundRule(1, 2) < GroundRule(3, 4)
    with pytest.raises(TypeError):
        CIStructure(XY, 0) <= CIStructure(XY, 1)


@pytest.mark.parametrize("name", FROZEN)
def test_assignment_raises(name):
    record, fields = _fields(name)
    for field, value in RECORDS[name][1].items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert {f: getattr(record, f) for f in fields} == fields


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_take_assignment(name):
    record = RECORDS[name][0]()
    for field, value in RECORDS[name][1].items():
        setattr(record, field, value)
    assert record == type(record)(**RECORDS[name][1])


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    assert repr(RECORDS[name][0]()) == RECORDS[name][2]


def test_default_reprs():
    assert repr(CheckWitness(True)) == "CheckWitness(ok=True, violating_triplet=None, value=0)"
    assert repr(InferenceRule("R", (), ())) == (
        "InferenceRule(id='R', premises=(), conclusions=(), bidirectional=False)"
    )


def test_cached_linear_values_are_not_a_field():
    h = SetFunction(XY, (0, Fraction(1, 2), 1, 1))
    assert h._linear_values == ((0, 1, 2, 2), 2)
    assert h == SetFunction(XY, (0, Fraction(1, 2), 1, 1))
    assert hash(h) == hash((XY, h.values))
    assert repr(h) == "SetFunction(base=BasicSet(x, y), values=(0, Fraction(1, 2), 1, 1))"


def test_verified_reports_do_not_share_their_check_lists():
    a, b = catalog.verify(catalog.get("HXY")), catalog.verify(catalog.get("HXY"))
    a.add("negative", True, "")
    assert a.checks[:-1] == b.checks and a.checks[-1] not in b.checks


def test_only_validating_records_write_an_init():
    written = [name for name in RECORDS if "__init__" in vars(type(RECORDS[name][0]()))]
    assert written == VALIDATING and len(FIELD_ONLY) == 10


@pytest.mark.parametrize("name", FIELD_ONLY)
def test_arguments_bind_in_declaration_order(name):
    record, fields = _fields(name)
    assert type(record)(*fields.values()) == record
    first, *rest = fields
    assert type(record)(fields[first], **{f: fields[f] for f in rest}) == record


@pytest.mark.parametrize("name", FIELD_ONLY)
def test_bad_arguments_raise_type_error(name):
    record, fields = _fields(name)
    cls, first = type(record), next(iter(fields))
    missing = {f: v for f, v in fields.items() if f != first}
    for args, kwargs in [
        ((), missing),
        ((), dict(fields, extra=1)),
        ((fields[first],), fields),
        ((*fields.values(), 1), {}),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize(
    "name, field",
    [(name, field) for name, record in RECORDS.items() for field in record[1]],
)
def test_replace_changes_one_field(name, field):
    record, fields = _fields(name)
    value = RECORDS[name][1][field]
    changed = replace(record, **{field: value})
    fields[field] = value
    assert type(changed) is type(record)
    assert changed == type(record)(**fields)
    assert {f: getattr(changed, f) for f in fields} == fields


@pytest.mark.parametrize("name", RECORDS)
def test_replace_without_changes_copies(name):
    record = RECORDS[name][0]()
    copy = replace(record)
    assert copy == record and copy is not record


def test_replace_rejects_an_unknown_field():
    with pytest.raises(TypeError):
        replace(GroundRule(3, 4), premises=1)


@pytest.mark.parametrize(
    "record, changes",
    [
        (BasicSet(("x", "y")), {"names": ("x",)}),
        (SampleSpace(("x",), (2,)), {"cardinalities": (0,)}),
        (ElementaryTriplet(0, 1, 4), {"j": 0}),
        (ElementaryTriplet(0, 1, 4), {"K": 1}),
        (CIStructure(XY, 1), {"bits": 2}),
        (SetFunction(XY, (0, 1, 1, 1)), {"values": (0, 1)}),
    ],
)
def test_replace_validates(record, changes):
    with pytest.raises(ValueError):
        replace(record, **changes)
