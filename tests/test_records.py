"""Value semantics of the library's record types: equality, hashing, repr,
immutability, ordering and replace, pinned for every one of them."""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import cinfer
from cinfer import catalog, checks
from cinfer.catalog import CatalogEntry
from cinfer.dist import SampleSpace
from cinfer.inequalities import (
    ConditionalIngletonRule,
    InequalityReport,
    verify_conditional_inequality,
    verify_counterexample,
)
from cinfer.inference import DerivationSchema, GroundRule, InferenceRule
from cinfer.sets import BasicSet, Record, Report, replace
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


# name -> (build a fresh instance, every field in declaration order with a
# different valid value, exact repr)
RECORDS = {
    "BasicSet": (
        lambda: BasicSet(("x", "y")),
        {"names": ("x", "z")},
        "BasicSet(x, y)",
    ),
    "SampleSpace": (
        lambda: SampleSpace(("x", "y"), (2, 3)),
        {"names": ("x", "z"), "cardinalities": (2, 2)},
        "SampleSpace(names=('x', 'y'), cardinalities=(2, 3))",
    ),
    "ElementaryTriplet": (
        lambda: ElementaryTriplet(1, 3, 4),
        {"i": 0, "j": 5, "K": 1},
        "ElementaryTriplet(i=1, j=3, K=4)",
    ),
    "CIStructure": (
        lambda: CIStructure(BasicSet(("x", "y", "z")), 5),
        {"base": BasicSet(("x", "y", "w")), "bits": 6},
        "CIStructure(base=BasicSet(x, y, z), bits=5)",
    ),
    "SetFunction": (
        lambda: SetFunction(XY, (0, Fraction(1, 2), 1, 1.5)),
        {"base": BasicSet(("x", "z")), "values": (0, 1, 1, 1)},
        "SetFunction(base=BasicSet(x, y), values=(0, Fraction(1, 2), 1, 1.5))",
    ),
    "CheckWitness": (
        lambda: CheckWitness(False, (1, 2, 0), Fraction(-1, 2)),
        {"ok": True, "violating_triplet": (1, 2, 4), "value": Fraction(-1, 3)},
        "CheckWitness(ok=False, violating_triplet=(1, 2, 0), value=Fraction(-1, 2))",
    ),
    "InferenceRule": (
        lambda: InferenceRule("R", (("X", "Y", "Z"),), (("X", "Y", ""),), False),
        {
            "id": "T",
            "premises": (("X", "Z", "Y"),),
            "conclusions": (("Y", "X", ""),),
            "bidirectional": True,
        },
        "InferenceRule(id='R', premises=(('X', 'Y', 'Z'),), "
        "conclusions=(('X', 'Y', ''),), bidirectional=False)",
    ),
    "GroundRule": (
        lambda: GroundRule(3, 4),
        {"premise_bits": 1, "conclusion_bits": 8},
        "GroundRule(premise_bits=3, conclusion_bits=4)",
    ),
    "ConditionalIngletonRule": (
        lambda: ConditionalIngletonRule(1, PREMISES[:2]),
        {"id": 2, "premises": PREMISES[2:]},
        "ConditionalIngletonRule(id=1, premises=(('X', 'Y', ''), ('X', 'Y', 'Z')))",
    ),
    "InequalityReport": (
        lambda: InequalityReport(1, True, 0.5),
        {"rule_id": 2, "premises_hold": False, "ingleton_value": -0.5},
        "InequalityReport(rule_id=1, premises_hold=True, ingleton_value=0.5)",
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
    ),
    "Report": (
        lambda: Report("EX1", (("claimed-statements", True, ""),), 0.25, -0.5),
        {
            "name": "hxy",
            "rows": (("hxy", False, "ingleton=0"),),
            "seconds": 0.5,
            "value": None,
        },
        "Report(name='EX1', rows=(('claimed-statements', True, ''),), seconds=0.25, "
        "value=-0.5)",
    ),
}
# The Report each producer builds (checks.run_check, catalog.verify,
# inequalities.verify_counterexample), keyed by the record type it returned
# before the three became one Report: build a fresh one, each of that
# type's fields mapped to the Report field that now holds it with a
# different valid value, exact repr.
PRODUCED = {
    "CheckResult": (
        lambda: Report("hxy", (("hxy", True, "ingleton=-1"),), 0.25, None),
        {
            "name": ("name", "catalog"),
            "ok": ("rows", (("hxy", False, "ingleton=-1"),)),
            "detail": ("rows", (("hxy", True, ""),)),
        },
        "Report(name='hxy', rows=(('hxy', True, 'ingleton=-1'),), seconds=0.25, value=None)",
    ),
    "VerificationReport": (
        lambda: Report("EX1", (("claimed-statements", True, ""),), 0.25, None),
        {
            "id": ("name", "CON1"),
            "checks": ("rows", (("negative", False, "ingleton = 0.0"),)),
        },
        "Report(name='EX1', rows=(('claimed-statements', True, ''),), seconds=0.25, "
        "value=None)",
    ),
    "CounterexampleReport": (
        lambda: Report("EX1", (("claimed-statements", True, ""),), 0.25, -0.25),
        {"id": ("name", "EX2"), "checks": ("rows", ())},
        "Report(name='EX1', rows=(('claimed-statements', True, ''),), seconds=0.25, "
        "value=-0.25)",
    ),
}
EVERY = {**RECORDS, **PRODUCED}
# The records that check or convert their arguments write their own
# __init__; the others take the shared one of sets.Record.
VALIDATING = ["BasicSet", "SampleSpace", "ElementaryTriplet", "CIStructure", "SetFunction"]
FIELD_ONLY = [name for name in RECORDS if name not in VALIDATING]
# (row, label): a field of a record type, or a former field of a produced report
CHANGES = [(name, label) for name, row in EVERY.items() for label in row[1]]


def _fields(name):
    record = EVERY[name][0]()
    return record, {f: getattr(record, f) for f in record._fields}


def _change(name, label):
    """The field to change for ``label`` and its new value."""
    change = EVERY[name][1][label]
    return change if name in PRODUCED else (label, change)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_has_a_row():
    for path in Path(cinfer.__file__).parent.glob("[!_]*.py"):
        importlib.import_module(f"cinfer.{path.stem}")
    assert sorted(cls.__qualname__ for cls in _subclasses(Record)) == sorted(RECORDS)
    assert len(RECORDS) == 13


@pytest.mark.parametrize("name", EVERY)
def test_equal_instances_compare_equal(name):
    make = EVERY[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b


@pytest.mark.parametrize("name", RECORDS)
def test_hash_is_the_hash_of_the_field_tuple(name):
    record, fields = _fields(name)
    assert hash(record) == hash(RECORDS[name][0]()) == hash(tuple(fields.values()))


@pytest.mark.parametrize("name, label", CHANGES)
def test_changing_one_field_breaks_equality(name, label):
    record, fields = _fields(name)
    field, fields[field] = _change(name, label)
    changed = type(record)(**fields)
    assert getattr(changed, field) == fields[field]
    assert changed != record and record != changed
    if hasattr(record, label):
        assert getattr(changed, label) != getattr(record, label)


def test_equality_needs_the_same_class():
    assert BasicSet(("x", "y")) != SampleSpace(("x", "y"), (2, 2))
    assert SampleSpace(("x", "y"), (2, 2)) != BasicSet(("x", "y"))
    assert Report("x", (), 0.0, None) != InequalityReport("x", (), 0.0)
    assert InequalityReport("x", (), 0.0) != Report("x", (), 0.0, None)
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


@pytest.mark.parametrize("name", RECORDS)
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


@pytest.mark.parametrize("name", EVERY)
def test_repr(name):
    assert repr(EVERY[name][0]()) == EVERY[name][2]


def test_cached_linear_values_are_not_a_field():
    h = SetFunction(XY, (0, Fraction(1, 2), 1, 1))
    assert h._linear_values == ((0, 1, 2, 2), 2)
    assert h == SetFunction(XY, (0, Fraction(1, 2), 1, 1))
    assert hash(h) == hash((XY, h.values))
    assert repr(h) == "SetFunction(base=BasicSet(x, y), values=(0, Fraction(1, 2), 1, 1))"


def test_report_reads_ok_detail_and_failures_off_its_rows():
    rows = (("a", True, "one"), ("b", False, "two"), ("c", False, "three"))
    report = Report("r", rows, 0.0, None)
    assert not report.ok and report.detail == "one; two; three"
    assert report.failures() == ["b: two", "c: three"]
    assert Report("r", rows[:1], 0.0, None).ok
    empty = Report("r", (), 0.0, None)
    assert empty.ok and empty.detail == "" and empty.failures() == []


def test_every_producer_returns_a_report():
    check = checks.run_check("hxy")
    assert type(check) is Report and check.value is None
    assert check.rows == ((check.name, check.ok, check.detail),) and check.ok
    for report in catalog.verify_all():
        assert type(report) is Report and report.value is None and report.rows
    counterexample = verify_counterexample(1)
    assert type(counterexample) is Report and counterexample.name == "EX1"
    assert counterexample.value < 0 and counterexample.seconds > 0
    verdict = verify_conditional_inequality(1)
    assert type(verdict) is Report and verdict.name == "rule 1" and len(verdict.rows) == 2


def test_only_validating_records_write_an_init():
    written = [name for name in RECORDS if "__init__" in vars(type(RECORDS[name][0]()))]
    assert written == VALIDATING and len(FIELD_ONLY) == 8


@pytest.mark.parametrize("name", FIELD_ONLY + list(PRODUCED))
def test_arguments_bind_in_declaration_order(name):
    record, fields = _fields(name)
    assert type(record)(*fields.values()) == record
    first, *rest = fields
    assert type(record)(fields[first], **{f: fields[f] for f in rest}) == record


@pytest.mark.parametrize("name", FIELD_ONLY + list(PRODUCED))
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


@pytest.mark.parametrize("name, label", CHANGES)
def test_replace_changes_one_field(name, label):
    record, fields = _fields(name)
    field, value = _change(name, label)
    changed = replace(record, **{field: value})
    fields[field] = value
    assert type(changed) is type(record)
    assert changed == type(record)(**fields)
    assert {f: getattr(changed, f) for f in fields} == fields


@pytest.mark.parametrize("name", EVERY)
def test_replace_without_changes_copies(name):
    record = EVERY[name][0]()
    copy = replace(record)
    assert copy == record and copy is not record


def test_replace_rejects_an_unknown_field():
    with pytest.raises(TypeError):
        replace(GroundRule(3, 4), premises=1)


@pytest.mark.parametrize(
    "record, changes",
    [
        (BasicSet(("x", "y")), {"names": ()}),
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
