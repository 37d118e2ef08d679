"""The value types' contract: equality, hashing, repr, immutability, pickling
and copying behave as frozen dataclasses did, for all eleven of them."""

import copy
import pickle

import pytest

from affmon.cli import Query, Report, _build_parser
from affmon.factorization import PHI_OUT_OF_RANGE, Factorization, Membership
from affmon.intlin import IDENTITY, UniMat2
from affmon.monoids import CanonicalMonoid2, CanonicalMonoid3
from affmon.oracle import FactorizationSet
from affmon.asymptotics import LimitLFT
from affmon.rationals import Vec2
from affmon.solve3 import Line

from conftest import CORRUPTED_ENDS, not_line

SWAP = UniMat2(0, 1, 1, 0)
M3 = CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY)
F302, F221 = Factorization((3, 0, 2)), Factorization((2, 2, 1))
IDENTITY_REPR = "UniMat2(m00=1, m01=0, m10=0, m11=1)"
M3_REPR = f"CanonicalMonoid3(a=1, b=2, c=3, d=5, transform={IDENTITY_REPR})"

# (class, fields in declaration order, the last field changed, the repr the
# dataclass printed for the fields)
CASES = [
    (Vec2, {"x": 3, "y": 4}, 5, "Vec2(x=3, y=4)"),
    (Factorization, {"mults": (3, 0, 2)}, (3, 0, 3), "Factorization(mults=(3, 0, 2))"),
    (
        Membership,
        {"member": True, "factorization": F302, "factorizations": (F302, F221), "reason": None},
        PHI_OUT_OF_RANGE,
        "Membership(member=True, factorization=Factorization(mults=(3, 0, 2)), "
        "factorizations=(Factorization(mults=(3, 0, 2)), Factorization(mults=(2, 2, 1))), "
        "reason=None)",
    ),
    (UniMat2, {"m00": 1, "m01": 2, "m10": 0, "m11": 1}, -1, "UniMat2(m00=1, m01=2, m10=0, m11=1)"),
    (
        CanonicalMonoid2,
        {"a": 3, "b": 2, "transform": IDENTITY},
        SWAP,
        f"CanonicalMonoid2(a=3, b=2, transform={IDENTITY_REPR})",
    ),
    (CanonicalMonoid3, {"a": 1, "b": 2, "c": 3, "d": 5, "transform": IDENTITY}, SWAP, M3_REPR),
    (
        FactorizationSet,
        {"target": Vec2(6, 13), "facts": (F302, F221)},
        (F302,),
        "FactorizationSet(target=Vec2(x=6, y=13), facts=(Factorization(mults=(3, 0, 2)), "
        "Factorization(mults=(2, 2, 1))))",
    ),
    (
        # Only its last field, the monoid, can change alone and leave the
        # ends a line: here by its transform.
        Line,
        {"target": Vec2(6, 13), "start": (3, 0, 2), "end": (1, 6, 0), "monoid": M3},
        CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=SWAP),
        f"Line(target=Vec2(x=6, y=13), start=(3, 0, 2), end=(1, 6, 0), monoid={M3_REPR})",
    ),
    (
        LimitLFT,
        {"p": -3, "q": 3, "r": -4, "t": 3, "tau": 1},
        -1,
        "LimitLFT(p=-3, q=3, r=-4, t=3, tau=1)",
    ),
    (
        Query,
        {
            "command": "check", "monoid_text": "0,1;1,2;3,5", "vector_text": "6,13",
            "k_max": None, "mode": "one", "check_minimality": True, "output": "human",
            "approx": False,
        },
        True,
        "Query(command='check', monoid_text='0,1;1,2;3,5', vector_text='6,13', k_max=None, "
        "mode='one', check_minimality=True, output='human', approx=False)",
    ),
    (
        Report,
        {
            "command": "check", "generators": M3.gens, "canonical": M3, "input": Vec2(6, 13),
            "result": {"member": True}, "solver_used": "dim3-line", "exit_code": 0,
        },
        1,
        "Report(command='check', generators=(Vec2(x=0, y=1), Vec2(x=1, y=2), Vec2(x=3, y=5)), "
        f"canonical={M3_REPR}, input=Vec2(x=6, y=13), result={{'member': True}}, "
        "solver_used='dim3-line', exit_code=0)",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def _changed(fields: dict, last) -> dict:
    return {**fields, list(fields)[-1]: last}


@pytest.mark.parametrize("cls, fields, last, text", CASES, ids=IDS)
class TestValueType:
    def test_equality_is_by_fields_within_one_class(self, cls, fields, last, text):
        value = cls(**fields)
        assert value == cls(**fields) and not value != cls(**fields)
        assert value != cls(**_changed(fields, last))
        assert value.__eq__(object()) is NotImplemented
        for other_cls, other_fields, *_ in CASES:
            if other_cls is not cls:
                assert value != other_cls(**other_fields)

    def test_hash_is_the_hash_of_the_field_tuple(self, cls, fields, last, text):
        value, values = cls(**fields), tuple(fields.values())
        try:
            expected = hash(values)
        except TypeError:  # a Report holds its result dict
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == expected
            assert hash(cls(**_changed(fields, last))) == hash(values[:-1] + (last,))

    def test_repr_names_every_field(self, cls, fields, last, text):
        assert repr(cls(**fields)) == text

    def test_fields_can_be_neither_set_nor_deleted(self, cls, fields, last, text):
        value = cls(**fields)
        name = list(fields)[-1]
        with pytest.raises(AttributeError):
            setattr(value, name, last)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert getattr(value, name) is fields[name] and value == cls(**fields)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, cls, fields, last, text, protocol):
        value = cls(**fields)
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy])
    def test_copies_are_equal(self, cls, fields, last, text, how):
        value = cls(**fields)
        dup = how(value)
        assert type(dup) is cls and dup == value and repr(dup) == text


@pytest.mark.parametrize("name", CORRUPTED_ENDS)
def test_a_line_is_checked_when_built(name):
    s, _, ends, _ = CORRUPTED_ENDS[name]
    with pytest.raises(ValueError, match=not_line(ends, s.x, s.y)):
        Line(s, ends[:3], ends[3:], M3)


def test_copies_keep_gens_and_line_consts():
    m = CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY)
    consts = m.line_consts
    for dup in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert dup == m and dup.line_consts == consts and dup.gens == m.gens


DEFAULTS = {"k_max": None, "mode": "one", "check_minimality": True, "output": "human", "approx": False}


@pytest.mark.parametrize(
    "argv, changed",
    [
        (["check"], {}),
        (["factorize"], {}),
        (["factorize", "--all"], {"mode": "all"}),
        (["elasticity", "--json", "--approx"], {"output": "json", "approx": True}),
        (["limit", "--no-minimality-check"], {"check_minimality": False}),
        (["scan", "--k-max", "3"], {"k_max": 3, "output": "csv"}),
        (["oracle"], {}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_query_from_parsed_arguments_keeps_every_default(argv, changed):
    command, *flags = argv
    namespace = _build_parser().parse_args([command, "0,1;1,2;3,5", "6,13", *flags])
    query = Query(**vars(namespace))
    expected = {"command": command, "monoid_text": "0,1;1,2;3,5", "vector_text": "6,13",
                **DEFAULTS, **changed}
    assert {name: getattr(query, name) for name in expected} == expected
    assert query == Query(**expected)


def test_query_defaults():
    query = Query("check", "0,1;1,2;3,5", "6,13")
    assert {name: getattr(query, name) for name in DEFAULTS} == DEFAULTS
