"""Golden behaviour of the package's immutable value classes.

``LocalScalar``, ``HermiteForm``, ``RoundtripReport``, ``FuzzConfig``,
``CheckResult`` and ``FuzzReport`` are frozen records: the
expected reprs, equalities, hashes, validation messages and copy/pickle
round trips below were captured from their frozen-dataclass versions,
and pin that the plain classes behave the same.  ``ExponentMatrix``,
``LocalMatrix``, ``ApartmentVertex``, ``Apartment`` and
``GeneralSplitOrder`` are slotted classes on the same frozen base, and
refuse assignment and round-trip through pickle and copy alike.
"""

import copy
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import splitorders
from splitorders.apartments import Apartment, GeneralSplitOrder, general_membership
from splitorders.correspondence import ApartmentVertex, RoundtripReport, verify_roundtrip
from splitorders.dvr import HermiteForm, LocalMatrix, LocalScalar, hermite_normal_form
from splitorders.exponent import ExponentMatrix
from splitorders.fuzz import CheckResult, FuzzConfig, FuzzReport, run_fuzz

BOUND = 3317044064679887385961981


def _form():
    return hermite_normal_form(LocalMatrix([[2, 1], [4, 6]], 2))[0]


def _report():
    return verify_roundtrip(ExponentMatrix([[0, 1], [0, 0]]))


def _fuzz_report():
    return FuzzReport(5, (CheckResult("a", 2, None), CheckResult("b", 1, {"n": 2})))


# (factory, expected repr, field names)
INSTANCES = {
    "scalar": (
        lambda: LocalScalar(Fraction(3, 4), 2),
        "LocalScalar(value=Fraction(3, 4), prime=2)",
        ("value", "prime"),
    ),
    "scalar-str": (
        lambda: LocalScalar("5/6", prime=3),
        "LocalScalar(value=Fraction(5, 6), prime=3)",
        ("value", "prime"),
    ),
    "scalar-int": (
        lambda: LocalScalar(value=-12, prime=5),
        "LocalScalar(value=Fraction(-12, 1), prime=5)",
        ("value", "prime"),
    ),
    "hermite": (
        lambda: HermiteForm(LocalMatrix([[2, 1], [0, 1]], 2), (1, 0)),
        "HermiteForm(matrix=LocalMatrix([[2, 1], [0, 1]], prime=2), exponents=(1, 0))",
        ("matrix", "exponents"),
    ),
    "hermite-kw": (
        lambda: HermiteForm(matrix=LocalMatrix([["1/2", 0], [0, 1]], 2), exponents=(-1, 0)),
        "HermiteForm(matrix=LocalMatrix([[1/2, 0], [0, 1]], prime=2), exponents=(-1, 0))",
        ("matrix", "exponents"),
    ),
    "roundtrip": (
        _report,
        "RoundtripReport(nu=ExponentMatrix([[0, 1], [0, 0]]), "
        "hull=ExponentMatrix([[0, 1], [0, 0]]), "
        "vertices=(ApartmentVertex([0, -1]), ApartmentVertex([0, 0])), "
        "hull_fixed=True, input_reduced=True, reduced_fixed=True)",
        ("nu", "hull", "vertices", "hull_fixed", "input_reduced", "reduced_fixed"),
    ),
    "roundtrip-3": (
        lambda: verify_roundtrip(ExponentMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])),
        "RoundtripReport(nu=ExponentMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), "
        "hull=ExponentMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), "
        "vertices=(ApartmentVertex([0, 0, 0]),), "
        "hull_fixed=True, input_reduced=False, reduced_fixed=True)",
        ("nu", "hull", "vertices", "hull_fixed", "input_reduced", "reduced_fixed"),
    ),
    "fuzz-config": (
        FuzzConfig,
        "FuzzConfig(n_min=2, n_max=4, entry_min=-3, entry_max=5, trials=10000, "
        "seed=0, prime=2)",
        ("n_min", "n_max", "entry_min", "entry_max", "trials", "seed", "prime"),
    ),
    "fuzz-config-positional": (
        lambda: FuzzConfig(3, 5, -1, 2, 10, 7, 3),
        "FuzzConfig(n_min=3, n_max=5, entry_min=-1, entry_max=2, trials=10, "
        "seed=7, prime=3)",
        ("n_min", "n_max", "entry_min", "entry_max", "trials", "seed", "prime"),
    ),
    "fuzz-config-keyword": (
        lambda: FuzzConfig(trials=60, seed=9),
        "FuzzConfig(n_min=2, n_max=4, entry_min=-3, entry_max=5, trials=60, "
        "seed=9, prime=2)",
        ("n_min", "n_max", "entry_min", "entry_max", "trials", "seed", "prime"),
    ),
    "check-result": (
        lambda: CheckResult("hull-path-scan", 3, None),
        "CheckResult(name='hull-path-scan', trials=3, failure=None)",
        ("name", "trials", "failure"),
    ),
    "check-result-failure": (
        lambda: CheckResult(
            name="ring-closure", trials=1, failure={"check": "ring-closure", "note": "x"}
        ),
        "CheckResult(name='ring-closure', trials=1, "
        "failure={'check': 'ring-closure', 'note': 'x'})",
        ("name", "trials", "failure"),
    ),
    "fuzz-report": (
        _fuzz_report,
        "FuzzReport(seed=5, results=(CheckResult(name='a', trials=2, failure=None), "
        "CheckResult(name='b', trials=1, failure={'n': 2})))",
        ("seed", "results"),
    ),
}

UNHASHABLE = {"check-result-failure", "fuzz-report"}

GAMMA = "LocalMatrix([[1, 2], [0, 3]], prime=2)"


def _apartment():
    return Apartment(LocalMatrix([[1, 2], [0, 3]], 2))


# the slotted value classes: (factory, expected repr, slot names)
SLOTTED = {
    "exponent-matrix": (
        lambda: ExponentMatrix([[0, 1], [-1, 0]]),
        "ExponentMatrix([[0, 1], [-1, 0]])",
        ("n", "entries", "_closure"),
    ),
    "local-matrix": (
        lambda: LocalMatrix([["1/2", 0], [3, 4]], 2),
        "LocalMatrix([[1/2, 0], [3, 4]], prime=2)",
        ("n", "prime", "nums", "den"),
    ),
    "vertex": (lambda: ApartmentVertex([1, 3, 0]), "ApartmentVertex([0, 2, -1])", ("m",)),
    "apartment": (_apartment, f"Apartment({GAMMA})", ("gamma", "_gamma_inv")),
    "general-split-order": (
        lambda: GeneralSplitOrder(_apartment(), ExponentMatrix([[0, 1], [0, 0]])),
        f"GeneralSplitOrder(Apartment({GAMMA}), ExponentMatrix([[0, 1], [0, 0]]))",
        ("apartment", "nu"),
    ),
}


@pytest.fixture(params=sorted(INSTANCES))
def case(request):
    return request.param, *INSTANCES[request.param]


@pytest.fixture(params=sorted(INSTANCES) + sorted(SLOTTED))
def frozen(request):
    return request.param, *{**INSTANCES, **SLOTTED}[request.param]


def test_repr(case):
    _, make, expected, _ = case
    assert repr(make()) == expected


def test_fields_in_order(case):
    _, make, _, fields = case
    obj = make()
    assert type(obj).__match_args__ == fields
    assert list(vars(obj)) == list(fields)


def test_equal_instances_and_hash(case):
    name, make, _, fields = case
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


def test_other_types_are_not_implemented(case):
    _, make, _, fields = case
    obj = make()
    plain = tuple(getattr(obj, f) for f in fields)
    assert obj.__eq__(plain) is NotImplemented
    assert obj.__eq__(object()) is NotImplemented
    assert obj != plain
    assert obj != None  # noqa: E711


def test_unequal_instances():
    assert LocalScalar(1, 2) != LocalScalar(1, 3)
    assert LocalScalar(1, 2) != LocalScalar(2, 2)
    assert LocalScalar("2/4", 2) == LocalScalar(Fraction(1, 2), 2)
    assert hash(LocalScalar("2/4", 2)) == hash(LocalScalar(Fraction(1, 2), 2))
    assert HermiteForm(LocalMatrix([[2, 1], [0, 1]], 2), (1, 0)) != HermiteForm(
        LocalMatrix([[2, 1], [0, 1]], 2), (1, 1)
    )
    assert _form() == HermiteForm(_form().matrix, _form().exponents)
    report = _report()
    assert report != RoundtripReport(
        report.nu, report.hull, report.vertices[:1], True, True, True
    )
    assert FuzzConfig() == FuzzConfig(2, 4, -3, 5, 10000, 0, 2)
    assert FuzzConfig() != FuzzConfig(seed=1)
    assert hash(FuzzConfig()) != hash(FuzzConfig(seed=1))
    assert CheckResult("a", 1, None) != CheckResult("a", 2, None)
    assert CheckResult("a", 1, {"n": 2}) == CheckResult("a", 1, {"n": 2})
    assert _fuzz_report() != FuzzReport(6, _fuzz_report().results)


def test_defaults_and_stored_values():
    assert FuzzConfig(prime=3).prime == 3
    s = LocalScalar(6, 3)
    assert type(s.value) is Fraction and s.value == 6 and s.valuation() == 1
    assert RoundtripReport(*[getattr(_report(), f) for f in INSTANCES["roundtrip"][2]]) == (
        _report()
    )
    with pytest.raises(TypeError):
        LocalScalar(1)
    with pytest.raises(TypeError):
        HermiteForm(LocalMatrix.identity(2, 2))
    with pytest.raises(TypeError):
        CheckResult("a", 1)
    with pytest.raises(TypeError):
        FuzzReport(1)
    with pytest.raises(TypeError):
        FuzzConfig(unknown=1)


def test_assignment_and_deletion_raise(frozen):
    _, make, _, fields = frozen
    obj = make()
    before = repr(obj)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{fields[0]}'"):
        setattr(obj, fields[0], 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        obj.other = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{fields[-1]}'"):
        delattr(obj, fields[-1])
    assert repr(obj) == before


def test_pickle_and_copy_round_trips(frozen):
    _, make, expected, _ = frozen
    obj = make()
    for clone in (
        pickle.loads(pickle.dumps(obj)),
        pickle.loads(pickle.dumps(obj, protocol=2)),
        copy.copy(obj),
        copy.deepcopy(obj),
    ):
        assert type(clone) is type(obj)
        assert clone == obj
        assert repr(clone) == expected
    with pytest.raises(AttributeError):
        copy.copy(obj).other = 1


def test_split_order_round_trips_after_membership():
    """Membership leaves nothing on the order: after membership calls it
    pickles at protocols 2 and up, copies and deep-copies to an equal
    order that answers alike and holds only its two frozen fields."""
    S = GeneralSplitOrder(_apartment(), ExponentMatrix([[0, 1], [0, 0]]))
    elements = [
        LocalMatrix(rows, 2)
        for rows in ([[1, 0], [0, 1]], [[1, "1/2"], [0, 1]], [[0, 1], [0, 0]], [[0, 2], [0, 0]])
    ]
    answers = [general_membership(S, A) for A in elements]
    assert answers == [True, False, False, True]
    clones = [pickle.loads(pickle.dumps(S, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for clone in [*clones, copy.copy(S), copy.deepcopy(S)]:
        assert type(clone) is GeneralSplitOrder
        assert clone == S
        assert [general_membership(clone, A) for A in elements] == answers
        assert not hasattr(clone, "__dict__")
        assert type(clone).__slots__ == ("apartment", "nu")
    assert copy.deepcopy(S).apartment is not S.apartment


@pytest.mark.parametrize("protocol", [0, 1])
def test_slotted_classes_refuse_pickle_protocols_0_and_1(protocol):
    """Pickle reaches ``Frozen.__setstate__`` for a slotted class only at
    protocol 2 and up.  ``ExponentMatrix`` lost protocols 0 and 1 with its
    ``__reduce__``; the other four slotted classes never had them."""
    for make, _, _ in SLOTTED.values():
        with pytest.raises(TypeError, match="__slots__"):
            pickle.dumps(make(), protocol)


def test_slotted_classes_keep_no_instance_dict():
    for make, _, slots in SLOTTED.values():
        obj = make()
        assert not hasattr(obj, "__dict__")
        assert type(obj).__slots__ == slots


def test_one_refusal_in_the_package():
    source = "".join(p.read_text() for p in Path(splitorders.__file__).parent.glob("*.py"))
    assert source.count("def __setattr__") == source.count("def __delattr__") == 1


def test_a_frame_cannot_change_under_its_inverse():
    """``ap.gamma.nums = ...`` left ``to_standard`` on the old inverse."""
    ap = _apartment()
    with pytest.raises(AttributeError, match="cannot assign to field 'nums'"):
        ap.gamma.nums = ((2, 0), (0, 1))
    A = LocalMatrix([[1, 1], [0, 1]], 2)
    assert ap.from_standard(ap.to_standard(A)) == A
    assert ap._gamma_inv == ap.gamma.inverse()


def test_a_set_keeps_finding_a_vertex():
    """``v.m = (0, 5, 'x')`` stored a string, and a set holding v lost it."""
    v = ApartmentVertex([0, 1, 2])
    held = {v}
    with pytest.raises(AttributeError, match="cannot assign to field 'm'"):
        v.m = (0, 5, "x")
    assert v.m == (0, 1, 2) and v in held


@pytest.mark.parametrize(
    "value, prime, error, message",
    [
        (1, 4, ValueError, "4 is not prime"),
        (1, 1, ValueError, "prime must be >= 2, got 1"),
        (1, BOUND, ValueError, f"prime must be below {BOUND}, got {BOUND}"),
        ("x", 4, ValueError, "Invalid literal for Fraction: 'x'"),
    ],
)
def test_local_scalar_validation(value, prime, error, message):
    with pytest.raises(error) as info:
        LocalScalar(value, prime)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 0}, "trial count must be >= 1"),
        ({"trials": -5}, "trial count must be >= 1"),
        ({"entry_min": 3, "entry_max": -3}, "entry range is empty"),
        ({"n_min": 1}, "need 2 <= n_min <= n_max"),
        ({"n_min": 3, "n_max": 2}, "need 2 <= n_min <= n_max"),
        ({"n_max": 7}, "dimensions above 6 are not supported"),
        ({"prime": 4}, "4 is not prime"),
        ({"prime": 1}, "prime must be >= 2, got 1"),
        ({"prime": BOUND}, f"prime must be below {BOUND}, got {BOUND}"),
        # the first failing field is reported
        (
            {"trials": 0, "entry_min": 3, "entry_max": -3, "n_max": 9, "prime": 4},
            "trial count must be >= 1",
        ),
        ({"entry_min": 3, "entry_max": -3, "n_max": 9, "prime": 4}, "entry range is empty"),
        ({"n_max": 9, "prime": 4}, "dimensions above 6 are not supported"),
        ({"n_min": 1, "prime": 4}, "need 2 <= n_min <= n_max"),
        ({"n_min": 8, "n_max": 7, "prime": 9}, "need 2 <= n_min <= n_max"),
        (
            {"entry_max": 50},
            "entry range too wide: a region box at n = 4 can have 1030301 cells, "
            "more than 1000000",
        ),
        ({"entry_max": 50, "prime": 4}, "4 is not prime"),
        ({"entry_max": 50, "n_max": 7}, "dimensions above 6 are not supported"),
    ],
)
def test_fuzz_config_validation(kwargs, message):
    with pytest.raises(ValueError) as info:
        FuzzConfig(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"prime": 2.5}, ValueError, "prime 2.5 is not an integer"),
        ({"prime": "3"}, TypeError, "prime '3' is not an integer"),
        ({"prime": True}, TypeError, "prime True is not an integer"),
        ({"trials": 2.5}, ValueError, "trials 2.5 is not an integer"),
        ({"trials": True}, TypeError, "trials True is not an integer"),
        ({"seed": 1.5}, ValueError, "seed 1.5 is not an integer"),
        ({"entry_max": 2.5}, ValueError, "entry_max 2.5 is not an integer"),
        ({"entry_min": "1"}, TypeError, "entry_min '1' is not an integer"),
        ({"n_max": 3.5}, ValueError, "n_max 3.5 is not an integer"),
        ({"n_min": False}, TypeError, "n_min False is not an integer"),
        ({"seed": math.nan}, ValueError, "seed nan is not an integer"),
    ],
)
def test_fuzz_config_refuses_non_integer_fields(kwargs, error, message):
    """Each of these was stored as given and later crashed, or ran one trial."""
    with pytest.raises(error) as info:
        FuzzConfig(**kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


def test_fuzz_config_stores_ints():
    config = FuzzConfig(3.0, 4.0, -1.0, 2.0, 30.0, 7.0, 3.0)
    assert config == FuzzConfig(3, 4, -1, 2, 30, 7, 3)
    assert all(type(getattr(config, name)) is int for name in FuzzConfig.__match_args__)
    assert run_fuzz(config) == run_fuzz(FuzzConfig(3, 4, -1, 2, 30, 7, 3))


def test_roundtrip_report_properties_survive_pickle():
    report = pickle.loads(pickle.dumps(_report()))
    assert report.ok
    assert report.vertices == (ApartmentVertex([0, -1]), ApartmentVertex([0, 0]))
    fuzz_report = copy.copy(_fuzz_report())
    assert not fuzz_report.ok
    assert fuzz_report.failures == [{"n": 2}]
    assert fuzz_report.summary_lines() == ["ok   a (2 trials)", "FAIL b (1 trials)"]
