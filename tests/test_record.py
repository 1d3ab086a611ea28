"""The frozen record base keeps the dataclass behaviours the package relies on.

Every value type of the package is a ``hookw._record.Record``: construction
by position or keyword with defaults, TypeError on a bad call,
``__post_init__`` on construction and on ``replace``, equality and hashing
within one class, refusal of assignment and deletion, ``cached_property``,
pickle and copy, and the dataclass repr, pinned here as the strings the
``@dataclass(frozen=True)`` classes printed.

The exact formulas ``MultiPoly``, ``RatFunc`` and ``UniPoly`` share the
``Frozen`` base: they too pickle and copy, and unpickling runs no
canonicalization or gcd.  No other class of the package guards its
attributes.
"""

import copy
import importlib
import pickle
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import hookw
from hookw import catalog as K
from hookw import curves as C
from hookw import exact as E
from hookw import liedata as L
from hookw import spectra as S
from hookw._record import Frozen, FrozenRecordError, Record, replace

F = Fraction

RECORD_TYPES = (
    K.TargetRule, K.CoincidenceEntry, K.CoincidenceOutcome, K.OspOspPair, K.OspOspReport,
    K.RationalityWitness, K.GTFactor,
    C.TruncationCurve, C.CurvePoint, C.IdentityCheck, C.Intersection, C.IntersectionReport,
    L.AlgebraDesc, L._FamilyData, L.CaseDescription, L.HookFamily,
    S.RootSystemData,
)


def point():
    return C.Intersection(F(1, 2), F(3), F(-2, 5), F(7), False)


def test_every_value_type_is_a_record():
    assert len(set(RECORD_TYPES)) == 17
    for cls in RECORD_TYPES:
        assert issubclass(cls, Record)
        assert not hasattr(cls, "__dataclass_fields__")


class TestConstruction:
    def test_position_and_keyword_agree(self):
        by_keyword = C.Intersection(psi1=F(1, 2), psi2=F(3), c=F(-2, 5), lam=F(7), degenerate=False)
        mixed = C.Intersection(F(1, 2), F(3), F(-2, 5), lam=F(7), degenerate=False)
        assert point() == by_keyword == mixed
        assert (point().psi1, point().lam, point().degenerate) == (F(1, 2), F(7), False)

    def test_defaults(self):
        a = L.AlgebraDesc("sp", 4)
        assert (a.kind, a.size, a.odd, a.even, a.flag) == ("sp", 4, 0, 0, "")
        assert L.AlgebraDesc(kind="sp", size=4) == a
        e = K.all_entries()[0]
        bare = K.CoincidenceEntry(e.source, e.target, e.item, e.psi, e.s)
        assert bare.exclusions == ()
        out = K.CoincidenceOutcome(e, 1, 2, 3, "pass")
        assert (out.reason, out.psi1, out.psi2, out.source_values, out.target_values,
                out.degenerate) == (None, None, None, None, None, False)
        assert out.passed

    @pytest.mark.parametrize("call, message", [
        (lambda: C.Intersection(F(1), F(2), F(3), F(4)), "missing"),
        (lambda: L.AlgebraDesc(size=3), "missing"),
        (lambda: L.AlgebraDesc(kind="sp", size=2, rank=1), "unexpected"),
        (lambda: L.AlgebraDesc("sp", kind="sp"), "multiple values"),
        (lambda: L.AlgebraDesc("sp", 2, 0, 0, "", 7), "positional"),
        (lambda: C.CurvePoint(c=1, lam=2, mu=3), "unexpected"),
    ])
    def test_bad_calls_raise_type_error(self, call, message):
        with pytest.raises(TypeError, match=message):
            call()

    def test_post_init_runs_on_construction_and_replace(self):
        with pytest.raises(ValueError):
            L.AlgebraDesc("so_odd", 4)
        with pytest.raises(ValueError):
            L.AlgebraDesc(kind="so_odd", size=4)
        with pytest.raises(ValueError):
            replace(L.AlgebraDesc.so(3), size=4)
        assert replace(L.AlgebraDesc.so(3), size=5) == L.AlgebraDesc.so(5)


class TestReplace:
    def test_changes_only_the_named_fields(self):
        p = point()
        q = replace(p, lam=F(8))
        assert (q.psi1, q.psi2, q.c, q.lam, q.degenerate) == (p.psi1, p.psi2, p.c, F(8), False)
        assert p.lam == F(7)
        assert replace(p) == p and replace(p) is not p

    def test_unknown_field(self):
        with pytest.raises(TypeError, match="unexpected"):
            replace(point(), mu=1)

    def test_does_not_copy_cached_values(self):
        e = K.all_entries()[0]
        e._cell_forms
        assert "_cell_forms" not in vars(replace(e, s=e.s + 1))


class TestEqualityAndHash:
    def test_equal_records_hash_equal(self):
        assert point() == point() and point() is not point()
        assert hash(point()) == hash(point())
        assert len({point(), point(), replace(point(), degenerate=True)}) == 2
        assert L.AlgebraDesc.osp(1, 4, "C") != L.AlgebraDesc.osp(1, 4, "B")

    def test_equality_holds_only_within_a_class(self):
        class Twin(Record):
            c: object
            lam: object

        p, twin = C.CurvePoint(1, 2), Twin(1, 2)
        assert p != twin and twin != p
        assert p.__eq__(twin) is NotImplemented
        assert p != (1, 2)

    def test_cached_values_do_not_enter_equality(self):
        e = K.all_entries()[0]
        fresh = replace(e)
        e._cell_forms
        assert e == fresh and hash(e) == hash(fresh)


class TestFrozen:
    @pytest.mark.parametrize("name", ["lam", "extra"])
    def test_assignment_and_deletion_raise(self, name):
        p = point()
        with pytest.raises(AttributeError):
            setattr(p, name, F(0))
        with pytest.raises(FrozenRecordError):
            delattr(p, name)
        assert p == point()


class TestOneFrozenBase:
    def test_no_other_class_guards_its_attributes(self):
        guards = []
        for info in pkgutil.iter_modules(hookw.__path__):
            module = importlib.import_module(f"hookw.{info.name}")
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == module.__name__:
                    guards += [(value.__qualname__, name) for name in ("__setattr__", "__delattr__")
                               if name in vars(value)]
        assert guards == [("Frozen", "__setattr__"), ("Frozen", "__delattr__")]

    def test_exact_formulas_are_frozen(self):
        for cls in (E.MultiPoly, E.RatFunc, E.UniPoly):
            assert issubclass(cls, Frozen) and not issubclass(cls, Record)
            assert cls._record_fields == cls.__slots__
        with pytest.raises(FrozenRecordError):
            E.RatFunc.var("psi").num = E.MultiPoly.one()
        with pytest.raises(FrozenRecordError):
            del E.UniPoly("psi", [1]).var

    def test_no_module_imports_pickle_or_copy(self):
        pattern = re.compile(r"^\s*(import|from)\s+(pickle|copy)\b", re.MULTILINE)
        for path in Path(hookw.__file__).parent.glob("*.py"):
            assert not pattern.search(path.read_text()), path.name


class TestCachedProperty:
    def test_curve_lists_are_cached(self):
        curve = C.phi_family("2B", 0, 1)
        lists = curve._psi_lists
        assert curve._psi_lists is lists
        assert "_psi_lists" in vars(curve)

    def test_entry_forms_are_cached(self):
        e = replace(K.all_entries()[0])
        assert "_cell_forms" not in vars(e)
        forms = e._cell_forms
        assert e._cell_forms is forms


class TestPickleAndCopy:
    @pytest.mark.parametrize("record", [
        point(),
        L.AlgebraDesc.osp(1, 4, "C"),
        K.gelfand_tsetlin_factors("D", 1, 3)[1],
        K.rational_points(L.HookFamily.from_tag("2B", 0, 1))[0],
        K.verify_osp_osp(1, 2),
        E.parse_ratfunc("psi^2 - 3/2*n*m").num,
        E.parse_ratfunc("(psi + 1)/(2*psi - m)"),
        E.UniPoly("psi", [F(1, 2), 0, F(-2, 3)]),
        L.HookFamily.from_tag("2B", 1, 2),
        K.all_entries()[0],
        K.TARGETS["sp"],
        C.phi_family("2B", 1, 2),
        C.phi_family("2B", E.RatFunc.var("n"), E.RatFunc.var("m")),
        C.known_point_2B_sp(1, 2, 3),
    ], ids=lambda r: type(r).__name__)
    def test_round_trip(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert clone == record and type(clone) is type(record)
            assert repr(clone) == repr(record)
            assert hash(clone) == hash(record)
            if hasattr(record, "to_text"):
                assert clone.to_text() == record.to_text()
            with pytest.raises(AttributeError):
                clone.extra = 1

    def test_unpickling_runs_no_arithmetic(self, monkeypatch):
        entries = K.all_entries()
        data = pickle.dumps(entries)

        def refuse(*args):
            raise AssertionError("unpickling ran exact arithmetic")

        monkeypatch.setattr(E, "_ratfunc_canonical", refuse)
        monkeypatch.setattr(E, "_int_poly_gcd", refuse)
        assert pickle.loads(data) == entries

    def test_copy_keeps_cached_values(self):
        e = replace(K.all_entries()[0])
        forms = e._cell_forms
        clone = copy.copy(e)
        assert clone == e and clone._cell_forms is forms


class TestRepr:
    def test_pinned_dataclass_reprs(self):
        assert repr(point()) == (
            "Intersection(psi1=Fraction(1, 2), psi2=Fraction(3, 1), c=Fraction(-2, 5), "
            "lam=Fraction(7, 1), degenerate=False)"
        )
        assert repr(C.IdentityCheck("x", True, None, None)) == (
            "IdentityCheck(name='x', holds=True, c_difference=None, lambda_difference=None)"
        )
        assert repr(L.AlgebraDesc.osp(1, 4, "C")) == (
            "AlgebraDesc(kind='osp', size=0, odd=1, even=4, flag='C')"
        )
        assert repr(L.AlgebraDesc("sp", 4)) == (
            "AlgebraDesc(kind='sp', size=4, odd=0, even=0, flag='')"
        )
        assert repr(K.gelfand_tsetlin_factors("D", 1, 3)) == (
            "(GTFactor(series='D', kind='H', index=0, k=3, algebra=None, orbifold=False, "
            "levels=(), tag=None), GTFactor(series='D', kind='D', index=1, k=3, "
            "algebra='osp(1|2)', orbifold=True, levels=(Fraction(-5, 6),), tag='gt-BD-odd'), "
            "GTFactor(series='D', kind='E', index=1, k=3, algebra='osp(1|2)', orbifold=True, "
            "levels=(Fraction(-11, 10),), tag='gt-BD-odd'))"
        )
        assert repr(K.gelfand_tsetlin_factors("C", 1, 2)) == (
            "(GTFactor(series='C', kind='pair', index=1, k=2, algebra='sp(4)', orbifold=False, "
            "levels=(Fraction(-17, 7), Fraction(-18, 7)), tag='gt-C'),)"
        )
